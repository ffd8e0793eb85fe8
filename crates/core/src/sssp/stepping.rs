//! ρ-stepping — the paper's SSSP (§2.2): the *stepping algorithm
//! framework* (Dong, Gu & Sun, PPoPP'21) with VGC and hash bags.
//!
//! The frontier (vertices whose tentative distance improved and whose
//! out-edges are pending) lives in a hash bag. Each step:
//!
//! 1. extract the bag; estimate a threshold θ — approximately the ρ-th
//!    smallest tentative distance in the frontier (by sampling, as in the
//!    original);
//! 2. vertices at distance ≤ θ are *processed*: each runs a **VGC local
//!    search** relaxing edges multi-hop (a relaxation whose result stays
//!    ≤ θ keeps expanding in-task; one that lands beyond θ just re-enters
//!    the bag);
//! 3. the rest are re-inserted for a later step.
//!
//! Processing near vertices first bounds wasted relaxations (like
//! Δ-stepping), while VGC keeps the number of global rounds far below the
//! `Ω(D)`-round baselines on large-diameter graphs.

use super::INF;
use crate::common::{AlgoStats, CancelToken, Cancelled, SsspResult, VgcConfig};
use crate::engine::{NoopObserver, RoundDriver, RoundObserver};
use crate::vgc::{frontier_chunk_len, local_search_weighted_multi};
use crate::workspace::TraversalWorkspace;
use pasgal_collections::atomic_array::AtomicU64Array;
use pasgal_collections::hashbag::HashBag;
use pasgal_graph::storage::GraphStorage;
use pasgal_graph::VertexId;
use pasgal_parlay::gran::{par_for, par_slices};
use pasgal_parlay::pack::filter_map_index_into;
use pasgal_parlay::rng::SplitRng;

/// Tuning for ρ-stepping.
#[derive(Debug, Clone, Copy)]
pub struct RhoConfig {
    /// Target number of vertices processed per step (the ρ parameter).
    pub rho: usize,
    /// VGC budget for the per-vertex local searches.
    pub vgc: VgcConfig,
}

impl Default for RhoConfig {
    fn default() -> Self {
        // Middle of the rounds-vs-wasted-relaxations trade-off (see the
        // ablation binary): small ρ/τ bound the work wasted on provisional
        // distances, large ρ/τ collapse rounds. 4096/256 is a good default
        // across the suite; road-like graphs favor smaller values.
        Self {
            rho: 4096,
            vgc: VgcConfig::with_tau(256),
        }
    }
}

/// ρ-stepping SSSP from `src`.
pub fn sssp_rho_stepping<S: GraphStorage>(g: &S, src: VertexId, cfg: &RhoConfig) -> SsspResult {
    sssp_rho_stepping_observed(g, src, cfg, &CancelToken::new(), &NoopObserver)
        .expect("fresh token cannot cancel")
}

/// Cancellable [`sssp_rho_stepping`] with per-round observation: one
/// [`crate::engine::RoundEvent`] per step of the stepping framework. The
/// token is polled once per step and once per frontier task; a fired
/// token drains the bag and returns `Err(Cancelled)` within one step.
pub fn sssp_rho_stepping_observed<S: GraphStorage>(
    g: &S,
    src: VertexId,
    cfg: &RhoConfig,
    cancel: &CancelToken,
    observer: &dyn RoundObserver,
) -> Result<SsspResult, Cancelled> {
    let mut ws = TraversalWorkspace::new();
    let stats = sssp_rho_stepping_observed_in(g, src, cfg, cancel, observer, &mut ws)?;
    Ok(SsspResult {
        dist: ws.take_weighted_dist(),
        stats,
    })
}

/// [`sssp_rho_stepping_observed`] running entirely inside a recycled
/// [`TraversalWorkspace`]: the distance result is left in the workspace
/// (read with [`TraversalWorkspace::weighted_dist`], move out with
/// [`TraversalWorkspace::take_weighted_dist`]) and a warm run performs no
/// heap allocation — the frontier, sample and near-partition buffers are
/// all recycled, and the bag keeps its chunks. State is re-prepared at
/// entry, so an abandoned workspace is safe to reuse.
pub fn sssp_rho_stepping_observed_in<S: GraphStorage>(
    g: &S,
    src: VertexId,
    cfg: &RhoConfig,
    cancel: &CancelToken,
    observer: &dyn RoundObserver,
    ws: &mut TraversalWorkspace,
) -> Result<AlgoStats, Cancelled> {
    let n = g.num_vertices();
    let m = g.num_edges();
    let driver = RoundDriver::new(cancel, observer);

    ws.wdist.reset(n, INF);
    // Re-insertions are one per successful relaxation, bounded per step by
    // the edges relaxed; reserve the full bound — metadata-only, chunks
    // allocate lazily and persist across runs.
    ws.bag.reserve(2 * m + n + 16);
    if !ws.bag.is_empty() {
        ws.bag.clear(); // only a panicked run leaves entries behind
    }
    ws.frontier.clear();
    ws.samples.clear();
    ws.near.clear();

    let TraversalWorkspace {
        wdist,
        bag,
        frontier,
        samples,
        near,
        ..
    } = ws;
    let dist: &AtomicU64Array = wdist;
    let bag: &HashBag = bag;

    dist.set(src as usize, 0);
    let rng = SplitRng::new(0x9d0);

    let mut step_no: u64 = 0;
    frontier.push(src);
    driver.drive_bag_in(bag, frontier, |frontier| {
        let counters = driver.counters();
        step_no += 1;

        // Threshold: the ~ρ-th smallest tentative distance, estimated from
        // a sample (exact when the frontier is small).
        let theta = if frontier.len() <= cfg.rho {
            u64::MAX
        } else {
            const SAMPLES: usize = 512;
            samples.clear();
            samples.extend((0..SAMPLES).map(|i| {
                let idx = rng.range_at(step_no * SAMPLES as u64 + i as u64, frontier.len() as u64);
                dist.get(frontier[idx as usize] as usize)
            }));
            samples.sort_unstable();
            let q = (SAMPLES * cfg.rho / frontier.len()).clamp(1, SAMPLES - 1);
            samples[q]
        };

        // Partition: pack the near vertices into the recycled scratch,
        // re-insert the rest for a later step.
        near.clear();
        filter_map_index_into(
            frontier.len(),
            |j| {
                let v = frontier[j];
                (dist.get(v as usize) <= theta).then_some(v)
            },
            near,
        );
        par_for(frontier.len(), 512, |j| {
            let v = frontier[j];
            if dist.get(v as usize) > theta {
                bag.insert(v);
            }
        });

        let tau = cfg.vgc.tau;
        let chunk = frontier_chunk_len(near.len().max(1));
        par_slices(near, chunk, |grp| {
            // Skipped seeds are fine mid-abort: the Err path discards all
            // partial distances anyway.
            if driver.cancelled() {
                return;
            }
            counters.add_tasks(1);
            let mut spill = |v: VertexId| bag.insert(v);
            let st = local_search_weighted_multi(
                g,
                grp,
                tau * grp.len(),
                &|from, to, w| {
                    let df = dist.get(from as usize);
                    if df == INF {
                        return false;
                    }
                    let nd = df + w as u64;
                    if dist.write_min(to as usize, nd) {
                        if nd <= theta {
                            true // keep expanding in-task
                        } else {
                            bag.insert(to);
                            false
                        }
                    } else {
                        false
                    }
                },
                &mut spill,
            );
            counters.add_edges(st.edges);
        });
    })?;

    Ok(driver.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sssp::dijkstra::sssp_dijkstra;
    use pasgal_graph::builder::from_weighted_edges;
    use pasgal_graph::csr::Graph;
    use pasgal_graph::gen::basic::{grid2d, path, random_directed};
    use pasgal_graph::gen::rmat::{rmat_undirected, RmatParams};
    use pasgal_graph::gen::with_random_weights;

    fn check(g: &Graph, src: u32, cfg: &RhoConfig) {
        let want = sssp_dijkstra(g, src).dist;
        let got = sssp_rho_stepping(g, src, cfg);
        assert_eq!(got.dist, want, "rho={}, tau={}", cfg.rho, cfg.vgc.tau);
    }

    #[test]
    fn matches_dijkstra_on_weighted_grid() {
        let g = with_random_weights(&grid2d(10, 14), 2, 100);
        check(&g, 0, &RhoConfig::default());
        check(
            &g,
            0,
            &RhoConfig {
                rho: 4,
                vgc: VgcConfig::with_tau(8),
            },
        );
    }

    #[test]
    fn matches_on_random_directed() {
        let g0 = random_directed(400, 2400, 19);
        let g = with_random_weights(&g0, 4, 1000);
        for src in [0, 7, 399] {
            check(&g, src, &RhoConfig::default());
        }
    }

    #[test]
    fn matches_on_power_law() {
        let g0 = rmat_undirected(RmatParams::social(9, 8, 23));
        let g = with_random_weights(&g0, 6, 64);
        check(&g, 3, &RhoConfig::default());
    }

    #[test]
    fn small_rho_forces_many_steps_still_correct() {
        let g = with_random_weights(&grid2d(6, 6), 7, 16);
        check(
            &g,
            0,
            &RhoConfig {
                rho: 2,
                vgc: VgcConfig::with_tau(4),
            },
        );
    }

    #[test]
    fn unweighted_unit_distances() {
        let g = path(60);
        let r = sssp_rho_stepping(&g, 0, &RhoConfig::default());
        assert_eq!(r.dist, (0..60).map(|i| i as u64).collect::<Vec<_>>());
    }

    // The ρ-stepping-beats-Bellman-Ford round-count assertion lives in the
    // round-invariant suite: tests/round_invariants.rs.

    #[test]
    fn cancelled_token_aborts_with_err() {
        let g = with_random_weights(&path(2000), 1, 10);
        let t = CancelToken::new();
        t.cancel();
        assert!(matches!(
            sssp_rho_stepping_observed(&g, 0, &RhoConfig::default(), &t, &NoopObserver),
            Err(Cancelled)
        ));
        let ok = sssp_rho_stepping_observed(
            &g,
            0,
            &RhoConfig::default(),
            &CancelToken::new(),
            &NoopObserver,
        )
        .unwrap();
        assert_eq!(ok.dist, sssp_dijkstra(&g, 0).dist);
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        use crate::engine::NoopObserver;
        let g = with_random_weights(&grid2d(10, 14), 2, 100);
        let mut ws = TraversalWorkspace::new();
        let cfg = RhoConfig::default();
        for src in [0u32, 5, 77, 0] {
            let want = sssp_dijkstra(&g, src).dist;
            let token = CancelToken::new();
            sssp_rho_stepping_observed_in(&g, src, &cfg, &token, &NoopObserver, &mut ws).unwrap();
            let got: Vec<u64> = (0..g.num_vertices())
                .map(|v| ws.weighted_dist().get(v))
                .collect();
            assert_eq!(got, want, "src {src}");
        }
        assert_eq!(ws.take_weighted_dist(), sssp_dijkstra(&g, 0).dist);
    }

    #[test]
    fn unreachable_vertices_remain_inf() {
        let g = from_weighted_edges(4, &[(0, 1)], &[3]);
        let r = sssp_rho_stepping(&g, 0, &RhoConfig::default());
        assert_eq!(r.dist, vec![0, 3, INF, INF]);
    }
}
