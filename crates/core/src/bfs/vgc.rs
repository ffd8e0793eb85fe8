//! PASGAL BFS: vertical granularity control + hash-bag multi-frontiers +
//! direction optimization (paper §2.2, "Parallel BFS").
//!
//! Each frontier task runs a [`crate::vgc::local_search`]: it walks the
//! graph depth-first from its start vertex, relaxing hop distances with
//! monotone `write_min`, until it has traversed at least `τ` edges; only
//! the vertices discovered beyond the budget are spilled to shared hash
//! bags. A local search may assign *provisional* (non-minimal) distances —
//! a vertex can be visited more than once, unlike strict BFS (the paper
//! states this explicitly). To keep that extra work small the algorithm
//! maintains **multiple frontiers**: geometric hash bags, where bag `i`
//! holds vertices roughly `2^i` hops ahead of the wavefront (the paper:
//! "frontier *i* maintains vertices with distance 2^i from the current
//! frontier"). A round extracts the nearest nonempty bag and processes the
//! entries within a window `[d_min, d_min + 2^i)` of its smallest pending
//! distance — so the benefit of multi-hop rounds is kept while "unready"
//! vertices far ahead are not expanded prematurely.
//!
//! Two rules make this robust (learned the hard way — see the tests):
//!
//! 1. **Never drop a pending entry.** A spilled copy can be the only
//!    record of a vertex's final improvement; entries outside the current
//!    window are re-bucketed by their *current* distance, and the
//!    wavefront may even step backward to process late copies. Processing
//!    late is harmless (distances only improve); dropping loses subtrees.
//! 2. **Bucketing is purely a heuristic.** Correctness comes from
//!    monotone `write_min` + "every successful improvement re-enters a
//!    bag"; the bucket structure only decides processing order and hence
//!    the amount of wasted re-visiting.
//!
//! When the pending set is a large fraction of the graph and in-neighbors
//! are available, a round switches to a dense bottom-up step (Beamer
//! direction optimization), exactly like the paper.
//!
//! The hot path is **allocation-free at steady state**: all transient
//! state (the distance array, the 32 bags, the drain/window/seed scratch)
//! lives in a [`TraversalWorkspace`] recycled across runs via the `*_in`
//! entry point; round entries are packed `(dist << 32) | v` words packed
//! into recycled vectors, and a dense round feeds discovered vertices
//! straight into bag 0 (each has a unique `write_min` winner) instead of
//! materializing a bit-vector plus a pack pass.

use crate::common::{AlgoStats, BfsResult, CancelToken, Cancelled, VgcConfig, UNREACHED};
use crate::engine::{NoopObserver, RoundDriver, RoundObserver};
use crate::vgc::{frontier_chunk_len, local_search_fifo_multi, TauController};
use crate::workspace::TraversalWorkspace;
use pasgal_collections::atomic_array::AtomicU32Array;
use pasgal_collections::hashbag::HashBag;
use pasgal_graph::storage::GraphStorage;
use pasgal_graph::VertexId;
use pasgal_parlay::counters::Counters;
use pasgal_parlay::gran::{par_blocks, par_for, par_slices};
use pasgal_parlay::pack::{filter_map_index_into, par_map_into};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of geometric frontier bags: bag `i` covers offsets
/// `[2^i, 2^{i+1})` from the wavefront; the last bag catches everything
/// farther (offsets can never exceed `n < 2^32`).
const NUM_BAGS: usize = 32;

/// Go dense when the processed window exceeds `n / DENSE_DIVISOR` (and
/// in-neighbors are available).
const DENSE_DIVISOR: usize = 20;

#[inline]
fn bucket_of(offset: u32) -> usize {
    // floor(log2(max(offset, 1))), clamped to the last bag
    let off = offset.max(1);
    ((31 - off.leading_zeros()) as usize).min(NUM_BAGS - 1)
}

#[inline]
fn pack(v: VertexId, d: u32) -> u64 {
    ((d as u64) << 32) | v as u64
}

#[inline]
fn unpack(e: u64) -> (VertexId, u32) {
    (e as u32, (e >> 32) as u32)
}

/// PASGAL BFS from `src` (sparse VGC rounds only; direction optimization
/// disabled). See [`bfs_vgc_dir`] for the full hybrid.
pub fn bfs_vgc<S: GraphStorage>(g: &S, src: VertexId, cfg: &VgcConfig) -> BfsResult {
    bfs_vgc_dir(g, src, None, cfg)
}

/// PASGAL BFS with direction optimization. `incoming` supplies
/// in-neighbors for dense rounds (`None`: use `g` when symmetric, else
/// stay sparse).
pub fn bfs_vgc_dir<S: GraphStorage>(
    g: &S,
    src: VertexId,
    incoming: Option<&S>,
    cfg: &VgcConfig,
) -> BfsResult {
    bfs_vgc_dir_observed(g, src, incoming, cfg, &CancelToken::new(), &NoopObserver)
        .expect("fresh token cannot cancel")
}

/// Cancellable [`bfs_vgc_dir`] with per-round observation: one
/// [`crate::engine::RoundEvent`] per processed window (dense or sparse).
/// The token is polled once per round and once per frontier task; a
/// fired token aborts the traversal and returns `Err(Cancelled)` without
/// finishing the round's spills.
pub fn bfs_vgc_dir_observed<S: GraphStorage>(
    g: &S,
    src: VertexId,
    incoming: Option<&S>,
    cfg: &VgcConfig,
    cancel: &CancelToken,
    observer: &dyn RoundObserver,
) -> Result<BfsResult, Cancelled> {
    let mut ws = TraversalWorkspace::new();
    let stats = bfs_vgc_dir_observed_in(g, src, incoming, cfg, cancel, observer, &mut ws)?;
    Ok(BfsResult {
        dist: ws.take_hop_dist(),
        stats,
    })
}

/// [`bfs_vgc_dir_observed`] running entirely inside a recycled
/// [`TraversalWorkspace`]: the hop-distance result is left in the
/// workspace (read it with [`TraversalWorkspace::hop_dist`] or move it
/// out with [`TraversalWorkspace::take_hop_dist`]) and a warm run
/// performs no heap allocation. All workspace state is re-prepared at
/// entry, so a workspace abandoned by a cancelled or panicked run is
/// safe to reuse.
pub fn bfs_vgc_dir_observed_in<S: GraphStorage>(
    g: &S,
    src: VertexId,
    incoming: Option<&S>,
    cfg: &VgcConfig,
    cancel: &CancelToken,
    observer: &dyn RoundObserver,
    ws: &mut TraversalWorkspace,
) -> Result<AlgoStats, Cancelled> {
    let n = g.num_vertices();
    let driver = RoundDriver::new(cancel, observer);

    // --- prepare the workspace (all allocation-free at steady state) ---
    ws.hop_dist.reset(n, UNREACHED);
    if ws.bags.is_empty() {
        ws.bags = (0..NUM_BAGS).map(|_| HashBag::new(0)).collect();
    }
    for b in &mut ws.bags {
        // Metadata-only: chunk storage is demand-allocated and persists
        // across runs, so reserving the never-panic bound (spills per
        // round are bounded by successful relaxations, < 2n + slack)
        // costs nothing until a round actually needs the room.
        b.reserve(2 * n + 16);
        if !b.is_empty() {
            b.clear(); // only a panicked run leaves entries behind
        }
    }
    ws.raw.clear();
    ws.entries.clear();
    ws.window.clear();
    ws.seeds.clear();

    let TraversalWorkspace {
        hop_dist,
        bags,
        raw,
        entries,
        window,
        seeds,
        ..
    } = ws;
    let dist: &AtomicU32Array = hop_dist;
    let bags: &[HashBag] = bags;

    dist.set(src as usize, 0);
    let gin: Option<&S> = incoming.or(if g.is_symmetric() { Some(g) } else { None });

    // Bootstrap: treat the source as a pending entry of bag 0.
    bags[0].insert(src);

    let mut ctl = TauController::new(*cfg);
    let counters = driver.counters();

    loop {
        if driver.cancelled() {
            for b in bags {
                b.clear();
            }
            return Err(Cancelled);
        }
        let Some(d_min) = next_window(bags, dist, raw, entries, window) else {
            driver.check()?;
            break;
        };
        let processed = window.len();
        let tau = ctl.current();
        let edges0 = counters.edges();

        driver.round(processed as u64, || {
            // Dense bottom-up round (direction optimization): expands the
            // exact level `d_min` collectively; other window entries are
            // deferred back (they are not expanded by the sweep).
            if let Some(gin) = gin {
                if processed > n / DENSE_DIVISOR {
                    let next_level = d_min + 1;
                    let scanned = Counters::new();
                    // One sequential adjacency cursor per block: byte-
                    // stream backends step over already-reached vertices
                    // in O(1) instead of re-seeking through their sampled
                    // index for every vertex of the graph.
                    par_blocks(n, 512, |lo, hi| {
                        gin.scan_range(
                            lo as u32,
                            hi as u32,
                            |v| dist.get(v as usize) > next_level,
                            |v, neigh| {
                                for u in neigh {
                                    scanned.add_edges(1);
                                    if dist.get(u as usize) == d_min {
                                        if dist.write_min(v as usize, next_level) {
                                            // exactly one task wins the
                                            // write_min for v this round, so
                                            // inserting here adds no
                                            // duplicates — no bit-vector or
                                            // pack pass needed
                                            bags[0].insert(v);
                                        }
                                        break;
                                    }
                                }
                            },
                        );
                    });
                    counters.add_tasks(processed as u64);
                    counters.add_edges(scanned.edges());
                    par_for(window.len(), 2048, |j| {
                        let (v, d) = unpack(window[j]);
                        if d != d_min {
                            bags[bucket_of(d.saturating_sub(d_min))].insert(v);
                        }
                    });
                    return;
                }
            }

            // Sparse VGC round: one multi-seed local search per frontier
            // chunk, with budget τ per seed.
            seeds.clear();
            par_map_into(window.len(), |j| unpack(window[j]).0, seeds);
            let chunk = frontier_chunk_len(seeds.len());
            par_slices(seeds, chunk, |grp| {
                // Unprocessed seeds are simply dropped mid-abort: the
                // whole result is discarded on the Err path, so losing
                // subtrees is fine here (unlike the never-drop rule for
                // live runs).
                if driver.cancelled() {
                    return;
                }
                counters.add_tasks(1);
                let mut spill = |v: VertexId| {
                    let d = dist.get(v as usize);
                    bags[bucket_of(d.saturating_sub(d_min))].insert(v);
                };
                let stats = local_search_fifo_multi(
                    g,
                    grp,
                    tau * grp.len(),
                    &|from, to| {
                        let nd = dist.get(from as usize).saturating_add(1);
                        dist.write_min(to as usize, nd)
                    },
                    &mut spill,
                );
                counters.add_edges(stats.edges);
            });
        });
        ctl.observe(processed, counters.edges().saturating_sub(edges0));
    }

    Ok(driver.finish())
}

/// Pull the nearest nonempty bag and shape one round's work into
/// `window` (packed `(dist << 32) | v` words): re-evaluate the drained
/// entries by their *current* distance (rule 1), defer those outside the
/// window `[d_min, d_min + 2^i)` back into the bags (bucketed relative
/// to the wavefront estimate `d_min` — heuristic, rule 2), and keep the
/// in-window entries. Returns `d_min`, or `None` once every bag is dry.
/// All scratch comes from the workspace, so this allocates nothing at
/// steady state.
fn next_window(
    bags: &[HashBag],
    dist: &AtomicU32Array,
    raw: &mut Vec<VertexId>,
    entries: &mut Vec<u64>,
    window: &mut Vec<u64>,
) -> Option<u32> {
    while let Some(i) = bags.iter().position(|b| !b.is_empty()) {
        raw.clear();
        bags[i].extract_into(raw);
        entries.clear();
        {
            let raw: &[VertexId] = raw;
            par_map_into(
                raw.len(),
                |j| {
                    let v = raw[j];
                    pack(v, dist.get(v as usize))
                },
                entries,
            );
        }
        if entries.is_empty() {
            continue;
        }
        debug_assert!(entries.iter().all(|&e| unpack(e).1 != UNREACHED));
        // The distance lives in the high bits, so the minimum entry's
        // high half is the minimum distance.
        let min_entry = AtomicU64::new(u64::MAX);
        {
            let entries: &[u64] = entries;
            par_blocks(entries.len(), 4096, |lo, hi| {
                let mut m = u64::MAX;
                for &e in &entries[lo..hi] {
                    m = m.min(e);
                }
                min_entry.fetch_min(m, Ordering::Relaxed);
            });
        }
        let d_min = (min_entry.load(Ordering::Relaxed) >> 32) as u32;
        // Processing window: the nearest 2^i distances of this bag.
        let width = 1u32 << i.min(30);
        let hi_d = d_min.saturating_add(width);
        window.clear();
        {
            let entries: &[u64] = entries;
            filter_map_index_into(
                entries.len(),
                |j| {
                    let e = entries[j];
                    (unpack(e).1 < hi_d).then_some(e)
                },
                window,
            );
            par_for(entries.len(), 2048, |j| {
                let (v, d) = unpack(entries[j]);
                if d >= hi_d {
                    bags[bucket_of(d.saturating_sub(d_min))].insert(v);
                }
            });
        }
        if window.is_empty() {
            continue;
        }
        return Some(d_min);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::seq::bfs_seq;
    use pasgal_graph::builder::from_edges;
    use pasgal_graph::csr::Graph;
    use pasgal_graph::gen::basic::{
        clique, grid2d, grid2d_directed, path, path_directed, random_directed, star,
    };
    use pasgal_graph::gen::rmat::{rmat_directed, rmat_undirected, RmatParams};
    use pasgal_graph::gen::synthetic::{bubbles, traces};
    use pasgal_graph::transform::transpose;

    fn check(g: &Graph, src: u32, cfg: &VgcConfig) {
        let want = bfs_seq(g, src).dist;
        let got = bfs_vgc(g, src, cfg);
        assert_eq!(got.dist, want, "τ = {}", cfg.tau);
    }

    #[test]
    fn bucket_of_is_floor_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u32::MAX), NUM_BAGS - 1);
    }

    #[test]
    fn matches_seq_on_small_fixtures() {
        for tau in [1, 2, 8, 512] {
            let cfg = VgcConfig::with_tau(tau);
            check(&path(30), 0, &cfg);
            check(&path(30), 15, &cfg);
            check(&star(20), 3, &cfg);
            check(&clique(10), 0, &cfg);
            check(&path_directed(25), 0, &cfg);
        }
    }

    #[test]
    fn matches_seq_on_grid() {
        for tau in [4, 64, 4096] {
            check(&grid2d(12, 17), 5, &VgcConfig::with_tau(tau));
        }
    }

    #[test]
    fn matches_seq_on_wide_directed_grid() {
        // the configuration that exposed the overflow-drop bug
        let g = grid2d_directed(10, 400, 0.6, 501);
        check(&g, 0, &VgcConfig::default());
        check(&g, 0, &VgcConfig::with_tau(8));
    }

    #[test]
    fn matches_seq_on_random_directed() {
        let g = random_directed(500, 2500, 13);
        for src in [0, 100, 499] {
            check(&g, src, &VgcConfig::default());
            check(&g, src, &VgcConfig::with_tau(3));
        }
    }

    #[test]
    fn matches_seq_on_power_law() {
        let g = rmat_undirected(RmatParams::social(10, 8, 21));
        check(&g, 0, &VgcConfig::default());
        let gd = rmat_directed(RmatParams::social(10, 8, 22));
        check(&gd, 7, &VgcConfig::default());
    }

    #[test]
    fn matches_seq_on_large_diameter_families() {
        check(&bubbles(40, 6, 2), 0, &VgcConfig::default());
        check(&traces(800, 0.3, 3), 0, &VgcConfig::with_tau(32));
    }

    #[test]
    fn deep_local_search_on_chain() {
        let g = path_directed(5000);
        check(&g, 0, &VgcConfig::with_tau(100_000));
        check(&g, 0, &VgcConfig::with_tau(37));
    }

    // The VGC-beats-flat round-count assertions (chain and narrow grid)
    // live in the round-invariant suite: tests/round_invariants.rs.

    #[test]
    fn direction_optimized_variant_matches() {
        let g = random_directed(400, 4000, 5);
        let t = transpose(&g);
        let want = bfs_seq(&g, 2).dist;
        let got = bfs_vgc_dir(&g, 2, Some(&t), &VgcConfig::default());
        assert_eq!(got.dist, want);
    }

    #[test]
    fn dense_rounds_trigger_on_dense_symmetric_graph() {
        let g = clique(2000);
        let r = bfs_vgc(&g, 0, &VgcConfig::with_tau(4));
        assert_eq!(bfs_seq(&g, 0).dist, r.dist);
    }

    #[test]
    fn disconnected_components_unreached() {
        let g = from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let r = bfs_vgc(&g, 0, &VgcConfig::default());
        assert_eq!(r.dist[3], UNREACHED);
        assert_eq!(r.dist[5], UNREACHED);
        assert_eq!(&r.dist[..3], &[0, 1, 2]);
    }

    #[test]
    fn cancelled_token_aborts_with_err() {
        let g = path_directed(5000);
        let t = CancelToken::new();
        t.cancel();
        assert_eq!(
            bfs_vgc_dir_observed(&g, 0, None, &VgcConfig::with_tau(4), &t, &NoopObserver),
            Err(Cancelled)
        );
        // an unfired token changes nothing
        let got = bfs_vgc_dir_observed(
            &g,
            0,
            None,
            &VgcConfig::default(),
            &CancelToken::new(),
            &NoopObserver,
        )
        .unwrap();
        assert_eq!(got.dist, bfs_seq(&g, 0).dist);
    }

    #[test]
    fn expired_deadline_aborts_mid_run() {
        let g = path_directed(3000);
        let t = CancelToken::at(std::time::Instant::now());
        assert_eq!(
            bfs_vgc_dir_observed(&g, 0, None, &VgcConfig::with_tau(1), &t, &NoopObserver),
            Err(Cancelled)
        );
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::empty(1, false);
        let r = bfs_vgc(&g, 0, &VgcConfig::default());
        assert_eq!(r.dist, vec![0]);
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        let g = grid2d(12, 17);
        let mut ws = TraversalWorkspace::new();
        for src in [0u32, 5, 100, 0, 203] {
            let want = bfs_seq(&g, src).dist;
            let token = CancelToken::new();
            bfs_vgc_dir_observed_in(
                &g,
                src,
                None,
                &VgcConfig::default(),
                &token,
                &NoopObserver,
                &mut ws,
            )
            .unwrap();
            let got: Vec<u32> = (0..g.num_vertices())
                .map(|v| ws.hop_dist().get(v))
                .collect();
            assert_eq!(got, want, "src {src}");
        }
        // a workspace abandoned by a cancelled run stays reusable
        let fired = CancelToken::new();
        fired.cancel();
        assert!(bfs_vgc_dir_observed_in(
            &g,
            0,
            None,
            &VgcConfig::default(),
            &fired,
            &NoopObserver,
            &mut ws
        )
        .is_err());
        let token = CancelToken::new();
        bfs_vgc_dir_observed_in(
            &g,
            3,
            None,
            &VgcConfig::default(),
            &token,
            &NoopObserver,
            &mut ws,
        )
        .unwrap();
        assert_eq!(ws.take_hop_dist(), bfs_seq(&g, 3).dist);
    }

    #[test]
    fn adaptive_tau_matches_seq() {
        let cfg = VgcConfig::adaptive();
        check(&path_directed(5000), 0, &cfg);
        check(&grid2d(12, 17), 5, &cfg);
        check(&rmat_undirected(RmatParams::social(10, 8, 21)), 0, &cfg);
        check(&bubbles(40, 6, 2), 0, &cfg);
    }
}
