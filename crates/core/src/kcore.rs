//! k-core decomposition — the first of the paper's announced extensions
//! ("we believe the techniques in current PASGAL can be extended to more
//! problems, including *k-core and other peeling algorithms*").
//!
//! The coreness of a vertex is the largest `k` such that it survives in
//! the `k`-core (the maximal subgraph with all degrees ≥ `k`).
//!
//! * [`kcore_seq`] — the Batagelj–Zaveršnik bucket algorithm, `O(n + m)`,
//!   the sequential baseline and oracle;
//! * [`kcore_peel`] — parallel peeling in the PASGAL style: for each
//!   `k = 1, 2, …` repeatedly remove the frontier of vertices whose
//!   induced degree dropped below `k` (atomic decrement of neighbor
//!   degrees claims removals), with the cascades held in a **hash bag**
//!   and processed by **multi-hop VGC local searches** — a removal chain
//!   of length `L` costs `O(L / τ)` rounds instead of `O(L)` (peeling
//!   chains are the diameter-like bottleneck of k-core: think of a long
//!   path, which is one cascade of length `n`).
//!
//! ```
//! use pasgal_core::kcore::{kcore_peel, kcore_seq};
//! use pasgal_graph::builder::from_edges_symmetric;
//!
//! // triangle {0,1,2} with a pendant path 2-3-4
//! let g = from_edges_symmetric(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
//! let r = kcore_peel(&g, 512);
//! assert_eq!(r.coreness, vec![2, 2, 2, 1, 1]);
//! assert_eq!(r.coreness, kcore_seq(&g).coreness);
//! ```

use crate::common::{AlgoStats, CancelToken, Cancelled};
use crate::engine::{NoopObserver, RoundDriver, RoundObserver};
use crate::vgc::with_fifo_scratch;
use crate::workspace::TraversalWorkspace;
use pasgal_graph::storage::GraphStorage;
use pasgal_graph::VertexId;
use pasgal_parlay::gran::{par_blocks, par_for, par_slices};
use pasgal_parlay::pack::filter_map_index_into;
use std::sync::atomic::{AtomicU32, Ordering};

/// k-core output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KcoreResult {
    /// `coreness[v]` = largest `k` with `v` in the `k`-core.
    pub coreness: Vec<u32>,
    /// The degeneracy (max coreness).
    pub degeneracy: u32,
    /// Execution statistics.
    pub stats: AlgoStats,
}

/// Sequential Batagelj–Zaveršnik k-core (bucket peeling).
pub fn kcore_seq<S: GraphStorage>(g: &S) -> KcoreResult {
    assert!(g.is_symmetric(), "k-core requires an undirected graph");
    let n = g.num_vertices();
    let mut degree: Vec<u32> = (0..n as u32).map(|v| g.degree(v) as u32).collect();
    let maxd = degree.iter().copied().max().unwrap_or(0) as usize;

    // bucket sort by degree
    let mut bucket_start = vec![0usize; maxd + 2];
    for &d in &degree {
        bucket_start[d as usize + 1] += 1;
    }
    for i in 1..bucket_start.len() {
        bucket_start[i] += bucket_start[i - 1];
    }
    let mut order = vec![0u32; n]; // vertices sorted by current degree
    let mut pos = vec![0usize; n];
    {
        let mut cursor = bucket_start.clone();
        for v in 0..n as u32 {
            let d = degree[v as usize] as usize;
            order[cursor[d]] = v;
            pos[v as usize] = cursor[d];
            cursor[d] += 1;
        }
    }
    // bucket_start[d] = first index of degree-d zone in `order`
    let mut edges = 0u64;
    let mut coreness = vec![0u32; n];
    for i in 0..n {
        let v = order[i];
        let dv = degree[v as usize];
        coreness[v as usize] = dv;
        for w in g.neighbors(v) {
            edges += 1;
            if degree[w as usize] > dv {
                // move w one bucket down: swap with the first element of
                // its degree zone, then shrink the zone
                let dw = degree[w as usize] as usize;
                let pw = pos[w as usize];
                let z = bucket_start[dw].max(i + 1);
                let u = order[z];
                order.swap(pw, z);
                pos[w as usize] = z;
                pos[u as usize] = pw;
                bucket_start[dw] = z + 1;
                degree[w as usize] -= 1;
            }
        }
    }
    let degeneracy = coreness.iter().copied().max().unwrap_or(0);
    KcoreResult {
        coreness,
        degeneracy,
        stats: AlgoStats {
            rounds: 1,
            tasks: 1,
            edges_traversed: edges,
            peak_frontier: 1,
        },
    }
}

/// Parallel peeling k-core with VGC-style cascade processing.
pub fn kcore_peel<S: GraphStorage>(g: &S, tau: usize) -> KcoreResult {
    kcore_peel_observed(g, tau, &CancelToken::new(), &NoopObserver)
        .expect("fresh token cannot cancel")
}

/// Cancellable [`kcore_peel`] with per-round observation: one
/// [`crate::engine::RoundEvent`] per cascade round (level transitions do
/// not emit events of their own). The token is polled per level and per
/// cascade round; a fired token drains the bag and returns
/// `Err(Cancelled)` within one round.
pub fn kcore_peel_observed<S: GraphStorage>(
    g: &S,
    tau: usize,
    cancel: &CancelToken,
    observer: &dyn RoundObserver,
) -> Result<KcoreResult, Cancelled> {
    let mut ws = TraversalWorkspace::new();
    let stats = kcore_peel_observed_in(g, tau, cancel, observer, &mut ws)?;
    let coreness = ws.take_coreness();
    let degeneracy = coreness.iter().copied().max().unwrap_or(0);
    Ok(KcoreResult {
        coreness,
        degeneracy,
        stats,
    })
}

/// [`kcore_peel_observed`] running entirely inside a recycled
/// [`TraversalWorkspace`]: the coreness result is left in the workspace
/// (read with [`TraversalWorkspace::coreness`], move out with
/// [`TraversalWorkspace::take_coreness`]) and a warm run performs no heap
/// allocation — the degree array, frontier vector, per-task cascade
/// queues and the bag are all recycled. State is re-prepared at entry, so
/// an abandoned workspace is safe to reuse.
pub fn kcore_peel_observed_in<S: GraphStorage>(
    g: &S,
    tau: usize,
    cancel: &CancelToken,
    observer: &dyn RoundObserver,
    ws: &mut TraversalWorkspace,
) -> Result<AlgoStats, Cancelled> {
    assert!(g.is_symmetric(), "k-core requires an undirected graph");
    let n = g.num_vertices();
    let driver = RoundDriver::new(cancel, observer);
    ws.degree.reset(n, 0);
    ws.coreness.reset(n, u32::MAX); // MAX = alive
                                    // One claimed re-insertion per spilled cascade seed; 2n + 16 is the
                                    // same never-exceeded bound the BFS bags use (metadata-only, chunks
                                    // allocate lazily and persist across runs).
    ws.bag.reserve(2 * n + 16);
    if !ws.bag.is_empty() {
        ws.bag.clear(); // only a panicked run leaves entries behind
    }
    ws.frontier.clear();

    let TraversalWorkspace {
        degree,
        coreness,
        bag,
        frontier,
        ..
    } = ws;
    {
        let degree = &*degree;
        par_for(n, 2048, |v| {
            degree.set(v, g.degree(v as u32) as u32);
        });
    }
    let mut k = 0u32;

    // Level loop: advance k to the smallest remaining degree (skipping
    // empty levels) until everything is peeled.
    loop {
        // min over alive vertices, u32::MAX = nothing left to peel
        let level_min = AtomicU32::new(u32::MAX);
        par_blocks(n, 2048, |lo, hi| {
            let mut local = u32::MAX;
            for v in lo..hi {
                if coreness.get(v) == u32::MAX {
                    local = local.min(degree.get(v));
                }
            }
            level_min.fetch_min(local, Ordering::Relaxed);
        });
        let next_k = level_min.load(Ordering::Relaxed);
        if next_k == u32::MAX {
            break;
        }
        driver.check()?;
        k = k.max(next_k);

        // initial frontier for this k: every alive vertex with degree ≤ k,
        // packed into the recycled scratch and claimed by CAS (peel order
        // within a level is irrelevant to coreness values)
        frontier.clear();
        filter_map_index_into(
            n,
            |v| (coreness.get(v) == u32::MAX && degree.get(v) <= k).then_some(v as VertexId),
            frontier,
        );
        frontier.retain(|&v| coreness.cas(v as usize, u32::MAX, k));

        let k_now = k;
        driver.drive_bag_in(bag, frontier, |front| {
            let counters = driver.counters();
            let chunk = crate::vgc::frontier_chunk_len(front.len());
            par_slices(front, chunk, |grp| {
                counters.add_tasks(1);
                // VGC: process the whole removal cascade locally up to the
                // aggregate budget; overflow cascades spill to the bag.
                // The queue is recycled thread-local scratch.
                let edges = with_fifo_scratch(|queue| {
                    queue.extend(grp.iter().copied());
                    let budget = (tau * grp.len()) as u64;
                    let mut edges = 0u64;
                    while let Some(u) = queue.pop_front() {
                        if edges >= budget {
                            bag.insert(u);
                            continue;
                        }
                        for w in g.neighbors(u) {
                            edges += 1;
                            if coreness.get(w as usize) != u32::MAX {
                                continue;
                            }
                            // decrement = wrapping add of -1; post-claim
                            // stragglers may drive the (now irrelevant)
                            // value past zero, which the claimed-check
                            // above makes harmless
                            let old = degree.fetch_add(w as usize, u32::MAX);
                            if old != 0
                                && old - 1 <= k_now
                                && coreness.cas(w as usize, u32::MAX, k_now)
                            {
                                queue.push_back(w);
                            }
                        }
                    }
                    edges
                });
                counters.add_edges(edges);
            });
            // spilled vertices are already claimed; they re-enter as
            // cascade seeds (their neighbors still need decrementing)
        })?;
    }

    Ok(driver.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasgal_graph::builder::from_edges_symmetric;
    use pasgal_graph::csr::Graph;
    use pasgal_graph::gen::basic::{clique, cycle, grid2d, path, random_directed, star};
    use pasgal_graph::gen::rmat::{rmat_undirected, RmatParams};
    use pasgal_graph::transform::symmetrize;

    fn check(g: &Graph) {
        let want = kcore_seq(g);
        for tau in [1, 64, 4096] {
            let got = kcore_peel(g, tau);
            assert_eq!(got.coreness, want.coreness, "tau={tau}");
            assert_eq!(got.degeneracy, want.degeneracy);
        }
    }

    #[test]
    fn known_corenesses() {
        let r = kcore_seq(&clique(6));
        assert!(r.coreness.iter().all(|&c| c == 5));
        let r = kcore_seq(&cycle(8));
        assert!(r.coreness.iter().all(|&c| c == 2));
        let r = kcore_seq(&path(6));
        assert!(r.coreness.iter().all(|&c| c == 1));
        let r = kcore_seq(&star(5));
        assert!(r.coreness.iter().all(|&c| c == 1));
        let r = kcore_seq(&grid2d(5, 9));
        assert_eq!(r.degeneracy, 2);
    }

    #[test]
    fn triangle_with_tail() {
        // triangle {0,1,2} (coreness 2) with path 2-3-4 (coreness 1)
        let g = from_edges_symmetric(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let r = kcore_seq(&g);
        assert_eq!(r.coreness, vec![2, 2, 2, 1, 1]);
        check(&g);
    }

    #[test]
    fn parallel_matches_seq_on_fixtures() {
        check(&clique(8));
        check(&cycle(20));
        check(&path(30));
        check(&grid2d(6, 8));
        check(&Graph::empty(4, true));
    }

    #[test]
    fn parallel_matches_seq_on_random_graphs() {
        for seed in 0..4 {
            check(&symmetrize(&random_directed(150, 500, seed)));
        }
    }

    #[test]
    fn parallel_matches_seq_on_power_law() {
        check(&rmat_undirected(RmatParams::social(8, 6, 3)));
    }

    #[test]
    fn cancelled_token_aborts_with_err() {
        let g = path(2000);
        let t = CancelToken::new();
        t.cancel();
        assert!(matches!(
            kcore_peel_observed(&g, 4, &t, &NoopObserver),
            Err(Cancelled)
        ));
        let ok = kcore_peel_observed(&g, 64, &CancelToken::new(), &NoopObserver).unwrap();
        assert_eq!(ok.coreness, kcore_seq(&g).coreness);
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        use crate::engine::NoopObserver;
        let graphs = [
            rmat_undirected(RmatParams::social(8, 6, 3)),
            symmetrize(&random_directed(150, 500, 1)),
        ];
        let mut ws = TraversalWorkspace::new();
        for _ in 0..3 {
            for g in &graphs {
                let want = kcore_seq(g);
                let token = CancelToken::new();
                kcore_peel_observed_in(g, 64, &token, &NoopObserver, &mut ws).unwrap();
                let got: Vec<u32> = (0..g.num_vertices())
                    .map(|v| ws.coreness().get(v))
                    .collect();
                assert_eq!(got, want.coreness);
            }
        }
    }

    // The big-τ-beats-small-τ round-count assertion lives in the
    // round-invariant suite: tests/round_invariants.rs.
}
