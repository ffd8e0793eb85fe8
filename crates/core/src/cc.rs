//! Parallel connectivity and spanning forest (union-find based).
//!
//! The BFS-free substrate FAST-BCC and Tarjan-Vishkin build on: a single
//! parallel sweep over the edges unites endpoints in a
//! [`ConcurrentUnionFind`]; the edges whose `unite` succeeded form a
//! spanning forest (each successful unite is a unique merge, so at most
//! `n - 1` edges win and they are acyclic by construction). No `Ω(D)`
//! rounds anywhere — this is exactly why the paper's BCC avoids BFS.

use crate::common::{AlgoStats, CancelToken, Cancelled};
use crate::engine::{NoopObserver, RoundDriver, RoundObserver};
use crate::workspace::TraversalWorkspace;
use pasgal_collections::union_find::ConcurrentUnionFind;
use pasgal_graph::storage::GraphStorage;
use pasgal_graph::VertexId;
use pasgal_parlay::gran::par_blocks;
use rayon::prelude::*;

/// Connectivity output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CcResult {
    /// `labels[v]` = smallest vertex id in v's component.
    pub labels: Vec<u32>,
    /// Number of connected components.
    pub num_components: usize,
    /// Execution statistics.
    pub stats: AlgoStats,
}

/// Spanning forest output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanningForest {
    /// Tree edges as `(u, v)` pairs, at most `n - 1`.
    pub edges: Vec<(VertexId, VertexId)>,
    /// Component labels (same as [`CcResult::labels`]).
    pub labels: Vec<u32>,
}

/// Parallel connected components via concurrent union-find. Treats the
/// graph as undirected (every stored arc unites its endpoints).
pub fn connectivity<S: GraphStorage>(g: &S) -> CcResult {
    connectivity_observed(g, &CancelToken::new(), &NoopObserver).expect("fresh token cannot cancel")
}

/// Cancellable [`connectivity`] with per-round observation: the whole
/// edge sweep is one round, so exactly one [`crate::engine::RoundEvent`]
/// is emitted. The sweep polls the token per vertex task (a few hundred
/// edges), so cancellation lands within one round by construction.
pub fn connectivity_observed<S: GraphStorage>(
    g: &S,
    cancel: &CancelToken,
    observer: &dyn RoundObserver,
) -> Result<CcResult, Cancelled> {
    let mut ws = TraversalWorkspace::new();
    connectivity_observed_in(g, cancel, observer, &mut ws)
}

/// [`connectivity_observed`] with the union-find recycled through a
/// [`TraversalWorkspace`]. The label array is the *result* — it is always
/// freshly allocated and handed to the caller — but the O(n) union-find
/// scratch is pooled, so a warm run allocates only its output. State is
/// re-prepared at entry, so an abandoned workspace is safe to reuse.
pub fn connectivity_observed_in<S: GraphStorage>(
    g: &S,
    cancel: &CancelToken,
    observer: &dyn RoundObserver,
    ws: &mut TraversalWorkspace,
) -> Result<CcResult, Cancelled> {
    let n = g.num_vertices();
    let driver = RoundDriver::new(cancel, observer);
    ws.uf.reset(n);
    let uf: &ConcurrentUnionFind = &ws.uf;
    // Explicit 512-vertex blocks so one token poll guards (and on abort,
    // skips) a whole block rather than a single vertex.
    driver.round(n as u64, || {
        let counters = driver.counters();
        par_blocks(n, 512, |lo, hi| {
            if driver.cancelled() {
                return;
            }
            for u in lo as u32..hi as u32 {
                counters.add_tasks(1);
                for v in g.neighbors(u) {
                    counters.add_edges(1);
                    uf.unite(u, v);
                }
            }
        });
    });
    driver.check()?;
    let labels = uf.labels();
    let num_components = uf.count_sets();
    Ok(CcResult {
        labels,
        num_components,
        stats: driver.finish(),
    })
}

/// Sequential connectivity (path-halving union-find) — the reference
/// baseline, and what the service's degraded mode runs when the parallel
/// path is misbehaving. Produces the same smallest-member labeling as
/// [`connectivity`].
pub fn connectivity_seq<S: GraphStorage>(g: &S) -> CcResult {
    let n = g.num_vertices();
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut v: u32) -> u32 {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize]; // halve
            v = parent[v as usize];
        }
        v
    }
    let mut edges = 0u64;
    for u in 0..n as u32 {
        for v in g.neighbors(u) {
            edges += 1;
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru != rv {
                // union by smaller root id keeps labels canonical for free
                let (lo, hi) = (ru.min(rv), ru.max(rv));
                parent[hi as usize] = lo;
            }
        }
    }
    let mut num_components = 0usize;
    let labels: Vec<u32> = (0..n as u32)
        .map(|v| {
            let r = find(&mut parent, v);
            if r == v {
                num_components += 1;
            }
            r
        })
        .collect();
    CcResult {
        labels,
        num_components,
        stats: AlgoStats {
            rounds: 1,
            tasks: 1,
            edges_traversed: edges,
            peak_frontier: 1,
        },
    }
}

/// Parallel spanning forest: edges whose `unite` merged two components.
///
/// Returns each tree edge once (as the `(u, v)` orientation that won the
/// race). Deterministic *as a forest* (it spans), not as a specific edge
/// set under true concurrency — callers must not rely on which edge of a
/// cycle wins.
pub fn spanning_forest<S: GraphStorage>(g: &S) -> SpanningForest {
    let n = g.num_vertices();
    let uf = ConcurrentUnionFind::new(n);
    let edges: Vec<(VertexId, VertexId)> = (0..n as u32)
        .into_par_iter()
        .with_min_len(512)
        .flat_map_iter(|u| {
            let uf = &uf;
            g.neighbors(u)
                .filter(move |&v| {
                    // skip one direction of symmetric pairs cheaply
                    (u < v || !g.has_edge(v, u)) && uf.unite(u, v)
                })
                .map(move |v| (u, v))
                .collect::<Vec<_>>()
                .into_iter()
        })
        .collect();
    SpanningForest {
        edges,
        labels: uf.labels(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasgal_graph::builder::{from_edges, from_edges_symmetric};
    use pasgal_graph::csr::Graph;
    use pasgal_graph::gen::basic::{clique, cycle, grid2d, path};

    #[test]
    fn single_component_grid() {
        let r = connectivity(&grid2d(6, 7));
        assert_eq!(r.num_components, 1);
        assert!(r.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn multiple_components() {
        let g = from_edges_symmetric(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]);
        let r = connectivity(&g);
        assert_eq!(r.num_components, 3);
        assert_eq!(r.labels, vec![0, 0, 0, 3, 3, 5, 5]);
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let g = Graph::empty(4, true);
        let r = connectivity(&g);
        assert_eq!(r.num_components, 4);
    }

    #[test]
    fn directed_arcs_treated_as_undirected() {
        let g = from_edges(3, &[(0, 1), (2, 1)]);
        let r = connectivity(&g);
        assert_eq!(r.num_components, 1);
    }

    #[test]
    fn cancelled_token_aborts_with_err() {
        let g = grid2d(50, 50);
        let t = CancelToken::new();
        t.cancel();
        assert!(matches!(
            connectivity_observed(&g, &t, &NoopObserver),
            Err(Cancelled)
        ));
        let ok = connectivity_observed(&g, &CancelToken::new(), &NoopObserver).unwrap();
        assert_eq!(ok.num_components, 1);
    }

    #[test]
    fn sequential_matches_parallel_labels_exactly() {
        for g in [
            grid2d(6, 7),
            from_edges_symmetric(7, &[(0, 1), (1, 2), (3, 4), (5, 6)]),
            from_edges(3, &[(0, 1), (2, 1)]),
            Graph::empty(4, true),
            clique(9),
        ] {
            let seq = connectivity_seq(&g);
            let par = connectivity(&g);
            // both name components by smallest member: bit-for-bit equal
            assert_eq!(seq.labels, par.labels);
            assert_eq!(seq.num_components, par.num_components);
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        use crate::engine::NoopObserver;
        let graphs = [grid2d(6, 7), from_edges_symmetric(7, &[(0, 1), (3, 4)])];
        let mut ws = TraversalWorkspace::new();
        for _ in 0..3 {
            for g in &graphs {
                let want = connectivity(g);
                let token = CancelToken::new();
                let got = connectivity_observed_in(g, &token, &NoopObserver, &mut ws).unwrap();
                assert_eq!(got.labels, want.labels);
                assert_eq!(got.num_components, want.num_components);
            }
        }
    }

    #[test]
    fn forest_has_right_edge_count_and_spans() {
        let g = grid2d(5, 8);
        let f = spanning_forest(&g);
        assert_eq!(f.edges.len(), 39); // n - 1 for a connected graph
                                       // forest connects everything: rebuild a DSU from the tree edges
        let uf = ConcurrentUnionFind::new(40);
        for &(u, v) in &f.edges {
            assert!(uf.unite(u, v), "cycle edge in forest: ({u}, {v})");
        }
        assert_eq!(uf.count_sets(), 1);
    }

    #[test]
    fn forest_on_disconnected_graph() {
        let g = from_edges_symmetric(6, &[(0, 1), (1, 2), (3, 4)]);
        let f = spanning_forest(&g);
        assert_eq!(f.edges.len(), 3);
        assert_eq!(f.labels, vec![0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn forest_of_clique_is_acyclic() {
        let f = spanning_forest(&clique(20));
        assert_eq!(f.edges.len(), 19);
    }

    #[test]
    fn forest_of_cycle_drops_exactly_one_edge() {
        let f = spanning_forest(&cycle(10));
        assert_eq!(f.edges.len(), 9);
    }

    #[test]
    fn path_forest_is_the_path() {
        let f = spanning_forest(&path(5));
        let mut es: Vec<_> = f.edges.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    }
}
