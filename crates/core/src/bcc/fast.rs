//! FAST-BCC — the biconnectivity algorithm PASGAL ships (Dong, Gu, Sun,
//! Wang: *Provably Fast and Space-Efficient Parallel Biconnectivity*,
//! SPAA'23 best paper). `O(n + m)` work, polylogarithmic span, `O(n)`
//! auxiliary space, and **no BFS anywhere** — the spanning tree is
//! arbitrary (union-find), so there are no `Ω(D)` synchronization rounds.
//!
//! Pipeline:
//! 1. connectivity + **arbitrary** spanning forest ([`crate::cc`]);
//! 2. root each tree, Euler tour → `parent / first / last`
//!    ([`super::euler`]);
//! 3. `low(v) / high(v)`: min/max `first(x)` over all non-tree neighbors
//!    `x` of vertices in `v`'s subtree (subtree range queries);
//! 4. **cluster union-find over non-root vertices** (each non-root vertex
//!    stands for its parent tree edge — the Tarjan-Vishkin bijection):
//!    tree rule — unite `v` with its parent `u` (both non-root) iff `v`'s
//!    subtree escapes `u`'s subtree strictly (`low(v) < first(u)` or
//!    `high(v) > last(u)`); non-tree rule — for a non-tree edge `{u, v}`
//!    with neither endpoint an ancestor of the other, unite `u` and `v`.
//!    Because the unions are applied directly to a union-find over the
//!    `n` vertices, the auxiliary graph is **never materialized** — this
//!    is the `O(n)`-space advantage over Tarjan-Vishkin, which stores it
//!    (see [`super::tarjan_vishkin`]).
//! 5. every BCC is one cluster plus its *head* (the cluster root's
//!    parent); edge labels read off the clusters.

use super::euler::{euler_tour, EulerTour, NO_PARENT};
use super::{edge_list_canonical, BccResult};
use crate::cc::spanning_forest;
use crate::common::{CancelToken, Cancelled};
use crate::engine::{NoopObserver, RoundDriver, RoundObserver};
use pasgal_collections::union_find::ConcurrentUnionFind;
use pasgal_graph::storage::GraphStorage;
use pasgal_parlay::counters::Counters;
use rayon::prelude::*;

/// `low`/`high` arrays: min/max `first(x)` over non-tree neighbors of the
/// whole subtree (including each vertex's own `first`).
pub(crate) fn compute_low_high<S: GraphStorage>(g: &S, tour: &EulerTour) -> (Vec<u32>, Vec<u32>) {
    let n = g.num_vertices();
    let is_tree_edge =
        |v: u32, w: u32| tour.parent[v as usize] == w || tour.parent[w as usize] == v;
    let per_min: Vec<u32> = (0..n as u32)
        .into_par_iter()
        .with_min_len(512)
        .map(|v| {
            let mut m = tour.first[v as usize];
            for w in g.neighbors(v) {
                if !is_tree_edge(v, w) {
                    m = m.min(tour.first[w as usize]);
                }
            }
            m
        })
        .collect();
    let per_max: Vec<u32> = (0..n as u32)
        .into_par_iter()
        .with_min_len(512)
        .map(|v| {
            let mut m = tour.first[v as usize];
            for w in g.neighbors(v) {
                if !is_tree_edge(v, w) {
                    m = m.max(tour.first[w as usize]);
                }
            }
            m
        })
        .collect();
    (tour.subtree_min(&per_min), tour.subtree_max(&per_max))
}

/// Apply the two clustering rules to a union-find (shared by FAST-BCC and
/// the GBBS-style variant). Returns the number of unions performed.
pub(crate) fn cluster_unions<S: GraphStorage>(
    g: &S,
    tour: &EulerTour,
    low: &[u32],
    high: &[u32],
    uf: &ConcurrentUnionFind,
    counters: &Counters,
) {
    let n = g.num_vertices();
    // Tree rule.
    (0..n as u32)
        .into_par_iter()
        .with_min_len(512)
        .for_each(|v| {
            counters.add_tasks(1);
            let u = tour.parent[v as usize];
            if u == NO_PARENT || tour.parent[u as usize] == NO_PARENT {
                // v is a root (no parent edge), or u is a root (the rule links
                // (u,v) with (p(u),u), which does not exist)
                return;
            }
            let escapes = low[v as usize] < tour.first[u as usize]
                || high[v as usize] > tour.last[u as usize];
            if escapes {
                uf.unite(v, u);
            }
        });
    // Non-tree rule.
    (0..n as u32)
        .into_par_iter()
        .with_min_len(256)
        .for_each(|u| {
            for v in g.neighbors(u) {
                counters.add_edges(1);
                if u < v
                    && tour.parent[u as usize] != v
                    && tour.parent[v as usize] != u
                    && !tour.is_ancestor(u, v)
                    && !tour.is_ancestor(v, u)
                {
                    uf.unite(u, v);
                }
            }
        });
}

/// Read edge labels off the clusters: the parent tree edge of `v` belongs
/// to cluster `find(v)`; a non-tree edge `{u, v}` belongs to the cluster
/// of its *descendant-most* endpoint (the deeper one when one endpoint is
/// an ancestor of the other; either when incomparable — they are united).
pub(crate) fn read_edge_labels<S: GraphStorage>(
    g: &S,
    tour: &EulerTour,
    uf: &ConcurrentUnionFind,
) -> (Vec<u32>, usize) {
    let list = edge_list_canonical(g);
    let labels: Vec<u32> = list
        .par_iter()
        .with_min_len(1024)
        .map(|&(u, v)| {
            if tour.parent[v as usize] == u {
                uf.find(v)
            } else if tour.parent[u as usize] == v {
                uf.find(u)
            } else if tour.is_ancestor(u, v) {
                uf.find(v)
            } else if tour.is_ancestor(v, u) {
                uf.find(u)
            } else {
                debug_assert_eq!(uf.find(u), uf.find(v));
                uf.find(u)
            }
        })
        .collect();
    let num = crate::common::count_labels(&labels);
    (labels, num)
}

/// FAST-BCC. Requires a symmetric graph.
pub fn bcc_fast<S: GraphStorage>(g: &S) -> BccResult {
    bcc_fast_observed(g, &CancelToken::new(), &NoopObserver).expect("fresh token cannot cancel")
}

/// Cancellable [`bcc_fast`] with per-round observation: each of the five
/// pipeline phases is one round, so exactly five
/// [`crate::engine::RoundEvent`]s are emitted on an uncancelled run. With
/// no round loop to poll, the token is checked at every phase boundary —
/// each phase is a single `O(n + m)` sweep, so this is the same "within
/// one round" granularity the frontier algorithms give.
pub fn bcc_fast_observed<S: GraphStorage>(
    g: &S,
    cancel: &CancelToken,
    observer: &dyn RoundObserver,
) -> Result<BccResult, Cancelled> {
    assert!(g.is_symmetric(), "BCC requires an undirected graph");
    let n = g.num_vertices();
    let driver = RoundDriver::new(cancel, observer);

    driver.check()?;
    let forest = driver.round(n as u64, || spanning_forest(g));
    driver.check()?;
    let tour = driver.round(n as u64, || euler_tour(n, &forest.edges, &forest.labels));
    driver.check()?;
    let (low, high) = driver.round(n as u64, || compute_low_high(g, &tour));
    driver.check()?;
    let uf = ConcurrentUnionFind::new(n);
    driver.round(n as u64, || {
        cluster_unions(g, &tour, &low, &high, &uf, driver.counters())
    });
    driver.check()?;
    let (edge_labels, num_bccs) = driver.round(n as u64, || read_edge_labels(g, &tour, &uf));

    Ok(BccResult {
        edge_labels,
        num_bccs,
        stats: driver.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcc::hopcroft_tarjan::bcc_hopcroft_tarjan;
    use crate::bcc::{articulation_points, bridges};
    use crate::common::canonicalize_labels;
    use pasgal_graph::builder::from_edges_symmetric;
    use pasgal_graph::csr::Graph;
    use pasgal_graph::gen::basic::{clique, cycle, grid2d, path, star};
    use pasgal_graph::gen::rmat::{rmat_undirected, RmatParams};
    use pasgal_graph::gen::synthetic::{bubbles, traces};
    use pasgal_graph::transform::symmetrize;

    fn check(g: &Graph) {
        let want = bcc_hopcroft_tarjan(g);
        let got = bcc_fast(g);
        assert_eq!(got.num_bccs, want.num_bccs, "num_bccs");
        assert_eq!(
            canonicalize_labels(&got.edge_labels),
            canonicalize_labels(&want.edge_labels),
            "edge partition"
        );
    }

    #[test]
    fn elementary_fixtures() {
        check(&cycle(5));
        check(&path(8));
        check(&star(7));
        check(&clique(6));
        check(&grid2d(4, 6));
        check(&Graph::empty(3, true));
    }

    #[test]
    fn two_triangles_sharing_a_vertex() {
        let g = from_edges_symmetric(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
        check(&g);
        let r = bcc_fast(&g);
        assert_eq!(r.num_bccs, 2);
        assert_eq!(
            articulation_points(&g, &r.edge_labels),
            vec![false, false, true, false, false]
        );
    }

    #[test]
    fn barbell_with_bridge() {
        let g = from_edges_symmetric(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        check(&g);
        let r = bcc_fast(&g);
        assert_eq!(bridges(&r.edge_labels).iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn bubbles_structure() {
        // bubbles: each cycle one BCC, each bridge its own
        let g = bubbles(6, 5, 3);
        check(&g);
        let r = bcc_fast(&g);
        assert_eq!(r.num_bccs, 6 + 5); // 6 cycles + 5 bridges
    }

    #[test]
    fn traces_tree_all_bridges() {
        let g = traces(300, 0.4, 5);
        check(&g);
        let r = bcc_fast(&g);
        assert_eq!(r.num_bccs, 299);
    }

    #[test]
    fn random_power_law_matches_oracle() {
        for seed in 0..3 {
            let g = rmat_undirected(RmatParams::social(8, 4, seed));
            check(&g);
        }
    }

    #[test]
    fn sparse_random_graphs_match_oracle() {
        use pasgal_graph::gen::basic::random_directed;
        for seed in 0..6 {
            let g = symmetrize(&random_directed(120, 180, seed));
            check(&g);
        }
    }

    #[test]
    fn cancelled_token_aborts_with_err() {
        let g = grid2d(30, 30);
        let t = CancelToken::new();
        t.cancel();
        assert!(matches!(
            bcc_fast_observed(&g, &t, &NoopObserver),
            Err(Cancelled)
        ));
        let ok = bcc_fast_observed(&g, &CancelToken::new(), &NoopObserver).unwrap();
        assert_eq!(ok.num_bccs, bcc_hopcroft_tarjan(&g).num_bccs);
    }

    #[test]
    fn disconnected_graphs() {
        let g = from_edges_symmetric(7, &[(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)]);
        check(&g);
    }

    #[test]
    fn nested_cycles_with_chords() {
        let g = from_edges_symmetric(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (0, 2), // chord
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 4), // triangle hanging off a bridge
                (6, 7),
            ],
        );
        check(&g);
    }
}
