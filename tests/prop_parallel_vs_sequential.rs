//! Property-style tests: on arbitrary random graphs, every parallel
//! algorithm must agree with its sequential oracle, and the substrate
//! structures must obey their invariants.
//!
//! The case generator is the repo's own deterministic counter-based RNG
//! ([`SplitRng`]) rather than an external property-testing framework, so
//! the suite builds offline; every failure message carries the case seed,
//! which fully reproduces the input.

use pasgal_core::bcc::{bcc_fast, bcc_hopcroft_tarjan, bcc_tarjan_vishkin};
use pasgal_core::bfs::flat::{bfs_flat, DirOptConfig};
use pasgal_core::bfs::seq::bfs_seq;
use pasgal_core::bfs::vgc::bfs_vgc;
use pasgal_core::cc::{connectivity, spanning_forest};
use pasgal_core::common::{canonicalize_labels, VgcConfig};
use pasgal_core::scc::{scc_multistep, scc_tarjan, scc_vgc};
use pasgal_core::sssp::stepping::RhoConfig;
use pasgal_core::sssp::{sssp_delta_stepping, sssp_dijkstra, sssp_rho_stepping};
use pasgal_graph::builder::{from_edges, from_edges_symmetric, from_weighted_edges};
use pasgal_graph::csr::Graph;
use pasgal_parlay::rng::SplitRng;

const CASES: u64 = 48;

/// A random directed graph: `n` in `2..max_n`, up to `max_m` edges.
fn directed_graph(rng: SplitRng, max_n: usize, max_m: usize) -> (usize, Vec<(u32, u32)>) {
    let n = 2 + rng.split(1).range_at(0, (max_n - 2) as u64) as usize;
    let m = rng.split(2).range_at(0, max_m as u64) as usize;
    let er = rng.split(3);
    let edges = (0..m)
        .map(|i| {
            (
                er.range_at(2 * i as u64, n as u64) as u32,
                er.range_at(2 * i as u64 + 1, n as u64) as u32,
            )
        })
        .collect();
    (n, edges)
}

fn build_directed(n: usize, edges: &[(u32, u32)]) -> Graph {
    from_edges(n, edges)
}

/// Run `body` over `CASES` deterministic seeds, labeling failures.
fn for_cases(name: &str, body: impl Fn(u64, SplitRng)) {
    for case in 0..CASES {
        let rng = SplitRng::new(0x9e37_79b9 ^ case);
        // The case index reproduces the input exactly.
        let _ = name;
        body(case, rng);
    }
}

#[test]
fn bfs_vgc_matches_seq() {
    for_cases("bfs_vgc", |case, rng| {
        let (n, edges) = directed_graph(rng, 60, 240);
        let tau = 1 + rng.split(9).range_at(0, 63) as usize;
        let g = build_directed(n, &edges);
        let want = bfs_seq(&g, 0).dist;
        let got = bfs_vgc(&g, 0, &VgcConfig::with_tau(tau));
        assert_eq!(got.dist, want, "case {case}: tau={tau}");
    });
}

#[test]
fn bfs_flat_matches_seq() {
    for_cases("bfs_flat", |case, rng| {
        let (n, edges) = directed_graph(rng, 60, 240);
        let g = build_directed(n, &edges);
        let want = bfs_seq(&g, 0).dist;
        let got = bfs_flat(&g, 0, None, &DirOptConfig::default());
        assert_eq!(got.dist, want, "case {case}");
    });
}

#[test]
fn scc_vgc_matches_tarjan() {
    for_cases("scc_vgc", |case, rng| {
        let (n, edges) = directed_graph(rng, 40, 160);
        let g = build_directed(n, &edges);
        let want = scc_tarjan(&g);
        let got = scc_vgc(&g, &VgcConfig::with_tau(8));
        assert_eq!(got.num_sccs, want.num_sccs, "case {case}");
        assert_eq!(
            canonicalize_labels(&got.labels),
            canonicalize_labels(&want.labels),
            "case {case}"
        );
    });
}

#[test]
fn scc_bgss_matches_tarjan() {
    use pasgal_core::scc::bgss::scc_bgss_vgc;
    for_cases("scc_bgss", |case, rng| {
        let (n, edges) = directed_graph(rng, 35, 140);
        let tau = 1 + rng.split(9).range_at(0, 127) as usize;
        let g = build_directed(n, &edges);
        let want = scc_tarjan(&g);
        let got = scc_bgss_vgc(&g, &VgcConfig::with_tau(tau));
        assert_eq!(got.num_sccs, want.num_sccs, "case {case}: tau={tau}");
        assert_eq!(
            canonicalize_labels(&got.labels),
            canonicalize_labels(&want.labels),
            "case {case}: tau={tau}"
        );
    });
}

#[test]
fn scc_multistep_matches_tarjan() {
    for_cases("scc_multistep", |case, rng| {
        let (n, edges) = directed_graph(rng, 40, 160);
        let g = build_directed(n, &edges);
        let want = scc_tarjan(&g);
        let got = scc_multistep(&g).unwrap();
        assert_eq!(got.num_sccs, want.num_sccs, "case {case}");
        assert_eq!(
            canonicalize_labels(&got.labels),
            canonicalize_labels(&want.labels),
            "case {case}"
        );
    });
}

#[test]
fn bcc_fast_matches_hopcroft_tarjan() {
    for_cases("bcc_fast", |case, rng| {
        let (n, edges) = directed_graph(rng, 40, 120);
        let g = from_edges_symmetric(n, &edges);
        let want = bcc_hopcroft_tarjan(&g);
        let got = bcc_fast(&g);
        assert_eq!(got.num_bccs, want.num_bccs, "case {case}");
        assert_eq!(
            canonicalize_labels(&got.edge_labels),
            canonicalize_labels(&want.edge_labels),
            "case {case}"
        );
    });
}

#[test]
fn bcc_tv_matches_hopcroft_tarjan() {
    for_cases("bcc_tv", |case, rng| {
        let (n, edges) = directed_graph(rng, 30, 90);
        let g = from_edges_symmetric(n, &edges);
        let want = bcc_hopcroft_tarjan(&g);
        let got = bcc_tarjan_vishkin(&g);
        assert_eq!(got.num_bccs, want.num_bccs, "case {case}");
        assert_eq!(
            canonicalize_labels(&got.edge_labels),
            canonicalize_labels(&want.edge_labels),
            "case {case}"
        );
    });
}

#[test]
fn sssp_implementations_match_dijkstra() {
    for_cases("sssp", |case, rng| {
        let (n, edges) = directed_graph(rng, 40, 160);
        let weights_seed = rng.split(9).u64_at(0) % 1000;
        let delta = 1 + rng.split(10).u64_at(0) % 63;
        let ws: Vec<u32> = edges
            .iter()
            .enumerate()
            .map(|(i, _)| ((weights_seed.wrapping_mul(31).wrapping_add(i as u64) % 50) + 1) as u32)
            .collect();
        let g = from_weighted_edges(n, &edges, &ws);
        let want = sssp_dijkstra(&g, 0).dist;
        assert_eq!(
            sssp_delta_stepping(&g, 0, delta).dist,
            want,
            "case {case}: delta={delta}"
        );
        let cfg = RhoConfig {
            rho: 8,
            vgc: VgcConfig::with_tau(16),
        };
        assert_eq!(sssp_rho_stepping(&g, 0, &cfg).dist, want, "case {case}");
    });
}

#[test]
fn connectivity_labels_partition() {
    for_cases("cc_partition", |case, rng| {
        let (n, edges) = directed_graph(rng, 50, 150);
        let g = from_edges_symmetric(n, &edges);
        let cc = connectivity(&g);
        // labels must be idempotent representatives
        for (v, &l) in cc.labels.iter().enumerate() {
            assert!((l as usize) <= v, "case {case}");
            assert_eq!(cc.labels[l as usize], l, "case {case}");
        }
        // endpoints of every edge share a label
        for (u, v) in g.edges() {
            assert_eq!(cc.labels[u as usize], cc.labels[v as usize], "case {case}");
        }
    });
}

#[test]
fn spanning_forest_is_spanning_and_acyclic() {
    for_cases("spanning_forest", |case, rng| {
        let (n, edges) = directed_graph(rng, 50, 150);
        let g = from_edges_symmetric(n, &edges);
        let cc = connectivity(&g);
        let f = spanning_forest(&g);
        assert_eq!(f.edges.len(), n - cc.num_components, "case {case}");
        // rebuilding a DSU from tree edges gives the same partition
        let uf = pasgal_collections::union_find::ConcurrentUnionFind::new(n);
        for &(a, b) in &f.edges {
            assert!(uf.unite(a, b), "case {case}: cycle edge in forest");
        }
        assert_eq!(uf.labels(), cc.labels, "case {case}");
    });
}

#[test]
fn hashbag_is_a_multiset() {
    for_cases("hashbag", |case, rng| {
        let len = rng.split(1).range_at(0, 2000) as usize;
        let vals = rng.split(2);
        let items: Vec<u32> = (0..len)
            .map(|i| vals.range_at(i as u64, 1000) as u32)
            .collect();
        let bag = pasgal_collections::hashbag::HashBag::new(items.len().max(1));
        for &x in &items {
            bag.insert(x);
        }
        let mut got = bag.extract_and_clear();
        got.sort_unstable();
        let mut want = items.clone();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");
    });
}

#[test]
fn scan_matches_sequential() {
    for_cases("scan", |case, rng| {
        let len = rng.split(1).range_at(0, 500) as usize;
        let vals = rng.split(2);
        let xs: Vec<u64> = (0..len).map(|i| vals.u64_at(i as u64) % 1000).collect();
        let (got, total) = pasgal_parlay::scan::scan_exclusive(&xs);
        let mut acc = 0u64;
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(got[i], acc, "case {case} at {i}");
            acc += x;
        }
        assert_eq!(total, acc, "case {case}");
    });
}

#[test]
fn counting_sort_matches_std() {
    for_cases("counting_sort", |case, rng| {
        let len = rng.split(1).range_at(0, 1000) as usize;
        let vals = rng.split(2);
        let xs: Vec<u32> = (0..len)
            .map(|i| vals.range_at(i as u64, 64) as u32)
            .collect();
        let got = pasgal_parlay::sort::counting_sort_by_key(&xs, 64, |&x| x as usize);
        let mut want = xs.clone();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");
    });
}

#[test]
fn kcore_peel_matches_bz() {
    for_cases("kcore", |case, rng| {
        let (n, edges) = directed_graph(rng, 50, 200);
        let tau = 1 + rng.split(9).range_at(0, 511) as usize;
        let g = from_edges_symmetric(n, &edges);
        let want = pasgal_core::kcore::kcore_seq(&g);
        let got = pasgal_core::kcore::kcore_peel(&g, tau);
        assert_eq!(got.coreness, want.coreness, "case {case}: tau={tau}");
    });
}

#[test]
fn io_roundtrips_arbitrary_graphs() {
    for_cases("io_roundtrip", |case, rng| {
        let (n, edges) = directed_graph(rng, 40, 120);
        let weighted = rng.split(9).u64_at(0) % 2 == 0;
        let g = if weighted {
            let ws: Vec<u32> = edges
                .iter()
                .enumerate()
                .map(|(i, _)| (i as u32 % 97) + 1)
                .collect();
            from_weighted_edges(n, &edges, &ws)
        } else {
            from_edges(n, &edges)
        };
        let dir = pasgal_graph::io::unique_temp_dir("prop");
        let p_adj = dir.join("g.adj");
        let p_bin = dir.join("g.bin");
        pasgal_graph::io::write_adj(&g, &p_adj).unwrap();
        pasgal_graph::io::write_bin(&g, &p_bin).unwrap();
        let a = pasgal_graph::io::read_adj(&p_adj).unwrap();
        let b = pasgal_graph::io::read_bin(&p_bin).unwrap();
        assert_eq!(g.offsets(), a.offsets(), "case {case}");
        assert_eq!(g.targets(), a.targets(), "case {case}");
        assert_eq!(g.weights(), a.weights(), "case {case}");
        assert_eq!(&g, &b, "case {case}");
    });
}

#[test]
fn euler_tour_invariants_hold() {
    use pasgal_core::bcc::euler::{euler_tour, NO_PARENT};
    for_cases("euler_tour", |case, rng| {
        let (n, edges) = directed_graph(rng, 40, 120);
        let g = from_edges_symmetric(n, &edges);
        let f = spanning_forest(&g);
        let t = euler_tour(n, &f.edges, &f.labels);
        for v in 0..n {
            assert!(t.first[v] < t.last[v], "case {case}");
            assert!((t.last[v] as usize) < t.total_len, "case {case}");
            let p = t.parent[v];
            if p != NO_PARENT {
                // child interval strictly nested in parent's
                assert!(t.first[p as usize] < t.first[v], "case {case}");
                assert!(t.last[v] < t.last[p as usize], "case {case}");
            } else {
                // roots are their component's min id
                assert_eq!(f.labels[v], v as u32, "case {case}");
            }
        }
        // intervals nest or are disjoint (checked pairwise on a sample)
        for v in (0..n).step_by(3) {
            for w in (0..n).step_by(7) {
                let nested = (t.first[v] <= t.first[w] && t.last[w] <= t.last[v])
                    || (t.first[w] <= t.first[v] && t.last[v] <= t.last[w]);
                let disjoint = t.last[v] < t.first[w] || t.last[w] < t.first[v];
                assert!(nested || disjoint, "case {case}: v={v} w={w}");
            }
        }
    });
}

#[test]
fn bfs_direction_optimized_matches_on_directed() {
    use pasgal_core::bfs::vgc::bfs_vgc_dir;
    use pasgal_graph::transform::transpose;
    for_cases("bfs_dir", |case, rng| {
        let (n, edges) = directed_graph(rng, 50, 300);
        let g = build_directed(n, &edges);
        let t = transpose(&g);
        let want = bfs_seq(&g, 0).dist;
        let got = bfs_vgc_dir(&g, 0, Some(&t), &VgcConfig::with_tau(16));
        assert_eq!(got.dist, want, "case {case}");
    });
}
