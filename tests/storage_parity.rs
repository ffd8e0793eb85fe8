//! Storage-backend parity: the storage tier must be invisible to the
//! algorithms. For every suite generator, BFS / SSSP / SCC answers over
//! the compressed and mmap backends must be **bit-identical** to the
//! plain CSR answers, and a pack → load round-trip must reproduce the
//! graph exactly (offsets, edges, weights, flags).

use pasgal_core::bfs::vgc::bfs_vgc;
use pasgal_core::common::VgcConfig;
use pasgal_core::scc::scc_vgc;
use pasgal_core::sssp::sssp_rho_stepping;
use pasgal_core::sssp::stepping::RhoConfig;
use pasgal_graph::compressed::CompressedGraph;
use pasgal_graph::csr::Graph;
use pasgal_graph::disk::{pack, MmapGraph};
use pasgal_graph::gen::suite::{SuiteScale, SUITE};
use pasgal_graph::gen::with_random_weights;
use pasgal_graph::io::unique_temp_dir;
use pasgal_graph::storage::{to_plain, GraphStorage};

fn assert_graphs_identical(a: &Graph, b: &impl GraphStorage, what: &str) {
    assert_eq!(a.num_vertices(), b.num_vertices(), "{what}: n");
    assert_eq!(a.num_edges(), b.num_edges(), "{what}: m");
    assert_eq!(a.is_symmetric(), b.is_symmetric(), "{what}: symmetric");
    assert_eq!(a.is_weighted(), b.is_weighted(), "{what}: weighted");
    for v in 0..a.num_vertices() as u32 {
        assert_eq!(b.degree(v), a.degree(v), "{what}: degree({v})");
        let got: Vec<u32> = b.neighbors(v).collect();
        assert_eq!(got, a.neighbors(v), "{what}: neighbors({v})");
        if a.is_weighted() {
            let got: Vec<(u32, u32)> = b.weighted_neighbors(v).collect();
            let want: Vec<(u32, u32)> = a
                .neighbors(v)
                .iter()
                .copied()
                .zip(a.neighbor_weights(v).unwrap().iter().copied())
                .collect();
            assert_eq!(got, want, "{what}: weighted_neighbors({v})");
        }
    }
}

#[test]
fn pack_load_roundtrips_bit_identical() {
    let dir = unique_temp_dir("parity");
    for entry in SUITE {
        let g = with_random_weights(&entry.build(SuiteScale::Tiny), 7, 64);
        for compress in [false, true] {
            let p = dir.join(format!("rt_{}_{}", entry.name, compress));
            pack(&g, &p, compress).unwrap();
            let m = MmapGraph::load(&p).unwrap();
            assert_eq!(m.is_compressed(), compress, "{}", entry.name);
            assert_graphs_identical(&g, &m, &format!("{} compress={compress}", entry.name));
            // decoding the container back to plain CSR is also exact
            assert_eq!(to_plain(&m), g, "{} to_plain", entry.name);
        }
    }
}

#[test]
fn bfs_parity_across_backends() {
    let dir = unique_temp_dir("parity");
    for entry in SUITE {
        let g = entry.build(SuiteScale::Tiny);
        let cfg = VgcConfig::with_tau(64);
        let want = bfs_vgc(&g, 0, &cfg);
        let c = CompressedGraph::from_storage(&g);
        assert_eq!(
            bfs_vgc(&c, 0, &cfg).dist,
            want.dist,
            "{} compressed",
            entry.name
        );
        let p = dir.join(format!("bfs_{}", entry.name));
        pack(&g, &p, true).unwrap();
        let m = MmapGraph::load(&p).unwrap();
        assert_eq!(bfs_vgc(&m, 0, &cfg).dist, want.dist, "{} mmap", entry.name);
    }
}

#[test]
fn sssp_parity_across_backends() {
    let dir = unique_temp_dir("parity");
    for entry in SUITE {
        let g = with_random_weights(&entry.build(SuiteScale::Tiny), 11, 100);
        let cfg = RhoConfig::default();
        let want = sssp_rho_stepping(&g, 0, &cfg);
        let c = CompressedGraph::from_storage(&g);
        assert_eq!(
            sssp_rho_stepping(&c, 0, &cfg).dist,
            want.dist,
            "{} compressed",
            entry.name
        );
        let p = dir.join(format!("sssp_{}", entry.name));
        pack(&g, &p, true).unwrap();
        let m = MmapGraph::load(&p).unwrap();
        assert_eq!(
            sssp_rho_stepping(&m, 0, &cfg).dist,
            want.dist,
            "{} mmap",
            entry.name
        );
    }
}

#[test]
fn scc_parity_across_backends() {
    let dir = unique_temp_dir("parity");
    use pasgal_core::common::canonicalize_labels;
    for entry in SUITE {
        let g = entry.build(SuiteScale::Tiny);
        let cfg = VgcConfig::with_tau(64);
        let want = scc_vgc(&g, &cfg);
        let want_labels = canonicalize_labels(&want.labels);
        let c = CompressedGraph::from_storage(&g);
        let got = scc_vgc(&c, &cfg);
        assert_eq!(got.num_sccs, want.num_sccs, "{} compressed", entry.name);
        assert_eq!(
            canonicalize_labels(&got.labels),
            want_labels,
            "{} compressed labels",
            entry.name
        );
        let p = dir.join(format!("scc_{}", entry.name));
        pack(&g, &p, false).unwrap();
        let m = MmapGraph::load(&p).unwrap();
        let got = scc_vgc(&m, &cfg);
        assert_eq!(got.num_sccs, want.num_sccs, "{} mmap", entry.name);
        assert_eq!(
            canonicalize_labels(&got.labels),
            want_labels,
            "{} mmap labels",
            entry.name
        );
    }
}
