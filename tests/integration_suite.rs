//! Integration checks on the dataset suite itself: the synthetic stand-ins
//! must land in the same diameter regimes as the paper's categories
//! (Table 1), or every "large-diameter vs low-diameter" conclusion would
//! be built on sand. Also exercises IO round-trips through both supported
//! formats on suite graphs.

use pasgal_graph::gen::suite::{Category, SuiteScale, SUITE};
use pasgal_graph::io;
use pasgal_graph::stats::{degree_stats, estimate_diameter, graph_info};
use pasgal_graph::transform::symmetrize;

#[test]
fn low_diameter_categories_have_small_diameters() {
    for entry in SUITE.iter().filter(|e| e.category.is_low_diameter()) {
        let g = entry.build_symmetric(SuiteScale::Tiny);
        let d = estimate_diameter(&g, 8, 1);
        assert!(
            d <= 35,
            "{} (low-diameter category) has diameter estimate {d}",
            entry.name
        );
    }
}

#[test]
fn large_diameter_categories_have_large_diameters() {
    for entry in SUITE.iter().filter(|e| !e.category.is_low_diameter()) {
        let g = entry.build_symmetric(SuiteScale::Tiny);
        // Tiny-scale graphs compress diameters; 45 still separates the
        // regimes cleanly from the low-diameter bound of 35 above.
        let d = estimate_diameter(&g, 8, 1);
        assert!(
            d >= 45,
            "{} (large-diameter category) has diameter estimate only {d}",
            entry.name
        );
    }
}

#[test]
fn road_and_knn_are_sparse_social_and_web_are_skewed() {
    for entry in SUITE {
        let g = entry.build(SuiteScale::Tiny);
        let s = degree_stats(&g);
        match entry.category {
            Category::Road => assert!(s.avg < 4.0, "{}: avg {}", entry.name, s.avg),
            Category::Knn => assert!(s.avg <= 12.0, "{}: avg {}", entry.name, s.avg),
            Category::Social | Category::Web => {
                assert!(
                    s.max as f64 > 6.0 * s.avg,
                    "{}: max {} vs avg {} not heavy-tailed",
                    entry.name,
                    s.max,
                    s.avg
                );
            }
            Category::Synthetic => {}
        }
    }
}

#[test]
fn graph_info_matches_table1_shape() {
    // directed entries report both m' and m with m' < m, like Table 1
    let entry = pasgal_graph::gen::suite::by_name("AF").unwrap();
    let g = entry.build(SuiteScale::Tiny);
    let info = graph_info(&g, 4, 2);
    assert!(info.m_directed.unwrap() < info.m_symmetric);
    assert!(info.diam_directed.unwrap() >= info.diam_symmetric / 4);
}

#[test]
fn io_roundtrips_on_suite_graphs() {
    let dir = io::unique_temp_dir("suite");
    for name in ["LJ", "AF", "BBL"] {
        let g = pasgal_graph::gen::suite::by_name(name)
            .unwrap()
            .build(SuiteScale::Tiny);
        let p_adj = dir.join(format!("{name}.adj"));
        let p_bin = dir.join(format!("{name}.bin"));
        io::write_adj(&g, &p_adj).unwrap();
        io::write_bin(&g, &p_bin).unwrap();
        let a = io::read_adj(&p_adj).unwrap();
        let b = io::read_bin(&p_bin).unwrap();
        assert_eq!(g.offsets(), a.offsets(), "{name}: adj offsets");
        assert_eq!(g.targets(), a.targets(), "{name}: adj targets");
        assert_eq!(&g, &b, "{name}: bin");
    }
}

#[test]
fn symmetrize_is_idempotent_on_suite() {
    for name in ["TW", "REC"] {
        let g = pasgal_graph::gen::suite::by_name(name)
            .unwrap()
            .build(SuiteScale::Tiny);
        let s1 = symmetrize(&g);
        let s2 = symmetrize(&s1);
        assert_eq!(s1, s2, "{name}");
    }
}
