//! Corruption property test for the on-disk container: flip any single
//! byte of a packed `.pasgal` file and (a) [`MmapGraph::load`] must
//! return an error — never panic, never yield a graph — and
//! (b) [`disk::verify`] must report at least one failing check while
//! still producing a verdict for every section it could reach.

use pasgal_graph::disk::{self, pack, MmapGraph};
use pasgal_graph::gen::basic::grid2d;
use pasgal_graph::io::{unique_temp_dir, TempDir};
use std::path::{Path, PathBuf};

/// A packed container in a directory of the caller's own (tests here
/// rewrite the file in place, which must never reach another test's
/// mapping), its path, and its pristine bytes.
fn packed_fixture(compress: bool) -> (TempDir, PathBuf, Vec<u8>) {
    let dir = unique_temp_dir("corrupt");
    let path = dir.join("g.pasgal");
    pack(&grid2d(9, 7), &path, compress).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    (dir, path, bytes)
}

fn write_flipped(path: &Path, bytes: &[u8], pos: usize) {
    let mut corrupt = bytes.to_vec();
    corrupt[pos] ^= 0x01;
    std::fs::write(path, &corrupt).unwrap();
}

/// Every single-byte flip must be caught. Strided positions keep the
/// runtime down while still covering header, every section descriptor,
/// and payload bytes; the file tail is covered exhaustively.
#[test]
fn one_flipped_byte_always_errors_and_never_panics() {
    for compress in [false, true] {
        let (_dir, path, bytes) = packed_fixture(compress);
        let positions: Vec<usize> = (0..bytes.len())
            .filter(|p| p % 13 == 0 || *p >= bytes.len().saturating_sub(16))
            .collect();
        for pos in positions {
            write_flipped(&path, &bytes, pos);
            // catch_unwind: the property is *errors, never panics* — a
            // panic would poison an mmap-serving process on bad input
            let loaded = std::panic::catch_unwind(|| MmapGraph::load(&path));
            match loaded {
                Ok(Err(_)) => {}
                Ok(Ok(_)) => panic!(
                    "flipping byte {pos} of the {}compressed container went undetected",
                    if compress { "" } else { "un" }
                ),
                Err(_) => panic!(
                    "MmapGraph::load panicked on byte {pos} flipped ({}compressed)",
                    if compress { "" } else { "un" }
                ),
            }
            let report = disk::verify(&path).expect("file exists: verify must not I/O-error");
            assert!(
                !report.ok(),
                "verify passed a container with byte {pos} flipped: {report:?}"
            );
            assert!(
                report.checks.iter().any(|c| !c.ok),
                "failing report must name a failing check: {report:?}"
            );
        }
    }
}

/// Truncation at any strided length is likewise an error, not a panic.
#[test]
fn truncated_container_always_errors() {
    let (_dir, path, bytes) = packed_fixture(false);
    for len in (0..bytes.len()).step_by(7) {
        std::fs::write(&path, &bytes[..len]).unwrap();
        let loaded = std::panic::catch_unwind(|| MmapGraph::load(&path));
        match loaded {
            Ok(Err(_)) => {}
            Ok(Ok(_)) => panic!("loading a {len}-byte truncation succeeded"),
            Err(_) => panic!("MmapGraph::load panicked on a {len}-byte truncation"),
        }
        let report = disk::verify(&path).unwrap();
        assert!(!report.ok(), "verify passed a {len}-byte truncation");
    }
}

/// The intact file round-trips: verify reports every check green.
#[test]
fn pristine_container_verifies_clean() {
    for compress in [false, true] {
        let (_dir, path, _) = packed_fixture(compress);
        let report = disk::verify(&path).unwrap();
        assert!(report.ok(), "{report:?}");
        assert!(
            report.checks.iter().any(|c| c.name == "header")
                && report.checks.iter().any(|c| c.name.starts_with("section")),
            "report should cover header and sections: {report:?}"
        );
        assert!(MmapGraph::load(&path).is_ok());
    }
}

/// `pack --force` over a container that is mapped and being traversed:
/// the traversal finishes with the old graph's answers (the mapping keeps
/// the old inode — an in-place truncation would SIGBUS it past the new,
/// shorter end), and a fresh load sees the new graph.
#[test]
fn repack_over_a_live_mapping_keeps_old_answers_and_never_faults() {
    use pasgal_graph::storage::GraphStorage;

    let dir = unique_temp_dir("repack");
    let path = dir.join("g.pasgal");
    let (old, new) = (grid2d(100, 100), grid2d(3, 3));
    pack(&old, &path, false).unwrap();
    let mapped = MmapGraph::load(&path).unwrap();

    let half = old.num_vertices() as u32 / 2;
    let scan = |from: u32, to: u32| -> Vec<Vec<u32>> {
        (from..to).map(|v| mapped.neighbors(v).collect()).collect()
    };
    let mut seen = scan(0, half);
    // the repack lands strictly between the two halves of the traversal
    std::thread::scope(|s| {
        s.spawn(|| disk::pack_checked(&new, &path, false, true).unwrap())
            .join()
            .unwrap();
    });
    seen.extend(scan(half, old.num_vertices() as u32));

    let want: Vec<Vec<u32>> = (0..old.num_vertices() as u32)
        .map(|v| old.neighbors(v).to_vec())
        .collect();
    assert_eq!(
        seen, want,
        "the live mapping must keep serving the old graph"
    );
    let fresh = MmapGraph::load(&path).unwrap();
    assert_eq!(pasgal_graph::storage::to_plain(&fresh), new);
    // no temp file is left beside the container
    assert_eq!(std::fs::read_dir(dir.join("")).unwrap().count(), 1);
}
