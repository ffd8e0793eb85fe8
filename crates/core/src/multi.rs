//! Bit-parallel multi-source BFS: up to 128 sources per traversal, one
//! (or two) `u64` mask words per vertex.
//!
//! A service answering distance queries pays one full traversal per
//! *distinct* source; micro-batching only merges identical ones. The
//! bit_gossip observation (SNIPPETS.md §1) is that BFS from `k ≤ 64`
//! sources needs no more frontier passes than BFS from one: give source
//! `c` bit `c` of a per-vertex mask word, and a frontier vertex forwards
//! its newly-activated bits to each neighbor with a single word-wide OR.
//! A bit that lands on a vertex for the first time in round `d` proves
//! hop distance `d` from its source — exactly the distance sequential
//! BFS assigns, so the per-source *distance columns* this engine fills
//! are bit-identical to `k` independent [`crate::bfs::seq::bfs_seq`]
//! runs while traversing each edge once per round instead of `k` times.
//! Two words extend the flight to 128 sources ([`MAX_SOURCES`]).
//!
//! Unlike the VGC traversals in this crate, rounds here are strictly
//! level-synchronous — the "newly set bit ⇒ distance = round" invariant
//! is what replaces `k` distance arrays' worth of `write_min` traffic
//! with one OR per word. The round loop is still the shared engine:
//! one [`RoundDriver`] round per multi-source pass (so `--trace-rounds`
//! and the service's round observability apply unchanged), and all
//! scratch — seen/cur/next mask arrays, the frontier bag and vector,
//! the distance columns, the insertion-claim bits — lives in the pooled
//! [`TraversalWorkspace`], so a warm flight allocates nothing.
//!
//! Within a round, three phases keep the masks exact under concurrency:
//!
//! 1. **promote** — the vertices just drained from the bag move their
//!    `next` masks into `cur` (the payload they will forward) and OR
//!    them into `seen`; their claim bits clear so a later round can
//!    rediscover them with new bits.
//! 2. **propagate** — each frontier vertex ORs `cur & !seen[u]` into
//!    `next[u]` for every neighbor `u`. [`fetch_or`] returns the prior
//!    word, so `to_or & !prev` names the bits *this* call set first —
//!    the unique winner writes the distance column entry, no CAS loop.
//! 3. **claim** — the first discoverer of a vertex (any bit, either
//!    word) wins its packed claim bit and inserts it into the bag
//!    exactly once, keeping the frontier duplicate-free.
//!
//! On top of the engine, [`DistanceOracle`] freezes a flight's columns
//! into a shared lookup table: any point-to-point or single-source query
//! against a covered source is an array read.
//!
//! [`fetch_or`]: pasgal_collections::atomic_array::AtomicU64Array::fetch_or

use crate::common::{AlgoStats, CancelToken, Cancelled, HopDist, UNREACHED};
use crate::engine::{NoopObserver, RoundDriver, RoundObserver};
use crate::vgc::frontier_chunk_len;
use crate::workspace::TraversalWorkspace;
use pasgal_graph::storage::GraphStorage;
use pasgal_graph::VertexId;
use pasgal_parlay::gran::{par_for, par_slices};
use std::sync::Arc;

/// Most sources one flight can carry: two `u64` mask words per vertex.
pub const MAX_SOURCES: usize = 128;

/// Mask words per vertex for a flight of `k` sources (1 or 2).
#[inline]
pub fn words_for(k: usize) -> usize {
    k.div_ceil(64)
}

/// Result of a multi-source BFS: per-source hop-distance columns plus the
/// run's statistics.
#[derive(Debug, Clone)]
pub struct MultiBfsResult {
    /// Column-major distances: entry `c * n + v` is the hop distance of
    /// vertex `v` from `sources[c]` ([`UNREACHED`] if unreachable).
    pub dist: Vec<u32>,
    /// Execution statistics (one round per frontier pass).
    pub stats: AlgoStats,
}

/// Multi-source BFS from `sources` (at most [`MAX_SOURCES`]) over a fresh
/// workspace. Column `c` of the result is bit-identical to
/// `bfs_seq(g, sources[c]).dist`.
///
/// # Panics
///
/// If `sources` is empty, longer than [`MAX_SOURCES`], or names a vertex
/// out of range.
pub fn multi_bfs<S: GraphStorage>(g: &S, sources: &[VertexId]) -> MultiBfsResult {
    let mut ws = TraversalWorkspace::new();
    let stats = multi_bfs_observed_in(g, sources, &CancelToken::new(), &NoopObserver, &mut ws)
        .expect("fresh token cannot cancel");
    MultiBfsResult {
        dist: ws.take_multi_dist(),
        stats,
    }
}

/// The pooled-workspace, cancellable entry point (stops within one round
/// of `cancel` firing): runs the flight and leaves the
/// distance columns resident in `ws` (read them via
/// [`TraversalWorkspace::multi_dist`] or move them out via
/// [`TraversalWorkspace::take_multi_dist`]). All state is re-prepared up
/// front, so a workspace abandoned by a panicked or cancelled run is safe
/// to reuse; a warm call allocates nothing.
pub fn multi_bfs_observed_in<S: GraphStorage>(
    g: &S,
    sources: &[VertexId],
    cancel: &CancelToken,
    observer: &dyn RoundObserver,
    ws: &mut TraversalWorkspace,
) -> Result<AlgoStats, Cancelled> {
    let n = g.num_vertices();
    let k = sources.len();
    assert!(k >= 1, "multi-source BFS needs at least one source");
    assert!(
        k <= MAX_SOURCES,
        "multi-source BFS carries at most {MAX_SOURCES} sources per flight, got {k}"
    );
    for &s in sources {
        assert!(
            (s as usize) < n,
            "source {s} out of range for a graph of {n} vertices"
        );
    }
    let w = words_for(k);
    let claim_words = n.div_ceil(64);

    ws.multi_seen.reset(n * w, 0);
    ws.multi_cur.reset(n * w, 0);
    ws.multi_next.reset(n * w, 0);
    ws.multi_dist.reset(k * n, UNREACHED);
    ws.multi_claim.reset(claim_words, 0);
    ws.bag.reserve(n);
    ws.frontier.clear();

    let TraversalWorkspace {
        multi_seen,
        multi_cur,
        multi_next,
        multi_dist,
        multi_claim,
        bag,
        frontier,
        ..
    } = ws;
    let (seen, cur, next, dist, claim) = (
        &*multi_seen,
        &*multi_cur,
        &*multi_next,
        &*multi_dist,
        &*multi_claim,
    );

    // Seed: source c activates bit c of its vertex at distance 0. Sources
    // sharing a vertex share one frontier slot (k ≤ 128, so the linear
    // dedup is cheaper than any set).
    for (c, &s) in sources.iter().enumerate() {
        let idx = s as usize * w + c / 64;
        let bit = 1u64 << (c % 64);
        cur.set(idx, cur.get(idx) | bit);
        seen.set(idx, seen.get(idx) | bit);
        dist.set(c * n + s as usize, 0);
        if !frontier.contains(&s) {
            frontier.push(s);
        }
    }

    let driver = RoundDriver::new(cancel, observer);
    let bag = &*bag;
    let mut depth: u32 = 0;
    let run = driver.drive_bag_in(bag, frontier, |front| {
        depth += 1;
        let d = depth;
        if d > 1 {
            // Promote last round's discoveries (phase 1 of the module
            // docs). The frontier is duplicate-free, so each vertex has
            // exactly one promoter and plain stores suffice.
            par_for(front.len(), 128, |i| {
                let v = front[i] as usize;
                for j in 0..w {
                    let idx = v * w + j;
                    let bits = next.get(idx);
                    cur.set(idx, bits);
                    if bits != 0 {
                        next.set(idx, 0);
                        seen.fetch_or(idx, bits);
                    }
                }
                claim.fetch_and(v / 64, !(1u64 << (v % 64)));
            });
        }
        let chunk = frontier_chunk_len(front.len());
        par_slices(front, chunk, |verts| {
            if driver.cancelled() {
                return;
            }
            driver.counters().add_tasks(1);
            let mut edges = 0u64;
            let mut payload = [0u64; 2];
            for &v in verts {
                let vi = v as usize;
                for (j, word) in payload.iter_mut().enumerate().take(w) {
                    *word = cur.get(vi * w + j);
                }
                if payload[..w].iter().all(|&b| b == 0) {
                    continue;
                }
                edges += g.degree(v) as u64;
                for u in g.neighbors(v) {
                    let ui = u as usize;
                    let mut discovered = false;
                    for (j, &bits) in payload.iter().enumerate().take(w) {
                        if bits == 0 {
                            continue;
                        }
                        let idx = ui * w + j;
                        let to_or = bits & !seen.get(idx);
                        if to_or == 0 {
                            continue;
                        }
                        let mut newly = to_or & !next.fetch_or(idx, to_or);
                        if newly == 0 {
                            continue;
                        }
                        discovered = true;
                        while newly != 0 {
                            let c = j * 64 + newly.trailing_zeros() as usize;
                            newly &= newly - 1;
                            dist.set(c * n + ui, d);
                        }
                    }
                    if discovered {
                        let bit = 1u64 << (ui % 64);
                        if claim.fetch_or(ui / 64, bit) & bit == 0 {
                            bag.insert(u);
                        }
                    }
                }
            }
            driver.counters().add_edges(edges);
        });
    });
    run?;
    Ok(driver.finish())
}

/// Frozen multi-source distance columns: any point-to-point or
/// single-source unit-weight query against a covered source is answered
/// by an array read. Cloning shares the column buffer (`Arc`), so a
/// cache and its hit-path waiters alias one allocation.
#[derive(Debug, Clone)]
pub struct DistanceOracle {
    num_vertices: usize,
    sources: Vec<VertexId>,
    dist: Arc<Vec<u32>>,
}

impl DistanceOracle {
    /// Wrap existing column-major columns (`sources.len() * num_vertices`
    /// entries; see [`MultiBfsResult::dist`]).
    ///
    /// # Panics
    ///
    /// If the buffer length does not match.
    pub fn from_columns(num_vertices: usize, sources: Vec<VertexId>, dist: Arc<Vec<u32>>) -> Self {
        assert_eq!(
            dist.len(),
            sources.len() * num_vertices,
            "oracle columns must be sources × vertices"
        );
        Self {
            num_vertices,
            sources,
            dist,
        }
    }

    /// Run one multi-source flight over a fresh workspace and freeze its
    /// columns.
    pub fn build<S: GraphStorage>(g: &S, sources: &[VertexId]) -> (Self, AlgoStats) {
        let r = multi_bfs(g, sources);
        (
            Self::from_columns(g.num_vertices(), sources.to_vec(), Arc::new(r.dist)),
            r.stats,
        )
    }

    /// The all-pairs oracle of a small graph (`1 ≤ n ≤` [`MAX_SOURCES`]):
    /// every vertex is a source, so *every* distance query is a lookup.
    pub fn all_pairs<S: GraphStorage>(g: &S) -> (Self, AlgoStats) {
        let n = g.num_vertices();
        assert!(
            (1..=MAX_SOURCES).contains(&n),
            "all-pairs oracle needs 1 ≤ n ≤ {MAX_SOURCES}, got {n}"
        );
        let sources: Vec<VertexId> = (0..n as VertexId).collect();
        Self::build(g, &sources)
    }

    /// Vertices per column.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of source columns.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// The covered sources, in column order.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// Whether `src` has a column.
    pub fn covers(&self, src: VertexId) -> bool {
        self.sources.contains(&src)
    }

    /// The full distance column of `src` (`None` if uncovered) — the
    /// single-source answer.
    pub fn column(&self, src: VertexId) -> Option<&[u32]> {
        let c = self.sources.iter().position(|&s| s == src)?;
        Some(&self.dist[c * self.num_vertices..(c + 1) * self.num_vertices])
    }

    /// Point-to-point hop distance (`None` if `src` is uncovered or
    /// `dst` out of range; [`UNREACHED`] passes through).
    pub fn dist(&self, src: VertexId, dst: VertexId) -> Option<HopDist> {
        self.column(src)?.get(dst as usize).copied()
    }

    /// The shared column buffer (column-major, `k * n`).
    pub fn columns(&self) -> &Arc<Vec<u32>> {
        &self.dist
    }

    /// Approximate resident size in bytes (the shared column buffer).
    pub fn resident_bytes(&self) -> usize {
        self.dist.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::seq::bfs_seq;
    use pasgal_graph::csr::Graph;
    use pasgal_graph::gen::basic::{cycle, grid2d};
    use pasgal_graph::gen::rmat::{rmat_directed, rmat_undirected, RmatParams};

    fn assert_columns_match_seq(g: &Graph, sources: &[VertexId]) {
        let r = multi_bfs(g, sources);
        let n = g.num_vertices();
        for (c, &s) in sources.iter().enumerate() {
            let seq = bfs_seq(g, s);
            assert_eq!(
                &r.dist[c * n..(c + 1) * n],
                seq.dist.as_slice(),
                "column {c} (source {s}) diverges from bfs_seq"
            );
        }
    }

    #[test]
    fn single_source_matches_seq() {
        let g = grid2d(8, 8);
        assert_columns_match_seq(&g, &[0]);
    }

    #[test]
    fn full_word_flight_matches_seq() {
        let g = rmat_directed(RmatParams::social(8, 5, 7));
        let n = g.num_vertices() as VertexId;
        let sources: Vec<VertexId> = (0..64).map(|i| (i * 4) % n).collect();
        assert_columns_match_seq(&g, &sources);
    }

    #[test]
    fn two_word_flight_matches_seq() {
        let g = rmat_undirected(RmatParams::web(8, 4, 11));
        let n = g.num_vertices() as VertexId;
        let sources: Vec<VertexId> = (0..128).map(|i| (i * 3) % n).collect();
        assert_columns_match_seq(&g, &sources);
    }

    #[test]
    fn word_boundary_flights_match_seq() {
        let g = cycle(150);
        for k in [63, 64, 65] {
            let sources: Vec<VertexId> = (0..k as VertexId).collect();
            assert_columns_match_seq(&g, &sources);
        }
    }

    #[test]
    fn duplicate_sources_share_a_vertex() {
        let g = grid2d(5, 5);
        assert_columns_match_seq(&g, &[3, 3, 7, 3]);
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        // two disjoint cycles via a block-diagonal random graph is fussy;
        // a cycle plus isolated vertices does the job
        let g = Graph::from_csr(vec![0, 1, 2, 2, 2], vec![1, 0], None, true);
        let r = multi_bfs(&g, &[0, 3]);
        assert_eq!(r.dist[0..4], [0, 1, UNREACHED, UNREACHED]);
        assert_eq!(r.dist[4..8], [UNREACHED, UNREACHED, UNREACHED, 0]);
    }

    #[test]
    fn rounds_track_eccentricity_not_source_count() {
        let g = cycle(64);
        let sources: Vec<VertexId> = (0..64).collect();
        let r = multi_bfs(&g, &sources);
        // a 64-cycle has eccentricity 32: rounds stay near that no matter
        // how many sources ride along
        assert!(
            r.stats.rounds <= 34,
            "expected ~33 rounds, got {}",
            r.stats.rounds
        );
    }

    #[test]
    fn cancellation_aborts_and_workspace_recovers() {
        let g = grid2d(40, 40);
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut ws = TraversalWorkspace::new();
        let r = multi_bfs_observed_in(&g, &[0], &cancel, &NoopObserver, &mut ws);
        assert_eq!(r, Err(Cancelled));
        // the same workspace immediately serves a clean run
        let fresh = CancelToken::new();
        multi_bfs_observed_in(&g, &[0, 5], &fresh, &NoopObserver, &mut ws)
            .expect("fresh token cannot cancel");
        let seq = bfs_seq(&g, 5);
        let n = g.num_vertices();
        let col: Vec<u32> = (0..n).map(|v| ws.multi_dist().get(n + v)).collect();
        assert_eq!(col, seq.dist);
    }

    #[test]
    fn oracle_answers_by_lookup() {
        let g = grid2d(6, 6);
        let (oracle, stats) = DistanceOracle::build(&g, &[0, 17, 35]);
        assert!(stats.rounds > 0);
        assert_eq!(oracle.num_sources(), 3);
        assert!(oracle.covers(17));
        assert!(!oracle.covers(1));
        assert_eq!(oracle.dist(1, 0), None, "uncovered source");
        assert_eq!(oracle.dist(0, 999), None, "out-of-range target");
        let seq = bfs_seq(&g, 17);
        assert_eq!(oracle.column(17).expect("covered"), seq.dist.as_slice());
        assert_eq!(oracle.dist(17, 35), Some(seq.dist[35]));
    }

    #[test]
    fn all_pairs_oracle_covers_every_vertex() {
        let g = grid2d(5, 10);
        let (oracle, _) = DistanceOracle::all_pairs(&g);
        assert_eq!(oracle.num_sources(), 50);
        for src in [0u32, 13, 49] {
            let seq = bfs_seq(&g, src);
            for dst in 0..50u32 {
                assert_eq!(oracle.dist(src, dst), Some(seq.dist[dst as usize]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_sources_panics() {
        let g = cycle(300);
        let sources: Vec<VertexId> = (0..129).collect();
        multi_bfs(&g, &sources);
    }
}
