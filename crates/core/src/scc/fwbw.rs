//! Parallel SCC: trim + forward/backward reachability decomposition with a
//! pluggable reachability engine.
//!
//! The classic parallel SCC scheme: pick a pivot, compute the sets FWD
//! (reachable from it) and BWD (reaching it); FWD ∩ BWD is the pivot's
//! SCC, and every other SCC lies entirely inside FWD∖SCC, BWD∖SCC, or the
//! rest — three independent subproblems processed in parallel. A *trim*
//! pass first peels vertices with no live in- or out-neighbor (singleton
//! SCCs), which removes the huge tendril sets of real directed graphs.
//!
//! The engine choice is exactly the paper's comparison:
//! * [`scc_bfs_based`] runs every reachability in strict BFS order — one
//!   global round per hop, the GBBS/Multistep-style bottleneck that makes
//!   parallel SCC *slower than sequential Tarjan* on large-diameter
//!   graphs;
//! * [`scc_vgc`] runs them as VGC local searches over hash bags
//!   (Wang et al.'s algorithm, which PASGAL adopts), collapsing rounds and
//!   fattening frontiers.
//!
//! Per-search visited sets are *scoped marks* in two shared
//! [`EpochMarks`] arrays (`mark[v] = partition id of the search that
//! claimed v`), so a round over many subproblems costs O(live vertices),
//! not O(n) per subproblem — and because partition ids are drawn from the
//! marks' epoch allocator, a *run* on a recycled workspace reuses the
//! mark arrays without clearing them: ids of this run can never collide
//! with stale marks from earlier runs (each run reserves a fresh range of
//! `3n + 4` ids, enough for one initial partition plus three per split,
//! and every splitting step labels at least the pivot's SCC, bounding
//! splits by `n`).
//!
//! All transient state — subproblem worklists, their vertex lists, the
//! per-search frontier bags and vectors — is pooled in a
//! [`TraversalWorkspace`], making warm VGC runs allocation-free.

use crate::common::{AlgoStats, CancelToken, Cancelled, SccResult, VgcConfig};
use crate::engine::{NoopObserver, RoundDriver, RoundObserver};
use crate::scc::reach::ReachEngine;
use crate::vgc::{frontier_chunk_len, local_search_multi};
use crate::workspace::{BagPool, BufPool, TraversalWorkspace};
use pasgal_collections::atomic_array::AtomicU32Array;
use pasgal_collections::epoch::EpochMarks;
use pasgal_graph::storage::GraphStorage;
use pasgal_graph::transform::transpose;
use pasgal_graph::VertexId;
use pasgal_parlay::gran::{par_for, par_for_each_mut, par_slices};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

const UNLABELED: u32 = u32::MAX;

/// One pending FW-BW subproblem: `(partition id, live vertices)`. The
/// vertex lists are recycled through the workspace's buffer pool.
type Subproblem = (u32, Vec<VertexId>);

struct State<'g, S: GraphStorage, T: GraphStorage> {
    g: &'g S,
    gt: &'g T,
    labels: &'g AtomicU32Array,
    part: &'g AtomicU32Array,
    fwd_mark: &'g EpochMarks,
    bwd_mark: &'g EpochMarks,
    next_part: AtomicU32,
    engine: ReachEngine,
    driver: RoundDriver<'g>,
    vert_pool: &'g BufPool,
    bag_pool: &'g BagPool,
    frontier_pool: &'g BufPool,
}

impl<S: GraphStorage, T: GraphStorage> State<'_, S, T> {
    fn live(&self, v: VertexId) -> bool {
        self.labels.get(v as usize) == UNLABELED
    }

    /// Reachability from `pivot` over `dir` (the graph or its transpose),
    /// claiming into `mark` with the partition id `p` as the stamp,
    /// restricted to live vertices of partition `p`. Stale marks from
    /// ancestor partitions (or earlier runs) are overwritten by the
    /// epoch-stamped claim.
    fn search<D: GraphStorage>(&self, dir: &D, pivot: VertexId, mark: &EpochMarks, p: u32) {
        let try_claim = |v: VertexId| -> bool {
            self.part.get(v as usize) == p && self.live(v) && mark.try_claim(v as usize, p)
        };
        if !mark.try_claim(pivot as usize, p) {
            return;
        }
        // A cancelled search just stops claiming (the driver's abort
        // result is dropped): the decomposition loop's own round poll
        // turns the bail into `Err(Cancelled)`.
        match self.engine {
            ReachEngine::BfsOrder => {
                let counters = self.driver.counters();
                let _ = self.driver.drive(
                    Some((1, vec![pivot])),
                    |front: Vec<VertexId>| {
                        let next: Vec<VertexId> = front
                            .par_iter()
                            .with_min_len(64)
                            .flat_map_iter(|&u| {
                                counters.add_tasks(1);
                                counters.add_edges(dir.degree(u) as u64);
                                dir.neighbors(u)
                                    .filter(|&v| try_claim(v))
                                    .collect::<Vec<_>>()
                                    .into_iter()
                            })
                            .collect();
                        (!next.is_empty()).then_some((next.len() as u64, next))
                    },
                    || (),
                );
            }
            ReachEngine::Vgc(cfg) => {
                let counters = self.driver.counters();
                let bag = self.bag_pool.get(self.g.num_vertices().max(1));
                let mut frontier = self.frontier_pool.get();
                frontier.push(pivot);
                let _ = self.driver.drive_bag_in(&bag, &mut frontier, |front| {
                    let chunk = frontier_chunk_len(front.len());
                    par_slices(front, chunk, |grp| {
                        counters.add_tasks(1);
                        let mut spill = |v: VertexId| bag.insert(v);
                        let st = local_search_multi(
                            dir,
                            grp,
                            cfg.tau * grp.len(),
                            &|_, v| try_claim(v),
                            &mut spill,
                        );
                        counters.add_edges(st.edges);
                    });
                });
                // drive_bag_in leaves both empty, on success and abort
                self.frontier_pool.put(frontier);
                self.bag_pool.put(bag);
            }
        }
    }

    /// Process one subproblem; pushes up to three children onto `out` and
    /// recycles every vertex list through the pool.
    fn step(&self, p: u32, mut verts: Vec<VertexId>, out: &Mutex<Vec<Subproblem>>) {
        // Re-filter: parents may have labeled some of these (trim races are
        // benign — see below — but labels set in earlier rounds are final).
        // retain keeps the buffer's capacity for the pool.
        verts.retain(|&v| self.live(v));
        if verts.len() <= 1 {
            if let Some(&v) = verts.first() {
                self.labels.set(v as usize, v);
            }
            self.vert_pool.put(verts);
            return;
        }

        // Trim: label vertices with no live in- or out-neighbor inside this
        // partition as singleton SCCs. Races with concurrent trims only
        // *delay* a trim (conservative), never produce a wrong one, because
        // a neighbor observed dead was legitimately a singleton.
        {
            let verts: &[VertexId] = &verts;
            par_for(verts.len(), 256, |i| {
                let v = verts[i];
                let in_part_live =
                    |u: VertexId| u != v && self.part.get(u as usize) == p && self.live(u);
                let has_out = self.g.neighbors(v).any(&in_part_live);
                let has_in = has_out && self.gt.neighbors(v).any(in_part_live);
                if !has_in {
                    // no live in- or out-neighbor in this partition ⇒
                    // nothing can both reach and be reached by v here ⇒
                    // singleton SCC
                    self.labels.set(v as usize, v);
                }
            });
        }
        verts.retain(|&v| self.live(v));
        if verts.len() <= 1 {
            if let Some(&v) = verts.first() {
                self.labels.set(v as usize, v);
            }
            self.vert_pool.put(verts);
            return;
        }

        // Pivot: max in×out degree (a cheap heuristic for hitting the
        // largest SCC, as in Multistep); ties break to the smallest id,
        // matching `max` over `(key, Reverse(v))`.
        let pivot = verts
            .iter()
            .map(|&v| {
                let key = (self.g.degree(v) as u64 + 1) * (self.gt.degree(v) as u64 + 1);
                (key, std::cmp::Reverse(v))
            })
            .max()
            .map(|(_, std::cmp::Reverse(v))| v)
            .expect("nonempty");

        self.driver.mark_round(verts.len() as u64); // the FW/BW phase boundary
        self.search(self.g, pivot, self.fwd_mark, p);
        self.search(self.gt, pivot, self.bwd_mark, p);

        // Split into SCC / fwd-only / bwd-only / rest.
        let p_fwd = self.next_part.fetch_add(3, Ordering::Relaxed);
        let p_bwd = p_fwd + 1;
        let p_rest = p_fwd + 2;
        let mut fwd_set = self.vert_pool.get();
        let mut bwd_set = self.vert_pool.get();
        let mut rest_set = self.vert_pool.get();
        for &v in &verts {
            let in_f = self.fwd_mark.has(v as usize, p);
            let in_b = self.bwd_mark.has(v as usize, p);
            match (in_f, in_b) {
                (true, true) => self.labels.set(v as usize, pivot),
                (true, false) => {
                    self.part.set(v as usize, p_fwd);
                    fwd_set.push(v);
                }
                (false, true) => {
                    self.part.set(v as usize, p_bwd);
                    bwd_set.push(v);
                }
                (false, false) => {
                    self.part.set(v as usize, p_rest);
                    rest_set.push(v);
                }
            }
        }
        self.vert_pool.put(verts);
        let mut out = out.lock().expect("scc worklist lock poisoned");
        for (np, set) in [(p_fwd, fwd_set), (p_bwd, bwd_set), (p_rest, rest_set)] {
            if set.is_empty() {
                self.vert_pool.put(set);
            } else {
                out.push((np, set));
            }
        }
    }
}

/// FW-BW SCC with an explicit engine and a precomputed transpose.
pub fn scc_fwbw<S: GraphStorage, T: GraphStorage>(g: &S, gt: &T, engine: ReachEngine) -> SccResult {
    scc_fwbw_observed(g, gt, engine, &CancelToken::new(), &NoopObserver)
        .expect("fresh token cannot cancel")
}

/// Cancellable [`scc_fwbw`] with per-round observation. Events come from
/// three sources — decomposition rounds, FW/BW phase boundaries, and the
/// reachability searches' own rounds — and subproblems run concurrently,
/// so per-event edge counts are approximate (see [`crate::engine`]). The
/// token is polled at every decomposition round and every reachability
/// round; a fired token abandons the remaining subproblems and returns
/// `Err(Cancelled)`.
pub fn scc_fwbw_observed<S: GraphStorage, T: GraphStorage>(
    g: &S,
    gt: &T,
    engine: ReachEngine,
    cancel: &CancelToken,
    observer: &dyn RoundObserver,
) -> Result<SccResult, Cancelled> {
    let mut ws = TraversalWorkspace::new();
    let stats = scc_fwbw_observed_in(g, gt, engine, cancel, observer, &mut ws)?;
    let num_sccs = ws.scc_num_sccs();
    Ok(SccResult {
        labels: ws.take_scc_labels(),
        num_sccs,
        stats,
    })
}

/// [`scc_fwbw_observed`] running entirely inside a recycled
/// [`TraversalWorkspace`]: the label result is left in the workspace
/// (read with [`TraversalWorkspace::scc_labels`] /
/// [`TraversalWorkspace::scc_num_sccs`], move out with
/// [`TraversalWorkspace::take_scc_labels`]) and a warm VGC run performs
/// no heap allocation. State is re-prepared at entry, so an abandoned
/// workspace is safe to reuse.
pub fn scc_fwbw_observed_in<S: GraphStorage, T: GraphStorage>(
    g: &S,
    gt: &T,
    engine: ReachEngine,
    cancel: &CancelToken,
    observer: &dyn RoundObserver,
    ws: &mut TraversalWorkspace,
) -> Result<AlgoStats, Cancelled> {
    let n = g.num_vertices();
    assert_eq!(gt.num_vertices(), n, "transpose size mismatch");

    // One run consumes at most 3n + 4 partition ids (see module docs);
    // reserving them from the epoch allocators makes the mark arrays
    // reusable without clearing. A saturated cast only means the
    // allocator wraps (and clears) every run — degenerate but correct.
    let budget = u32::try_from(3 * n + 4).unwrap_or(u32::MAX);
    let base = ws.fwd_marks.begin(n, budget);
    let base_b = ws.bwd_marks.begin(n, budget);
    let base = if base == base_b {
        base
    } else {
        // Defensive resync: the allocators advance in lockstep here, so
        // they can only diverge if a caller mixed mark arrays across
        // workspaces; realign and re-reserve.
        let hi = base.max(base_b);
        ws.fwd_marks.set_next_stamp(hi);
        ws.bwd_marks.set_next_stamp(hi);
        let a = ws.fwd_marks.begin(n, budget);
        let b = ws.bwd_marks.begin(n, budget);
        debug_assert_eq!(a, b);
        a
    };
    ws.scc_labels.reset(n, UNLABELED);
    ws.scc_part.reset(n, base);
    ws.subs_cur.clear();
    ws.subs_next.clear();

    let TraversalWorkspace {
        scc_labels,
        scc_part,
        fwd_marks,
        bwd_marks,
        subs_cur,
        subs_next,
        vert_pool,
        bag_pool,
        frontier_pool,
        ..
    } = ws;

    let state = State {
        g,
        gt,
        labels: scc_labels,
        part: scc_part,
        fwd_mark: fwd_marks,
        bwd_mark: bwd_marks,
        next_part: AtomicU32::new(base + 1),
        engine,
        driver: RoundDriver::new(cancel, observer),
        vert_pool,
        bag_pool,
        frontier_pool,
    };

    if n > 0 {
        let mut init = state.vert_pool.get_at_least(n);
        init.extend(0..n as u32);
        subs_cur.push((base, init));
    }

    // The decomposition loop. The per-round empty re-check mirrors
    // `RoundDriver::drive`: `step` bails without labeling once cancelled,
    // so an empty worklist must not be trusted to mean "fully labeled".
    loop {
        if state.driver.cancelled() {
            for (_, v) in subs_cur.drain(..).chain(subs_next.drain(..)) {
                state.vert_pool.put(v);
            }
            return Err(Cancelled);
        }
        if subs_cur.is_empty() {
            state.driver.check()?;
            break;
        }
        state.driver.round(subs_cur.len() as u64, || {
            let out = Mutex::new(std::mem::take(subs_next));
            par_for_each_mut(subs_cur, |sub| {
                let verts = std::mem::take(&mut sub.1);
                state.step(sub.0, verts, &out);
            });
            *subs_next = out.into_inner().expect("scc worklist lock poisoned");
        });
        // subs_cur now holds only consumed husks (empty, allocation-free
        // vectors); swap so the children become current and the husk
        // vector is recycled as the next round's output list.
        std::mem::swap(subs_cur, subs_next);
        subs_next.clear();
    }

    debug_assert!((0..n).all(|v| state.labels.get(v) != UNLABELED));
    Ok(state.driver.finish())
}

/// PASGAL SCC: trim + FW-BW with **VGC** reachability and hash bags
/// (computes the transpose internally).
pub fn scc_vgc<S: GraphStorage>(g: &S, cfg: &VgcConfig) -> SccResult {
    let gt = transpose(g);
    scc_fwbw(g, &gt, ReachEngine::Vgc(*cfg))
}

/// Cancellable [`scc_vgc`] with per-round observation (transpose
/// computed internally).
pub fn scc_vgc_observed<S: GraphStorage>(
    g: &S,
    cfg: &VgcConfig,
    cancel: &CancelToken,
    observer: &dyn RoundObserver,
) -> Result<SccResult, Cancelled> {
    let gt = transpose(g);
    scc_fwbw_observed(g, &gt, ReachEngine::Vgc(*cfg), cancel, observer)
}

/// [`scc_vgc_observed`] in a recycled workspace. The transpose is still
/// computed per call — callers holding a resident graph should transpose
/// once and use [`scc_fwbw_observed_in`] directly to keep the warm path
/// allocation-free.
pub fn scc_vgc_observed_in<S: GraphStorage>(
    g: &S,
    cfg: &VgcConfig,
    cancel: &CancelToken,
    observer: &dyn RoundObserver,
    ws: &mut TraversalWorkspace,
) -> Result<AlgoStats, Cancelled> {
    let gt = transpose(g);
    scc_fwbw_observed_in(g, &gt, ReachEngine::Vgc(*cfg), cancel, observer, ws)
}

/// GBBS-style baseline: identical decomposition, but every reachability
/// search runs in strict BFS order (`Ω(D)` rounds per search).
pub fn scc_bfs_based<S: GraphStorage>(g: &S) -> SccResult {
    let gt = transpose(g);
    scc_fwbw(g, &gt, ReachEngine::BfsOrder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::canonicalize_labels;
    use crate::scc::tarjan::scc_tarjan;
    use pasgal_graph::builder::from_edges;
    use pasgal_graph::csr::Graph;
    use pasgal_graph::gen::basic::{
        cycle_directed, grid2d_directed, path_directed, random_directed,
    };
    use pasgal_graph::gen::rmat::{rmat_directed, RmatParams};

    fn check(g: &Graph) {
        let want = scc_tarjan(g);
        for (name, got) in [
            ("vgc", scc_vgc(g, &VgcConfig::default())),
            ("vgc-tau2", scc_vgc(g, &VgcConfig::with_tau(2))),
            ("bfs", scc_bfs_based(g)),
        ] {
            assert_eq!(got.num_sccs, want.num_sccs, "{name}: num_sccs");
            assert_eq!(
                canonicalize_labels(&got.labels),
                canonicalize_labels(&want.labels),
                "{name}: labels"
            );
        }
    }

    #[test]
    fn tiny_fixtures() {
        check(&cycle_directed(6));
        check(&path_directed(8));
        check(&from_edges(
            5,
            &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (2, 3)],
        ));
        check(&Graph::empty(4, false));
    }

    #[test]
    fn two_sccs_and_tendrils() {
        // SCC {0,1,2}, SCC {5,6}, tendrils 3, 4, 7
        let g = from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 5),
                (6, 7),
            ],
        );
        check(&g);
        let r = scc_vgc(&g, &VgcConfig::default());
        assert_eq!(r.num_sccs, 5);
    }

    #[test]
    fn random_directed_graphs_match_tarjan() {
        for seed in 0..5 {
            let g = random_directed(200, 600, seed);
            check(&g);
        }
    }

    #[test]
    fn denser_random_graph_has_giant_scc() {
        let g = random_directed(300, 3000, 9);
        let r = scc_vgc(&g, &VgcConfig::default());
        let want = scc_tarjan(&g);
        assert_eq!(r.num_sccs, want.num_sccs);
        // a G(n, 10n) digraph almost surely has a giant SCC
        assert!(r.num_sccs < 150);
    }

    #[test]
    fn power_law_matches() {
        let g = rmat_directed(RmatParams::social(9, 8, 17));
        check(&g);
    }

    #[test]
    fn directed_grid_matches() {
        let g = grid2d_directed(8, 25, 0.5, 3);
        check(&g);
    }

    // The VGC-beats-BFS round-count assertion lives in the round-invariant
    // suite: tests/round_invariants.rs.

    #[test]
    fn cancelled_token_aborts_with_err() {
        let g = random_directed(300, 1200, 11);
        let t = CancelToken::new();
        t.cancel();
        assert!(matches!(
            scc_vgc_observed(&g, &VgcConfig::default(), &t, &NoopObserver),
            Err(Cancelled)
        ));
        let ok = scc_vgc_observed(
            &g,
            &VgcConfig::default(),
            &CancelToken::new(),
            &NoopObserver,
        )
        .unwrap();
        assert_eq!(ok.num_sccs, scc_tarjan(&g).num_sccs);
    }

    #[test]
    fn labels_name_scc_members() {
        let g = cycle_directed(4);
        let r = scc_vgc(&g, &VgcConfig::default());
        // the label must be a member of the component
        assert!(r.labels.iter().all(|&l| (l as usize) < 4));
        assert!(r.labels.iter().all(|&l| l == r.labels[0]));
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        let g = rmat_directed(RmatParams::social(9, 8, 17));
        let gt = transpose(&g);
        let want = canonicalize_labels(&scc_tarjan(&g).labels);
        let mut ws = TraversalWorkspace::new();
        for round in 0..4 {
            let token = CancelToken::new();
            scc_fwbw_observed_in(
                &g,
                &gt,
                ReachEngine::Vgc(VgcConfig::default()),
                &token,
                &NoopObserver,
                &mut ws,
            )
            .unwrap();
            let labels: Vec<u32> = (0..g.num_vertices())
                .map(|v| ws.scc_labels().get(v))
                .collect();
            assert_eq!(canonicalize_labels(&labels), want, "round {round}");
            assert_eq!(ws.scc_num_sccs(), scc_tarjan(&g).num_sccs);
        }
    }

    #[test]
    fn stamp_wraparound_mid_life_stays_correct() {
        // Park the epoch allocators just below u32::MAX so the next run
        // must take the wraparound clear, then verify results.
        let g = random_directed(200, 600, 2);
        let gt = transpose(&g);
        let want = canonicalize_labels(&scc_tarjan(&g).labels);
        let mut ws = TraversalWorkspace::new();
        for round in 0..3 {
            ws.force_scc_stamp_wraparound();
            let token = CancelToken::new();
            scc_fwbw_observed_in(
                &g,
                &gt,
                ReachEngine::Vgc(VgcConfig::default()),
                &token,
                &NoopObserver,
                &mut ws,
            )
            .unwrap();
            let labels: Vec<u32> = (0..g.num_vertices())
                .map(|v| ws.scc_labels().get(v))
                .collect();
            assert_eq!(canonicalize_labels(&labels), want, "round {round}");
        }
    }
}
