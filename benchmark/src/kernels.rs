//! The kernel workloads: BFS, SSSP, SCC and BCC through their public
//! entry points on one graph of about a million vertices, every answer
//! checked against the sequential baseline of the same problem.

use crate::gen::{digest, Fingerprint, Rng, SourcePicker};
use crate::probes::{self, secs};
use crate::spec::Report;
use crate::stats::{median, Classes};
use crate::sys::{self, count_allocs};
use crate::trace::Tracer;
use crate::Args;
use pasgal_core::bcc::fast::{bcc_fast, bcc_fast_observed};
use pasgal_core::bcc::hopcroft_tarjan::bcc_hopcroft_tarjan;
use pasgal_core::bfs::flat::{bfs_flat, DirOptConfig};
use pasgal_core::bfs::seq::bfs_seq;
use pasgal_core::bfs::vgc::{bfs_vgc, bfs_vgc_dir_observed};
use pasgal_core::common::{canonicalize_labels, AlgoStats, CancelToken, VgcConfig};
use pasgal_core::engine::RecordingObserver;
use pasgal_core::scc::fwbw::{scc_vgc, scc_vgc_observed};
use pasgal_core::scc::tarjan::scc_tarjan;
use pasgal_core::sssp::dijkstra::sssp_dijkstra;
use pasgal_core::sssp::stepping::{sssp_rho_stepping, sssp_rho_stepping_observed, RhoConfig};
use pasgal_graph::csr::Graph;
use pasgal_graph::gen::basic::grid2d_directed;
use pasgal_graph::gen::rmat::{rmat_directed, RmatParams};
use pasgal_graph::gen::with_random_weights;
use pasgal_graph::transform::symmetrize;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Bfs,
    Sssp,
    Scc,
    Bcc,
}
use Class::{Bcc, Bfs, Scc, Sssp};

const CLASSES: [Class; 4] = [Bfs, Sssp, Scc, Bcc];

impl Class {
    fn name(self) -> &'static str {
        ["bfs", "sssp", "scc", "bcc"][self as usize]
    }

    fn span(self) -> &'static str {
        ["core.bfs", "core.sssp", "core.scc", "core.bcc"][self as usize]
    }
}

#[derive(Clone, Copy)]
enum Input {
    /// `grid2d_directed(1024, 1024, 0.55)`: n = 2^20, hundreds to
    /// thousands of rounds per kernel.
    LargeDiameter,
    /// `rmat_directed(social(17, 14))`: n = 2^17, m ≈ 1.7M, under twenty
    /// rounds per kernel.
    LowDiameter,
}

pub struct Workload {
    pub name: &'static str,
    input: Input,
    /// Width of the pool the kernels run in; `None` = every core.
    threads: Option<usize>,
    /// One standard pass, in issue order. The timed loop repeats it; the
    /// per-class counts are the weights of `ops_per_s`.
    pass: &'static [Class],
}

const LARGEDIAM: Workload = Workload {
    name: "kernels-largediam",
    input: Input::LargeDiameter,
    threads: None,
    pass: &[Bfs, Sssp, Bfs, Scc, Bfs, Sssp, Bcc],
};

const LARGEDIAM_T1: Workload = Workload {
    name: "kernels-largediam-t1",
    input: Input::LargeDiameter,
    threads: Some(1),
    pass: LARGEDIAM.pass,
};

const LOWDIAM: Workload = Workload {
    name: "kernels-lowdiam",
    input: Input::LowDiameter,
    threads: None,
    pass: &[Bfs, Bfs, Sssp, Bfs, Bfs, Scc, Bfs, Bfs, Bcc],
};

pub const ALL: [&Workload; 3] = [&LARGEDIAM, &LARGEDIAM_T1, &LOWDIAM];

/// Sources per traversal class; the timed loop cycles through them.
const BFS_SOURCES: usize = 16;
const SSSP_SOURCES: usize = 8;

struct Inputs {
    g: Graph,
    weighted: Graph,
    symmetric: Graph,
    bfs_sources: Vec<u32>,
    sssp_sources: Vec<u32>,
    fingerprint: u64,
}

/// The set-up a user of the library pays: generate, weight, symmetrize,
/// pick sources.
fn build(w: &Workload, seed: u64) -> Inputs {
    let g = match w.input {
        Input::LargeDiameter => grid2d_directed(1024, 1024, 0.55, seed),
        Input::LowDiameter => rmat_directed(RmatParams::social(17, 14, seed)),
    };
    let weighted = with_random_weights(&g, seed, 100);
    let symmetric = symmetrize(&g);
    let picker = SourcePicker::new(&g);
    let mut rng = Rng::new(seed).fork(1);
    let bfs_sources = picker.pick_distinct(&mut rng, BFS_SOURCES);
    let sssp_sources = picker.pick_distinct(&mut rng, SSSP_SOURCES);
    let mut fp = Fingerprint::default();
    fp.u64(g.num_vertices() as u64);
    fp.u64(g.num_edges() as u64);
    fp.u32s(&bfs_sources);
    fp.u32s(&sssp_sources);
    Inputs {
        g,
        weighted,
        symmetric,
        bfs_sources,
        sssp_sources,
        fingerprint: fp.value(),
    }
}

/// Whether two labelings induce the same partition.
fn same_partition(a: &[u32], b: &[u32]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let span = |xs: &[u32]| xs.iter().max().map_or(0, |&m| m as usize + 1);
    let (na, nb) = (span(a), span(b));
    if na.max(nb) > 16 * a.len() + 16 {
        // Sparse label space: fall back to the library's canonical form.
        return canonicalize_labels(a) == canonicalize_labels(b);
    }
    const UNSEEN: u32 = u32::MAX;
    let (mut ab, mut ba) = (vec![UNSEEN; na], vec![UNSEEN; nb]);
    for (&x, &y) in a.iter().zip(b) {
        let (fwd, bwd) = (&mut ab[x as usize], &mut ba[y as usize]);
        if (*fwd != UNSEEN && *fwd != y) || (*bwd != UNSEEN && *bwd != x) {
            return false;
        }
        (*fwd, *bwd) = (y, x);
    }
    true
}

/// Expected answers from the sequential baselines, and how long each
/// baseline took (the denominator of `par_vs_seq`).
struct Oracles {
    bfs: Vec<u64>,
    sssp: Vec<u64>,
    scc_labels: Vec<u32>,
    bcc_labels: Vec<u32>,
    seq_ms: [f64; 4],
}

fn oracles(inp: &Inputs, corrupt: bool) -> Oracles {
    let mut times: [Vec<f64>; 4] = Default::default();
    let mut timed = |c: Class, s: f64| times[c as usize].push(s * 1e3);
    let mut bfs: Vec<u64> = inp
        .bfs_sources
        .iter()
        .map(|&src| {
            let (s, r) = secs(|| bfs_seq(&inp.g, src));
            timed(Bfs, s);
            digest(&r.dist)
        })
        .collect();
    let sssp = inp
        .sssp_sources
        .iter()
        .map(|&src| {
            let (s, r) = secs(|| sssp_dijkstra(&inp.weighted, src));
            timed(Sssp, s);
            digest(&r.dist)
        })
        .collect();
    let (s, scc) = secs(|| scc_tarjan(&inp.g));
    timed(Scc, s);
    let (s, bcc) = secs(|| bcc_hopcroft_tarjan(&inp.symmetric));
    timed(Bcc, s);
    if corrupt {
        bfs[0] ^= 1;
    }
    Oracles {
        bfs,
        sssp,
        scc_labels: scc.labels,
        bcc_labels: bcc.edge_labels,
        seq_ms: [Bfs, Sssp, Scc, Bcc].map(|c| median(&times[c as usize])),
    }
}

struct Outcome {
    ms: f64,
    stats: AlgoStats,
    /// Sum of the observed round bodies, when observed.
    rounds_ns: u64,
    ok: bool,
}

/// Issues operations against one set of inputs, cycling through the
/// sources, and checks every answer.
struct Runner<'a> {
    inp: &'a Inputs,
    oracle: &'a Oracles,
    issued: [usize; 4],
    op_id: u64,
}

impl Runner<'_> {
    /// Run one operation of `class`. With `observe` the `*_observed`
    /// entry point records every round (the traced pass); without, the
    /// plain public name runs.
    fn run(&mut self, class: Class, observe: bool, tracer: &mut Tracer) -> Outcome {
        let inp = self.inp;
        let k = self.issued[class as usize];
        self.issued[class as usize] += 1;
        self.op_id += 1;
        let op_id = self.op_id;
        let obs = RecordingObserver::new();
        let token = CancelToken::new();
        let vgc = VgcConfig::default();
        let oracle = self.oracle;
        tracer.span("bench.op", op_id, |t| {
            let (ms, stats, ok) = match class {
                Bfs => {
                    let i = k % inp.bfs_sources.len();
                    let src = inp.bfs_sources[i];
                    let (s, r) = t.span(class.span(), op_id, |_| {
                        secs(|| {
                            if observe {
                                bfs_vgc_dir_observed(&inp.g, src, None, &vgc, &token, &obs)
                                    .expect("token never fires")
                            } else {
                                bfs_vgc(&inp.g, src, &vgc)
                            }
                        })
                    });
                    (s, r.stats, digest(&r.dist) == oracle.bfs[i])
                }
                Sssp => {
                    let i = k % inp.sssp_sources.len();
                    let src = inp.sssp_sources[i];
                    let cfg = RhoConfig::default();
                    let (s, r) = t.span(class.span(), op_id, |_| {
                        secs(|| {
                            if observe {
                                sssp_rho_stepping_observed(&inp.weighted, src, &cfg, &token, &obs)
                                    .expect("token never fires")
                            } else {
                                sssp_rho_stepping(&inp.weighted, src, &cfg)
                            }
                        })
                    });
                    (s, r.stats, digest(&r.dist) == oracle.sssp[i])
                }
                Scc => {
                    let (s, r) = t.span(class.span(), op_id, |_| {
                        secs(|| {
                            if observe {
                                scc_vgc_observed(&inp.g, &vgc, &token, &obs)
                                    .expect("token never fires")
                            } else {
                                scc_vgc(&inp.g, &vgc)
                            }
                        })
                    });
                    (s, r.stats, same_partition(&r.labels, &oracle.scc_labels))
                }
                Bcc => {
                    let (s, r) = t.span(class.span(), op_id, |_| {
                        secs(|| {
                            if observe {
                                bcc_fast_observed(&inp.symmetric, &token, &obs)
                                    .expect("token never fires")
                            } else {
                                bcc_fast(&inp.symmetric)
                            }
                        })
                    });
                    (
                        s,
                        r.stats,
                        same_partition(&r.edge_labels, &oracle.bcc_labels),
                    )
                }
            };
            Outcome {
                ms: ms * 1e3,
                stats,
                rounds_ns: obs.events().iter().map(|e| e.elapsed_ns).sum(),
                ok,
            }
        })
    }

    /// Repeat the workload's pass for `seconds`, recording each
    /// operation's time under its class.
    fn timed_loop(
        &mut self,
        w: &Workload,
        seconds: f64,
        observe: bool,
        tracer: &mut Tracer,
        report: &mut Report,
        mut each: impl FnMut(Class, &Outcome),
    ) -> Classes {
        let mut classes = Classes::default();
        let t0 = Instant::now();
        'run: loop {
            for &class in w.pass {
                if t0.elapsed().as_secs_f64() >= seconds {
                    break 'run;
                }
                let out = self.run(class, observe, tracer);
                report.check(out.ok, || {
                    format!("{} #{} differs from its oracle", class.name(), self.op_id)
                });
                classes.push(class.name(), out.ms);
                each(class, &out);
            }
        }
        classes
    }
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the shim's pool construction cannot fail")
}

fn weights(w: &Workload) -> Vec<(&'static str, usize)> {
    CLASSES
        .iter()
        .map(|&c| (c.name(), w.pass.iter().filter(|&&p| p == c).count()))
        .collect()
}

pub fn run(w: &Workload, args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let (inp, setups) = args.set_up(|| build(w, args.seed));
    report.fingerprint = inp.fingerprint;
    let oracle = oracles(&inp, args.corrupt);
    let threads = w.threads.unwrap_or_else(sys::nproc);
    let mut runner = Runner {
        inp: &inp,
        oracle: &oracle,
        issued: [0; 4],
        op_id: 0,
    };

    if !args.trace {
        let classes = pool(threads).install(|| {
            // Fault the graph in before the clock starts.
            runner.run(Bfs, false, &mut Tracer::new(Instant::now(), false));
            runner.issued = [0; 4];
            runner.timed_loop(w, args.seconds, false, tracer, &mut report, |_, _| ())
        });
        let rate = classes.pass_ops_per_s(&weights(w));
        report.end_to_end(&classes, rate, classes.total(), &setups);
        return report;
    }

    // Traced run: a plain pass, then the same pass with spans and round
    // observers on; the ratio of the two is the tracing overhead.
    let share = args.seconds / 5.0;
    let cpu0 = sys::process_cpu();
    let mut off = Tracer::new(Instant::now(), false);
    let plain = pool(threads)
        .install(|| runner.timed_loop(w, share, false, &mut off, &mut report, |_, _| ()));
    let mut per_class: [Vec<(AlgoStats, u64)>; 4] = Default::default();
    let traced = pool(threads).install(|| {
        runner.timed_loop(w, share, true, tracer, &mut report, |c, o| {
            per_class[c as usize].push((o.stats, o.rounds_ns));
        })
    });
    let cpu1 = sys::process_cpu();
    let busy = (cpu1.0 - cpu0.0) + (cpu1.1 - cpu0.1);
    report.set("runtime.sys_cpu_share", (cpu1.1 - cpu0.1) / busy.max(1e-9));
    let wts = weights(w);
    report.set(
        "bench.trace_overhead_ratio",
        plain.pass_ops_per_s(&wts) / traced.pass_ops_per_s(&wts).max(1e-12),
    );

    let nproc = sys::nproc();
    for class in CLASSES {
        let name = class.name();
        let m = match class {
            Bcc => inp.symmetric.num_edges(),
            _ => inp.g.num_edges(),
        } as f64;
        let seen = &per_class[class as usize];
        let med =
            |f: &dyn Fn(&(AlgoStats, u64)) -> f64| median(&seen.iter().map(f).collect::<Vec<_>>());
        let par_ms = plain.p50(name);
        report.set_n(&format!("core.{name}.ms_p50"), par_ms, seen.len());
        report.set(&format!("core.{name}.rounds"), med(&|s| s.0.rounds as f64));
        report.set(
            &format!("core.{name}.us_per_round"),
            med(&|s| s.1 as f64 / 1e3 / s.0.rounds.max(1) as f64),
        );
        report.set(&format!("core.{name}.tasks"), med(&|s| s.0.tasks as f64));
        report.set(
            &format!("core.{name}.peak_frontier"),
            med(&|s| s.0.peak_frontier as f64),
        );
        report.set(
            &format!("core.{name}.edges_per_m"),
            med(&|s| s.0.edges_traversed as f64 / m),
        );
        report.set(
            &format!("core.{name}.par_vs_seq"),
            oracle.seq_ms[class as usize] / par_ms.max(1e-9),
        );

        // One operation from the first source at one thread (allocations
        // counted: repeatable to within a few there) and one at every core.
        let mut quiet = Tracer::new(Instant::now(), false);
        runner.issued = [0; 4];
        let (allocs, one) =
            pool(1).install(|| count_allocs(|| runner.run(class, false, &mut quiet)));
        runner.issued = [0; 4];
        let all = pool(nproc).install(|| runner.run(class, false, &mut quiet));
        report.check(one.ok && all.ok, || {
            format!("{name} differs from its oracle in the thread sweep")
        });
        report.set(&format!("core.{name}.allocs"), allocs as f64);
        report.set(
            &format!("core.{name}.self_speedup"),
            one.ms / all.ms.max(1e-9),
        );
    }

    let flat_ms: Vec<f64> = pool(threads).install(|| {
        (0..3)
            .map(|i| {
                let (s, r) =
                    secs(|| bfs_flat(&inp.g, inp.bfs_sources[i], None, &DirOptConfig::default()));
                report.check(digest(&r.dist) == oracle.bfs[i], || {
                    "bfs_flat differs from bfs_seq".into()
                });
                s * 1e3
            })
            .collect()
    });
    report.set(
        "core.bfs.vgc_vs_flat",
        median(&flat_ms) / plain.p50("bfs").max(1e-9),
    );

    pool(nproc).install(|| {
        tracer.span("probe.runtime", 0, |_| probes::runtime(&mut report));
        tracer.span("probe.parlay", 0, |_| probes::parlay(&mut report));
        tracer.span("probe.collections", 0, |_| probes::collections(&mut report));
        tracer.span("probe.graph", 0, |_| {
            probes::graph_plain(&mut report, &inp.g)
        });
        if matches!(w.input, Input::LowDiameter) {
            let (s, g) = secs(|| rmat_directed(RmatParams::social(16, 14, args.seed)));
            report.set(
                "graph.gen_rmat_medges_per_s",
                g.num_edges() as f64 / s / 1e6,
            );
        }
    });
    report.trace_self_times(tracer);
    report.rows = plain.rows();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_compare_up_to_renaming() {
        assert!(same_partition(&[5, 5, 9, 1], &[0, 0, 1, 2]));
        assert!(!same_partition(&[5, 5, 9, 1], &[0, 1, 1, 2]));
        assert!(!same_partition(&[1, 2], &[0, 0]));
        assert!(same_partition(&[u32::MAX, 7], &[0, 1]));
        assert!(!same_partition(&[1], &[1, 1]));
    }
}
