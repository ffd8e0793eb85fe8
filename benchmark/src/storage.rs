//! `storage-mixed`: the `graph` layer used two ways in one run —
//! traversals that read each non-plain backend, beside the calls that
//! write them (compress, pack, overlay apply, compact).
//!
//! Reads: BFS over a skewed R-MAT graph (decode-bound: short rounds, long
//! neighbor lists) and SSSP over a weighted grid (weights interleaved in
//! the byte stream, many rounds), each on the compressed, mmap-plain,
//! mmap-compressed and overlay backends. Writes: the R-MAT graph is
//! compressed, packed in both payloads, and its overlay takes 256
//! batches and is compacted.

use crate::gen::{digest, Fingerprint, Rng, SourcePicker};
use crate::probes::{self, secs};
use crate::spec::Report;
use crate::stats::Classes;
use crate::sys::TempDir;
use crate::trace::Tracer;
use crate::Args;
use pasgal_core::bfs::seq::bfs_seq;
use pasgal_core::bfs::vgc::bfs_vgc;
use pasgal_core::common::VgcConfig;
use pasgal_core::sssp::dijkstra::sssp_dijkstra;
use pasgal_core::sssp::stepping::{sssp_rho_stepping, RhoConfig};
use pasgal_graph::builder::from_weighted_edges;
use pasgal_graph::compressed::CompressedGraph;
use pasgal_graph::csr::Graph;
use pasgal_graph::disk::{pack, MmapGraph};
use pasgal_graph::gen::basic::grid2d_directed;
use pasgal_graph::gen::rmat::{rmat_directed, RmatParams};
use pasgal_graph::gen::with_random_weights;
use pasgal_graph::overlay::{DeltaOverlay, Mutation};
use pasgal_graph::storage::{GraphStorage, GraphStore};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

pub const NAME: &str = "storage-mixed";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    Compressed,
    Mmap,
    MmapCompressed,
    Overlay,
}
use Backend::{Compressed, Mmap, MmapCompressed, Overlay};

#[derive(Clone, Copy)]
enum Op {
    /// BFS over the R-MAT side.
    Bfs(Backend),
    /// SSSP over the grid side.
    Sssp(Backend),
    Compress,
    Pack {
        compressed: bool,
    },
    /// 256 batches of two inserts and two deletes into the overlay.
    Apply,
    Compact,
}

/// One standard pass: every read beside a write.
const PASS: [Op; 13] = [
    Op::Bfs(Compressed),
    Op::Sssp(Compressed),
    Op::Compress,
    Op::Bfs(Mmap),
    Op::Sssp(Mmap),
    Op::Pack { compressed: false },
    Op::Bfs(MmapCompressed),
    Op::Sssp(MmapCompressed),
    Op::Pack { compressed: true },
    Op::Bfs(Overlay),
    Op::Sssp(Overlay),
    Op::Apply,
    Op::Compact,
];

impl Op {
    /// `(class, span)`.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Op::Bfs(Compressed) => ("bfs.rmat.compressed", "graph.compressed.bfs"),
            Op::Bfs(Mmap) => ("bfs.rmat.mmap", "graph.mmap.bfs"),
            Op::Bfs(MmapCompressed) => ("bfs.rmat.mmapc", "graph.mmap.bfs"),
            Op::Bfs(Overlay) => ("bfs.rmat.overlay", "graph.overlay.bfs"),
            Op::Sssp(Compressed) => ("sssp.grid.compressed", "graph.compressed.sssp"),
            Op::Sssp(Mmap) => ("sssp.grid.mmap", "graph.mmap.sssp"),
            Op::Sssp(MmapCompressed) => ("sssp.grid.mmapc", "graph.mmap.sssp"),
            Op::Sssp(Overlay) => ("sssp.grid.overlay", "graph.overlay.sssp"),
            Op::Compress => ("write.compress", "graph.compressed.encode"),
            Op::Pack { compressed: false } => ("write.pack", "graph.disk.pack"),
            Op::Pack { compressed: true } => ("write.packc", "graph.disk.pack"),
            Op::Apply => ("write.apply256", "graph.overlay.apply"),
            Op::Compact => ("write.compact", "graph.overlay.compact"),
        }
    }
}

const SOURCES: usize = 4;
const BATCHES: usize = 256;

/// One graph in every backend.
struct Side {
    plain: Graph,
    compressed: CompressedGraph,
    mmap: MmapGraph,
    mmap_compressed: MmapGraph,
    overlay: DeltaOverlay,
    /// The 1% delta the overlay carries over `plain`.
    delta: Vec<Mutation>,
    sources: Vec<u32>,
    /// Bytes of the two container files (plain, compressed payload).
    file_bytes: [u64; 2],
}

macro_rules! on_backend {
    ($side:expr, $backend:expr, $g:ident => $body:expr) => {
        match $backend {
            Compressed => {
                let $g = &$side.compressed;
                $body
            }
            Mmap => {
                let $g = &$side.mmap;
                $body
            }
            MmapCompressed => {
                let $g = &$side.mmap_compressed;
                $body
            }
            Overlay => {
                let $g = &$side.overlay;
                $body
            }
        }
    };
}

struct Inputs {
    rmat: Side,
    grid: Side,
    /// The batches of the `write.apply256` class (against `rmat.overlay`).
    batches: Vec<Vec<Mutation>>,
    fingerprint: u64,
}

/// `pairs` deletions of existing edges, each followed by the insertion
/// of a random edge.
fn delta(g: &Graph, edges: &[(u32, u32)], pairs: usize, rng: &mut Rng) -> Vec<Mutation> {
    let n = g.num_vertices() as u64;
    let mut ops = Vec::with_capacity(2 * pairs);
    for _ in 0..pairs {
        let (u, v) = edges[rng.below(edges.len() as u64) as usize];
        ops.push(Mutation::DeleteEdge { u, v });
        let u = rng.below(n) as u32;
        // No self-loops: the CSR builder the model uses drops them.
        let v = (u + 1 + rng.below(n - 1) as u32) % n as u32;
        ops.push(Mutation::InsertEdge {
            u,
            v,
            w: 1 + rng.below(100) as u32,
        });
    }
    ops
}

fn side(plain: Graph, tmp: &TempDir, rng: &mut Rng) -> Side {
    let compressed = CompressedGraph::from_storage(&plain);
    let load = |compress: bool| {
        let path = tmp.fresh("side", "pasgal");
        pack(&plain, &path, compress).expect("pack into the scratch directory");
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        (
            MmapGraph::load(&path).expect("load what was just packed"),
            bytes,
        )
    };
    let (mmap, plain_bytes) = load(false);
    let (mmap_compressed, compressed_bytes) = load(true);
    let edges: Vec<(u32, u32)> = plain.edges().collect();
    let delta = delta(&plain, &edges, edges.len() / 200, rng);
    let mut overlay = DeltaOverlay::new(Arc::new(GraphStore::Plain(plain.clone())));
    overlay
        .apply(&delta)
        .expect("delta names only existing vertices");
    let sources = SourcePicker::new(&overlay).pick_distinct(rng, SOURCES);
    Side {
        plain,
        compressed,
        mmap,
        mmap_compressed,
        overlay,
        delta,
        sources,
        file_bytes: [plain_bytes, compressed_bytes],
    }
}

fn build(seed: u64, tmp: &TempDir) -> Inputs {
    let mut rng = Rng::new(seed).fork(2);
    let rmat = with_random_weights(&rmat_directed(RmatParams::social(17, 14, seed)), seed, 100);
    let grid = with_random_weights(&grid2d_directed(512, 512, 0.55, seed), seed, 100);
    let rmat = side(rmat, tmp, &mut rng);
    let grid = side(grid, tmp, &mut rng);
    let edges: Vec<(u32, u32)> = rmat.plain.edges().collect();
    let batches: Vec<Vec<Mutation>> = (0..BATCHES)
        .map(|_| delta(&rmat.plain, &edges, 2, &mut rng))
        .collect();
    let mut fp = Fingerprint::default();
    for s in [&rmat, &grid] {
        fp.u64(s.plain.num_edges() as u64);
        fp.u64(s.overlay.num_edges() as u64);
        fp.u32s(&s.sources);
    }
    for op in batches.iter().flatten() {
        fp.bytes(format!("{op:?}").as_bytes());
    }
    Inputs {
        rmat,
        grid,
        batches,
        fingerprint: fp.value(),
    }
}

/// Plain CSR holding `g`'s edges after `ops`, built from an edge map
/// without touching the overlay code: the model the overlay is checked
/// against.
fn rebuilt(g: &Graph, ops: &[&[Mutation]]) -> Graph {
    let mut edges = BTreeMap::new();
    for u in 0..g.num_vertices() as u32 {
        for (v, w) in g.weighted_neighbors(u) {
            edges.insert((u, v), w);
        }
    }
    for op in ops.iter().flat_map(|b| b.iter()) {
        match *op {
            Mutation::InsertEdge { u, v, w } => {
                edges.insert((u, v), w);
            }
            Mutation::DeleteEdge { u, v } => {
                edges.remove(&(u, v));
            }
            Mutation::AddVertex | Mutation::RemoveVertex { .. } => {
                unreachable!("the workload generates edge operations only")
            }
        }
    }
    let (pairs, weights): (Vec<_>, Vec<_>) = edges.into_iter().unzip();
    from_weighted_edges(g.num_vertices(), &pairs, &weights)
}

/// Expected answers: sequential traversals of a plain CSR with the same
/// edges as the backend under test.
struct Oracles {
    /// `[plain-equivalent, overlay-equivalent]` digests per source.
    bfs: [Vec<u64>; 2],
    sssp: [Vec<u64>; 2],
    scan: u64,
    /// What `write.apply256` then `compact` must produce.
    applied: Graph,
    compacted: Graph,
}

fn oracles(inp: &Inputs, corrupt: bool) -> Oracles {
    let per_source = |g: &Graph, sources: &[u32], weighted: bool| -> Vec<u64> {
        sources
            .iter()
            .map(|&s| {
                if weighted {
                    digest(&sssp_dijkstra(g, s).dist)
                } else {
                    digest(&bfs_seq(g, s).dist)
                }
            })
            .collect()
    };
    let compacted = rebuilt(&inp.rmat.plain, &[&inp.rmat.delta]);
    let grid_compacted = rebuilt(&inp.grid.plain, &[&inp.grid.delta]);
    let all: Vec<&[Mutation]> = std::iter::once(inp.rmat.delta.as_slice())
        .chain(inp.batches.iter().map(Vec::as_slice))
        .collect();
    let mut bfs = [
        per_source(&inp.rmat.plain, &inp.rmat.sources, false),
        per_source(&compacted, &inp.rmat.sources, false),
    ];
    if corrupt {
        bfs[0][0] ^= 1;
    }
    Oracles {
        bfs,
        sssp: [
            per_source(&inp.grid.plain, &inp.grid.sources, true),
            per_source(&grid_compacted, &inp.grid.sources, true),
        ],
        scan: probes::scan_all(&inp.rmat.plain),
        applied: rebuilt(&inp.rmat.plain, &all),
        compacted,
    }
}

struct Runner<'a> {
    inp: &'a Inputs,
    oracle: &'a Oracles,
    tmp: &'a TempDir,
    issued: usize,
}

impl Runner<'_> {
    /// Run `op` once; returns its time in milliseconds and whether the
    /// result matched the oracle. Checks sit outside the timed call.
    fn run(&mut self, op: Op, tracer: &mut Tracer) -> (f64, bool) {
        let (inp, oracle, tmp) = (self.inp, self.oracle, self.tmp);
        self.issued += 1;
        let op_id = self.issued as u64;
        let k = (self.issued / PASS.len()) % SOURCES;
        let (_, span) = op.names();
        tracer.span("bench.op", op_id, |t| match op {
            Op::Bfs(b) => {
                let src = inp.rmat.sources[k];
                let (s, dist) = t.span(span, op_id, |_| {
                    on_backend!(inp.rmat, b, g => secs(|| bfs_vgc(g, src, &VgcConfig::default()).dist))
                });
                (s * 1e3, digest(&dist) == oracle.bfs[usize::from(b == Overlay)][k])
            }
            Op::Sssp(b) => {
                let src = inp.grid.sources[k];
                let (s, dist) = t.span(span, op_id, |_| {
                    on_backend!(inp.grid, b, g => secs(|| sssp_rho_stepping(g, src, &RhoConfig::default()).dist))
                });
                (s * 1e3, digest(&dist) == oracle.sssp[usize::from(b == Overlay)][k])
            }
            Op::Compress => {
                let (s, c) = t.span(span, op_id, |_| secs(|| CompressedGraph::from_storage(&inp.rmat.plain)));
                (s * 1e3, c == inp.rmat.compressed)
            }
            Op::Pack { compressed } => {
                let path = tmp.fresh("pack", "pasgal");
                let (s, packed) = t.span(span, op_id, |_| secs(|| pack(&inp.rmat.plain, &path, compressed)));
                let ok = packed.is_ok()
                    && MmapGraph::load(&path).is_ok_and(|g| probes::scan_all(&g) == oracle.scan);
                // The mapping is gone by now; the name is never reused.
                let _ = std::fs::remove_file(&path);
                (s * 1e3, ok)
            }
            Op::Apply | Op::Compact => {
                let mut overlay = inp.rmat.overlay.clone();
                let apply = |o: &mut DeltaOverlay| inp.batches.iter().all(|b| o.apply(b).is_ok());
                if matches!(op, Op::Apply) {
                    let (s, ok) = t.span(span, op_id, |_| secs(|| apply(&mut overlay)));
                    (s * 1e3, ok && overlay.num_edges() == oracle.applied.num_edges())
                } else {
                    let (s, g) = t.span(span, op_id, |_| secs(|| overlay.compact()));
                    (s * 1e3, g == oracle.compacted)
                }
            }
        })
    }

    fn timed_loop(&mut self, seconds: f64, tracer: &mut Tracer, report: &mut Report) -> Classes {
        let mut classes = Classes::default();
        let t0 = Instant::now();
        'run: loop {
            for op in PASS {
                if t0.elapsed().as_secs_f64() >= seconds {
                    break 'run;
                }
                let (ms, ok) = self.run(op, tracer);
                let class = op.names().0;
                report.check(ok, || {
                    format!("{class} #{} differs from its oracle", self.issued)
                });
                classes.push(class, ms);
            }
        }
        classes
    }
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let tmp = TempDir::new().expect("create a scratch directory under benchmark/out");
    let (inp, setups) = args.set_up(|| build(args.seed, &tmp));
    report.fingerprint = inp.fingerprint;
    let oracle = oracles(&inp, args.corrupt);
    let mut runner = Runner {
        inp: &inp,
        oracle: &oracle,
        tmp: &tmp,
        issued: 0,
    };
    // The full apply-then-compact path, checked once against the model.
    {
        let mut overlay = inp.rmat.overlay.clone();
        let ok = inp.batches.iter().all(|b| overlay.apply(b).is_ok());
        report.check(ok && overlay.compact() == oracle.applied, || {
            "overlay after 256 batches differs from the rebuilt model".into()
        });
    }
    let weights: Vec<(&'static str, usize)> = PASS.iter().map(|op| (op.names().0, 1)).collect();

    if !args.trace {
        let classes = runner.timed_loop(args.seconds, tracer, &mut report);
        let rate = classes.pass_ops_per_s(&weights);
        report.end_to_end(&classes, rate, classes.total(), &setups);
        return report;
    }

    let share = args.seconds / 4.0;
    let plain = runner.timed_loop(share, &mut Tracer::new(Instant::now(), false), &mut report);
    let traced = runner.timed_loop(share, tracer, &mut report);
    report.set(
        "bench.trace_overhead_ratio",
        plain.pass_ops_per_s(&weights) / traced.pass_ops_per_s(&weights).max(1e-12),
    );

    // The write path, as rates, from the class medians.
    let rmat = &inp.rmat;
    let m = rmat.plain.num_edges() as f64;
    let per_ms = |class: &str| 1.0 / plain.p50(class).max(1e-9);
    report.set(
        "graph.compress_medges_per_s",
        m / 1e3 * per_ms("write.compress"),
    );
    report.set(
        "graph.pack_mb_per_s",
        rmat.file_bytes[0] as f64 / 1e3 * per_ms("write.pack"),
    );
    report.set(
        "graph.overlay.apply_kops_per_s",
        (4 * BATCHES) as f64 * per_ms("write.apply256"),
    );
    report.set(
        "graph.overlay.compact_medges_per_s",
        m / 1e3 * per_ms("write.compact"),
    );
    let path = tmp.fresh("probe", "pasgal");
    pack(&rmat.plain, &path, false).expect("pack into the scratch directory");
    let load_s = probes::median_secs(5, || MmapGraph::load(&path).is_ok());
    report.set_n("graph.mmap_load_ms", load_s * 1e3, 5);

    // The read path: one sequential pass over each backend.
    tracer.span("probe.graph", 0, |_| {
        probes::graph_plain(&mut report, &rmat.plain);
        let compressed_bytes = rmat.compressed.resident_bytes();
        probes::backend(
            &mut report,
            "compressed",
            &rmat.compressed,
            compressed_bytes,
        );
        probes::backend(&mut report, "mmap", &rmat.mmap, rmat.file_bytes[0] as usize);
        let overlay_bytes = rmat.plain.resident_bytes() + rmat.overlay.delta_bytes();
        probes::backend(&mut report, "overlay", &rmat.overlay, overlay_bytes);
        report.set(
            "graph.disk.compressed_bytes_per_edge",
            rmat.file_bytes[1] as f64 / m,
        );
        let (s, g) = secs(|| rmat_directed(RmatParams::social(16, 14, args.seed)));
        report.set(
            "graph.gen_rmat_medges_per_s",
            g.num_edges() as f64 / s / 1e6,
        );
    });
    tracer.span("probe.parlay", 0, |_| probes::parlay(&mut report));
    tracer.span("probe.collections", 0, |_| probes::collections(&mut report));
    report.trace_self_times(tracer);
    report.rows = plain.rows();
    report
}
