//! The serve workloads: the whole service stack over loopback TCP.
//!
//! The server runs in-process with `ServiceConfig::default()` and
//! `FrontendConfig::default()` (a better default shows as a gain); the
//! load generator is `nproc` threads with one connection each. The main
//! phase is a closed loop — every connection keeps [`WINDOW`] requests
//! in flight — and the traced run adds an open loop at three fixed
//! rates, timed from each request's due time.

use crate::gen::{Fingerprint, Rng, SourcePicker, Zipf};
use crate::probes::{self, secs};
use crate::spec::Report;
use crate::stats::{median, quantile_sorted, tail_quantile, Classes};
use crate::sys;
use crate::trace::Tracer;
use crate::Args;
use pasgal_core::bfs::seq::bfs_seq;
use pasgal_core::bfs::vgc::bfs_vgc;
use pasgal_core::common::{CancelToken, VgcConfig, UNREACHED};
use pasgal_core::multi::multi_bfs;
use pasgal_core::scc::tarjan::scc_tarjan;
use pasgal_core::sssp::dijkstra::sssp_dijkstra;
use pasgal_graph::builder::from_edges_symmetric;
use pasgal_graph::csr::Graph;
use pasgal_graph::gen::basic::{grid2d, grid2d_directed};
use pasgal_graph::gen::rmat::{rmat_directed, rmat_undirected, RmatParams};
use pasgal_graph::gen::with_random_weights;
use pasgal_graph::overlay::Mutation;
use pasgal_service::json::{self, Json};
use pasgal_service::protocol::{
    self, BINARY_MAGIC, TAG_BFS, TAG_DIST, TAG_ORACLE, TAG_PTP, TAG_SSSP,
};
use pasgal_service::shard::handle_sharded_request;
use pasgal_service::{EventServer, FrontendConfig, MetricsSnapshot, ServiceConfig, ShardedService};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Requests each connection keeps in flight in the closed loop.
const WINDOW: usize = 16;

/// The traced pass records spans for one request in this many: a hot run
/// answers a million requests, and the trace is for reading.
const SPAN_EVERY: u64 = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ptp,
    Bfs,
    Sssp,
    Oracle,
    Cc,
    Mutate,
}

impl Kind {
    fn name(self) -> &'static str {
        ["ptp", "bfs", "sssp", "oracle", "cc", "mutate"][self as usize]
    }
}

#[derive(Clone, Copy)]
enum Shape {
    /// Undirected, unweighted `side × side` grid.
    Grid { side: usize },
    /// Directed grid with random weights.
    DirectedGrid { side: usize },
    /// Undirected, unweighted R-MAT.
    Rmat { scale: u32, degree: usize },
    /// Directed R-MAT with random weights.
    DirectedRmat { scale: u32, degree: usize },
}

/// How a served answer is checked while the run is going.
#[derive(Clone, Copy, PartialEq)]
enum Check {
    /// Every answer, against distance arrays computed during set-up.
    Every,
    /// One answer in this many, against a sequential traversal after
    /// the run; the rest only for `ok`.
    Sampled(u64),
    /// The graph changes under the reads: `ok` only, then the exact
    /// state at quiescence.
    AtQuiescence,
}

pub struct Workload {
    pub name: &'static str,
    /// `PGB1` frames instead of JSON lines.
    binary: bool,
    graphs: &'static [(&'static str, Shape)],
    /// Percent of read requests per kind; sums to 100.
    mix: &'static [(Kind, u64)],
    /// Mutation batches per second from one extra connection (0: none).
    /// A fixed cadence, not a share of the mix: a batch costs about two
    /// thousand cache hits, so a share would turn the closed loop into a
    /// measurement of nothing but the batches it happened to draw.
    mutations_per_s: f64,
    /// Sources come Zipf-distributed from this many vertices per graph
    /// (0: uniformly from the largest strongly connected component).
    hot_set: usize,
    check: Check,
    /// Open-loop rates in requests per second (all connections together)
    /// and the p99 limit they are judged against. Calibrated once on the
    /// commit that added the benchmark (README, "open-loop calibration");
    /// never re-derived at run time.
    open_rates: [f64; 3],
    limit_ms: f64,
}

const HOT: Workload = Workload {
    name: "serve-hot",
    binary: false,
    graphs: &[
        ("grid", Shape::Grid { side: 128 }),
        (
            "rmat",
            Shape::Rmat {
                scale: 14,
                degree: 8,
            },
        ),
    ],
    mix: &[
        (Kind::Ptp, 60),
        (Kind::Bfs, 20),
        (Kind::Oracle, 15),
        (Kind::Cc, 5),
    ],
    mutations_per_s: 0.0,
    hot_set: 16,
    check: Check::Every,
    open_rates: [60_000.0, 120_000.0, 200_000.0],
    limit_ms: 10.0,
};

const COMPUTE: Workload = Workload {
    name: "serve-compute",
    binary: true,
    graphs: &[
        ("grid", Shape::DirectedGrid { side: 128 }),
        (
            "rmat",
            Shape::DirectedRmat {
                scale: 14,
                degree: 14,
            },
        ),
    ],
    mix: &[(Kind::Bfs, 45), (Kind::Sssp, 35), (Kind::Oracle, 20)],
    mutations_per_s: 0.0,
    hot_set: 0,
    check: Check::Sampled(16),
    open_rates: [60.0, 120.0, 240.0],
    limit_ms: 100.0,
};

const MUTATE: Workload = Workload {
    name: "serve-mutate",
    binary: false,
    graphs: &[("grid", Shape::Grid { side: 128 })],
    // No `oracle`: see README, "what the first runs found".
    mix: &[(Kind::Ptp, 63), (Kind::Bfs, 25), (Kind::Cc, 12)],
    mutations_per_s: 1.0,
    hot_set: 16,
    check: Check::AtQuiescence,
    open_rates: [0.0; 3],
    limit_ms: 0.0,
};

pub const ALL: [&Workload; 3] = [&HOT, &COMPUTE, &MUTATE];

fn make(shape: Shape, seed: u64) -> Graph {
    match shape {
        Shape::Grid { side } => grid2d(side, side),
        Shape::DirectedGrid { side } => {
            with_random_weights(&grid2d_directed(side, side, 0.55, seed), seed, 100)
        }
        Shape::Rmat { scale, degree } => rmat_undirected(RmatParams::social(scale, degree, seed)),
        Shape::DirectedRmat { scale, degree } => with_random_weights(
            &rmat_directed(RmatParams::social(scale, degree, seed)),
            seed,
            100,
        ),
    }
}

/// One registered graph and what the generator and the checker know
/// about it.
struct Target {
    name: &'static str,
    graph: Graph,
    /// Vertices sources are drawn from: the hot set, or the largest SCC.
    sources: Vec<u32>,
    /// `hot_dist[i]` = hop distances from `sources[i]` (hot workloads).
    hot_dist: Vec<Vec<u32>>,
    /// Component label per vertex and the component count, for `cc`.
    component: Vec<u32>,
    components: u64,
}

fn target(name: &'static str, graph: Graph, wl: &Workload, rng: &mut Rng) -> Target {
    let picker = SourcePicker::new(&graph);
    let (sources, hot_dist) = if wl.hot_set > 0 {
        let hot = picker.pick_distinct(rng, wl.hot_set);
        let dist = hot.iter().map(|&h| bfs_seq(&graph, h).dist).collect();
        (hot, dist)
    } else {
        (picker.into_members(), Vec::new())
    };
    let (component, components) = if graph.is_symmetric() {
        let scc = scc_tarjan(&graph);
        (scc.labels, scc.num_sccs as u64)
    } else {
        (Vec::new(), 0)
    };
    Target {
        name,
        graph,
        sources,
        hot_dist,
        component,
        components,
    }
}

/// A mutation batch a connection owns: applied, it removes two grid
/// edges and adds two diagonals; applied again, it undoes that. The edge
/// count is the same after every second use, and batches of different
/// connections never depend on each other.
#[derive(Clone)]
struct Toggle {
    grid_edges: [(u32, u32); 2],
    diagonals: [(u32, u32); 2],
    applied: bool,
}

/// A request in flight: what was asked, and when.
struct Pending {
    kind: Kind,
    graph: usize,
    /// Index into `sources` (hot workloads) or the vertex id itself.
    src: u32,
    dst: u32,
    batch: Option<[Mutation; 4]>,
    op_id: u64,
    /// Times this request has been sent.
    attempts: u8,
    /// Closed loop: when the first send began. Open loop: when it was due.
    start: Instant,
    sent: Instant,
}

/// Turns a seeded stream of random numbers into encoded requests. One
/// per connection; the server sees only the bytes.
#[derive(Clone)]
struct OpGen {
    wl: &'static Workload,
    targets: Arc<Vec<Target>>,
    rng: Rng,
    zipf: Option<Arc<Zipf>>,
    toggles: Vec<Toggle>,
    next_toggle: usize,
    issued: u64,
}

impl OpGen {
    fn new(wl: &'static Workload, targets: Arc<Vec<Target>>, rng: Rng) -> OpGen {
        let mut rng = rng;
        let mut toggles = Vec::new();
        if wl.mutations_per_s > 0.0 {
            let side = (targets[0].graph.num_vertices() as f64).sqrt() as u32;
            let mut cell = || {
                let r = rng.below(u64::from(side - 1)) as u32;
                r * side + rng.below(u64::from(side - 1)) as u32
            };
            toggles.extend((0..128).map(|_| {
                let (a, b, c, d) = (cell(), cell(), cell(), cell());
                Toggle {
                    grid_edges: [(a, a + 1), (b, b + side)],
                    diagonals: [(c, c + side + 1), (d + 1, d + side)],
                    applied: false,
                }
            }));
        }
        OpGen {
            wl,
            zipf: (wl.hot_set > 0).then(|| Arc::new(Zipf::new(wl.hot_set, 1.0))),
            targets,
            rng,
            toggles,
            next_toggle: 0,
            issued: 0,
        }
    }

    fn pending(
        &mut self,
        kind: Kind,
        graph: usize,
        src: u32,
        dst: u32,
        batch: Option<[Mutation; 4]>,
    ) -> Pending {
        self.issued += 1;
        let now = Instant::now();
        Pending {
            kind,
            graph,
            src,
            dst,
            batch,
            op_id: self.issued,
            attempts: 1,
            start: now,
            sent: now,
        }
    }

    /// Draw the next read of the mix and append its encoding to `out`.
    fn next(&mut self, out: &mut Vec<u8>) -> Pending {
        let mut roll = self.rng.below(100);
        let kind = self
            .wl
            .mix
            .iter()
            .find(|(_, share)| {
                let hit = roll < *share;
                roll = roll.saturating_sub(*share);
                hit
            })
            .map_or(Kind::Bfs, |(k, _)| *k);
        let graph = self.rng.below(self.targets.len() as u64) as usize;
        let t = &self.targets[graph];
        // Hot workloads carry indices into the hot set (the checker looks
        // the answer up by them); the others carry vertex ids.
        let (src, dst) = match &self.zipf {
            Some(z) => (
                z.sample(&mut self.rng) as u32,
                self.rng.below(t.sources.len() as u64) as u32,
            ),
            None => (
                t.sources[self.rng.below(t.sources.len() as u64) as usize],
                self.rng.below(t.graph.num_vertices() as u64) as u32,
            ),
        };
        let p = self.pending(kind, graph, src, dst, None);
        self.encode(&p, out);
        p
    }

    /// Draw the next mutation batch: the next toggle, flipped.
    fn next_mutation(&mut self, out: &mut Vec<u8>) -> Pending {
        let k = self.next_toggle % self.toggles.len();
        self.next_toggle += 1;
        let tg = &mut self.toggles[k];
        let (gone, added) = if tg.applied {
            (tg.diagonals, tg.grid_edges)
        } else {
            (tg.grid_edges, tg.diagonals)
        };
        tg.applied = !tg.applied;
        let del = |(u, v)| Mutation::DeleteEdge { u, v };
        let ins = |(u, v)| Mutation::InsertEdge { u, v, w: 1 };
        let batch = [del(gone[0]), del(gone[1]), ins(added[0]), ins(added[1])];
        let p = self.pending(Kind::Mutate, 0, 0, 0, Some(batch));
        self.encode(&p, out);
        p
    }

    /// Append the wire form of `p` to `out` (again, when it is re-sent).
    fn encode(&self, p: &Pending, out: &mut Vec<u8>) {
        let t = &self.targets[p.graph];
        let name = t.name;
        let (src, dst) = if self.zipf.is_some() && p.kind != Kind::Mutate {
            (t.sources[p.src as usize], t.sources[p.dst as usize])
        } else {
            (p.src, p.dst)
        };
        if self.wl.binary {
            let tag = match p.kind {
                Kind::Bfs => TAG_BFS,
                Kind::Sssp => TAG_SSSP,
                Kind::Ptp => TAG_PTP,
                Kind::Oracle => TAG_ORACLE,
                Kind::Cc | Kind::Mutate => unreachable!("binary mixes hold point queries only"),
            };
            protocol::encode_binary_request(tag, name, src, Some(dst), None, out);
            return;
        }
        let written = match p.kind {
            Kind::Ptp => writeln!(
                out,
                r#"{{"op":"ptp","graph":"{name}","src":{src},"dst":{dst}}}"#
            ),
            Kind::Bfs => writeln!(
                out,
                r#"{{"op":"bfs","graph":"{name}","src":{src},"target":{dst}}}"#
            ),
            Kind::Sssp => writeln!(
                out,
                r#"{{"op":"sssp","graph":"{name}","src":{src},"target":{dst}}}"#
            ),
            Kind::Oracle => writeln!(
                out,
                r#"{{"op":"oracle","graph":"{name}","src":{src},"dst":{dst}}}"#
            ),
            Kind::Cc => writeln!(out, r#"{{"op":"cc","graph":"{name}","vertex":{src}}}"#),
            Kind::Mutate => {
                let ops: Vec<String> = p
                    .batch
                    .iter()
                    .flatten()
                    .map(|op| match *op {
                        Mutation::InsertEdge { u, v, .. } => format!(r#"["+e",{u},{v}]"#),
                        Mutation::DeleteEdge { u, v } => format!(r#"["-e",{u},{v}]"#),
                        Mutation::AddVertex | Mutation::RemoveVertex { .. } => {
                            unreachable!("edge batches only")
                        }
                    })
                    .collect();
                writeln!(
                    out,
                    r#"{{"op":"mutate","graph":"{name}","ops":[{}]}}"#,
                    ops.join(",")
                )
            }
        };
        written.expect("writing into a Vec cannot fail");
    }
}

/// The fields of a response the checker reads.
#[derive(Default)]
struct Parsed {
    ok: bool,
    dist: Option<u64>,
    label: Option<u64>,
    components: Option<u64>,
    epoch: Option<u64>,
    n: Option<u64>,
    m: Option<u64>,
    /// The response text, kept only when `ok` is false.
    error: String,
}

/// What a read is refused with when three attempts in a row each
/// overlapped a mutation batch (README, "what the first runs found").
const STALE: &str = "graph mutated during computation";

impl Parsed {
    fn stale(&self) -> bool {
        !self.ok && self.error.contains(STALE)
    }
}

/// The unsigned integer after `pat` (a quoted key and its colon) in a
/// JSON object's text.
fn field(text: &[u8], pat: &[u8]) -> Option<u64> {
    let at = text.windows(pat.len()).position(|w| w == pat)? + pat.len();
    let digits = text[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&text[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

fn parse(binary: bool, payload: &[u8]) -> Parsed {
    let text = match (binary, payload.split_first()) {
        (true, Some((&TAG_DIST, rest))) => {
            let status = rest.first().copied().unwrap_or(0);
            let dist = (status & 2 != 0)
                .then(|| {
                    rest.get(1..9)
                        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                })
                .flatten();
            return Parsed {
                ok: status & 1 != 0,
                dist,
                ..Parsed::default()
            };
        }
        (true, Some((_, rest))) => rest,
        (true, None) => return Parsed::default(),
        (false, _) => payload,
    };
    let ok_pat = br#""ok":true"#;
    let ok = text.windows(ok_pat.len()).any(|w| w == ok_pat);
    Parsed {
        ok,
        error: if ok {
            String::new()
        } else {
            String::from_utf8_lossy(text).trim().to_string()
        },
        dist: field(text, br#""dist":"#),
        label: field(text, br#""label":"#),
        components: field(text, br#""components":"#),
        epoch: field(text, br#""epoch":"#),
        n: field(text, br#""n":"#),
        m: field(text, br#""m":"#),
    }
}

/// The reading half of a client connection, in either framing.
struct Rx {
    reader: BufReader<TcpStream>,
    binary: bool,
    buf: Vec<u8>,
}

impl Rx {
    /// The payload of the next response.
    fn recv(&mut self) -> std::io::Result<&[u8]> {
        if self.binary {
            let mut len = [0u8; 4];
            self.reader.read_exact(&mut len)?;
            self.buf.resize(u32::from_le_bytes(len) as usize, 0);
            self.reader.read_exact(&mut self.buf)?;
        } else {
            self.buf.clear();
            if self.reader.read_until(b'\n', &mut self.buf)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
        }
        Ok(&self.buf)
    }
}

/// One client connection.
struct Conn {
    writer: TcpStream,
    rx: Rx,
}

impl Conn {
    fn open(addr: SocketAddr, binary: bool) -> std::io::Result<Conn> {
        let mut writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(30)))?;
        if binary {
            writer.write_all(&BINARY_MAGIC)?;
        }
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn {
            writer,
            rx: Rx {
                reader,
                binary,
                buf: Vec::new(),
            },
        })
    }

    /// Send an encoded request and stamp it.
    fn post(&mut self, wire: &[u8], mut p: Pending) -> std::io::Result<Pending> {
        self.writer.write_all(wire)?;
        p.sent = Instant::now();
        Ok(p)
    }

    /// One JSON-lines request and its response, at depth one.
    fn call(&mut self, line: &str) -> std::io::Result<Parsed> {
        debug_assert!(!self.rx.binary);
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.rx.recv().map(|p| parse(false, p))
    }
}

/// An answer kept for checking after the run.
struct Sample {
    kind: Kind,
    graph: usize,
    src: u32,
    dst: u32,
    dist: Option<u64>,
}

/// What one connection saw.
#[derive(Default)]
struct ConnOut {
    classes: Classes,
    /// Completions per second since the phase began.
    per_second: Vec<u64>,
    attempted: u64,
    failures: Vec<String>,
    samples: Vec<Sample>,
    /// Acknowledged mutation batches with the epoch the server gave them.
    acks: Vec<(u64, [Mutation; 4])>,
    /// `cc` labels seen per oracle component, per graph.
    labels: HashMap<(usize, u32), u64>,
    /// Requests sent again after a [`STALE`] refusal.
    reissued: u64,
    cpu_s: f64,
}

/// Checks answers as they arrive; shared by both loop shapes.
struct Checker<'a> {
    wl: &'static Workload,
    targets: &'a [Target],
    out: ConnOut,
}

impl Checker<'_> {
    fn check(&mut self, p: &Pending, r: &Parsed) {
        self.out.attempted += 1;
        if !r.ok {
            self.out.failures.push(format!(
                "{} #{} refused: {}",
                p.kind.name(),
                p.op_id,
                r.error
            ));
            return;
        }
        let t = &self.targets[p.graph];
        match (self.wl.check, p.kind) {
            (Check::Every, Kind::Cc) => {
                let v = t.sources[p.src as usize];
                let class = t.component[v as usize];
                let seen = *self
                    .out
                    .labels
                    .entry((p.graph, class))
                    .or_insert(r.label.unwrap_or(u64::MAX));
                if r.components != Some(t.components) || r.label != Some(seen) {
                    self.out.failures.push(format!("cc #{} wrong", p.op_id));
                }
            }
            (Check::Every, _) => {
                let d = t.hot_dist[p.src as usize][t.sources[p.dst as usize] as usize];
                let want = (d != UNREACHED).then_some(u64::from(d));
                if r.dist != want {
                    self.out.failures.push(format!(
                        "{} #{}: got {:?}, oracle says {want:?}",
                        p.kind.name(),
                        p.op_id,
                        r.dist
                    ));
                }
            }
            (Check::Sampled(every), _) if p.op_id.is_multiple_of(every) => {
                self.out.samples.push(Sample {
                    kind: p.kind,
                    graph: p.graph,
                    src: p.src,
                    dst: p.dst,
                    dist: r.dist,
                })
            }
            (Check::AtQuiescence, Kind::Mutate) => match (r.epoch, p.batch) {
                (Some(epoch), Some(batch)) => self.out.acks.push((epoch, batch)),
                _ => self
                    .out
                    .failures
                    .push(format!("mutate #{} acknowledged without an epoch", p.op_id)),
            },
            _ => {}
        }
    }
}

/// How often a request refused as [`STALE`] is sent again.
const MAX_ATTEMPTS: u8 = 4;

/// Closed loop on one connection: [`WINDOW`] requests in flight until
/// `seconds` have passed since `t0`, then drain.
fn closed_loop(
    addr: SocketAddr,
    gen: &mut OpGen,
    t0: Instant,
    seconds: f64,
    tracer: &mut Tracer,
) -> ConnOut {
    let cpu0 = sys::thread_cpu();
    let targets = Arc::clone(&gen.targets);
    let mut checker = Checker {
        wl: gen.wl,
        targets: &targets,
        out: ConnOut::default(),
    };
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(WINDOW);
    let binary = gen.wl.binary;
    let io = (|| -> std::io::Result<()> {
        let mut conn = Conn::open(addr, binary)?;
        let mut wire = Vec::with_capacity(256);
        for _ in 0..WINDOW {
            wire.clear();
            let p = gen.next(&mut wire);
            inflight.push_back(conn.post(&wire, p)?);
        }
        while let Some(mut p) = inflight.pop_front() {
            let parsed = parse(binary, conn.rx.recv()?);
            let got = Instant::now();
            if parsed.stale() && p.attempts < MAX_ATTEMPTS {
                // As a caller would: ask again. The latency recorded at
                // the end covers every attempt.
                p.attempts += 1;
                checker.out.reissued += 1;
                wire.clear();
                gen.encode(&p, &mut wire);
                inflight.push_back(conn.post(&wire, p)?);
                continue;
            }
            checker
                .out
                .classes
                .push(p.kind.name(), (got - p.start).as_secs_f64() * 1e3);
            let second = (got - t0).as_secs() as usize;
            if checker.out.per_second.len() <= second {
                checker.out.per_second.resize(second + 1, 0);
            }
            checker.out.per_second[second] += 1;
            checker.check(&p, &parsed);
            if tracer.enabled() && p.op_id.is_multiple_of(SPAN_EVERY) {
                let op = tracer.record("bench.op", p.op_id, p.start, Instant::now(), None);
                tracer.record("client.send", p.op_id, p.start, p.sent, op);
                tracer.record("client.wait", p.op_id, p.sent, got, op);
            }
            if (got - t0).as_secs_f64() < seconds {
                wire.clear();
                let p = gen.next(&mut wire);
                inflight.push_back(conn.post(&wire, p)?);
            }
        }
        Ok(())
    })();
    let mut out = checker.out;
    if let Err(e) = io {
        // Whatever was still in flight never got an answer.
        out.attempted += inflight.len() as u64;
        out.failures.extend(
            (0..inflight.len().max(1))
                .map(|_| format!("connection failed, request unanswered: {e}")),
        );
    }
    out.cpu_s = sys::thread_cpu() - cpu0;
    out
}

/// The writing connection of a mutating workload: one batch every
/// `1 / per_s` seconds at depth one, until `seconds` have passed.
fn writer_loop(
    addr: SocketAddr,
    gen: &mut OpGen,
    t0: Instant,
    seconds: f64,
    per_s: f64,
) -> ConnOut {
    let targets = Arc::clone(&gen.targets);
    let mut checker = Checker {
        wl: gen.wl,
        targets: &targets,
        out: ConnOut::default(),
    };
    let interval = Duration::from_secs_f64(1.0 / per_s);
    let io = (|| -> std::io::Result<()> {
        let mut conn = Conn::open(addr, false)?;
        let mut wire = Vec::with_capacity(256);
        for k in 0.. {
            let due = t0 + interval.mul_f64(f64::from(k));
            if (due - t0).as_secs_f64() >= seconds {
                break;
            }
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            wire.clear();
            let p = gen.next_mutation(&mut wire);
            let p = conn.post(&wire, p)?;
            let parsed = parse(false, conn.rx.recv()?);
            checker
                .out
                .classes
                .push(p.kind.name(), p.start.elapsed().as_secs_f64() * 1e3);
            checker.check(&p, &parsed);
        }
        Ok(())
    })();
    let mut out = checker.out;
    if let Err(e) = io {
        out.attempted += 1;
        out.failures
            .push(format!("mutation connection failed: {e}"));
    }
    out
}

/// What one connection saw in an open-loop phase.
#[derive(Default)]
struct OpenOut {
    scheduled: u64,
    /// Latency from the due time, answered requests only.
    latency_ms: Vec<f64>,
    /// How late each send was.
    lag_ms: Vec<f64>,
    /// Answered `ok` within the limit.
    good: u64,
    checked: ConnOut,
}

/// Open loop on one connection: one request every `interval`, sent
/// whether or not earlier ones have been answered; a second thread reads.
fn open_loop(
    addr: SocketAddr,
    gen: &mut OpGen,
    interval: Duration,
    seconds: f64,
    limit_ms: f64,
) -> OpenOut {
    let targets = Arc::clone(&gen.targets);
    let wl = gen.wl;
    let Ok(conn) = Conn::open(addr, wl.binary) else {
        return OpenOut::default();
    };
    let Conn { mut writer, mut rx } = conn;
    let (tx, pending) = std::sync::mpsc::channel::<Pending>();
    let scheduled = (seconds / interval.as_secs_f64()) as u64;
    std::thread::scope(|s| {
        let reading = s.spawn(move || {
            let mut checker = Checker {
                wl,
                targets: &targets,
                out: ConnOut::default(),
            };
            let (mut latency_ms, mut good) = (Vec::new(), 0u64);
            let binary = rx.binary;
            for p in pending {
                let Ok(payload) = rx.recv() else { break };
                let parsed = parse(binary, payload);
                let ms = p.start.elapsed().as_secs_f64() * 1e3;
                good += u64::from(parsed.ok && ms <= limit_ms);
                // A refusal under open-loop overload misses the limit; it
                // is not a wrong answer.
                if parsed.ok {
                    latency_ms.push(ms);
                    checker.check(&p, &parsed);
                }
            }
            (latency_ms, good, checker.out)
        });
        let t0 = Instant::now();
        let mut lag_ms = Vec::with_capacity(scheduled as usize);
        let mut wire = Vec::with_capacity(256);
        for i in 0..scheduled {
            let due = t0 + interval.mul_f64(i as f64);
            let wait = due.saturating_duration_since(Instant::now());
            if wait > Duration::from_micros(200) {
                std::thread::sleep(wait - Duration::from_micros(100));
            }
            // Yield, not spin: the server shares these cores.
            while Instant::now() < due {
                std::thread::yield_now();
            }
            wire.clear();
            let mut p = gen.next(&mut wire);
            p.start = due;
            lag_ms.push((p.sent - due).as_secs_f64() * 1e3);
            if writer.write_all(&wire).is_err() || tx.send(p).is_err() {
                break;
            }
        }
        drop(tx);
        let (latency_ms, good, checked) = reading.join().expect("open-loop reader panicked");
        OpenOut {
            scheduled,
            latency_ms,
            lag_ms,
            good,
            checked,
        }
    })
}

/// The server, its graphs, and the client-side generators.
struct Stack {
    wl: &'static Workload,
    targets: Arc<Vec<Target>>,
    fleet: Arc<ShardedService>,
    server: EventServer,
    gens: Vec<OpGen>,
    /// Generator of the mutation connection, for workloads that have one.
    writer: Option<OpGen>,
}

impl Stack {
    /// Everything before the first timed request: generate the graphs,
    /// compute what the checker needs, register, bind, warm the cache.
    fn start(wl: &'static Workload, seed: u64, corrupt: bool) -> Stack {
        let mut rng = Rng::new(seed).fork(3);
        let mut targets: Vec<Target> = wl
            .graphs
            .iter()
            .map(|&(name, shape)| target(name, make(shape, seed), wl, &mut rng))
            .collect();
        if let (true, Some(expected)) = (corrupt, targets[0].hot_dist.first_mut()) {
            expected.iter_mut().for_each(|d| *d = d.wrapping_add(1));
        }
        let targets = Arc::new(targets);
        let fleet = Arc::new(ShardedService::new(ServiceConfig::default(), 1));
        for t in targets.iter() {
            fleet.register(t.name, t.graph.clone());
        }
        let server =
            EventServer::spawn(Arc::clone(&fleet), "127.0.0.1:0", FrontendConfig::default())
                .expect("bind a loopback port");
        let gens = (0..sys::nproc())
            .map(|c| OpGen::new(wl, Arc::clone(&targets), rng.fork(100 + c as u64)))
            .collect();
        let writer =
            (wl.mutations_per_s > 0.0).then(|| OpGen::new(wl, Arc::clone(&targets), rng.fork(99)));
        let stack = Stack {
            wl,
            targets,
            fleet,
            server,
            gens,
            writer,
        };
        stack.warm();
        stack
    }

    /// Touch every key the hot set can ask for, so the timed section
    /// measures the serving path. Uniform-source workloads have no
    /// working set to warm; one query per graph starts the workers.
    fn warm(&self) {
        let mut conn =
            Conn::open(self.server.local_addr(), false).expect("connect to the server just bound");
        for t in self.targets.iter() {
            let name = t.name;
            let hot = if self.wl.hot_set > 0 {
                t.sources.as_slice()
            } else {
                &t.sources[..1]
            };
            for &h in hot {
                // To itself: a symmetric graph keys `s→t` by the smaller
                // endpoint, and every hot vertex must get its own flight
                // whatever the seed made of the set.
                for line in [
                    format!(r#"{{"op":"ptp","graph":"{name}","src":{h},"dst":{h}}}"#),
                    format!(r#"{{"op":"bfs","graph":"{name}","src":{h},"target":{h}}}"#),
                    format!(r#"{{"op":"oracle","graph":"{name}","src":{h},"dst":{h}}}"#),
                ] {
                    let r = conn.call(&line).expect("warm-up query");
                    assert!(r.ok, "warm-up query refused: {line}");
                }
            }
            if t.graph.is_symmetric() {
                let r = conn.call(&format!(r#"{{"op":"cc","graph":"{name}","vertex":0}}"#));
                assert!(r.is_ok_and(|r| r.ok), "warm-up cc refused");
            }
        }
    }

    /// Run `f` once per connection, each on its own thread.
    fn fan_out<T: Send>(
        &mut self,
        f: impl Fn(SocketAddr, &mut OpGen, usize) -> T + Sync,
    ) -> Vec<T> {
        let addr = self.server.local_addr();
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .gens
                .iter_mut()
                .enumerate()
                .map(|(c, gen)| {
                    let f = &f;
                    s.spawn(move || f(addr, gen, c))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    }
}

/// A closed-loop phase and the server-side counters around it.
struct Closed {
    classes: Classes,
    qps: f64,
    qps_samples: usize,
    cpu_share: f64,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    bytes: u64,
    frames: u64,
    frames_bad: u64,
    samples: Vec<Sample>,
    acks: Vec<(u64, [Mutation; 4])>,
    /// Median latency of the writer's batches (0 without a writer).
    mutate_ms: f64,
}

fn closed_phase(
    stack: &mut Stack,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Closed {
    let before = stack.fleet.merged_metrics();
    let fe0 = stack.server.stats();
    let cpu0 = sys::process_cpu();
    let t0 = Instant::now();
    let tracers: Vec<Mutex<Tracer>> = stack
        .gens
        .iter()
        .map(|_| Mutex::new(tracer.sibling()))
        .collect();
    let addr = stack.server.local_addr();
    let mut writer = stack.writer.take();
    let per_s = stack.wl.mutations_per_s;
    let (mut outs, wrote) = std::thread::scope(|s| {
        let writing = writer
            .as_mut()
            .map(|gen| s.spawn(move || writer_loop(addr, gen, t0, seconds, per_s)));
        let outs = stack.fan_out(|addr, gen, c| {
            let mut t = tracers[c].lock().expect("one thread per tracer");
            closed_loop(addr, gen, t0, seconds, &mut t)
        });
        (
            outs,
            writing.map(|w| w.join().expect("mutation thread panicked")),
        )
    });
    stack.writer = writer;
    let cpu1 = sys::process_cpu();
    let (after, fe1) = (stack.fleet.merged_metrics(), stack.server.stats());
    for t in tracers {
        tracer.absorb(t.into_inner().expect("client threads have exited"));
    }

    let mut phase = Closed {
        classes: Classes::default(),
        qps: 0.0,
        qps_samples: 0,
        cpu_share: 0.0,
        before,
        after,
        bytes: (fe1.bytes_in + fe1.bytes_out) - (fe0.bytes_in + fe0.bytes_out),
        frames: fe1.frames_in - fe0.frames_in,
        frames_bad: fe1.frames_bad - fe0.frames_bad,
        samples: Vec::new(),
        acks: Vec::new(),
        mutate_ms: 0.0,
    };
    let whole = seconds.floor() as usize;
    let mut per_second = vec![0u64; whole];
    let (mut client_cpu, mut reissued) = (0.0, 0);
    for out in outs.drain(..) {
        reissued += out.reissued;
        report.attempted += out.attempted;
        for f in out.failures {
            report.fail(f);
        }
        for (s, n) in out.per_second.iter().enumerate().take(whole) {
            per_second[s] += n;
        }
        client_cpu += out.cpu_s;
        phase.classes.extend(out.classes);
        phase.samples.extend(out.samples);
    }
    // Steady state: completions in the whole seconds after the first.
    if let Some(w) = wrote {
        // The writer is checked like any client, but its twenty-odd
        // batches are too few to bound: their latency is a per-layer
        // number, and the end-to-end summaries describe the readers.
        report.attempted += w.attempted;
        for f in w.failures {
            report.fail(f);
        }
        phase.mutate_ms = w.classes.p50(Kind::Mutate.name());
        phase.acks = w.acks;
    }
    let steady: u64 = per_second.iter().skip(1).sum();
    (phase.qps, phase.qps_samples) = if whole > 1 {
        (steady as f64 / (whole - 1) as f64, steady as usize)
    } else {
        (
            phase.classes.total() as f64 / seconds,
            phase.classes.total(),
        )
    };
    if reissued > 0 {
        report.notes.push(format!(
            "{reissued} reads refused as stale ({STALE:?}) and sent again"
        ));
    }
    phase.cpu_share = client_cpu / ((cpu1.0 - cpu0.0) + (cpu1.1 - cpu0.1)).max(1e-9);
    if fe1.frames_in != fe1.frames_out {
        // Every connection has drained, so the front end is quiescent.
        report.fail(format!(
            "wire identity broken: {} frames in, {} out",
            fe1.frames_in, fe1.frames_out
        ));
    }
    phase
}

/// Check the sampled answers of a uniform-source run against sequential
/// traversals from the same sources.
fn check_samples(targets: &[Target], samples: &[Sample], corrupt: bool, report: &mut Report) {
    let mut hops: HashMap<(usize, u32), Vec<u32>> = HashMap::new();
    let mut weighted: HashMap<(usize, u32), Vec<u64>> = HashMap::new();
    for (i, s) in samples.iter().enumerate() {
        let g = &targets[s.graph].graph;
        let mut want = match s.kind {
            Kind::Sssp | Kind::Ptp => {
                let d = weighted
                    .entry((s.graph, s.src))
                    .or_insert_with(|| sssp_dijkstra(g, s.src).dist);
                (d[s.dst as usize] != u64::MAX).then_some(d[s.dst as usize])
            }
            _ => {
                let d = hops
                    .entry((s.graph, s.src))
                    .or_insert_with(|| bfs_seq(g, s.src).dist);
                (d[s.dst as usize] != UNREACHED).then_some(u64::from(d[s.dst as usize]))
            }
        };
        if corrupt && i == 0 {
            want = Some(want.map_or(0, |d| d + 1));
        }
        if s.dist != want {
            report.fail(format!(
                "{} {}→{}: got {:?}, oracle says {want:?}",
                s.kind.name(),
                s.src,
                s.dst,
                s.dist
            ));
        }
    }
}

/// Replay the acknowledged batches in epoch order into a model edge set,
/// then ask the quiescent server for `n`, `m` and 64 distances.
fn check_quiescence(
    stack: &Stack,
    acks: &mut [(u64, [Mutation; 4])],
    seed: u64,
    corrupt: bool,
    report: &mut Report,
) {
    let t = &stack.targets[0];
    let n = t.graph.num_vertices();
    let key = |u: u32, v: u32| (u.min(v), u.max(v));
    let mut edges: HashSet<(u32, u32)> = t.graph.edges().map(|(u, v)| key(u, v)).collect();
    acks.sort_by_key(|(epoch, _)| *epoch);
    for (_, batch) in acks.iter() {
        for op in batch {
            match *op {
                Mutation::InsertEdge { u, v, .. } => {
                    edges.insert(key(u, v));
                }
                Mutation::DeleteEdge { u, v } => {
                    edges.remove(&key(u, v));
                }
                Mutation::AddVertex | Mutation::RemoveVertex { .. } => {
                    unreachable!("edge batches only")
                }
            }
        }
    }
    let mut list: Vec<(u32, u32)> = edges.into_iter().collect();
    list.sort_unstable();
    let model = from_edges_symmetric(n, &list);
    let mut conn = Conn::open(stack.server.local_addr(), false).expect("connect at quiescence");
    let stats = conn
        .call(&format!(r#"{{"op":"stats","graph":"{}"}}"#, t.name))
        .unwrap_or_default();
    let want_m = model.num_edges() as u64 + u64::from(corrupt);
    report.check(stats.n == Some(n as u64) && stats.m == Some(want_m), || {
        format!(
            "after {} batches the server has n={:?} m={:?}, the model n={n} m={want_m}",
            acks.len(),
            stats.n,
            stats.m
        )
    });
    let mut rng = Rng::new(seed).fork(9);
    for _ in 0..64 {
        let (src, dst) = (rng.below(n as u64) as u32, rng.below(n as u64) as u32);
        let d = bfs_seq(&model, src).dist[dst as usize];
        let want = (d != UNREACHED).then_some(u64::from(d));
        let got = conn
            .call(&format!(
                r#"{{"op":"bfs","graph":"{}","src":{src},"target":{dst}}}"#,
                t.name
            ))
            .unwrap_or_default();
        report.check(got.ok && got.dist == want, || {
            format!(
                "at quiescence bfs {src}→{dst}: got {:?}, model says {want:?}",
                got.dist
            )
        });
    }
}

fn finish_checks(stack: &Stack, phase: &mut Closed, args: &Args, report: &mut Report) {
    match stack.wl.check {
        Check::Sampled(_) => check_samples(&stack.targets, &phase.samples, args.corrupt, report),
        Check::AtQuiescence => {
            check_quiescence(stack, &mut phase.acks, args.seed, args.corrupt, report)
        }
        Check::Every => {}
    }
}

/// Approximate mean of a power-of-two histogram delta (bucket `i` holds
/// `[2^i, 2^(i+1))`; its midpoint stands for it).
fn hist_mean(before: &[u64], after: &[u64]) -> f64 {
    let (mut total, mut n) = (0.0, 0.0);
    for (i, (&a, &b)) in after.iter().zip(before).enumerate() {
        let c = (a - b) as f64;
        total += c * if i == 0 {
            1.0
        } else {
            1.5 * (1u64 << i) as f64
        };
        n += c;
    }
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}

/// Approximate median of a power-of-two histogram delta.
fn hist_p50(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let half = delta.iter().sum::<u64>().div_ceil(2);
    let mut seen = 0;
    for (i, c) in delta.iter().enumerate() {
        seen += c;
        if seen >= half && *c > 0 {
            return if i == 0 {
                1.0
            } else {
                1.5 * (1u64 << i) as f64
            };
        }
    }
    0.0
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `service.*` and `frontend.*` counters from the deltas around a
/// closed-loop phase.
fn service_deltas(p: &Closed, report: &mut Report) {
    let (a, b) = (&p.after, &p.before);
    let queries = a.queries - b.queries;
    let lookups = (a.cache_hits - b.cache_hits) + (a.cache_misses - b.cache_misses);
    report.set_n(
        "service.cache_hit_ratio",
        ratio(a.cache_hits - b.cache_hits, lookups),
        lookups as usize,
    );
    report.set(
        "service.computations_per_query",
        ratio(a.computations - b.computations, queries),
    );
    report.set(
        "service.batch_size_mean",
        hist_mean(&b.batch_size, &a.batch_size),
    );
    report.set(
        "service.sources_per_flight_mean",
        hist_mean(&b.sources_per_flight, &a.sources_per_flight),
    );
    report.set(
        "service.shed_ratio",
        ratio(
            (a.shed - b.shed) + (a.rejected_overload - b.rejected_overload),
            queries,
        ),
    );
    report.set(
        "service.degraded_ratio",
        ratio(a.degraded - b.degraded, queries),
    );
    report.set("service.retries", (a.retries - b.retries) as f64);
    report.set(
        "service.server_latency_us_p50",
        hist_p50(&b.latency_us, &a.latency_us),
    );
    let (kept, dropped) = (
        a.cache_revalidated - b.cache_revalidated,
        a.cache_dropped - b.cache_dropped,
    );
    report.set("service.cache_retained_ratio", ratio(kept, kept + dropped));
    report.set(
        "service.compactions",
        (a.compactions - b.compactions) as f64,
    );
    report.set("service.mutate_ms_p50", p.mutate_ms);
    report.set("frontend.bytes_per_request", ratio(p.bytes, p.frames));
    report.set("frontend.frames_bad", p.frames_bad as f64);
    report.set("loadgen.cpu_share", p.cpu_share);
    report.set_n("loadgen.closed.qps", p.qps, p.qps_samples);
    report.set_n(
        "loadgen.closed.latency_ms_p50",
        p.classes.p50_geomean(),
        p.classes.total(),
    );
    report.set_n(
        "loadgen.closed.latency_ms_tail",
        p.classes.tail_geomean(),
        p.classes.total(),
    );
}

/// In-process and depth-one probes of the serving path on the first
/// graph: where a request's time goes when nothing queues.
fn path_probes(stack: &Stack, report: &mut Report) {
    let t = &stack.targets[0];
    let token = CancelToken::new();
    let ask = |line: &str| {
        let req = json::parse(line).expect("probe request is valid JSON");
        secs(|| handle_sharded_request(&stack.fleet, &req, &token))
    };
    let (name, a, b) = (t.name, t.sources[0], t.sources[t.sources.len() / 2]);
    let hit = format!(r#"{{"op":"ptp","graph":"{name}","src":{a},"dst":{b}}}"#);
    ask(&hit);
    let hit_us = median(&(0..2000).map(|_| ask(&hit).0 * 1e6).collect::<Vec<_>>());
    report.set_n("service.hit_us_p50", hit_us, 2000);

    // Misses: sources the run is unlikely to have cached, each asked once,
    // beside the same traversal called directly.
    let n = t.graph.num_vertices() as u32;
    let fresh: Vec<u32> = if stack.wl.hot_set > 0 {
        (0..n)
            .rev()
            .filter(|v| !t.sources.contains(v))
            .take(9)
            .collect()
    } else {
        t.sources.iter().rev().take(9).copied().collect()
    };
    let cfg = VgcConfig {
        tau: ServiceConfig::default().tau,
        adaptive: true,
    };
    let (mut miss_ms, mut direct_ms) = (Vec::new(), Vec::new());
    for &s in &fresh {
        let before = stack.fleet.merged_metrics().computations;
        let (secs_miss, reply) = ask(&format!(
            r#"{{"op":"bfs","graph":"{name}","src":{s},"target":{a}}}"#
        ));
        let computed = stack.fleet.merged_metrics().computations > before;
        if computed && reply.get("ok") == Some(&Json::Bool(true)) {
            miss_ms.push(secs_miss * 1e3);
            direct_ms.push(secs(|| bfs_vgc(&t.graph, s, &cfg)).0 * 1e3);
        }
    }
    report.set_n("service.miss_ms_p50", median(&miss_ms), miss_ms.len());
    report.set(
        "service.miss_overhead_us",
        (median(&miss_ms) - median(&direct_ms)) * 1e3,
    );

    let nowhere = r#"{"op":"ptp","graph":"no-such-graph","src":0,"dst":1}"#;
    let dispatch_ns = median(&(0..2000).map(|_| ask(nowhere).0 * 1e9).collect::<Vec<_>>());
    report.set_n("shard.dispatch_ns", dispatch_ns, 2000);

    // The same cached question over TCP, one at a time.
    let mut conn =
        Conn::open(stack.server.local_addr(), stack.wl.binary).expect("connect for the rtt probe");
    let mut wire = Vec::new();
    if stack.wl.binary {
        protocol::encode_binary_request(TAG_PTP, name, a, Some(b), None, &mut wire);
    } else {
        wire.extend_from_slice(hit.as_bytes());
        wire.push(b'\n');
    }
    let mut rtts = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t0 = Instant::now();
        if conn.writer.write_all(&wire).is_err() || conn.rx.recv().is_err() {
            break;
        }
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let rtt_us = median(&rtts);
    report.set_n("frontend.rtt_us_p50", rtt_us, rtts.len());
    probes::protocol(report);
    let codec = |dir: &str| {
        let mode = if stack.wl.binary { "bin" } else { "json" };
        report
            .metrics
            .get(&format!("protocol.{mode}_{dir}_ns"))
            .copied()
            .unwrap_or(0.0)
            / 1e3
    };
    let overhead = rtt_us - hit_us - codec("decode") - codec("encode");
    report.set("frontend.overhead_us", overhead);
}

/// `core.multi.*`: one 64-source flight beside 64 single-source runs.
fn multi_probe(t: &Target, report: &mut Report) {
    let sources: Vec<u32> = t
        .sources
        .iter()
        .step_by((t.sources.len() / 64).max(1))
        .take(64)
        .copied()
        .collect();
    let flight = probes::median_secs(3, || multi_bfs(&t.graph, &sources).dist.len());
    let alone = probes::median_secs(3, || {
        sources
            .iter()
            .map(|&s| bfs_vgc(&t.graph, s, &VgcConfig::default()).dist.len())
            .sum::<usize>()
    });
    report.set_n("core.multi.flight64_ms", flight * 1e3, 3);
    report.set("core.multi.vs_independent", alone / flight.max(1e-12));
}

pub fn run(wl: &'static Workload, args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let (mut stack, setups) = args.set_up(|| Stack::start(wl, args.seed, args.corrupt));
    let mut fp = Fingerprint::default();
    for gen in &stack.gens {
        let (mut preview, mut wire) = (gen.clone(), Vec::new());
        for _ in 0..1024 {
            preview.next(&mut wire);
        }
        fp.bytes(&wire);
    }
    report.fingerprint = fp.value();

    if !args.trace {
        let mut phase = closed_phase(&mut stack, args.seconds, tracer, &mut report);
        finish_checks(&stack, &mut phase, args, &mut report);
        report.end_to_end(&phase.classes, phase.qps, phase.qps_samples, &setups);
        return report;
    }

    // Traced run: the closed loop plain, then with spans; then the open
    // loop at the three calibrated rates; then the path probes.
    let share = args.seconds / 5.0;
    let mut plain = closed_phase(
        &mut stack,
        share,
        &mut Tracer::new(Instant::now(), false),
        &mut report,
    );
    let mut traced = closed_phase(&mut stack, share, tracer, &mut report);
    report.set(
        "bench.trace_overhead_ratio",
        plain.qps / traced.qps.max(1e-12),
    );
    service_deltas(&plain, &mut report);
    plain.acks.append(&mut traced.acks);
    plain.samples.append(&mut traced.samples);

    let conns = stack.gens.len() as f64;
    let mut slo_rate = 0.0;
    for (i, &rate) in wl.open_rates.iter().enumerate().filter(|(_, r)| **r > 0.0) {
        let interval = Duration::from_secs_f64(conns / rate);
        let outs = stack.fan_out(|addr, gen, _| open_loop(addr, gen, interval, share, wl.limit_ms));
        let (mut latency, mut lag, mut scheduled, mut good) = (Vec::new(), Vec::new(), 0, 0);
        for mut o in outs {
            latency.append(&mut o.latency_ms);
            lag.append(&mut o.lag_ms);
            scheduled += o.scheduled;
            good += o.good;
            report.attempted += o.checked.attempted;
            for f in o.checked.failures {
                report.fail(f);
            }
            plain.samples.extend(o.checked.samples);
        }
        latency.sort_by(f64::total_cmp);
        lag.sort_by(f64::total_cmp);
        // The same tail rule as everywhere: the highest percentile this
        // many requests support. A refused or missing answer counts as
        // beyond any limit, so the limit holds iff that share of the
        // scheduled requests came back `ok` within it.
        let q = tail_quantile(scheduled as usize);
        let tail = quantile_sorted(&latency, q);
        let met = ratio(good, scheduled) >= q;
        if met {
            slo_rate = rate;
        }
        let k = i + 1;
        report.set_n(
            &format!("loadgen.open.r{k}.latency_ms_tail"),
            tail,
            latency.len(),
        );
        report.set_n(
            &format!("loadgen.open.r{k}.lag_ms_tail"),
            quantile_sorted(&lag, q),
            lag.len(),
        );
        report.notes.push(format!(
            "open loop {rate:.0}/s: p50 {:.3} ms p{:.1} {tail:.3} ms, {good}/{scheduled} ok within {} ms{}",
            quantile_sorted(&latency, 0.5),
            q * 100.0,
            wl.limit_ms,
            if met { "" } else { "  (limit missed)" }
        ));
    }
    report.set("loadgen.open.slo_rate_qps", slo_rate);
    finish_checks(&stack, &mut plain, args, &mut report);

    tracer.span("probe.serving_path", 0, |_| {
        path_probes(&stack, &mut report)
    });
    if wl.hot_set == 0 {
        tracer.span("probe.multi_source", 0, |_| {
            multi_probe(&stack.targets[0], &mut report)
        });
    }
    report.trace_self_times(tracer);
    report.rows = plain.classes.rows();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_fields_are_read_from_both_framings() {
        let r = parse(false, br#"{"dist":13,"ok":true}"#);
        assert!(r.ok && r.dist == Some(13));
        let r = parse(false, br#"{"dist":null,"ok":true}"#);
        assert!(r.ok && r.dist.is_none());
        let r = parse(false, br#"{"error":"x","kind":"overloaded","ok":false}"#);
        assert!(!r.ok);
        let r = parse(false, br#"{"applied":4,"epoch":7,"m":100,"n":9,"ok":true}"#);
        assert_eq!((r.epoch, r.m, r.n), (Some(7), Some(100), Some(9)));
        let mut frame = vec![TAG_DIST, 3];
        frame.extend_from_slice(&77u64.to_le_bytes());
        let r = parse(true, &frame);
        assert!(r.ok && r.dist == Some(77));
        let r = parse(true, &[TAG_DIST, 1]);
        assert!(r.ok && r.dist.is_none());
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        let stream = |seed: u64| {
            let mut rng = Rng::new(seed).fork(3);
            let targets = Arc::new(vec![target("grid", grid2d(16, 16), &MUTATE, &mut rng)]);
            let mut gen = OpGen::new(&MUTATE, targets, rng.fork(100));
            let mut wire = Vec::new();
            for _ in 0..512 {
                gen.next(&mut wire);
            }
            let mut fp = Fingerprint::default();
            fp.bytes(&wire);
            fp.value()
        };
        assert_eq!(stream(42), stream(42));
        assert_ne!(stream(42), stream(43));
    }
}
