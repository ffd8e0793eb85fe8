//! Live-graph mutation bench and gate: answers under mutation checked
//! against a scratch rebuild, and warm-cache retention (DESIGN.md §17).
//!
//! A deterministic 512-op sequence with a 10% mutation mix — every
//! tenth op is a 4-edge insertion batch of diagonal shortcuts, the rest
//! are BFS point queries over a 16-source rotation plus periodic CC
//! lookups — runs against one service. Beside it runs a model that
//! never touches the overlay or the cache: a set of undirected edges,
//! rebuilt into a fresh plain CSR after every batch, on which each query
//! is answered by a direct kernel call.
//!
//! Reported (BENCH_MUTATE.json at the repo root): cache hits/misses,
//! revalidation counters, mutation batches, wall time, and the warm-hit
//! ratio. What dropping the graph's whole generation on every batch
//! measured on the same sequence is recorded in BENCH_BASELINES.json.
//!
//! Invariants — deterministic (sequential issuance, no fault
//! injection). The first two are correctness and fail any run; the
//! third is the threshold `--gate` adds in CI:
//! * every reply equals the model's (512 of 512);
//! * `mutation_reconciles` and the terminal-bucket identity hold;
//! * hits / (hits + misses) ≥ 0.90 — revalidation keeps the cache warm
//!   across batches.

use pasgal_core::bfs::seq::bfs_seq;
use pasgal_core::cc::connectivity;
use pasgal_core::common::UNREACHED;
use pasgal_graph::builder::from_edges_symmetric;
use pasgal_graph::csr::Graph;
use pasgal_graph::gen::basic::grid2d;
use pasgal_graph::overlay::Mutation;
use pasgal_service::{MetricsSnapshot, Query, Reply, Service, ServiceConfig};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const SIDE: usize = 64; // 64×64 grid: flights are real but bounded
const OPS: u32 = 512; // every 10th op mutates → 10% mutation mix
const MIN_WARM_HIT_RATIO: f64 = 0.90;

/// The `i`-th op of the deterministic sequence.
fn op(i: u32) -> Query {
    let side = SIDE as u32;
    let n = side * side;
    if i % 10 == 9 {
        // four diagonal shortcuts (r, c) → (r+1, c+1): local edits whose
        // distance-repair frontier is small, the regime revalidation is
        // built for
        let ops = (0..4u32)
            .map(|j| {
                let h = i.wrapping_mul(37).wrapping_add(j.wrapping_mul(101));
                let r = h % (side - 1);
                let c = (h / 7) % (side - 1);
                Mutation::InsertEdge {
                    u: r * side + c,
                    v: (r + 1) * side + (c + 1),
                    w: 1,
                }
            })
            .collect();
        Query::Mutate {
            graph: "g".into(),
            ops,
            compact: false,
        }
    } else if i % 5 == 4 {
        Query::CcId {
            graph: "g".into(),
            vertex: Some((i * 977) % n),
        }
    } else {
        Query::BfsDist {
            graph: "g".into(),
            src: (i * 131) % 16,
            target: Some((i * 977) % n),
        }
    }
}

/// The graph as a set of undirected edges, rebuilt from scratch into a
/// plain CSR after every batch that changes it.
struct Model {
    edges: BTreeSet<(u32, u32)>,
    graph: Graph,
    epoch: u64,
}

impl Model {
    fn new(g: &Graph) -> Model {
        Model {
            edges: g.edges().filter(|&(u, v)| u < v).collect(),
            graph: g.clone(),
            epoch: 0,
        }
    }

    /// What the service must reply to `q`.
    fn answer(&mut self, q: &Query) -> Reply {
        match q {
            Query::Mutate { ops, .. } => {
                let mut applied = 0;
                for m in ops {
                    let Mutation::InsertEdge { u, v, .. } = *m else {
                        unreachable!("the sequence only inserts edges")
                    };
                    applied += usize::from(self.edges.insert((u.min(v), u.max(v))));
                }
                if applied > 0 {
                    self.epoch += 1;
                    let pairs: Vec<_> = self.edges.iter().copied().collect();
                    self.graph = from_edges_symmetric(SIDE * SIDE, &pairs);
                }
                Reply::Mutated {
                    epoch: self.epoch,
                    applied,
                    n: self.graph.num_vertices(),
                    m: self.graph.num_edges(),
                }
            }
            Query::BfsDist { src, target, .. } => {
                let t = target.expect("the sequence only asks point queries");
                let d = bfs_seq(&self.graph, *src).dist[t as usize];
                Reply::Dist {
                    value: (d != UNREACHED).then_some(u64::from(d)),
                }
            }
            Query::CcId { vertex, .. } => {
                let v = vertex.expect("the sequence only asks point queries");
                let cc = connectivity(&self.graph);
                Reply::Label {
                    vertex: v,
                    label: cc.labels[v as usize],
                    components: cc.num_components,
                }
            }
            other => unreachable!("not part of the sequence: {other:?}"),
        }
    }
}

fn main() {
    let gate = std::env::args().any(|a| a == "--gate");

    let grid = grid2d(SIDE, SIDE);
    let mut model = Model::new(&grid);
    let svc = Service::new(ServiceConfig {
        workers: 2,
        cache_capacity: 256, // hold the whole working set: no LRU noise
        query_timeout: Duration::from_secs(10),
        ..ServiceConfig::default()
    });
    svc.register("g", grid);

    let mut wall = Duration::ZERO;
    let mut mismatches = Vec::new();
    for i in 0..OPS {
        let q = op(i);
        let t0 = Instant::now();
        let got = svc.query(&q).expect("deterministic workload never errors");
        wall += t0.elapsed();
        let want = model.answer(&q);
        if got != want {
            mismatches.push(format!("op {i} {q:?}: got {got:?}, want {want:?}"));
        }
    }
    let m = svc.metrics();

    let ratio = m.cache_hits as f64 / ((m.cache_hits + m.cache_misses) as f64).max(1.0);
    println!(
        "mutate: {OPS} ops ({} mutation batches) on a {SIDE}x{SIDE} grid",
        m.mutation_batches
    );
    let equal = OPS as usize - mismatches.len();
    println!("  {equal} of {OPS} replies equal the scratch rebuild");
    println!(
        "  {} hits / {} misses, {} revalidated, {} dropped, {:.1} ms",
        m.cache_hits,
        m.cache_misses,
        m.cache_revalidated,
        m.cache_dropped,
        wall.as_secs_f64() * 1e3
    );
    println!("  warm-hit ratio: {ratio:.3} (gate: >= {MIN_WARM_HIT_RATIO})");

    // A wrong reply or a broken identity is never a threshold: it fails
    // the run with or without `--gate`, and leaves the report alone.
    let mut wrong = mismatches;
    if !m.reconciles() {
        wrong.push(format!("terminal identity broke: {m:?}"));
    }
    if !m.mutation_reconciles() {
        wrong.push(format!("mutation identity broke: {m:?}"));
    }
    if !wrong.is_empty() {
        eprintln!("FAIL: {}", wrong.join("; "));
        std::process::exit(1);
    }

    let warm = ratio >= MIN_WARM_HIT_RATIO;
    write_report(&m, wall, equal, ratio, warm);
    println!("report written to BENCH_MUTATE.json");
    if warm {
        println!(
            "mutate OK: all replies equal the rebuild, identities hold, warm-hit ratio {ratio:.3}"
        );
    } else {
        eprintln!("FAIL: warm-hit ratio {ratio:.3} < {MIN_WARM_HIT_RATIO}");
        if gate {
            std::process::exit(1);
        }
    }
}

fn write_report(m: &MetricsSnapshot, wall: Duration, equal: usize, ratio: f64, ok: bool) {
    let j = format!(
        "{{\n  \"bench\": \"mutate-invalidation\",\n  \"ops\": {OPS},\n  \"mutation_mix\": 0.1,\n  \
         \"replies_equal_rebuild\": {equal},\n  \"cache_hits\": {},\n  \"cache_misses\": {},\n  \
         \"cache_revalidated\": {},\n  \"cache_dropped\": {},\n  \"mutation_batches\": {},\n  \
         \"wall_ns\": {},\n  \"warm_hit_ratio\": {ratio:.4},\n  \"gate\": {ok}\n}}\n",
        m.cache_hits,
        m.cache_misses,
        m.cache_revalidated,
        m.cache_dropped,
        m.mutation_batches,
        wall.as_nanos()
    );
    std::fs::write("BENCH_MUTATE.json", j).expect("write BENCH_MUTATE.json");
}
