//! Per-layer probes: small fixed-size measurements of one public call
//! each, taken in the traced run next to the workload. They say which
//! layer moved when an end-to-end number moves (README, prediction
//! table); none of them is bounded.

use crate::spec::Report;
use crate::stats::median;
use crate::sys::count_allocs;
use pasgal_collections::epoch::EpochMarks;
use pasgal_collections::hashbag::HashBag;
use pasgal_collections::union_find::ConcurrentUnionFind;
use pasgal_collections::varint;
use pasgal_graph::builder::from_edges;
use pasgal_graph::csr::Graph;
use pasgal_graph::storage::GraphStorage;
use pasgal_graph::transform::{symmetrize, transpose};
use pasgal_parlay::gran::par_for;
use pasgal_parlay::hash::hash64;
use pasgal_service::json::Json;
use pasgal_service::protocol::{self, FrameBuf, WireMode};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Elements in the parlay and runtime array probes.
const ARRAY: usize = 4 << 20;
/// Elements in the concurrent-structure probes.
const STRUCT: usize = 1 << 20;

/// Seconds `f` takes.
pub fn secs<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Median seconds of `reps` calls of `f`.
pub fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| secs(|| black_box(f())).0).collect();
    median(&times)
}

/// Millions of `items` per second at `s` seconds.
fn mega_per_s(items: usize, s: f64) -> f64 {
    items as f64 / s.max(1e-9) / 1e6
}

/// `runtime.*`: what one parallel region of `rayon-shim` costs, at the
/// thread count installed by the caller.
pub fn runtime(r: &mut Report) {
    const JOINS: usize = 2000;
    let (s, _) = secs(|| {
        for i in 0..JOINS {
            black_box(rayon::join(|| black_box(i), || black_box(i + 1)));
        }
    });
    r.set_n("runtime.forkjoin_us", s * 1e6 / JOINS as f64, JOINS);

    let s = median_secs(3, || {
        (0..ARRAY).into_par_iter().with_min_len(4096).for_each(|i| {
            black_box(i);
        });
    });
    r.set_n("runtime.parfor_melems_per_s", mega_per_s(ARRAY, s), 3);

    let (allocs, _) = count_allocs(|| {
        (0..1024usize).into_par_iter().for_each(|i| {
            black_box(i);
        });
    });
    r.set("runtime.region_allocs", allocs as f64);
}

/// `parlay.*`: the sequence primitives on [`ARRAY`] elements.
pub fn parlay(r: &mut Report) {
    let xs: Vec<u64> = (0..ARRAY as u64).map(hash64).collect();
    let s = median_secs(3, || pasgal_parlay::scan::scan_exclusive(&xs).1);
    r.set_n("parlay.scan_melems_per_s", mega_per_s(ARRAY, s), 3);
    let s = median_secs(3, || pasgal_parlay::pack::filter(&xs, |x| x & 1 == 0).len());
    r.set_n("parlay.pack_melems_per_s", mega_per_s(ARRAY, s), 3);
    let s = median_secs(3, || pasgal_parlay::reduce::sum_u64(&xs));
    r.set_n("parlay.reduce_melems_per_s", mega_per_s(ARRAY, s), 3);
    let s = median_secs(2, || {
        let mut ys = xs.clone();
        pasgal_parlay::sort::sort_unstable(&mut ys);
        ys[0]
    });
    r.set_n("parlay.sort_melems_per_s", mega_per_s(ARRAY, s), 2);
}

/// `collections.*`: the concurrent structures under the kernels, driven
/// by a parallel loop of [`STRUCT`] operations.
pub fn collections(r: &mut Report) {
    let s = median_secs(3, || {
        let bag = HashBag::new(STRUCT);
        par_for(STRUCT, 2048, |i| bag.insert(i as u32));
        bag.len()
    });
    r.set_n(
        "collections.hashbag_minserts_per_s",
        mega_per_s(STRUCT, s),
        3,
    );

    let s = median_secs(3, || {
        let uf = ConcurrentUnionFind::new(STRUCT);
        par_for(STRUCT, 2048, |i| {
            uf.unite(i as u32, (hash64(i as u64) % STRUCT as u64) as u32);
        });
        uf.find(0)
    });
    r.set_n(
        "collections.unionfind_munions_per_s",
        mega_per_s(STRUCT, s),
        3,
    );

    let mut marks = EpochMarks::new();
    let s = median_secs(3, || {
        let stamp = marks.advance(STRUCT);
        let marks = &marks;
        par_for(STRUCT, 2048, |i| {
            black_box(marks.try_claim(i, stamp));
        });
    });
    r.set_n(
        "collections.epochmarks_mclaims_per_s",
        mega_per_s(STRUCT, s),
        3,
    );

    // Gaps as a compressed neighbor list holds them: mostly one byte,
    // some two, a few longer.
    let mut buf = Vec::new();
    for i in 0..ARRAY as u64 {
        let h = hash64(i);
        varint::encode_u64(h >> (64 - 4 - (h & 15)), &mut buf);
    }
    let s = median_secs(3, || {
        let (mut pos, mut acc) = (0usize, 0u64);
        while pos < buf.len() {
            acc = acc.wrapping_add(varint::decode_u64(&buf, &mut pos));
        }
        acc
    });
    r.set_n(
        "collections.varint_decode_mb_per_s",
        mega_per_s(buf.len(), s),
        3,
    );
}

/// Sum of every neighbor id: one sequential pass over the whole
/// adjacency, the decode-rate probe for a storage backend.
pub fn scan_all<S: GraphStorage>(g: &S) -> u64 {
    let mut acc = 0u64;
    for v in 0..g.num_vertices() as u32 {
        for t in g.neighbors(v) {
            acc = acc.wrapping_add(u64::from(t));
        }
    }
    acc
}

/// `graph.<backend>.scan_medges_per_s` and `.bytes_per_edge` for one
/// backend; `bytes` is what the backend occupies (file bytes for mmap).
pub fn backend<S: GraphStorage>(r: &mut Report, name: &str, g: &S, bytes: usize) {
    let s = median_secs(3, || scan_all(g));
    let m = g.num_edges().max(1);
    r.set_n(
        &format!("graph.{name}.scan_medges_per_s"),
        mega_per_s(m, s),
        3,
    );
    r.set(
        &format!("graph.{name}.bytes_per_edge"),
        bytes as f64 / m as f64,
    );
}

/// `graph.plain.*` and the construction calls every set-up goes through.
pub fn graph_plain(r: &mut Report, g: &Graph) {
    backend(r, "plain", g, g.resident_bytes());
    let m = g.num_edges();
    let edges: Vec<(u32, u32)> = g.edges().collect();
    let s = median_secs(2, || from_edges(g.num_vertices(), &edges).num_edges());
    r.set_n("graph.build_medges_per_s", mega_per_s(m, s), 2);
    let s = median_secs(2, || transpose(g).num_edges());
    r.set_n("graph.transpose_medges_per_s", mega_per_s(m, s), 2);
    let s = median_secs(2, || symmetrize(g).num_edges());
    r.set_n("graph.symmetrize_medges_per_s", mega_per_s(m, s), 2);
}

/// Median nanoseconds per call of `f` over `calls` calls.
fn ns_per_call(calls: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            secs(|| {
                for _ in 0..calls {
                    f();
                }
            })
            .0 * 1e9
                / calls as f64
        })
        .collect();
    median(&batches)
}

/// `protocol.*`: the wire codecs on the requests and replies the serve
/// workloads exchange.
pub fn protocol(r: &mut Report) {
    const CALLS: usize = 20_000;
    let line = br#"{"op":"ptp","graph":"grid","src":12345,"dst":4567}"#;
    r.set_n(
        "protocol.json_decode_ns",
        ns_per_call(CALLS, || {
            black_box(protocol::decode_request(WireMode::Lines, black_box(line)).is_ok());
        }),
        5 * CALLS,
    );
    let mut frame = Vec::new();
    protocol::encode_binary_request(
        protocol::TAG_PTP,
        "grid",
        12345,
        Some(4567),
        None,
        &mut frame,
    );
    let payload = frame[4..].to_vec();
    r.set_n(
        "protocol.bin_decode_ns",
        ns_per_call(CALLS, || {
            black_box(protocol::decode_binary_request(black_box(&payload)).is_ok());
        }),
        5 * CALLS,
    );
    let reply = Json::obj([("ok", Json::Bool(true)), ("dist", Json::from(1234u64))]);
    let mut out = Vec::with_capacity(64);
    for (name, mode) in [
        ("protocol.json_encode_ns", WireMode::Lines),
        ("protocol.bin_encode_ns", WireMode::Binary),
    ] {
        r.set_n(
            name,
            ns_per_call(CALLS, || {
                out.clear();
                protocol::encode_response(mode, black_box(&reply), &mut out);
                black_box(out.len());
            }),
            5 * CALLS,
        );
    }

    let mut stream = Vec::new();
    while stream.len() < 1 << 20 {
        stream.extend_from_slice(line);
        stream.push(b'\n');
    }
    let s = median_secs(5, || {
        let mut fb = FrameBuf::new();
        let mut frames = 0usize;
        for chunk in stream.chunks(4096) {
            fb.push(chunk);
            while let Ok(Some(f)) = fb.next_frame() {
                frames += f.len();
            }
        }
        frames
    });
    r.set_n("protocol.framebuf_mb_per_s", mega_per_s(stream.len(), s), 5);
}
