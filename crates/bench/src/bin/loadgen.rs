//! Service load generator + gate: pipelined TCP clients against the
//! event front end over a shard fleet, spawned in-process on an
//! ephemeral port.
//!
//! * **closed loop** — each connection keeps a fixed window of requests
//!   in flight for a fixed duration, measuring sustained throughput and
//!   per-request p50/p95/p99 round-trip latency;
//! * **open loop** (the scale point) — every connection writes its whole
//!   request burst up front, putting 100k+ queries in flight at once,
//!   and the run measures time-to-drain.
//!
//! Every response is matched to its request slot (responses arrive in
//! order per connection), so one-response-per-request is asserted
//! per connection, not sampled. After each run the service's own metrics
//! are fetched **over the wire** and re-checked against the terminal
//! bucket identity `queries == completed + timeouts + cancelled +
//! rejected_overload + errors + degraded + deadline_exceeded + shed`,
//! and the connection counters must reconcile too (`frames_in ==
//! frames_out` at quiescence).
//!
//! Writes `BENCH_SERVICE.json` at the repo root. `--gate` fails the run
//! unless those identities hold on every run and the 100k-in-flight
//! burst drains — all deterministic; throughput and latency are
//! reported, not gated (what the deleted thread-per-connection front
//! end measured under the same clients is in BENCH_BASELINES.json).
//!
//! Tuning knobs: `--connections N` `--depth N` `--duration-ms N`
//! `--burst-connections N` `--burst-depth N` `--shards N`
//! `--io-threads N` `--skip-burst`.

use pasgal_service::{EventServer, FrontendConfig, ServiceConfig, ShardedService};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sources rotated through by every client; warmed before measuring so
/// the workload exercises the serving path, not the traversals.
const SOURCES: [u32; 8] = [0, 7, 99, 450, 1234, 3333, 7777, 9999];
const GRAPH: &str = "g";
const TARGET: u32 = 9_999; // far corner of the 100x100 grid

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        query_timeout: Duration::from_secs(30),
        cache_capacity: 64,
        tau: 256,
        ..ServiceConfig::default()
    }
}

/// One client connection's view of a run.
#[derive(Default)]
struct ConnResult {
    sent: u64,
    received: u64,
    ok: u64,
    overloaded: u64,
    deadline_exceeded: u64,
    other_errors: u64,
    rtts_us: Vec<u64>,
}

/// Aggregated measurement of one arrival mode.
struct RunResult {
    /// `closed` or `open`.
    mode: &'static str,
    connections: usize,
    depth: usize,
    sent: u64,
    received: u64,
    ok: u64,
    overloaded: u64,
    deadline_exceeded: u64,
    other_errors: u64,
    elapsed: Duration,
    throughput: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    wire_metrics_reconcile: bool,
    frames_reconcile: bool,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn bfs_line(src: u32, deadline_ms: Option<u64>) -> String {
    match deadline_ms {
        Some(d) => format!(
            "{{\"op\":\"bfs\",\"graph\":\"{GRAPH}\",\"src\":{src},\"target\":{TARGET},\"deadline_ms\":{d}}}\n"
        ),
        None => {
            format!("{{\"op\":\"bfs\",\"graph\":\"{GRAPH}\",\"src\":{src},\"target\":{TARGET}}}\n")
        }
    }
}

fn classify(line: &str, r: &mut ConnResult) {
    if line.contains("\"ok\":true") {
        r.ok += 1;
    } else if line.contains("\"kind\":\"overloaded\"") {
        r.overloaded += 1;
    } else if line.contains("\"kind\":\"deadline_exceeded\"") {
        r.deadline_exceeded += 1;
    } else {
        r.other_errors += 1;
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    s
}

/// Populate the result cache for every source so the measured workload is
/// cache-hit dominated.
fn warm(addr: SocketAddr) {
    let stream = connect(addr);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for src in SOURCES {
        writer.write_all(bfs_line(src, None).as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "warmup failed: {line}");
    }
}

/// Closed loop: keep `depth` requests in flight per connection for
/// `duration`, then drain. Every 32nd request carries a tight deadline so
/// the deadline/shed accounting lanes stay exercised under load.
fn closed_loop_conn(addr: SocketAddr, depth: usize, duration: Duration, seed: u64) -> ConnResult {
    let stream = connect(addr);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut r = ConnResult::default();
    let mut sent_at: Vec<Instant> = Vec::new();
    let mut next_read = 0usize;
    let t0 = Instant::now();
    let mut i = seed;
    let mut send = |r: &mut ConnResult, sent_at: &mut Vec<Instant>, i: &mut u64| {
        let src = SOURCES[(*i % SOURCES.len() as u64) as usize];
        let deadline = (*i % 32 == 31).then_some(2u64);
        *i += 1;
        sent_at.push(Instant::now());
        r.sent += 1;
        writer.write_all(bfs_line(src, deadline).as_bytes()).is_ok()
    };
    for _ in 0..depth {
        if !send(&mut r, &mut sent_at, &mut i) {
            return r;
        }
    }
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        r.received += 1;
        r.rtts_us
            .push(sent_at[next_read].elapsed().as_micros() as u64);
        next_read += 1;
        classify(&line, &mut r);
        if t0.elapsed() < duration {
            if !send(&mut r, &mut sent_at, &mut i) {
                break;
            }
        } else if r.received == r.sent {
            break; // drained
        }
    }
    r
}

/// Open loop: write the whole burst up front (no pacing, no windows),
/// then drain every response.
fn open_loop_conn(addr: SocketAddr, burst: usize, seed: u64) -> ConnResult {
    let stream = connect(addr);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut r = ConnResult::default();
    let mut body = String::with_capacity(burst * 64);
    for k in 0..burst as u64 {
        let src = SOURCES[((seed + k) % SOURCES.len() as u64) as usize];
        body.push_str(&bfs_line(src, None));
    }
    let t0 = Instant::now();
    if writer.write_all(body.as_bytes()).is_err() {
        return r;
    }
    r.sent = burst as u64;
    let mut line = String::new();
    for _ in 0..burst {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        r.received += 1;
        r.rtts_us.push(t0.elapsed().as_micros() as u64);
        classify(&line, &mut r);
    }
    r
}

/// Fetch `{"op":"metrics"}` over the wire and check the terminal-bucket
/// identity and the front-end frame counters.
fn wire_metrics(addr: SocketAddr) -> (bool, bool) {
    let stream = connect(addr);
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"{\"op\":\"metrics\"}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let m = pasgal_service::json::parse(line.trim()).expect("metrics reply parses");
    let get = |k: &str| m.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let identity = get("queries")
        == get("completed")
            + get("timeouts")
            + get("cancelled")
            + get("rejected_overload")
            + get("errors")
            + get("degraded")
            + get("deadline_exceeded")
            + get("shed");
    // the in-flight metrics request itself is counted in frames_in but
    // has not produced its response yet
    let frames = get("frames_out") + 1 == get("frames_in") && get("frames_bad") <= get("frames_in");
    (identity, frames)
}

fn aggregate(
    mode: &'static str,
    connections: usize,
    depth: usize,
    conns: Vec<ConnResult>,
    elapsed: Duration,
    addr: SocketAddr,
) -> RunResult {
    let mut rtts: Vec<u64> = conns
        .iter()
        .flat_map(|c| c.rtts_us.iter().copied())
        .collect();
    rtts.sort_unstable();
    let sum = |f: fn(&ConnResult) -> u64| conns.iter().map(f).sum::<u64>();
    let (sent, received) = (sum(|c| c.sent), sum(|c| c.received));
    for (i, c) in conns.iter().enumerate() {
        assert_eq!(
            c.sent, c.received,
            "{mode} conn {i}: {} requests but {} responses",
            c.sent, c.received
        );
    }
    let (wire_ok, frames_ok) = wire_metrics(addr);
    RunResult {
        mode,
        connections,
        depth,
        sent,
        received,
        ok: sum(|c| c.ok),
        overloaded: sum(|c| c.overloaded),
        deadline_exceeded: sum(|c| c.deadline_exceeded),
        other_errors: sum(|c| c.other_errors),
        elapsed,
        throughput: received as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&rtts, 0.50),
        p95_us: percentile(&rtts, 0.95),
        p99_us: percentile(&rtts, 0.99),
        wire_metrics_reconcile: wire_ok,
        frames_reconcile: frames_ok,
    }
}

/// Drive `addr` with a closed-loop fleet and aggregate.
fn run_closed(addr: SocketAddr, connections: usize, depth: usize, duration: Duration) -> RunResult {
    warm(addr);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..connections)
        .map(|c| {
            std::thread::spawn(move || closed_loop_conn(addr, depth, duration, c as u64 * 997))
        })
        .collect();
    let conns: Vec<ConnResult> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let elapsed = t0.elapsed();
    aggregate("closed", connections, depth, conns, elapsed, addr)
}

/// Drive `addr` with an open-loop burst fleet and aggregate.
fn run_open(addr: SocketAddr, connections: usize, burst: usize) -> RunResult {
    warm(addr);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..connections)
        .map(|c| std::thread::spawn(move || open_loop_conn(addr, burst, c as u64 * 997)))
        .collect();
    let conns: Vec<ConnResult> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let elapsed = t0.elapsed();
    aggregate("open", connections, burst, conns, elapsed, addr)
}

fn print_result(r: &RunResult) {
    println!(
        "{:<6} {:>2} conns x depth {:<5} {:>8} req in {:>7.2?}  {:>9.0} req/s  \
         p50 {:>6}us p95 {:>6}us p99 {:>6}us  ok {} over {} ddl {} err {}  \
         metrics {} frames {}",
        r.mode,
        r.connections,
        r.depth,
        r.received,
        r.elapsed,
        r.throughput,
        r.p50_us,
        r.p95_us,
        r.p99_us,
        r.ok,
        r.overloaded,
        r.deadline_exceeded,
        r.other_errors,
        if r.wire_metrics_reconcile {
            "ok"
        } else {
            "BROKEN"
        },
        if r.frames_reconcile { "ok" } else { "BROKEN" },
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args.iter().any(|a| a == "--gate");
    let skip_burst = args.iter().any(|a| a == "--skip-burst");
    let num = |key: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .map(|v| v.parse().expect("numeric option"))
            .unwrap_or(default)
    };
    let connections = num("--connections", 64);
    let depth = num("--depth", 16);
    let duration = Duration::from_millis(num("--duration-ms", 3_000) as u64);
    let burst_connections = num("--burst-connections", 50);
    let burst_depth = num("--burst-depth", 2_048);
    let shards = num("--shards", 2);
    let io_threads = num("--io-threads", 2);

    let fleet = Arc::new(ShardedService::new(service_config(), shards));
    fleet.register(GRAPH, pasgal_graph::gen::basic::grid2d(100, 100));
    let mut server = EventServer::spawn(
        Arc::clone(&fleet),
        "127.0.0.1:0",
        FrontendConfig {
            io_threads,
            pipeline_depth: burst_depth.max(depth),
            executors_per_shard: 4,
        },
    )
    .expect("bind event server");
    let closed = run_closed(server.local_addr(), connections, depth, duration);
    print_result(&closed);

    // --- open-loop scale point: 100k+ queries in flight at once ------
    let burst = (!skip_burst).then(|| {
        let in_flight = burst_connections * burst_depth;
        println!(
            "open-loop burst: {in_flight} queries in flight across {burst_connections} connections"
        );
        let r = run_open(server.local_addr(), burst_connections, burst_depth);
        print_result(&r);
        r
    });
    server.shutdown_with_deadline(Duration::from_secs(5));
    let quiesced = server.stats();

    // --- gate ---------------------------------------------------------
    let mut failures: Vec<String> = Vec::new();
    if !quiesced.reconciles() {
        failures.push(format!("front end counters at shutdown: {quiesced:?}"));
    }
    for r in [Some(&closed), burst.as_ref()].into_iter().flatten() {
        if !r.wire_metrics_reconcile {
            failures.push(format!("{}: wire metrics identity broken", r.mode));
        }
        if !r.frames_reconcile {
            failures.push(format!("{}: frame counters broken", r.mode));
        }
    }
    if gate && burst.is_none() {
        failures.push("the gate needs the open-loop burst (drop --skip-burst)".into());
    }

    write_report(&closed, burst.as_ref(), failures.is_empty());
    println!("report written to BENCH_SERVICE.json");

    if failures.is_empty() {
        println!("service OK: one response per request, all identities hold");
    } else {
        eprintln!("FAIL: {}", failures.join("; "));
        if gate {
            std::process::exit(1);
        }
    }
}

fn write_report(closed: &RunResult, burst: Option<&RunResult>, identities_hold: bool) {
    use std::fmt::Write as _;
    let entry = |r: &RunResult| -> String {
        format!(
            "    {{\"mode\": \"{}\", \"connections\": {}, \"depth\": {}, \
             \"requests\": {}, \"responses\": {}, \"elapsed_ms\": {}, \"throughput_rps\": {:.1}, \
             \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"ok\": {}, \"overloaded\": {}, \
             \"deadline_exceeded\": {}, \"other_errors\": {}, \"wire_metrics_reconcile\": {}, \
             \"frames_reconcile\": {}}}",
            r.mode,
            r.connections,
            r.depth,
            r.sent,
            r.received,
            r.elapsed.as_millis(),
            r.throughput,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.ok,
            r.overloaded,
            r.deadline_exceeded,
            r.other_errors,
            r.wire_metrics_reconcile,
            r.frames_reconcile
        )
    };
    let mut j = String::new();
    j.push_str("{\n  \"bench\": \"service-loadgen\",\n  \"runs\": [\n");
    j.push_str(&entry(closed));
    if let Some(b) = burst {
        j.push_str(",\n");
        j.push_str(&entry(b));
    }
    j.push_str("\n  ],\n");
    let _ = writeln!(
        j,
        "  \"summary\": {{\"identities_hold\": {identities_hold}}}"
    );
    j.push_str("}\n");
    std::fs::write("BENCH_SERVICE.json", j).expect("write BENCH_SERVICE.json");
}
