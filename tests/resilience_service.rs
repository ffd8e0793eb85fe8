//! Resilience chaos suite for `pasgal-service`: deterministic fault
//! bursts drive the retry, circuit-breaker, and degraded-mode machinery
//! end to end, proving the recovery story the robustness PR promises:
//!
//! * the breaker opens after **exactly** K consecutive flight failures;
//! * queries during the open window get **correct** answers from the
//!   sequential fallback lane, marked `degraded: true`;
//! * after the cool-down a single half-open probe runs on the parallel
//!   path and closes the breaker on success;
//! * a flight that panics then succeeds on retry populates the cache
//!   **exactly once**, and a generation bump during the backoff makes
//!   the retry re-run the whole request against the fresh graph;
//! * under a full fault storm with resilience enabled, the extended
//!   reconciliation invariant holds:
//!   `queries == completed + timeouts + cancelled + rejected + errors +
//!   degraded`.
//!
//! Requires `--features fault-injection` (declared as a required-feature
//! in `crates/service/Cargo.toml`, so plain `cargo test` skips this file
//! instead of failing). Burst windows are seed-independent by design, so
//! the exact-count assertions below survive the CI chaos job's
//! `PASGAL_FAULT_SEED` sweep.

use pasgal_core::common::CancelToken;
use pasgal_graph::gen::basic::grid2d;
use pasgal_service::resilience::{STATE_HALF_OPEN, STATE_OPEN};
use pasgal_service::{
    EventServer, FaultPlan, FrontendConfig, Query, QueryMode, Reply, ResilienceConfig, Service,
    ServiceConfig, ServiceError, ShardedService,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fault seed override for the storm test (the CI chaos job sweeps
/// several); burst-based tests are seed-independent by construction.
fn env_seed(default: u64) -> u64 {
    std::env::var("PASGAL_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn config(faults: FaultPlan, resilience: ResilienceConfig, workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_capacity: 16,
        query_timeout: Duration::from_secs(10),
        cache_capacity: 32,
        tau: 64,
        resilience,
        faults,
        ..ServiceConfig::default()
    }
}

fn bfs_query(src: u32, target: u32) -> Query {
    Query::BfsDist {
        graph: "g".into(),
        src,
        target: Some(target),
    }
}

fn wait_gauge_settles(svc: &Service) {
    let t0 = Instant::now();
    while svc.metrics().workers_busy != 0 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The acceptance scenario: with retries off and a panic burst covering
/// the first K jobs, the breaker for the hammered key opens after
/// *exactly* K consecutive failures — K-1 failures leave it closed — and
/// every query during the open window is answered correctly by the
/// fallback lane with `degraded: true`, without touching the primary
/// cache.
#[test]
fn breaker_opens_after_exactly_k_failures_and_degrades() {
    const K: u64 = 3;
    let svc = Service::new(config(
        FaultPlan::worker_panic_burst(0, K),
        ResilienceConfig {
            max_retries: 0,
            breaker_threshold: K as u32,
            breaker_cooldown: Duration::from_secs(60), // stays open for the test
            ..ResilienceConfig::default()
        },
        1,
    ));
    svc.register("g", grid2d(8, 8));
    let q = bfs_query(0, 63); // corner to corner: 7 + 7 = 14 hops

    // K - 1 failures: breaker still closed, nothing degraded yet.
    for i in 0..K - 1 {
        let r = svc.query(&q);
        assert!(matches!(r, Err(ServiceError::Internal(_))), "{i}: {r:?}");
        assert_eq!(svc.breaker_states(), vec![], "closed breakers are elided");
        assert_eq!(svc.metrics().breaker_open_total, 0);
    }

    // The K-th consecutive failure trips it.
    let r = svc.query(&q);
    assert!(matches!(r, Err(ServiceError::Internal(_))), "{r:?}");
    let states = svc.breaker_states();
    assert_eq!(states.len(), 1, "{states:?}");
    assert_eq!(states[0].1, STATE_OPEN, "{states:?}");
    assert!(states[0].0.starts_with("bfs@"), "{states:?}");
    assert_eq!(svc.metrics().breaker_open_total, 1);

    // Open window: correct degraded answers, primary cache untouched.
    for _ in 0..3 {
        let a = svc
            .query_full(&q, &CancelToken::new(), QueryMode::Normal)
            .unwrap();
        assert!(a.degraded);
        assert_eq!(a.reply, Reply::Dist { value: Some(14) });
    }
    assert_eq!(svc.cache_entries(), 0, "degraded answers must not cache");
    assert_eq!(svc.breaker_states()[0].1, STATE_OPEN);

    wait_gauge_settles(&svc);
    let m = svc.metrics();
    assert_eq!(m.errors, K);
    assert_eq!(m.degraded, 3);
    assert_eq!(m.completed, 0);
    assert_eq!(m.retries, 0);
    assert!(m.reconciles(), "{m:?}");
}

/// After the cool-down one probe re-enters the parallel path; its
/// success closes the breaker, its result lands in the cache, and
/// subsequent queries are primary cache hits.
#[test]
fn half_open_probe_closes_breaker_on_success() {
    const K: u64 = 2;
    let cooldown = Duration::from_millis(100);
    let svc = Service::new(config(
        FaultPlan::worker_panic_burst(0, K),
        ResilienceConfig {
            max_retries: 0,
            breaker_threshold: K as u32,
            breaker_cooldown: cooldown,
            ..ResilienceConfig::default()
        },
        1,
    ));
    svc.register("g", grid2d(8, 8));
    let q = bfs_query(0, 63);

    for _ in 0..K {
        assert!(matches!(svc.query(&q), Err(ServiceError::Internal(_))));
    }
    assert_eq!(svc.breaker_states()[0].1, STATE_OPEN);
    assert_eq!(svc.metrics().breaker_open_total, 1);

    // Still inside the cool-down: the lane is degraded.
    let a = svc
        .query_full(&q, &CancelToken::new(), QueryMode::Normal)
        .unwrap();
    assert!(a.degraded);
    assert_eq!(a.reply, Reply::Dist { value: Some(14) });

    std::thread::sleep(cooldown + Duration::from_millis(50));

    // First query past the cool-down is the half-open probe; the burst
    // is over, so it succeeds on the parallel path and closes the
    // breaker.
    let a = svc
        .query_full(&q, &CancelToken::new(), QueryMode::Normal)
        .unwrap();
    assert!(!a.degraded, "the probe runs the primary path");
    assert_eq!(a.reply, Reply::Dist { value: Some(14) });
    assert_eq!(svc.breaker_states(), vec![], "breaker closed after probe");
    let m = svc.metrics();
    assert_eq!(m.breaker_closed_total, 1);
    assert_eq!(svc.cache_entries(), 1, "the probe's result is cached");

    // And the next query is a pure cache hit.
    let hits_before = svc.metrics().cache_hits;
    let a = svc
        .query_full(&q, &CancelToken::new(), QueryMode::Normal)
        .unwrap();
    assert!(!a.degraded);
    assert!(svc.metrics().cache_hits > hits_before);
    assert!(svc.metrics().reconciles());
}

/// While a breaker is open, its `health` entry says so; after recovery
/// the entry disappears. Half-open is also observable if sampled while a
/// probe is outstanding — here we check the stable states.
#[test]
fn health_reports_breaker_states() {
    const K: u64 = 2;
    let svc = Service::new(config(
        FaultPlan::worker_panic_burst(0, K),
        ResilienceConfig {
            max_retries: 0,
            breaker_threshold: K as u32,
            breaker_cooldown: Duration::from_secs(60),
            ..ResilienceConfig::default()
        },
        1,
    ));
    svc.register("g", grid2d(4, 4));
    let q = bfs_query(0, 15);
    for _ in 0..K {
        assert!(svc.query(&q).is_err());
    }
    match svc.query(&Query::Health).unwrap() {
        Reply::Health {
            ready, breakers, ..
        } => {
            assert!(ready, "an open breaker does not unready the service");
            assert_eq!(breakers.len(), 1, "{breakers:?}");
            assert!(breakers[0].0.starts_with("bfs@"), "{breakers:?}");
            assert_eq!(breakers[0].1, STATE_OPEN);
            assert_ne!(breakers[0].1, STATE_HALF_OPEN);
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// A flight that panics and then succeeds on retry answers the query,
/// counts one retry, and stores exactly one cache entry.
#[test]
fn retried_flight_populates_cache_exactly_once() {
    let svc = Service::new(config(
        FaultPlan::worker_panic_burst(0, 1),
        ResilienceConfig {
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            breaker_threshold: 0, // isolate retry from the breaker
            ..ResilienceConfig::default()
        },
        1,
    ));
    svc.register("g", grid2d(8, 8));
    let q = bfs_query(0, 63);

    assert_eq!(svc.query(&q).unwrap(), Reply::Dist { value: Some(14) });
    let m = svc.metrics();
    assert_eq!(m.retries, 1, "{m:?}");
    assert_eq!(m.completed, 1);
    assert_eq!(m.errors, 0);
    assert_eq!(m.computations, 2, "one failed + one successful flight");
    assert_eq!(svc.cache_entries(), 1);

    // the retry's result serves later queries from the cache
    assert_eq!(svc.query(&q).unwrap(), Reply::Dist { value: Some(14) });
    let m = svc.metrics();
    assert_eq!(m.computations, 2, "no third computation");
    assert!(m.cache_hits >= 1);
    assert!(m.reconciles(), "{m:?}");
}

/// Concurrent waiters ride the retried flight: many threads asking for
/// the same key while its first flight panics must all get the answer,
/// with a bounded number of computations (no per-waiter duplication).
#[test]
fn followers_ride_the_retried_flight() {
    let svc = Arc::new(Service::new(config(
        FaultPlan::worker_panic_burst(0, 1),
        ResilienceConfig {
            max_retries: 3,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(20),
            breaker_threshold: 0,
            ..ResilienceConfig::default()
        },
        2,
    )));
    // big enough that the flight is still live when followers arrive
    svc.register("g", grid2d(200, 200));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.query(&bfs_query(0, 39_999)))
        })
        .collect();
    for h in handles {
        let r = h.join().unwrap();
        assert_eq!(
            r.unwrap(),
            Reply::Dist {
                value: Some(199 + 199)
            }
        );
    }
    wait_gauge_settles(&svc);
    let m = svc.metrics();
    assert_eq!(m.errors, 0, "{m:?}");
    assert!(m.retries >= 1, "{m:?}");
    // 8 queries, but computations stay bounded by attempts, not waiters
    assert!(m.computations <= 1 + 3, "{m:?}");
    assert_eq!(svc.cache_entries(), 1);
    assert!(m.reconciles(), "{m:?}");
}

/// A generation bump during the retry backoff: the retry must re-resolve
/// the graph by name and compute against the *new* generation — the
/// answer reflects the re-registered graph and exactly one (fresh) cache
/// entry exists afterwards.
#[test]
fn generation_bump_during_retry_discards_stale_flight() {
    let svc = Arc::new(Service::new(config(
        FaultPlan::worker_panic_burst(0, 1),
        ResilienceConfig {
            max_retries: 1,
            // long, predictable backoff window to re-register within
            backoff_base: Duration::from_millis(150),
            backoff_cap: Duration::from_millis(150),
            breaker_threshold: 0,
            ..ResilienceConfig::default()
        },
        1,
    )));
    svc.register("g", grid2d(1, 10)); // a path: dist(0 → 9) = 9

    let q = bfs_query(0, 9);
    let worker = {
        let svc = Arc::clone(&svc);
        let q = q.clone();
        std::thread::spawn(move || svc.query(&q))
    };
    // wait for the first (panicked) flight to finish, then swap the
    // graph while the query sleeps out its backoff
    let t0 = Instant::now();
    while svc.metrics().computations < 1 {
        assert!(t0.elapsed() < Duration::from_secs(5), "first flight hung");
        std::thread::sleep(Duration::from_millis(2));
    }
    svc.register("g", grid2d(2, 5)); // now dist(0 → 9) = 1 + 4 = 5

    let r = worker.join().unwrap();
    assert_eq!(
        r.unwrap(),
        Reply::Dist { value: Some(5) },
        "retry must answer from the re-registered graph"
    );
    assert_eq!(svc.cache_entries(), 1, "exactly one (fresh) entry");
    // and that entry belongs to the new generation: a repeat query hits
    let hits = svc.metrics().cache_hits;
    assert_eq!(svc.query(&q).unwrap(), Reply::Dist { value: Some(5) });
    assert!(svc.metrics().cache_hits > hits);
    let m = svc.metrics();
    assert_eq!(m.retries, 1, "{m:?}");
    assert!(m.reconciles(), "{m:?}");
}

/// One worker, the first flight panics, and the single retry waits out a
/// long, predictable backoff to re-register the graph within.
fn panic_then_slow_retry() -> ServiceConfig {
    config(
        FaultPlan::worker_panic_burst(0, 1),
        ResilienceConfig {
            max_retries: 1,
            backoff_base: Duration::from_millis(150),
            backoff_cap: Duration::from_millis(150),
            breaker_threshold: 0,
            ..ResilienceConfig::default()
        },
        1,
    )
}

fn await_first_flight(computations: impl Fn() -> u64) {
    let t0 = Instant::now();
    while computations() < 1 {
        assert!(t0.elapsed() < Duration::from_secs(5), "first flight hung");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A retry re-runs the whole request, vertex checks included: when the
/// graph shrinks under the retry's backoff, the target is refused
/// instead of being read past the end of the new graph.
#[test]
fn retry_rechecks_vertices_against_the_re_registered_graph() {
    let svc = Arc::new(Service::new(panic_then_slow_retry()));
    svc.register("g", grid2d(1, 10));
    let worker = {
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || svc.query(&bfs_query(0, 9)))
    };
    await_first_flight(|| svc.metrics().computations);
    svc.register("g", grid2d(1, 5));
    assert_eq!(
        worker.join().unwrap(),
        Err(ServiceError::VertexOutOfRange { vertex: 9, n: 5 })
    );
    let m = svc.metrics();
    assert_eq!(m.retries, 1, "{m:?}");
    assert!(m.reconciles(), "{m:?}");
}

/// The same sequence over the wire: the request gets its error line and
/// the connection keeps serving.
#[test]
fn retry_over_the_wire_answers_and_keeps_the_connection() {
    let fleet = Arc::new(ShardedService::new(panic_then_slow_retry(), 1));
    fleet.register("g", grid2d(1, 10));
    let server = EventServer::spawn(Arc::clone(&fleet), "127.0.0.1:0", FrontendConfig::default())
        .expect("bind ephemeral port");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut replies = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    stream
        .write_all(b"{\"op\":\"bfs\",\"graph\":\"g\",\"src\":0,\"target\":9}\n")
        .unwrap();
    await_first_flight(|| fleet.merged_metrics().computations);
    fleet.register("g", grid2d(1, 5));
    replies.read_line(&mut line).expect("bfs reply");
    assert!(line.contains("\"kind\":\"vertex_out_of_range\""), "{line}");
    line.clear();
    stream.write_all(b"{\"op\":\"list\"}\n").unwrap();
    replies.read_line(&mut line).expect("list reply");
    assert!(
        line.contains("\"ok\":true") && line.contains("\"g\""),
        "{line}"
    );
}

/// Forcing `"mode":"degraded"` never touches the parallel lane even when
/// faults would poison it: with every worker job panicking, degraded
/// queries still answer correctly.
#[test]
fn forced_degraded_mode_survives_a_total_parallel_outage() {
    let svc = Service::new(config(
        FaultPlan {
            worker_panic_every: 1, // every parallel job dies
            ..FaultPlan::default()
        },
        ResilienceConfig {
            max_retries: 0,
            breaker_threshold: 0,
            ..ResilienceConfig::default()
        },
        2,
    ));
    svc.register("g", grid2d(8, 8));
    for (src, target, want) in [(0, 63, 14), (0, 7, 7), (9, 9, 0)] {
        let a = svc
            .query_full(
                &bfs_query(src, target),
                &CancelToken::new(),
                QueryMode::Degraded,
            )
            .unwrap();
        assert!(a.degraded);
        assert_eq!(a.reply, Reply::Dist { value: Some(want) });
    }
    let m = svc.metrics();
    assert_eq!(m.degraded, 3);
    assert_eq!(m.errors, 0);
    assert!(m.reconciles(), "{m:?}");
}

/// The full storm with resilience *enabled*: periodic panics, stalls,
/// cache voids, and queue-full fakes under concurrent mixed load. The
/// extended invariant must hold, the pool must survive, and the breaker
/// counters must be consistent (closures never exceed openings).
#[test]
fn storm_with_resilience_reconciles_and_recovers() {
    const THREADS: u32 = 6;
    const PER_THREAD: u32 = 50;
    let faults = FaultPlan {
        seed: env_seed(0xBEEF),
        worker_panic_every: 5,
        delay_every: 17,
        delay: Duration::from_secs(10), // >> timeout: relies on cancellation
        cache_miss_every: 6,
        queue_full_every: 11,
        ..FaultPlan::default()
    };
    let svc = Arc::new(Service::new(ServiceConfig {
        workers: 3,
        queue_capacity: 16,
        query_timeout: Duration::from_millis(300),
        cache_capacity: 32,
        tau: 64,
        resilience: ResilienceConfig {
            max_retries: 2,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(10),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(50),
        },
        faults,
        ..ServiceConfig::default()
    }));
    svc.register("g", grid2d(32, 32));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                let mut answered = 0u64;
                for i in 0..PER_THREAD {
                    let j = t * PER_THREAD + i;
                    let src = (j * 131) % 8;
                    let v = (j * 977) % (32 * 32);
                    let q = match j % 4 {
                        0 => bfs_query(src, v),
                        1 => Query::Ptp {
                            graph: "g".into(),
                            src,
                            dst: v,
                        },
                        2 => Query::CcId {
                            graph: "g".into(),
                            vertex: Some(v),
                        },
                        _ => Query::KCore {
                            graph: "g".into(),
                            vertex: Some(v),
                        },
                    };
                    // exactly one Result per query, whatever the outcome
                    answered += 1;
                    let _ = svc.query(&q);
                }
                answered
            })
        })
        .collect();
    let answered: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(answered, (THREADS * PER_THREAD) as u64);

    wait_gauge_settles(&svc);
    let m = svc.metrics();
    assert_eq!(m.queries, (THREADS * PER_THREAD) as u64);
    assert!(m.reconciles(), "extended invariant must hold: {m:?}");
    assert!(
        m.retries > 0,
        "periodic panics should have caused retries: {m:?}"
    );
    assert!(
        m.breaker_closed_total <= m.breaker_open_total,
        "cannot close more breakers than were opened: {m:?}"
    );
    assert_eq!(svc.metrics().workers_busy, 0, "gauge settles after storm");

    // the pool survived: distinct fresh keys answer (retries absorb any
    // residual periodic faults)
    for i in 0..3u32 {
        let mut ok = false;
        for attempt in 0..10u32 {
            if svc.query(&bfs_query(100 + i * 20 + attempt, 0)).is_ok() {
                ok = true;
                break;
            }
        }
        assert!(ok, "worker pool lost after storm");
    }
    assert!(svc.metrics().reconciles());
}
