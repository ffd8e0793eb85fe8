//! End-to-end tests of `pasgal-service`: an in-process service (and TCP
//! server) is started, graphs are registered, and concurrent queries of
//! several kinds are checked against direct `pasgal-core` calls.

use pasgal_core::common::VgcConfig;
use pasgal_graph::builder::from_edges;
use pasgal_graph::gen::basic::grid2d;
use pasgal_graph::overlay::Mutation;
use pasgal_service::{
    EventServer, FrontendConfig, Query, Reply, Service, ServiceConfig, ServiceError, ShardedService,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// The network path every deployment uses: the event front end over a
/// shard fleet, on an ephemeral port.
fn serve(fleet: &Arc<ShardedService>) -> EventServer {
    EventServer::spawn(Arc::clone(fleet), "127.0.0.1:0", FrontendConfig::default()).unwrap()
}

fn test_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 32,
        query_timeout: Duration::from_secs(30),
        cache_capacity: 16,
        tau: 64,
        ..ServiceConfig::default()
    }
}

/// The acceptance scenario: register a graph, fire several query kinds
/// concurrently, check every answer against a direct core call, and
/// verify the metrics recorded at least one cache hit and at least one
/// batch that served more than one query.
#[test]
fn concurrent_queries_match_direct_calls() {
    let svc = Arc::new(Service::new(test_config()));
    let n = 150 * 150; // big enough that a traversal outlives query arrival
    let g = grid2d(150, 150);
    svc.register("grid", g.clone());

    let bfs = pasgal_core::bfs::vgc::bfs_vgc(&g, 0, &VgcConfig::default());
    let sssp = pasgal_core::sssp::sssp_dijkstra(&g, 0);
    let cc = pasgal_core::cc::connectivity(&g);
    let scc = pasgal_core::scc::scc_tarjan(&g);
    let kcore = pasgal_core::kcore::kcore_seq(&g);

    // Many threads released together, four query kinds, every PTP/BFS
    // sharing src 0 so the single-flight batcher has something to
    // coalesce.
    let barrier = Arc::new(Barrier::new(24));
    let handles: Vec<_> = (0..24u32)
        .map(|i| {
            let svc = Arc::clone(&svc);
            let barrier = Arc::clone(&barrier);
            let target = ((i as usize * 937) % n) as u32;
            std::thread::spawn(move || {
                barrier.wait();
                let queries: [(Query, &str); 4] = [
                    (
                        Query::BfsDist {
                            graph: "grid".into(),
                            src: 0,
                            target: Some(target),
                        },
                        "bfs",
                    ),
                    (
                        Query::Ptp {
                            graph: "grid".into(),
                            src: 0,
                            dst: target,
                        },
                        "ptp",
                    ),
                    (
                        Query::CcId {
                            graph: "grid".into(),
                            vertex: Some(target),
                        },
                        "cc",
                    ),
                    (
                        Query::KCore {
                            graph: "grid".into(),
                            vertex: Some(target),
                        },
                        "kcore",
                    ),
                ];
                queries.map(|(q, kind)| (kind, target, svc.query(&q).unwrap()))
            })
        })
        .collect();

    // Component *labels* are canonical to each algorithm run, so compare
    // partition structure: the grid is connected, so every queried vertex
    // must report the same label and the direct component count.
    let mut cc_labels = Vec::new();
    for h in handles {
        for (kind, target, reply) in h.join().unwrap() {
            match (kind, reply) {
                ("bfs", Reply::Dist { value }) => {
                    assert_eq!(
                        value,
                        Some(bfs.dist[target as usize] as u64),
                        "bfs {target}"
                    );
                }
                ("ptp", Reply::Dist { value }) => {
                    assert_eq!(value, Some(sssp.dist[target as usize]), "ptp {target}");
                }
                (
                    "cc",
                    Reply::Label {
                        label, components, ..
                    },
                ) => {
                    assert_eq!(components, cc.num_components);
                    cc_labels.push(label);
                }
                (
                    "kcore",
                    Reply::Coreness {
                        coreness,
                        degeneracy,
                        ..
                    },
                ) => {
                    assert_eq!(degeneracy, kcore.degeneracy);
                    assert_eq!(coreness, kcore.coreness[target as usize]);
                }
                (kind, other) => panic!("{kind}: unexpected reply {other:?}"),
            }
        }
    }
    assert!(cc_labels.windows(2).all(|w| w[0] == w[1]));

    // SCC too (grid is symmetric, so one strongly connected component).
    match svc
        .query(&Query::SccId {
            graph: "grid".into(),
            vertex: Some(7),
        })
        .unwrap()
    {
        Reply::Label { components, .. } => assert_eq!(components, scc.num_sccs),
        other => panic!("unexpected {other:?}"),
    }

    // Now that the burst has settled, a repeat query is a pure cache hit.
    let again = svc
        .query(&Query::Ptp {
            graph: "grid".into(),
            src: 0,
            dst: 937,
        })
        .unwrap();
    assert_eq!(
        again,
        Reply::Dist {
            value: Some(sssp.dist[937])
        }
    );

    let m = svc.metrics();
    assert!(m.queries >= 98, "{m:?}");
    assert!(m.cache_hits >= 1, "no cache hit recorded: {m:?}");
    assert!(
        m.batches_of_many() >= 1,
        "no batch served more than one query: {m:?}"
    );
    // 96 distance/label lookups collapsed into very few traversals
    assert!(m.computations < 96, "{m:?}");
}

/// Re-registering a name must invalidate cached results: a changed graph
/// yields the new answer, never the cached old one.
#[test]
fn reregistration_invalidates_cache() {
    let svc = Service::new(test_config());
    svc.register("g", grid2d(1, 10)); // a path: 0 ↔ 1 ↔ … ↔ 9
    let q = Query::BfsDist {
        graph: "g".into(),
        src: 0,
        target: Some(9),
    };
    assert_eq!(svc.query(&q).unwrap(), Reply::Dist { value: Some(9) });
    assert_eq!(svc.query(&q).unwrap(), Reply::Dist { value: Some(9) });
    let hits_before = svc.metrics().cache_hits;
    assert!(hits_before >= 1);

    // Same name, different graph: 2×5 grid, dist(0→9) = 1 + 4 = 5.
    svc.register("g", grid2d(2, 5));
    assert_eq!(svc.query(&q).unwrap(), Reply::Dist { value: Some(5) });

    // Unregistering makes the name unknown.
    assert!(svc.unregister("g"));
    assert!(matches!(svc.query(&q), Err(ServiceError::UnknownGraph(_))));
}

/// Every answer — a cache hit as much as a computation — is at the epoch
/// its query pinned. Each `AddVertex` batch makes vertex n − 1 exist only
/// from its own epoch on, so a reader that checks `n − 1` against the new
/// snapshot and is then served an array from the epoch before indexes past
/// its end. And each batch must be revalidated into the cached CC
/// labeling exactly once: a second pass adds the new vertex as a
/// component twice.
#[test]
fn cache_hits_answer_at_the_pinned_epoch_while_vertices_are_added() {
    const BATCHES: usize = 20_000;
    let svc = Arc::new(Service::new(ServiceConfig::default()));
    svc.register("g", grid2d(8, 8));
    let done = Arc::new(AtomicBool::new(false));
    let panics = Arc::new(AtomicUsize::new(0));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (svc, done, panics) = (Arc::clone(&svc), Arc::clone(&done), Arc::clone(&panics));
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let n = svc.catalog().get("g").unwrap().graph.num_vertices() as u32;
                    let graph = "g".to_string();
                    let queries = [
                        Query::BfsDist {
                            graph: graph.clone(),
                            src: 0,
                            target: Some(n - 1),
                        },
                        Query::CcId {
                            graph,
                            vertex: Some(n - 1),
                        },
                    ];
                    for q in &queries {
                        match catch_unwind(AssertUnwindSafe(|| svc.query(q))) {
                            Ok(r) => assert!(r.is_ok(), "{q:?} → {r:?}"),
                            Err(_) => {
                                panics.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            })
        })
        .collect();
    let grow = Query::Mutate {
        graph: "g".into(),
        ops: vec![Mutation::AddVertex],
        compact: false,
    };
    for _ in 0..BATCHES {
        svc.query(&grow).unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(panics.load(Ordering::Relaxed), 0, "a reader panicked");

    let base = grid2d(8, 8);
    let edges: Vec<(u32, u32)> = (0..64u32)
        .flat_map(|u| base.neighbors(u).iter().map(move |&v| (u, v)))
        .collect();
    let rebuilt = from_edges(64 + BATCHES, &edges);
    let expected = pasgal_core::cc::connectivity(&rebuilt).num_components;
    let summary = svc
        .query(&Query::CcId {
            graph: "g".into(),
            vertex: None,
        })
        .unwrap();
    assert_eq!(
        summary,
        Reply::LabelSummary {
            components: expected
        }
    );
}

/// With a tiny queue and a single stalled-ish worker, a burst of distinct
/// computations must be bounded: extras are rejected with `Overloaded`,
/// not buffered without limit.
#[test]
fn overload_rejects_instead_of_buffering() {
    let svc = Arc::new(Service::new(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        query_timeout: Duration::from_secs(30),
        cache_capacity: 64,
        tau: 64,
        ..ServiceConfig::default()
    }));
    // big enough that one BFS takes a little while
    svc.register("g", grid2d(400, 400));

    let barrier = Arc::new(Barrier::new(64));
    let handles: Vec<_> = (0..64u32)
        .map(|src| {
            let svc = Arc::clone(&svc);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // distinct sources → distinct computations → queue pressure
                svc.query(&Query::BfsDist {
                    graph: "g".into(),
                    src,
                    target: Some(0),
                })
            })
        })
        .collect();
    let mut rejected = 0;
    let mut answered = 0;
    for h in handles {
        match h.join().unwrap() {
            Ok(Reply::Dist { value: Some(_) }) => answered += 1,
            Err(ServiceError::Overloaded) => rejected += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(rejected + answered, 64);
    assert!(
        rejected >= 1,
        "a 1-deep queue should have rejected some of 64 concurrent computations"
    );
    assert!(answered >= 1, "some queries must still get through");
    let m = svc.metrics();
    assert_eq!(m.rejected_overload, rejected);
}

/// The degraded-mode contract: on a directed graph with several SCCs, a
/// weighted-ish tail, and unreachable vertices, forcing the sequential
/// fallback lane must reproduce the parallel reply bit-for-bit for every
/// algorithm and every vertex — only the `degraded` marker differs.
#[test]
fn degraded_answers_bit_for_bit_on_a_directed_graph() {
    use pasgal_core::common::CancelToken;
    use pasgal_service::QueryMode;

    let svc = Service::new(test_config());
    // two 3-cycles bridged one-way, a 2-cycle, and a dangling tail
    let edges = [
        (0, 1),
        (1, 2),
        (2, 0),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 3),
        (5, 6),
        (6, 7),
        (7, 6),
        (7, 8),
    ];
    svc.register("d", pasgal_graph::builder::from_edges(10, &edges));

    let n = 10u32;
    let mut queries = Vec::new();
    for v in 0..n {
        queries.push(Query::SccId {
            graph: "d".into(),
            vertex: Some(v),
        });
        queries.push(Query::CcId {
            graph: "d".into(),
            vertex: Some(v),
        });
        queries.push(Query::BfsDist {
            graph: "d".into(),
            src: 0,
            target: Some(v),
        });
        queries.push(Query::Ptp {
            graph: "d".into(),
            src: 0,
            dst: v,
        });
        queries.push(Query::KCore {
            graph: "d".into(),
            vertex: Some(v),
        });
    }
    queries.push(Query::SsspDist {
        graph: "d".into(),
        src: 2,
        target: None,
    });
    for q in &queries {
        let normal = svc
            .query_full(q, &CancelToken::new(), QueryMode::Normal)
            .unwrap();
        let degraded = svc
            .query_full(q, &CancelToken::new(), QueryMode::Degraded)
            .unwrap();
        assert!(!normal.degraded, "{q:?}");
        assert!(degraded.degraded, "{q:?}");
        assert_eq!(normal.reply, degraded.reply, "{q:?}");
    }
    let m = svc.metrics();
    assert_eq!(m.degraded as usize, queries.len());
    assert!(m.reconciles(), "{m:?}");
}

/// The `health` query end to end: in-process and over the wire, before
/// and after a shutdown drain.
#[test]
fn health_reports_readiness_and_goes_unready_on_drain() {
    let fleet = Arc::new(ShardedService::new(test_config(), 1));
    fleet.register("grid", grid2d(4, 4));
    let svc = &fleet.shards()[0];
    match svc.query(&Query::Health).unwrap() {
        Reply::Health {
            ready,
            workers,
            graphs,
            breakers,
            ..
        } => {
            assert!(ready);
            assert_eq!(workers, 2);
            assert_eq!(graphs, 1);
            assert!(breakers.is_empty());
        }
        other => panic!("unexpected {other:?}"),
    }

    let mut server = serve(&fleet);
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"{\"op\":\"health\"}\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ready\":true"), "{line}");
    assert!(line.contains("\"workers_busy\":0"), "{line}");
    server.shutdown();

    // drain cleared readiness; queries still answer
    match svc.query(&Query::Health).unwrap() {
        Reply::Health { ready, .. } => assert!(!ready),
        other => panic!("unexpected {other:?}"),
    }
}

/// Full stack over TCP: spawn the server, query from several client
/// threads, read metrics back as JSON.
#[test]
fn tcp_server_round_trip() {
    let fleet = Arc::new(ShardedService::new(test_config(), 1));
    fleet.register("grid", grid2d(6, 9));
    let mut server = serve(&fleet);
    let addr = server.local_addr();

    let ask = move |req: String| -> String {
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };

    let clients: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let r = ask(format!(
                    r#"{{"op":"bfs","graph":"grid","src":0,"target":{}}}"#,
                    13 + i % 2
                ));
                assert!(r.contains("\"ok\":true"), "{r}");
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let m = ask(r#"{"op":"metrics"}"#.to_string());
    assert!(m.contains("\"ok\":true"), "{m}");
    assert!(m.contains("\"cache_hit_rate\":"), "{m}");
    server.shutdown();
}
