//! Per-graph sharding of the worker pool and result cache.
//!
//! A [`ShardedService`] is a fixed array of complete [`Service`]
//! instances. Each shard keeps the whole existing stack — bounded worker
//! pool, single-flight batcher, LRU cache, circuit breakers, cost-aware
//! admission, brownout controller — wired exactly as in the single-shard
//! service; nothing in that machinery knows sharding exists. A graph
//! lives on the shard its name hashes to (stable FNV-1a), so a hot graph
//! saturating its shard's queue and workers cannot starve queries
//! against graphs on other shards: admission control, queue debt, and
//! brownout are all per-shard state.
//!
//! [`handle_sharded_request`] is the one request dispatcher: the fan-in
//! ops (`metrics`, `health`, `list`) aggregate across shards, the catalog
//! ops (`register`, `unregister`) and every query route by graph name.
//! Aggregated metrics stay subject to every conservation identity
//! because the identities are linear (see [`MetricsSnapshot::merge`]).
//!
//! ```text
//! {"op":"register","name":"road","path":"road.bin"}
//! {"op":"unregister","name":"road"}
//! {"op":"list"}
//! ```

use crate::json::Json;
use crate::metrics::MetricsSnapshot;
use crate::query::{deadline_from_json, Query, QueryMode, Reply, ServiceError};
use crate::service::{Service, ServiceConfig};
use pasgal_core::common::CancelToken;
use pasgal_graph::io::load_store_by_ext;
use pasgal_graph::storage::{GraphStore, StorageKind};
use std::sync::Arc;
use std::time::Instant;

/// Stable 64-bit FNV-1a, the shard routing hash. Not `DefaultHasher`:
/// routing must not change across std versions, or a restart would move
/// graphs between shards with different tuning.
pub fn shard_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fixed set of [`Service`] shards routed by graph name.
pub struct ShardedService {
    shards: Vec<Arc<Service>>,
}

impl ShardedService {
    /// Build `num_shards` shards from `config`. The worker budget is
    /// divided across shards (at least one each); every other knob —
    /// queue capacity, cache size, timeouts, resilience, faults — is
    /// replicated per shard, preserving the single-shard wiring within
    /// each.
    pub fn new(config: ServiceConfig, num_shards: usize) -> ShardedService {
        let num_shards = num_shards.max(1);
        let per_shard_workers = (config.workers / num_shards).max(1);
        let shards = (0..num_shards)
            .map(|_| {
                Arc::new(Service::new(ServiceConfig {
                    workers: per_shard_workers,
                    ..config.clone()
                }))
            })
            .collect();
        ShardedService { shards }
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn shards(&self) -> &[Arc<Service>] {
        &self.shards
    }

    /// The shard index `name` routes to.
    pub fn shard_index(&self, name: &str) -> usize {
        (shard_hash(name) % self.shards.len() as u64) as usize
    }

    /// The shard owning graph `name`.
    pub fn shard_for(&self, name: &str) -> &Arc<Service> {
        &self.shards[self.shard_index(name)]
    }

    /// Index of the shard `request` runs on: catalog ops route by their
    /// `name`, everything else by `graph`; requests that name neither
    /// (fan-in ops, malformed ones) land on shard 0.
    pub(crate) fn route(&self, request: &Json) -> usize {
        let key = match request.get("op").and_then(Json::as_str) {
            Some("register") | Some("unregister") => "name",
            _ => "graph",
        };
        request
            .get(key)
            .and_then(Json::as_str)
            .map_or(0, |name| self.shard_index(name))
    }

    /// Register a graph on its home shard.
    pub fn register(&self, name: &str, graph: impl Into<GraphStore>) {
        self.shard_for(name).register(name, graph);
    }

    /// Unregister a graph from its home shard.
    pub fn unregister(&self, name: &str) -> bool {
        self.shard_for(name).unregister(name)
    }

    /// Every registered graph across the fleet, sorted by name:
    /// `(name, n, m, storage kind, resident bytes)`.
    pub fn list(&self) -> Vec<(String, usize, usize, StorageKind, usize)> {
        let mut rows: Vec<_> = self
            .shards
            .iter()
            .flat_map(|shard| {
                // both catalog reports sort by name, so they zip positionally
                let sizes = shard.catalog().list();
                sizes
                    .into_iter()
                    .zip(shard.catalog().storage_report())
                    .map(|((name, n, m), (_, kind, bytes))| (name, n, m, kind, bytes))
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    /// Fleet-wide metrics: every shard's snapshot merged.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut it = self.shards.iter().map(|s| s.metrics());
        let mut merged = it.next().expect("at least one shard");
        for snap in it {
            merged.merge(&snap);
        }
        merged
    }

    /// Cancel all in-flight work on every shard (shutdown path).
    pub fn cancel_inflight(&self) {
        for shard in &self.shards {
            shard.cancel_inflight();
        }
    }
}

/// Answer one parsed request against the shard fleet; never panics,
/// always returns a JSON object with an `ok` field. Fan-in ops aggregate,
/// catalog ops and queries go to the graph's home shard
/// (`ShardedService::route`); a malformed request lands on shard 0,
/// whose parser produces the authoritative `bad_request`. Queries run under
/// `token` (the front end ties it to the client connection), narrowed by
/// the request's own `deadline_ms` when it carries one.
pub fn handle_sharded_request(
    sharded: &ShardedService,
    request: &Json,
    token: &CancelToken,
) -> Json {
    dispatch(sharded, request, token).unwrap_or_else(|e| e.to_json())
}

fn dispatch(
    sharded: &ShardedService,
    request: &Json,
    token: &CancelToken,
) -> Result<Json, ServiceError> {
    let str_field = |key: &str| request.get(key).and_then(Json::as_str);
    let bad = |msg: &str| ServiceError::BadRequest(msg.into());
    match str_field("op") {
        Some("metrics") => Ok(sharded.merged_metrics().to_json()),
        Some("health") => merged_health(sharded, token),
        Some("list") => Ok(merged_list(sharded)),
        Some("register") => {
            let (Some(name), Some(path)) = (str_field("name"), str_field("path")) else {
                return Err(bad("register needs \"name\" and \"path\""));
            };
            let storage = match request.get("storage") {
                None => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| bad("\"storage\" must be a string"))?,
                ),
            };
            let store = load_store_by_ext(path, storage).map_err(ServiceError::BadRequest)?;
            let entry = sharded.shard_for(name).register(name, store);
            Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("name", Json::from(name)),
                ("n", Json::from(entry.graph.num_vertices())),
                ("m", Json::from(entry.graph.num_edges())),
                ("storage", Json::from(entry.storage_kind().as_str())),
                ("generation", Json::from(entry.generation)),
            ]))
        }
        Some("unregister") => {
            let name = str_field("name").ok_or_else(|| bad("missing string field \"name\""))?;
            if !sharded.unregister(name) {
                return Err(ServiceError::UnknownGraph(name.to_string()));
            }
            Ok(Json::obj([
                ("ok", Json::Bool(true)),
                ("name", Json::from(name)),
            ]))
        }
        _ => {
            // optional "mode" ("degraded" forces the sequential fallback
            // lane) and "deadline_ms" (end-to-end budget) ride on any query
            let shard = &sharded.shards[sharded.route(request)];
            let q = Query::from_json(request)?;
            let mode = QueryMode::from_json(request)?;
            let answer = match deadline_from_json(request)? {
                Some(d) => shard.query_full(&q, &token.child(Some(Instant::now() + d)), mode),
                None => shard.query_full(&q, token, mode),
            };
            Ok(answer?.to_json())
        }
    }
}

/// Every shard's `list` as one name-sorted catalog view.
fn merged_list(sharded: &ShardedService) -> Json {
    let graphs = sharded
        .list()
        .into_iter()
        .map(|(name, n, m, kind, bytes)| {
            Json::obj([
                ("name", Json::from(name)),
                ("n", Json::from(n)),
                ("m", Json::from(m)),
                ("storage", Json::from(kind.as_str())),
                ("resident_bytes", Json::from(bytes)),
            ])
        })
        .collect();
    Json::obj([("ok", Json::Bool(true)), ("graphs", Json::Arr(graphs))])
}

/// Merge every shard's health: the fleet is ready iff every shard is,
/// capacities and catalogs sum, breaker/storage reports concatenate
/// (re-sorted).
fn merged_health(sharded: &ShardedService, token: &CancelToken) -> Result<Json, ServiceError> {
    let mut ready = true;
    let mut workers = 0usize;
    let mut workers_busy = 0u64;
    let mut graphs = 0usize;
    let mut breakers: Vec<(String, String)> = Vec::new();
    let mut storage: Vec<(String, String, usize)> = Vec::new();
    for shard in sharded.shards() {
        match shard
            .query_full(&Query::Health, token, QueryMode::Normal)?
            .reply
        {
            Reply::Health {
                ready: r,
                workers: w,
                workers_busy: wb,
                graphs: g,
                breakers: b,
                storage: s,
            } => {
                ready &= r;
                workers += w;
                workers_busy += wb;
                graphs += g;
                breakers.extend(b);
                storage.extend(s);
            }
            other => {
                return Err(ServiceError::Internal(format!(
                    "health produced unexpected reply {other:?}"
                )))
            }
        }
    }
    breakers.sort();
    storage.sort();
    Ok(Reply::Health {
        ready,
        workers,
        workers_busy,
        graphs,
        breakers,
        storage,
    }
    .to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_request, WireMode};
    use pasgal_graph::gen::basic::grid2d;

    fn fleet(shards: usize) -> ShardedService {
        ShardedService::new(
            ServiceConfig {
                workers: 4,
                queue_capacity: 8,
                ..ServiceConfig::default()
            },
            shards,
        )
    }

    #[test]
    fn hash_is_stable_and_spreads() {
        // pinned values: changing the routing hash silently re-homes
        // every registered graph, so lock it down
        assert_eq!(shard_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(shard_hash("a"), 0xaf63_dc4c_8601_ec8c);
        let spread: std::collections::HashSet<usize> = (0..64)
            .map(|i| (shard_hash(&format!("graph-{i}")) % 4) as usize)
            .collect();
        assert_eq!(spread.len(), 4, "64 names must reach all 4 shards");
    }

    #[test]
    fn routing_is_consistent_and_queries_work() {
        let fleet = fleet(4);
        for name in ["alpha", "beta", "gamma", "delta", "epsilon"] {
            fleet.register(name, grid2d(4, 4));
            let home = fleet.shard_index(name);
            // the graph exists on exactly its home shard
            for (i, shard) in fleet.shards().iter().enumerate() {
                let found = shard.catalog().list().iter().any(|(n, _, _)| n == name);
                assert_eq!(found, i == home, "{name} on shard {i}");
            }
            let req = crate::json::parse(&format!(
                r#"{{"op":"bfs","graph":"{name}","src":0,"target":15}}"#
            ))
            .unwrap();
            let r = handle_sharded_request(&fleet, &req, &CancelToken::new());
            assert_eq!(r.get("dist").and_then(Json::as_u64), Some(6), "{r}");
        }
        assert!(fleet.unregister("alpha"));
        assert!(!fleet.unregister("alpha"));
    }

    #[test]
    fn fan_in_ops_aggregate() {
        let fleet = fleet(4);
        fleet.register("one", grid2d(3, 3));
        fleet.register("two", grid2d(4, 4));
        fleet.register("three", grid2d(5, 5));
        let tok = CancelToken::new();
        let list = handle_sharded_request(
            &fleet,
            &crate::json::parse(r#"{"op":"list"}"#).unwrap(),
            &tok,
        );
        let names: Vec<&str> = match list.get("graphs").unwrap() {
            Json::Arr(gs) => gs
                .iter()
                .map(|g| g.get("name").unwrap().as_str().unwrap())
                .collect(),
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(names, ["one", "three", "two"], "sorted across shards");

        let health = handle_sharded_request(
            &fleet,
            &crate::json::parse(r#"{"op":"health"}"#).unwrap(),
            &tok,
        );
        assert_eq!(health.get("ready").and_then(Json::as_bool), Some(true));
        assert_eq!(health.get("graphs").and_then(Json::as_u64), Some(3));
        // 4 workers over 4 shards: one each
        assert_eq!(health.get("workers").and_then(Json::as_u64), Some(4));

        // run a query on each graph, then merged metrics must cover all
        for (name, far) in [("one", 8u32), ("two", 15), ("three", 24)] {
            let req = crate::json::parse(&format!(
                r#"{{"op":"bfs","graph":"{name}","src":0,"target":{far}}}"#
            ))
            .unwrap();
            let r = handle_sharded_request(&fleet, &req, &tok);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        }
        let m = fleet.merged_metrics();
        assert_eq!(m.queries, 3 + 4, "3 bfs + one health probe per shard");
        assert!(m.reconciles());
        let wire = handle_sharded_request(
            &fleet,
            &crate::json::parse(r#"{"op":"metrics"}"#).unwrap(),
            &tok,
        );
        assert_eq!(wire.get("ok").and_then(Json::as_bool), Some(true));
        assert!(wire.get("queries").and_then(Json::as_u64).unwrap() >= 7);
    }

    #[test]
    fn graphless_and_unknown_requests_get_typed_errors() {
        let fleet = fleet(2);
        let tok = CancelToken::new();
        for (req, kind) in [
            (r#"{"op":"bfs","src":0}"#, "bad_request"),
            (r#"{"op":"bfs","graph":"nope","src":0}"#, "unknown_graph"),
            (r#"{"op":"register"}"#, "bad_request"),
            (r#"{"op":"unregister"}"#, "bad_request"),
            (r#"{"op":"teleport","graph":"x"}"#, "bad_request"),
        ] {
            let r = handle_sharded_request(&fleet, &crate::json::parse(req).unwrap(), &tok);
            assert_eq!(
                r.get("kind").and_then(Json::as_str),
                Some(kind),
                "{req} → {r}"
            );
        }
    }

    /// What the front end does with one JSON line: decode, then dispatch
    /// (a line that does not decode is the front end's `bad_request`).
    fn ask_with(fleet: &ShardedService, line: &str, token: &CancelToken) -> Json {
        match decode_request(WireMode::Lines, line.as_bytes()) {
            Ok(request) => handle_sharded_request(fleet, &request, token),
            Err(msg) => ServiceError::BadRequest(msg).to_json(),
        }
    }

    fn ask(fleet: &ShardedService, line: &str) -> Json {
        ask_with(fleet, line, &CancelToken::new())
    }

    fn fleet_with_grid() -> ShardedService {
        let fleet = fleet(1);
        fleet.register("g", grid2d(6, 9));
        fleet
    }

    #[test]
    fn line_protocol_happy_path() {
        let fleet = fleet_with_grid();
        let r = ask(&fleet, r#"{"op":"bfs","graph":"g","src":0,"target":53}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(r.get("dist").unwrap().as_u64(), Some(13));
        let r = ask(&fleet, r#"{"op":"list"}"#);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn degraded_mode_and_health_over_the_wire() {
        let fleet = fleet_with_grid();
        let normal = ask(&fleet, r#"{"op":"bfs","graph":"g","src":0,"target":53}"#);
        assert_eq!(normal.get("dist").unwrap().as_u64(), Some(13));
        assert!(normal.get("degraded").is_none(), "{normal}");
        let deg = ask(
            &fleet,
            r#"{"op":"bfs","graph":"g","src":0,"target":53,"mode":"degraded"}"#,
        );
        assert_eq!(deg.get("dist").unwrap().as_u64(), Some(13));
        assert_eq!(deg.get("degraded").and_then(Json::as_bool), Some(true));
        let bad = ask(&fleet, r#"{"op":"bfs","graph":"g","src":0,"mode":"turbo"}"#);
        assert_eq!(bad.get("kind").and_then(Json::as_str), Some("bad_request"));
        let health = ask(&fleet, r#"{"op":"health"}"#);
        assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(health.get("ready").and_then(Json::as_bool), Some(true));
        assert!(health.get("workers").is_some(), "{health}");
        assert!(health.get("breakers").is_some(), "{health}");
    }

    #[test]
    fn line_protocol_errors() {
        let fleet = fleet_with_grid();
        let r = ask(&fleet, "this is not json");
        assert_eq!(r.get("kind").unwrap().as_str(), Some("bad_request"));
        let r = ask(&fleet, r#"{"op":"bfs","graph":"missing","src":0}"#);
        assert_eq!(r.get("kind").unwrap().as_str(), Some("unknown_graph"));
        let r = ask(&fleet, r#"{"op":"unregister","name":"missing"}"#);
        assert_eq!(r.get("kind").unwrap().as_str(), Some("unknown_graph"));
    }

    #[test]
    fn deadline_ms_over_the_wire() {
        let fleet = fleet_with_grid();
        // A roomy deadline changes nothing: the query is answered normally.
        let r = ask(
            &fleet,
            r#"{"op":"bfs","graph":"g","src":0,"target":53,"deadline_ms":60000}"#,
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
        assert_eq!(r.get("dist").and_then(Json::as_u64), Some(13));
        // Zero, negative, and non-integer deadlines are rejected at parse
        // time, before any work is queued.
        for frame in [
            r#"{"op":"bfs","graph":"g","src":0,"deadline_ms":0}"#,
            r#"{"op":"bfs","graph":"g","src":0,"deadline_ms":-5}"#,
            r#"{"op":"bfs","graph":"g","src":0,"deadline_ms":"soon"}"#,
        ] {
            let r = ask(&fleet, frame);
            assert_eq!(
                r.get("kind").and_then(Json::as_str),
                Some("bad_request"),
                "{frame}: {r}"
            );
        }
    }

    #[test]
    fn expired_deadline_maps_to_deadline_exceeded_kind() {
        let fleet = fleet_with_grid();
        // A connection token whose deadline has already passed: the service
        // must refuse with the typed deadline outcome, not a timeout or a
        // generic error — and a per-request deadline_ms cannot extend it
        // (the effective deadline is the earliest in the chain).
        let expired = CancelToken::with_deadline(std::time::Duration::ZERO);
        for frame in [
            r#"{"op":"bfs","graph":"g","src":0,"target":53}"#,
            r#"{"op":"bfs","graph":"g","src":0,"target":53,"deadline_ms":60000}"#,
        ] {
            let r = ask_with(&fleet, frame, &expired);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{r}");
            assert_eq!(
                r.get("kind").and_then(Json::as_str),
                Some("deadline_exceeded"),
                "{frame}: {r}"
            );
        }
    }

    /// Table-driven malformed frames: every one of these must produce a
    /// single well-formed error object — never a panic, never silence.
    #[test]
    fn malformed_frames_get_one_error_each() {
        let fleet = fleet_with_grid();
        let deep = format!("{}1{}", "[".repeat(500), "]".repeat(500));
        let unbalanced = "[".repeat(100_000);
        let cases: [(&str, &str); 10] = [
            ("truncated object", r#"{"op":"bfs","graph":"g""#),
            ("truncated string", r#"{"op":"bfs","graph":"g"#),
            ("truncated escape", r#"{"op":"\u00"#),
            ("bare word", "hello"),
            ("wrong op type", r#"{"op":7}"#),
            ("unknown op", r#"{"op":"teleport","graph":"g"}"#),
            ("missing fields", r#"{"op":"bfs"}"#),
            ("negative vertex", r#"{"op":"bfs","graph":"g","src":-3}"#),
            ("deeply nested", deep.as_str()),
            ("unbalanced nesting", unbalanced.as_str()),
        ];
        for (what, frame) in cases {
            let r = ask(&fleet, frame);
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(false), "{what}");
            let kind = r.get("kind").and_then(Json::as_str);
            assert_eq!(kind, Some("bad_request"), "{what}: {r}");
        }
        // the service still answers real queries afterwards
        let r = ask(&fleet, r#"{"op":"stats","graph":"g"}"#);
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn register_over_the_wire() {
        let fleet = fleet(1);
        let dir = pasgal_graph::io::unique_temp_dir("shard");
        let path = dir.join("t.bin");
        pasgal_graph::io::write_bin(&grid2d(4, 4), &path).unwrap();
        let req = format!(
            r#"{{"op":"register","name":"t","path":{:?}}}"#,
            path.to_str().unwrap()
        );
        let r = ask(&fleet, &req);
        assert_eq!(r.get("ok").unwrap().as_bool(), Some(true), "{r}");
        assert_eq!(r.get("n").unwrap().as_u64(), Some(16));
        let r = ask(&fleet, r#"{"op":"kcore","graph":"t"}"#);
        assert_eq!(r.get("degeneracy").unwrap().as_u64(), Some(2));
    }
}
