//! The typed query API and its JSON wire mapping.
//!
//! A [`Query`] names a graph in the catalog and an algorithm question; a
//! [`Reply`] is the answer. Point queries (`target`/`vertex` given) return
//! a single value extracted from the shared per-graph or per-source
//! result; summary queries return aggregate facts so multi-megabyte
//! arrays never cross the wire.

use crate::json::Json;
use pasgal_graph::overlay::Mutation;

/// A graph question the service can answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Hop distance from `src` (BFS). With `target`: the distance to it;
    /// without: reachability summary.
    BfsDist {
        graph: String,
        src: u32,
        target: Option<u32>,
    },
    /// Weighted shortest-path distance from `src` (SSSP).
    SsspDist {
        graph: String,
        src: u32,
        target: Option<u32>,
    },
    /// Point-to-point shortest-path distance `src → dst`. Served from the
    /// shared per-source distance array, so concurrent PTP queries from
    /// one source cost one traversal.
    Ptp { graph: String, src: u32, dst: u32 },
    /// Hop distance served by a resident [`DistanceOracle`]: with `dst`
    /// it is a point-to-point lookup, without it a reachability summary
    /// from `src`. Distinct sources coalesce into one bit-parallel
    /// multi-source BFS flight, so 64 oracle queries cost roughly one
    /// traversal instead of 64.
    ///
    /// [`DistanceOracle`]: pasgal_core::multi::DistanceOracle
    Oracle {
        graph: String,
        src: u32,
        dst: Option<u32>,
    },
    /// Strongly connected component id of `vertex` (or the component
    /// count when omitted).
    SccId { graph: String, vertex: Option<u32> },
    /// Connected component id of `vertex` (or the component count).
    CcId { graph: String, vertex: Option<u32> },
    /// Coreness of `vertex` (or the graph degeneracy).
    KCore { graph: String, vertex: Option<u32> },
    /// Structural statistics of a registered graph.
    Stats { graph: String },
    /// Apply a batch of edge/vertex mutations to a registered graph.
    /// The batch is atomic (all ops or none) and serialized per graph;
    /// each applied batch bumps the graph's mutation epoch by one.
    /// `compact` forces the mutation overlay to be folded into a fresh
    /// CSR after the batch lands.
    Mutate {
        graph: String,
        ops: Vec<Mutation>,
        compact: bool,
    },
    /// Service readiness and resilience state (breakers, worker gauge).
    Health,
}

impl Query {
    /// The catalog name this query targets, if any.
    pub fn graph(&self) -> Option<&str> {
        match self {
            Query::BfsDist { graph, .. }
            | Query::SsspDist { graph, .. }
            | Query::Ptp { graph, .. }
            | Query::Oracle { graph, .. }
            | Query::SccId { graph, .. }
            | Query::CcId { graph, .. }
            | Query::KCore { graph, .. }
            | Query::Stats { graph }
            | Query::Mutate { graph, .. } => Some(graph),
            Query::Health => None,
        }
    }

    /// Short op name (used in metrics and the wire protocol).
    pub fn op(&self) -> &'static str {
        match self {
            Query::BfsDist { .. } => "bfs",
            Query::SsspDist { .. } => "sssp",
            Query::Ptp { .. } => "ptp",
            Query::Oracle { .. } => "oracle",
            Query::SccId { .. } => "scc",
            Query::CcId { .. } => "cc",
            Query::KCore { .. } => "kcore",
            Query::Stats { .. } => "stats",
            Query::Mutate { .. } => "mutate",
            Query::Health => "health",
        }
    }
}

/// How the caller wants the query served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Parallel path: batcher, cache, workers (the default).
    #[default]
    Normal,
    /// Force the sequential fallback lane (the same path an open breaker
    /// sheds to). The answer is correct but marked `degraded: true` and
    /// never enters the primary cache.
    Degraded,
}

impl QueryMode {
    /// Decode the optional `"mode"` field of a request object.
    pub fn from_json(v: &Json) -> Result<QueryMode, ServiceError> {
        match v.get("mode") {
            None | Some(Json::Null) => Ok(QueryMode::Normal),
            Some(Json::Str(s)) if s == "normal" => Ok(QueryMode::Normal),
            Some(Json::Str(s)) if s == "degraded" => Ok(QueryMode::Degraded),
            Some(other) => Err(ServiceError::BadRequest(format!(
                "mode must be \"normal\" or \"degraded\", got {other:?}"
            ))),
        }
    }
}

/// A [`Reply`] plus how it was produced. `degraded` is part of the wire
/// contract: callers must be able to tell a sequential-fallback answer
/// from a primary one (it skipped the cache and the parallel path).
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub reply: Reply,
    pub degraded: bool,
}

impl Answer {
    pub fn primary(reply: Reply) -> Self {
        Self {
            reply,
            degraded: false,
        }
    }

    pub fn degraded(reply: Reply) -> Self {
        Self {
            reply,
            degraded: true,
        }
    }

    /// Encode as the wire object: the reply's encoding, plus
    /// `"degraded":true` when the fallback lane answered.
    pub fn to_json(&self) -> Json {
        let mut j = self.reply.to_json();
        if self.degraded {
            if let Json::Obj(map) = &mut j {
                map.insert("degraded".to_string(), Json::Bool(true));
            }
        }
        j
    }
}

/// An answer to a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A single distance; `None` means unreachable.
    Dist { value: Option<u64> },
    /// Distance summary over all vertices reachable from the source.
    DistSummary { reached: usize, max: u64 },
    /// Component/label answer for one vertex.
    Label {
        vertex: u32,
        label: u32,
        components: usize,
    },
    /// Component count only.
    LabelSummary { components: usize },
    /// Coreness answer for one vertex.
    Coreness {
        vertex: u32,
        coreness: u32,
        degeneracy: u32,
    },
    /// Degeneracy only.
    CorenessSummary { degeneracy: u32 },
    /// Graph statistics.
    Stats {
        n: usize,
        m: usize,
        weighted: bool,
        symmetric: bool,
        min_degree: usize,
        avg_degree: f64,
        max_degree: usize,
    },
    /// Outcome of an applied mutation batch: the graph's new mutation
    /// epoch, how many ops actually changed the graph (idempotent ops —
    /// deleting an absent edge, re-inserting an identical one — do not
    /// count), and the post-batch vertex/edge counts.
    Mutated {
        epoch: u64,
        applied: usize,
        n: usize,
        m: usize,
    },
    /// Service health: readiness plus resilience state.
    Health {
        /// `false` once shutdown has begun.
        ready: bool,
        /// Configured parallel worker count.
        workers: usize,
        /// Workers currently executing a job (includes the fallback lane).
        workers_busy: u64,
        /// Graphs currently registered in the catalog.
        graphs: usize,
        /// Non-closed breakers as `(key description, state)` pairs,
        /// sorted by key.
        breakers: Vec<(String, String)>,
        /// Per-graph storage report, sorted by name:
        /// `(name, storage kind, resident bytes)`.
        storage: Vec<(String, String, usize)>,
    },
}

/// Why a query was not answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// No graph registered under that name.
    UnknownGraph(String),
    /// Malformed request (bad op, missing field, wrong type).
    BadRequest(String),
    /// A vertex id is outside `0..n`.
    VertexOutOfRange { vertex: u32, n: usize },
    /// The admission queue is full; retry later.
    Overloaded,
    /// Cost-aware admission refused the query: the estimated queue debt
    /// made its deadline infeasible, so it was rejected before queueing.
    /// Reported as `overloaded` on the wire (clients treat both the
    /// same); kept distinct internally so metrics can count `shed`
    /// separately from queue-full rejections.
    Shed,
    /// The query waited longer than the configured timeout.
    Timeout,
    /// The query's end-to-end deadline (`deadline_ms` or the serve-wide
    /// default) expired before an answer was ready.
    DeadlineExceeded,
    /// The query's cancel token fired before an answer was ready
    /// (client disconnect or service shutdown).
    Cancelled,
    /// The computation itself failed.
    Internal(String),
}

impl ServiceError {
    /// Stable machine-readable kind for the wire protocol.
    pub fn kind(&self) -> &'static str {
        match self {
            ServiceError::UnknownGraph(_) => "unknown_graph",
            ServiceError::BadRequest(_) => "bad_request",
            ServiceError::VertexOutOfRange { .. } => "vertex_out_of_range",
            ServiceError::Overloaded | ServiceError::Shed => "overloaded",
            ServiceError::Timeout => "timeout",
            ServiceError::DeadlineExceeded => "deadline_exceeded",
            ServiceError::Cancelled => "cancelled",
            ServiceError::Internal(_) => "internal",
        }
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownGraph(g) => write!(f, "unknown graph {g:?}"),
            ServiceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServiceError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex {vertex} out of range (n = {n})")
            }
            ServiceError::Overloaded => write!(f, "service overloaded, retry later"),
            ServiceError::Shed => write!(
                f,
                "shed under overload: queued work exceeds the request deadline"
            ),
            ServiceError::Timeout => write!(f, "query timed out"),
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline exceeded before an answer was ready")
            }
            ServiceError::Cancelled => write!(f, "query cancelled"),
            ServiceError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServiceError {}

// ---------------------------------------------------------------- wire ---

fn need_str(v: &Json, key: &str) -> Result<String, ServiceError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ServiceError::BadRequest(format!("missing string field {key:?}")))
}

fn need_u32(v: &Json, key: &str) -> Result<u32, ServiceError> {
    v.get(key)
        .and_then(Json::as_u32)
        .ok_or_else(|| ServiceError::BadRequest(format!("missing vertex field {key:?}")))
}

fn opt_u32(v: &Json, key: &str) -> Result<Option<u32>, ServiceError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_u32()
            .map(Some)
            .ok_or_else(|| ServiceError::BadRequest(format!("field {key:?} must be a vertex id"))),
    }
}

/// Decode the optional `"deadline_ms"` field of a request object: the
/// end-to-end time budget, in milliseconds from receipt. Absent or null
/// means "no per-request deadline" (the serve-wide default, if any,
/// applies); zero and non-integers are rejected.
pub fn deadline_from_json(v: &Json) -> Result<Option<std::time::Duration>, ServiceError> {
    match v.get("deadline_ms") {
        None | Some(Json::Null) => Ok(None),
        Some(x) => match x.as_u64() {
            Some(ms) if ms > 0 => Ok(Some(std::time::Duration::from_millis(ms))),
            _ => Err(ServiceError::BadRequest(
                "deadline_ms must be a positive integer of milliseconds".into(),
            )),
        },
    }
}

/// Decode the `"ops"` array of a mutate request. Each op is itself an
/// array tagged by its first element: `["+e",u,v]` / `["+e",u,v,w]`
/// (insert or re-weight an edge), `["-e",u,v]` (delete an edge),
/// `["+v"]` (append a vertex), `["-v",v]` (isolate a vertex). The batch
/// must be non-empty — an empty `ops` is almost certainly a client bug.
fn mutation_ops(v: &Json) -> Result<Vec<Mutation>, ServiceError> {
    let arr = match v.get("ops") {
        Some(Json::Arr(a)) => a,
        _ => {
            return Err(ServiceError::BadRequest(
                "missing array field \"ops\"".into(),
            ))
        }
    };
    if arr.is_empty() {
        return Err(ServiceError::BadRequest(
            "\"ops\" must contain at least one mutation".into(),
        ));
    }
    let mut ops = Vec::with_capacity(arr.len());
    for (i, op) in arr.iter().enumerate() {
        let parts = match op {
            Json::Arr(p) => p,
            other => {
                return Err(ServiceError::BadRequest(format!(
                    "ops[{i}] must be an array, got {other:?}"
                )))
            }
        };
        let bad = |what: &str| ServiceError::BadRequest(format!("ops[{i}]: {what}"));
        let tag = parts
            .first()
            .and_then(Json::as_str)
            .ok_or_else(|| bad("first element must be an op tag string"))?;
        let vertex_at = |k: usize, name: &str| {
            parts
                .get(k)
                .and_then(Json::as_u32)
                .ok_or_else(|| bad(&format!("{name} must be a vertex id")))
        };
        let op = match (tag, parts.len()) {
            ("+e", 3) | ("+e", 4) => Mutation::InsertEdge {
                u: vertex_at(1, "u")?,
                v: vertex_at(2, "v")?,
                w: if parts.len() == 4 {
                    let w = vertex_at(3, "w")?;
                    if w == 0 {
                        return Err(bad("edge weight must be positive"));
                    }
                    w
                } else {
                    1
                },
            },
            ("-e", 3) => Mutation::DeleteEdge {
                u: vertex_at(1, "u")?,
                v: vertex_at(2, "v")?,
            },
            ("+v", 1) => Mutation::AddVertex,
            ("-v", 2) => Mutation::RemoveVertex {
                v: vertex_at(1, "v")?,
            },
            _ => {
                return Err(bad(&format!(
                    "unknown op {tag:?} with {} argument(s)",
                    parts.len() - 1
                )))
            }
        };
        ops.push(op);
    }
    Ok(ops)
}

impl Query {
    /// Decode a query from a parsed JSON request object.
    pub fn from_json(v: &Json) -> Result<Query, ServiceError> {
        let op = need_str(v, "op")?;
        match op.as_str() {
            "bfs" => Ok(Query::BfsDist {
                graph: need_str(v, "graph")?,
                src: need_u32(v, "src")?,
                target: opt_u32(v, "target")?,
            }),
            "sssp" => Ok(Query::SsspDist {
                graph: need_str(v, "graph")?,
                src: need_u32(v, "src")?,
                target: opt_u32(v, "target")?,
            }),
            "ptp" => Ok(Query::Ptp {
                graph: need_str(v, "graph")?,
                src: need_u32(v, "src")?,
                dst: need_u32(v, "dst")?,
            }),
            "oracle" => Ok(Query::Oracle {
                graph: need_str(v, "graph")?,
                src: need_u32(v, "src")?,
                dst: opt_u32(v, "dst")?,
            }),
            "scc" => Ok(Query::SccId {
                graph: need_str(v, "graph")?,
                vertex: opt_u32(v, "vertex")?,
            }),
            "cc" => Ok(Query::CcId {
                graph: need_str(v, "graph")?,
                vertex: opt_u32(v, "vertex")?,
            }),
            "kcore" => Ok(Query::KCore {
                graph: need_str(v, "graph")?,
                vertex: opt_u32(v, "vertex")?,
            }),
            "stats" => Ok(Query::Stats {
                graph: need_str(v, "graph")?,
            }),
            "mutate" => Ok(Query::Mutate {
                graph: need_str(v, "graph")?,
                ops: mutation_ops(v)?,
                compact: match v.get("compact") {
                    None | Some(Json::Null) => false,
                    Some(Json::Bool(b)) => *b,
                    Some(other) => {
                        return Err(ServiceError::BadRequest(format!(
                            "field \"compact\" must be a boolean, got {other:?}"
                        )))
                    }
                },
            }),
            other => Err(ServiceError::BadRequest(format!("unknown op {other:?}"))),
        }
    }
}

impl Reply {
    /// Encode as the `{"ok":true,...}` wire object.
    pub fn to_json(&self) -> Json {
        let ok = ("ok", Json::Bool(true));
        match self {
            Reply::Dist { value } => {
                Json::obj([ok, ("dist", value.map(Json::from).unwrap_or(Json::Null))])
            }
            Reply::DistSummary { reached, max } => Json::obj([
                ok,
                ("reached", Json::from(*reached)),
                ("max_dist", Json::from(*max)),
            ]),
            Reply::Label {
                vertex,
                label,
                components,
            } => Json::obj([
                ok,
                ("vertex", Json::from(*vertex)),
                ("label", Json::from(*label)),
                ("components", Json::from(*components)),
            ]),
            Reply::LabelSummary { components } => {
                Json::obj([ok, ("components", Json::from(*components))])
            }
            Reply::Coreness {
                vertex,
                coreness,
                degeneracy,
            } => Json::obj([
                ok,
                ("vertex", Json::from(*vertex)),
                ("coreness", Json::from(*coreness)),
                ("degeneracy", Json::from(*degeneracy)),
            ]),
            Reply::CorenessSummary { degeneracy } => {
                Json::obj([ok, ("degeneracy", Json::from(*degeneracy))])
            }
            Reply::Stats {
                n,
                m,
                weighted,
                symmetric,
                min_degree,
                avg_degree,
                max_degree,
            } => Json::obj([
                ok,
                ("n", Json::from(*n)),
                ("m", Json::from(*m)),
                ("weighted", Json::Bool(*weighted)),
                ("symmetric", Json::Bool(*symmetric)),
                ("min_degree", Json::from(*min_degree)),
                ("avg_degree", Json::from(*avg_degree)),
                ("max_degree", Json::from(*max_degree)),
            ]),
            Reply::Mutated {
                epoch,
                applied,
                n,
                m,
            } => Json::obj([
                ok,
                ("epoch", Json::from(*epoch)),
                ("applied", Json::from(*applied)),
                ("n", Json::from(*n)),
                ("m", Json::from(*m)),
            ]),
            Reply::Health {
                ready,
                workers,
                workers_busy,
                graphs,
                breakers,
                storage,
            } => Json::obj([
                ok,
                ("ready", Json::Bool(*ready)),
                ("workers", Json::from(*workers)),
                ("workers_busy", Json::from(*workers_busy)),
                ("graphs", Json::from(*graphs)),
                (
                    "breakers",
                    Json::Arr(
                        breakers
                            .iter()
                            .map(|(key, state)| {
                                Json::obj([
                                    ("key", Json::from(key.as_str())),
                                    ("state", Json::from(state.as_str())),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "storage",
                    Json::Arr(
                        storage
                            .iter()
                            .map(|(name, kind, bytes)| {
                                Json::obj([
                                    ("name", Json::from(name.as_str())),
                                    ("storage", Json::from(kind.as_str())),
                                    ("resident_bytes", Json::from(*bytes)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        }
    }
}

impl ServiceError {
    /// Encode as the `{"ok":false,...}` wire object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("ok", Json::Bool(false)),
            ("kind", Json::from(self.kind())),
            ("error", Json::from(self.to_string())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn decodes_every_op() {
        let q = Query::from_json(&parse(r#"{"op":"bfs","graph":"g","src":3,"target":9}"#).unwrap())
            .unwrap();
        assert_eq!(
            q,
            Query::BfsDist {
                graph: "g".into(),
                src: 3,
                target: Some(9)
            }
        );
        let q = Query::from_json(&parse(r#"{"op":"ptp","graph":"g","src":1,"dst":2}"#).unwrap())
            .unwrap();
        assert_eq!(q.op(), "ptp");
        let q = Query::from_json(&parse(r#"{"op":"oracle","graph":"g","src":5,"dst":8}"#).unwrap())
            .unwrap();
        assert_eq!(
            q,
            Query::Oracle {
                graph: "g".into(),
                src: 5,
                dst: Some(8)
            }
        );
        assert_eq!(q.op(), "oracle");
        assert_eq!(q.graph(), Some("g"));
        let q =
            Query::from_json(&parse(r#"{"op":"oracle","graph":"g","src":5}"#).unwrap()).unwrap();
        assert_eq!(
            q,
            Query::Oracle {
                graph: "g".into(),
                src: 5,
                dst: None
            }
        );
        let q = Query::from_json(&parse(r#"{"op":"scc","graph":"g"}"#).unwrap()).unwrap();
        assert_eq!(
            q,
            Query::SccId {
                graph: "g".into(),
                vertex: None
            }
        );
    }

    #[test]
    fn decodes_mutate_ops() {
        let q = Query::from_json(
            &parse(r#"{"op":"mutate","graph":"g","ops":[["+e",0,1],["+e",1,2,5],["-e",2,3],["+v"],["-v",4]],"compact":true}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(q.op(), "mutate");
        assert_eq!(q.graph(), Some("g"));
        assert_eq!(
            q,
            Query::Mutate {
                graph: "g".into(),
                ops: vec![
                    Mutation::InsertEdge { u: 0, v: 1, w: 1 },
                    Mutation::InsertEdge { u: 1, v: 2, w: 5 },
                    Mutation::DeleteEdge { u: 2, v: 3 },
                    Mutation::AddVertex,
                    Mutation::RemoveVertex { v: 4 },
                ],
                compact: true,
            }
        );
        // compact defaults to false
        let q =
            Query::from_json(&parse(r#"{"op":"mutate","graph":"g","ops":[["+e",0,1]]}"#).unwrap())
                .unwrap();
        assert!(matches!(q, Query::Mutate { compact: false, .. }));
        for bad in [
            r#"{"op":"mutate","graph":"g"}"#,
            r#"{"op":"mutate","graph":"g","ops":[]}"#,
            r#"{"op":"mutate","graph":"g","ops":["+v"]}"#,
            r#"{"op":"mutate","graph":"g","ops":[["+e",0]]}"#,
            r#"{"op":"mutate","graph":"g","ops":[["+e",0,1,0]]}"#,
            r#"{"op":"mutate","graph":"g","ops":[["-e",0,1,2]]}"#,
            r#"{"op":"mutate","graph":"g","ops":[["*e",0,1]]}"#,
            r#"{"op":"mutate","graph":"g","ops":[["+e","a",1]]}"#,
            r#"{"op":"mutate","graph":"g","ops":[["+e",0,1]],"compact":"yes"}"#,
        ] {
            let e = Query::from_json(&parse(bad).unwrap()).unwrap_err();
            assert_eq!(e.kind(), "bad_request", "{bad}");
        }
    }

    #[test]
    fn mutated_reply_encodes() {
        let r = Reply::Mutated {
            epoch: 3,
            applied: 7,
            n: 100,
            m: 412,
        };
        let j = r.to_json();
        assert_eq!(j.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("epoch").unwrap().as_u64(), Some(3));
        assert_eq!(j.get("applied").unwrap().as_u64(), Some(7));
        assert_eq!(j.get("n").unwrap().as_u64(), Some(100));
        assert_eq!(j.get("m").unwrap().as_u64(), Some(412));
    }

    #[test]
    fn mode_field_parses_and_rejects_garbage() {
        let m = QueryMode::from_json(&parse(r#"{"op":"bfs"}"#).unwrap()).unwrap();
        assert_eq!(m, QueryMode::Normal);
        let m = QueryMode::from_json(&parse(r#"{"mode":"normal"}"#).unwrap()).unwrap();
        assert_eq!(m, QueryMode::Normal);
        let m = QueryMode::from_json(&parse(r#"{"mode":"degraded"}"#).unwrap()).unwrap();
        assert_eq!(m, QueryMode::Degraded);
        for bad in [r#"{"mode":"turbo"}"#, r#"{"mode":3}"#] {
            let e = QueryMode::from_json(&parse(bad).unwrap()).unwrap_err();
            assert_eq!(e.kind(), "bad_request", "{bad}");
        }
    }

    #[test]
    fn answer_encoding_marks_degraded_only_when_degraded() {
        let primary = Answer::primary(Reply::Dist { value: Some(7) });
        assert_eq!(primary.to_json().get("degraded"), None);
        let degraded = Answer::degraded(Reply::Dist { value: Some(7) });
        let j = degraded.to_json();
        assert_eq!(j.get("degraded").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("dist").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn health_reply_encodes_breakers() {
        let r = Reply::Health {
            ready: true,
            workers: 4,
            workers_busy: 1,
            graphs: 2,
            breakers: vec![("bfs@0:3".into(), "open".into())],
            storage: vec![("g".into(), "compressed".into(), 4096)],
        };
        let j = r.to_json();
        assert_eq!(j.get("ready").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("workers").unwrap().as_u64(), Some(4));
        let breakers = match j.get("breakers").unwrap() {
            Json::Arr(a) => a,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(breakers.len(), 1);
        assert_eq!(breakers[0].get("state").unwrap().as_str(), Some("open"));
        let storage = match j.get("storage").unwrap() {
            Json::Arr(a) => a,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(storage[0].get("name").unwrap().as_str(), Some("g"));
        assert_eq!(
            storage[0].get("storage").unwrap().as_str(),
            Some("compressed")
        );
        assert_eq!(
            storage[0].get("resident_bytes").unwrap().as_u64(),
            Some(4096)
        );
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            r#"{"graph":"g"}"#,
            r#"{"op":"teleport","graph":"g"}"#,
            r#"{"op":"bfs","graph":"g"}"#,
            r#"{"op":"bfs","graph":"g","src":-1}"#,
            r#"{"op":"ptp","graph":"g","src":1}"#,
            r#"{"op":"oracle","graph":"g"}"#,
            r#"{"op":"oracle","graph":"g","src":1,"dst":"x"}"#,
        ] {
            let e = Query::from_json(&parse(bad).unwrap()).unwrap_err();
            assert_eq!(e.kind(), "bad_request", "{bad}");
        }
    }

    #[test]
    fn deadline_ms_parses_and_rejects_garbage() {
        assert_eq!(
            deadline_from_json(&parse(r#"{"op":"bfs"}"#).unwrap()).unwrap(),
            None
        );
        assert_eq!(
            deadline_from_json(&parse(r#"{"deadline_ms":null}"#).unwrap()).unwrap(),
            None
        );
        assert_eq!(
            deadline_from_json(&parse(r#"{"deadline_ms":250}"#).unwrap()).unwrap(),
            Some(std::time::Duration::from_millis(250))
        );
        for bad in [
            r#"{"deadline_ms":0}"#,
            r#"{"deadline_ms":-5}"#,
            r#"{"deadline_ms":"soon"}"#,
            r#"{"deadline_ms":1.5}"#,
        ] {
            let e = deadline_from_json(&parse(bad).unwrap()).unwrap_err();
            assert_eq!(e.kind(), "bad_request", "{bad}");
        }
    }

    #[test]
    fn overload_family_kinds_are_wire_stable() {
        // Shed is deliberately reported as "overloaded": clients handle
        // both identically (back off / retry elsewhere).
        assert_eq!(ServiceError::Shed.kind(), "overloaded");
        assert_eq!(ServiceError::Overloaded.kind(), "overloaded");
        assert_eq!(ServiceError::DeadlineExceeded.kind(), "deadline_exceeded");
        let j = ServiceError::DeadlineExceeded.to_json();
        assert_eq!(j.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(j.get("kind").unwrap().as_str(), Some("deadline_exceeded"));
        // distinct human-readable messages keep the two diagnosable
        assert_ne!(
            ServiceError::Shed.to_string(),
            ServiceError::Overloaded.to_string()
        );
    }

    #[test]
    fn reply_encoding_has_ok_flag() {
        let r = Reply::Dist { value: Some(13) };
        let j = r.to_json();
        assert_eq!(j.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("dist").unwrap().as_u64(), Some(13));
        let r = Reply::Dist { value: None };
        assert_eq!(r.to_json().get("dist"), Some(&Json::Null));
        let e = ServiceError::Overloaded.to_json();
        assert_eq!(e.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(e.get("kind").unwrap().as_str(), Some("overloaded"));
    }
}
