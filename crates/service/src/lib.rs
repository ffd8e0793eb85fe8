//! # pasgal-service
//!
//! A long-lived, concurrent graph query service on top of the PASGAL-rs
//! algorithms ([`pasgal_core`]). The batch algorithms answer one question
//! per process launch; this crate turns them into a server that loads
//! graphs once and answers many questions cheaply:
//!
//! - **[`catalog`]** — named graphs registered once and shared across all
//!   workers behind `Arc`; re-registering a name mints a new *generation*.
//! - **[`query`]** — the typed query API ([`Query`]/[`Reply`]) with
//!   structured errors ([`ServiceError`]) and its JSON wire mapping.
//! - **[`batcher`]** — single-flight micro-batching: concurrent queries
//!   needing the same traversal (e.g. many point-to-point queries from one
//!   source) share a single computation.
//! - **[`cache`]** — bounded LRU of per-source distance arrays plus
//!   memoized whole-graph labelings, invalidated by generation.
//! - **[`service`]** — admission control (bounded queue → `Overloaded`,
//!   per-query timeout → `Timeout`) and the worker pool executing
//!   traversals.
//! - **[`metrics`]** — queries served, cache hit rate, batch-size and
//!   latency histograms, exposed through the `metrics` query.
//! - **[`resilience`]** — bounded retry with decorrelated-jitter backoff,
//!   per-key circuit breakers, and the degraded-mode policy that sheds
//!   poisoned keys onto a sequential fallback lane.
//! - **[`cost`]** — flight-cost estimation and the queue-debt ledger
//!   behind cost-aware admission: requests whose deadline is infeasible
//!   are shed before queueing instead of timing out inside it.
//! - **[`brownout`]** — the hysteretic Normal→Pressured→Brownout
//!   controller that sheds oracle promotion, flight width, and finally
//!   parallel execution under queue-debt or memory pressure, without
//!   ever changing answers.
//! - **[`fault`]** — deterministic fault injection (worker panics,
//!   stalls, forced cache misses, fake queue-full), compiled out unless
//!   the `fault-injection` cargo feature is on; drives the chaos tests.
//! - **[`protocol`]** — request framing: incremental JSON-lines /
//!   length-prefixed-binary parsing with first-frame negotiation, and
//!   the compact binary query encodings.
//! - **[`poller`]** — the readiness-notification abstraction (epoll on
//!   Linux, a portable poll fallback elsewhere) behind the event loop.
//! - **[`shard`]** — per-graph sharding of the worker pool and result
//!   cache: each shard is a full [`Service`] so one hot graph cannot
//!   starve the rest of the catalog. Also the one request dispatcher
//!   ([`shard::handle_sharded_request`]) every wire request goes through.
//! - **[`frontend`]** — the network front end: an event-driven readiness
//!   loop serving many pipelined connections per I/O thread, JSON lines
//!   (scriptable with `nc`) or the binary protocol.
//!
//! The network path is one chain: wire → [`EventServer`] →
//! [`ShardedService`] → shard ([`Service`]).
//!
//! ```
//! use pasgal_service::{Query, Service, ServiceConfig};
//! use pasgal_graph::gen::basic::grid2d;
//!
//! let svc = Service::new(ServiceConfig::default());
//! svc.register("road", grid2d(6, 9));
//! let reply = svc
//!     .query(&Query::BfsDist { graph: "road".into(), src: 0, target: Some(53) })
//!     .unwrap();
//! assert_eq!(reply, pasgal_service::Reply::Dist { value: Some(13) });
//! ```

pub mod batcher;
pub mod brownout;
pub mod cache;
pub mod catalog;
pub mod cost;
pub mod fault;
pub mod frontend;
pub mod json;
pub mod metrics;
pub mod mutate;
pub mod poller;
pub mod protocol;
pub mod query;
pub mod resilience;
pub mod service;
pub mod shard;

pub use batcher::FlightOutcome;
pub use brownout::{BrownoutController, Pressure};
pub use cache::{ComputeKey, ComputeValue};
pub use catalog::{Catalog, GraphEntry};
pub use cost::{AdmitDecision, CostClass, CostModel};
pub use fault::{FaultInjector, FaultPlan};
pub use frontend::{EventServer, FrontendConfig};
pub use metrics::MetricsSnapshot;
pub use protocol::{FrameBuf, WireMode};
pub use query::{Answer, Query, QueryMode, Reply, ServiceError};
pub use resilience::ResilienceConfig;
pub use service::{Service, ServiceConfig};
pub use shard::ShardedService;
