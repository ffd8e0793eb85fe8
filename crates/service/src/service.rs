//! The query executor: admission control, worker pool, resilience, and
//! dispatch onto the `pasgal-core` algorithms.
//!
//! A query's life: look the graph up, pinning its `(generation, epoch)`
//! → plan a [`ComputeKey`] → check the [`ResultCache`] → consult the
//! per-key circuit breaker → on miss, join the flight for that key *at
//! that epoch* (a [`Batcher`] flight, or the snapshot's multi-source
//! batch for oracle columns) → the leader passes cost-aware admission
//! and submits one job to a **bounded** queue (full queue =
//! [`FlightOutcome::Overloaded`]) → a worker runs the traversal once and
//! wakes the whole batch. Both kinds of flight share one leader path and
//! one worker path. Every answer, cached or computed, is at the pinned
//! epoch: a cache slot hits only at the epoch it is stamped with, and a
//! flight's value is cached only if its epoch is still current. Waiters
//! give up after the timeout ([`ServiceError::Timeout`]) but the
//! computation keeps running — and populates the cache — *as long as
//! anyone is still waiting on it*. When the **last** waiter gives up, the
//! flight's [`CancelToken`] fires, the worker's traversal aborts within
//! one round, and the worker is free for the next job instead of
//! finishing an answer nobody wants.
//!
//! # Resilience (see `resilience.rs`)
//!
//! Retryable outcomes (worker panic, injected fault, transient overload)
//! are retried up to [`ResilienceConfig::max_retries`] times with
//! decorrelated-jitter backoff; each retry **re-runs the request** —
//! lookup, vertex checks, key choice — against whatever graph the name
//! points to now, and re-enters the batcher, so concurrent queries ride
//! the retried flight instead of duplicating work. A key whose flights
//! keep failing trips its circuit breaker and sheds to the **degraded
//! lane**: a dedicated fallback worker running
//! the *sequential* core algorithms (`bfs_seq`, Dijkstra, Tarjan,
//! sequential union-find, Batagelj–Zaveršnik) behind its own
//! single-flight batcher and bounded queue. Degraded answers are marked
//! `degraded: true`, are correct (bit-for-bit equal to the parallel
//! answer — SCC labels are canonicalized on both paths), and never enter
//! the primary cache. Callers can force the lane with `"mode":"degraded"`.
//!
//! Every query carries a token ([`Service::query_with_token`]): the
//! server cancels it on client disconnect or shutdown, turning the query
//! into [`ServiceError::Cancelled`] within one poll slice.
//!
//! With the `fault-injection` cargo feature, a [`FaultInjector`] can
//! deterministically panic workers (periodically or in a burst window),
//! stall computations, force cache misses, and fake queue-full
//! rejections — the chaos tests drive all of these to prove the
//! bookkeeping above never loses a worker or a query. The fallback lane
//! is deliberately exempt from injection: it is the path of last resort.

use crate::batcher::{
    Batcher, Flight, FlightOutcome, Join, OracleBatch, OracleBatcher, OracleJoin, WaitAbort,
};
use crate::brownout::{BrownoutController, Pressure};
use crate::cache::{ComputeKey, ComputeValue, ResultCache};
use crate::catalog::{Catalog, GraphEntry};
use crate::cost::{AdmitDecision, CostClass, CostModel};
use crate::fault::{FaultInjector, FaultPlan};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::query::{Answer, Query, QueryMode, Reply, ServiceError};
use crate::resilience::{Admission, Backoff, BreakerRegistry, ResilienceConfig};
use pasgal_core::bfs::seq::bfs_seq;
use pasgal_core::bfs::vgc::bfs_vgc_dir_observed_in;
use pasgal_core::cc::{connectivity_observed_in, connectivity_seq};
use pasgal_core::common::{canonicalize_labels, CancelToken, Cancelled, VgcConfig, UNREACHED};
use pasgal_core::engine::NoopObserver;
use pasgal_core::kcore::{kcore_peel_observed_in, kcore_seq};
use pasgal_core::multi::{multi_bfs_observed_in, DistanceOracle, MAX_SOURCES};
use pasgal_core::scc::fwbw::scc_vgc_observed_in;
use pasgal_core::scc::tarjan::scc_tarjan;
use pasgal_core::sssp::dijkstra::sssp_dijkstra;
use pasgal_core::sssp::stepping::{sssp_rho_stepping_observed_in, RhoConfig};
use pasgal_core::workspace::{TraversalWorkspace, WorkspacePool};
use pasgal_graph::overlay::{DeltaOverlay, Mutation};
use pasgal_graph::stats::degree_stats;
use pasgal_graph::storage::GraphStore;
use pasgal_graph::with_storage;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads executing traversals (each traversal is itself
    /// parallel, so a few workers saturate a machine).
    pub workers: usize,
    /// Bounded admission queue depth; a full queue rejects new
    /// computations with `Overloaded` instead of buffering without limit.
    /// Also bounds the degraded lane's queue.
    pub queue_capacity: usize,
    /// How long a query waits for its computation before `Timeout`
    /// (per attempt: retries wait anew).
    pub query_timeout: Duration,
    /// Max cached per-source distance arrays (LRU evicted).
    pub cache_capacity: usize,
    /// VGC granularity (`τ`) used for all traversals.
    pub tau: usize,
    /// Let the τ controller retune granularity per round (starting from
    /// `tau`) instead of holding it fixed. Affects scheduling only —
    /// answers are τ-independent, so this never changes results.
    pub adaptive_tau: bool,
    /// Graphs with at most this many vertices answer `oracle` queries
    /// from a resident **all-pairs** distance oracle (one LRU slot per
    /// graph, built by a single multi-source flight). Clamped to the
    /// engine's 128-source word-width limit; `0` disables residency so
    /// every oracle query takes the per-column flight path.
    pub oracle_resident_max: usize,
    /// Seats per multi-source flight: how many distinct sources one
    /// bit-parallel traversal advances (clamped to `1..=128`).
    pub oracle_max_sources: usize,
    /// Retry and circuit-breaker tuning.
    pub resilience: ResilienceConfig,
    /// Deterministic fault injection (inert unless the `fault-injection`
    /// cargo feature is enabled AND a period is nonzero).
    pub faults: FaultPlan,
    /// End-to-end deadline applied to requests that do not carry their
    /// own `deadline_ms`; `None` leaves such requests bounded only by
    /// `query_timeout`.
    pub default_deadline: Option<Duration>,
    /// Workspace-pool memory budget in bytes driving the brownout
    /// controller's memory signal; `None` disables it.
    pub memory_budget: Option<u64>,
    /// Overlay delta size (bytes) past which a mutation batch schedules
    /// background compaction of the graph into a fresh CSR. Brownout
    /// `Pressured` and a query's `"compact":true` force compaction
    /// regardless.
    pub compact_delta_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(1, 8),
            queue_capacity: 64,
            query_timeout: Duration::from_secs(30),
            cache_capacity: 128,
            tau: 256,
            adaptive_tau: true,
            oracle_resident_max: 128,
            oracle_max_sources: 64,
            resilience: ResilienceConfig::default(),
            faults: FaultPlan::default(),
            default_deadline: None,
            memory_budget: None,
            compact_delta_bytes: 1 << 20,
        }
    }
}

/// One flight's job. A keyed flight has no `batch`; an oracle-column
/// flight carries the multi-source batch it computes (still boarding
/// until the worker seals it), and `key` is its leader's column key. The
/// fallback lane carries keyed jobs only — a degraded oracle query is a
/// per-column job like any other.
struct Job {
    key: ComputeKey,
    /// The snapshot the flight computes against, pinned at lookup.
    entry: Arc<GraphEntry>,
    flight: Arc<Flight>,
    batch: Option<Arc<OracleBatch>>,
    /// Admission estimate charged to the debt ledger; the worker settles
    /// exactly this amount on every completion path.
    cost: Duration,
}

/// What the primary queue carries.
enum Work {
    Flight(Job),
    /// Fold the named graph's mutation overlay into a fresh CSR. Guarded
    /// by `(generation, epoch)`: if either moved by the time the job
    /// runs (re-registration, another batch), the compaction is stale
    /// and publishes nothing — the current snapshot keeps serving.
    Compact {
        name: String,
        generation: u64,
        epoch: u64,
    },
}

struct Inner {
    catalog: Catalog,
    cache: Mutex<ResultCache>,
    batcher: Batcher,
    /// Single-flight registry of the degraded lane, separate from the
    /// primary one so a degraded flight never masks (or is masked by) a
    /// parallel flight for the same key.
    degraded_batcher: Batcher,
    /// Collector of multi-source oracle batches (one boarding batch per
    /// graph snapshot); distinct sources board until a worker seals it.
    oracle_batcher: OracleBatcher,
    breakers: BreakerRegistry,
    metrics: Metrics,
    /// Flight-cost estimator and queue-debt ledger behind cost-aware
    /// admission.
    cost: CostModel,
    /// Normal→Pressured→Brownout posture from queue debt and workspace
    /// memory; re-evaluated once per query.
    brownout: BrownoutController,
    faults: FaultInjector,
    /// Per-graph mutation serialization: one batch (and its cache
    /// revalidation) at a time per name, so epochs within a generation
    /// are a contiguous total order. Lock order is mutation lock →
    /// cache → catalog; never the reverse.
    mutation_locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    /// Cleared when shutdown drain begins; reported by `health`.
    ready: AtomicBool,
    /// Recycled traversal workspaces — one in flight per busy worker, so
    /// a warm worker runs its traversal without touching the allocator.
    workspaces: WorkspacePool,
    config: ServiceConfig,
}

/// The concurrent graph query service. Cheap to share (`Arc<Service>`);
/// [`Service::query`] may be called from any number of threads.
pub struct Service {
    inner: Arc<Inner>,
    queue: SyncSender<Work>,
    /// Bounded queue of the degraded lane's single fallback worker.
    fallback_queue: SyncSender<Job>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    pub fn new(config: ServiceConfig) -> Self {
        let inner = Arc::new(Inner {
            catalog: Catalog::new(),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            batcher: Batcher::new(),
            degraded_batcher: Batcher::new(),
            oracle_batcher: OracleBatcher::new(config.oracle_max_sources),
            breakers: BreakerRegistry::new(&config.resilience),
            metrics: Metrics::new(),
            cost: CostModel::new(config.workers.max(1)),
            brownout: BrownoutController::new(config.memory_budget),
            faults: FaultInjector::new(config.faults.clone()),
            mutation_locks: Mutex::new(HashMap::new()),
            ready: AtomicBool::new(true),
            workspaces: WorkspacePool::new(),
            config: config.clone(),
        });
        let (tx, rx) = std::sync::mpsc::sync_channel::<Work>(config.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("pasgal-worker-{i}"))
                    .spawn(move || worker_loop(inner, rx))
                    .expect("spawn worker thread")
            })
            .collect();
        let (fb_tx, fb_rx) = std::sync::mpsc::sync_channel::<Job>(config.queue_capacity.max(1));
        {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name("pasgal-fallback".into())
                    .spawn(move || fallback_worker_loop(inner, fb_rx))
                    .expect("spawn fallback worker thread"),
            );
        }
        Self {
            inner,
            queue: tx,
            fallback_queue: fb_tx,
            workers: Mutex::new(workers),
        }
    }

    /// Register (or replace) a graph. Replacement mints a new generation
    /// and drops every cached result — and every breaker — of the old one.
    pub fn register(&self, name: &str, graph: impl Into<GraphStore>) -> Arc<GraphEntry> {
        let old = self.inner.catalog.get(name).map(|e| e.generation);
        let entry = self.inner.catalog.register(name, graph);
        if let Some(generation) = old {
            self.invalidate(generation);
        }
        entry
    }

    /// Remove a graph and its cached results and breaker state.
    pub fn unregister(&self, name: &str) -> bool {
        let old = self.inner.catalog.get(name).map(|e| e.generation);
        let existed = self.inner.catalog.unregister(name);
        if let Some(generation) = old {
            self.invalidate(generation);
        }
        existed
    }

    fn invalidate(&self, generation: u64) {
        // no survivors: the epoch stamps nothing
        self.inner
            .cache
            .lock()
            .expect("cache lock poisoned")
            .restamp_generation(generation, 0, HashMap::new());
        self.inner.breakers.invalidate_generation(generation);
    }

    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Non-closed breakers as `(key description, state)` pairs (tests,
    /// diagnostics; the `health` query reports the same).
    pub fn breaker_states(&self) -> Vec<(String, &'static str)> {
        self.inner.breakers.snapshot()
    }

    /// Live primary-cache entries (distance arrays + labelings).
    pub fn cache_entries(&self) -> usize {
        self.inner.cache.lock().expect("cache lock poisoned").len()
    }

    /// Answer one query (blocking, callable concurrently).
    pub fn query(&self, q: &Query) -> Result<Reply, ServiceError> {
        self.query_full(q, &CancelToken::new(), QueryMode::Normal)
            .map(|a| a.reply)
    }

    /// Answer one query under a caller-supplied [`CancelToken`].
    pub fn query_with_token(&self, q: &Query, cancel: &CancelToken) -> Result<Reply, ServiceError> {
        self.query_full(q, cancel, QueryMode::Normal)
            .map(|a| a.reply)
    }

    /// Answer one query under a caller-supplied [`CancelToken`] and
    /// [`QueryMode`] — the server ties the token to the client connection
    /// so a disconnect (or shutdown) turns the query into
    /// [`ServiceError::Cancelled`] instead of leaving it to ride out the
    /// full timeout, and passes `"mode":"degraded"` through as
    /// [`QueryMode::Degraded`].
    ///
    /// Every submitted query lands in exactly one terminal metrics bucket
    /// (`completed`/`timeouts`/`cancelled`/`rejected_overload`/`errors`/
    /// `degraded`/`deadline_exceeded`/`shed`);
    /// [`MetricsSnapshot::reconciles`](crate::metrics::MetricsSnapshot::reconciles)
    /// checks the sum, and `oracle` queries additionally feed the
    /// served/unserved identity
    /// ([`MetricsSnapshot::oracle_reconciles`](crate::metrics::MetricsSnapshot::oracle_reconciles)).
    /// Overload is counted here — once per query, however many attempts
    /// it made — not at the rejection site.
    ///
    /// A caller token without a deadline inherits the configured
    /// `default_deadline` (if any) via a child token, so every downstream
    /// layer — admission, flight wait, the traversal's round loop — sees
    /// one uniform deadline mechanism.
    pub fn query_full(
        &self,
        q: &Query,
        cancel: &CancelToken,
        mode: QueryMode,
    ) -> Result<Answer, ServiceError> {
        let start = Instant::now();
        self.inner.metrics.query();
        let is_oracle = matches!(q, Query::Oracle { .. });
        if is_oracle {
            self.inner.metrics.oracle_query();
        }
        let bounded;
        let cancel = match self.inner.config.default_deadline {
            Some(d) if cancel.earliest_deadline().is_none() => {
                bounded = cancel.child(Some(Instant::now() + d));
                &bounded
            }
            _ => cancel,
        };
        self.reassess_pressure();
        let out = self.dispatch(q, cancel, mode);
        self.inner.metrics.latency(start.elapsed());
        match &out {
            Ok(a) if a.degraded => self.inner.metrics.degraded(),
            Ok(_) => self.inner.metrics.completed(),
            Err(ServiceError::Timeout) => self.inner.metrics.timeout(),
            Err(ServiceError::Cancelled) => self.inner.metrics.cancelled(),
            Err(ServiceError::Overloaded) => self.inner.metrics.rejected_overload(),
            Err(ServiceError::DeadlineExceeded) => self.inner.metrics.deadline_exceeded(),
            Err(ServiceError::Shed) => self.inner.metrics.shed(),
            Err(_) => self.inner.metrics.error(),
        }
        if is_oracle {
            match &out {
                Ok(_) => self.inner.metrics.oracle_served(),
                Err(_) => self.inner.metrics.oracle_unserved(),
            }
        }
        out
    }

    /// Re-evaluate the brownout posture from current queue debt and
    /// workspace memory, publish the gauge, and apply the width effect:
    /// Pressured and Brownout halve the seats future oracle boarding may
    /// take (already-boarded batches keep theirs).
    fn reassess_pressure(&self) {
        let inner = &self.inner;
        let graph_bytes = inner.catalog.resident_bytes() as u64;
        inner.metrics.set_graph_resident_bytes(graph_bytes);
        let state = inner.brownout.evaluate(
            inner.cost.debt(),
            self.ceiling(),
            inner.workspaces.resident_bytes() as u64 + graph_bytes,
        );
        inner.metrics.set_brownout_state(state.as_gauge());
        let full = inner.config.oracle_max_sources.clamp(1, MAX_SOURCES);
        inner.oracle_batcher.set_width_cap(match state {
            Pressure::Normal => full,
            Pressure::Pressured | Pressure::Brownout => full.div_ceil(2),
        });
    }

    /// Saturation ceiling for the debt ledger: past `query_timeout` per
    /// worker of queued work, even deadline-less requests cannot be served
    /// within the server's own budget.
    fn ceiling(&self) -> Duration {
        self.inner.config.query_timeout * self.inner.config.workers.clamp(1, 4096) as u32
    }

    /// Current brownout posture (tests, benches, diagnostics).
    pub fn pressure(&self) -> Pressure {
        self.inner.brownout.state()
    }

    /// Current queue debt: estimated runtime of admitted, unsettled work.
    pub fn queue_debt(&self) -> Duration {
        self.inner.cost.debt()
    }

    /// Price one flight: algorithm class from its key (all-pairs priced
    /// at the graph's real source count), graph size, and the observed
    /// rounds history.
    fn estimate_cost(&self, key: &ComputeKey, entry: &GraphEntry) -> Duration {
        let class = match key {
            ComputeKey::OracleAllPairs { .. } => CostClass::OracleAllPairs {
                sources: entry.graph.num_vertices() as u64,
            },
            _ => CostClass::of(key),
        };
        let snap = self.inner.metrics.snapshot();
        self.inner.cost.estimate(
            class,
            entry.graph.num_vertices(),
            entry.graph.num_edges(),
            snap.rounds_p50(),
            snap.rounds_p99(),
        )
    }

    fn cache_has(&self, key: &ComputeKey, epoch: u64) -> bool {
        self.inner
            .cache
            .lock()
            .expect("cache lock poisoned")
            .get(key, epoch)
            .is_some()
    }

    /// Fire the token of every in-flight computation (shutdown drain):
    /// workers abort their traversals and publish cancellation outcomes,
    /// unblocking every waiting query within one poll slice. Also marks
    /// the service not ready (reported by `health`).
    pub fn cancel_inflight(&self) {
        self.inner.ready.store(false, Ordering::SeqCst);
        self.inner.batcher.cancel_all();
        self.inner.degraded_batcher.cancel_all();
        self.inner.oracle_batcher.cancel_all();
    }

    fn dispatch(
        &self,
        q: &Query,
        cancel: &CancelToken,
        mode: QueryMode,
    ) -> Result<Answer, ServiceError> {
        match q {
            Query::Health => {
                let snap = self.inner.metrics.snapshot();
                Ok(Answer::primary(Reply::Health {
                    ready: self.inner.ready.load(Ordering::SeqCst),
                    workers: self.inner.config.workers.max(1),
                    workers_busy: snap.workers_busy,
                    graphs: self.inner.catalog.list().len(),
                    breakers: self
                        .inner
                        .breakers
                        .snapshot()
                        .into_iter()
                        .map(|(k, s)| (k, s.to_string()))
                        .collect(),
                    storage: self
                        .inner
                        .catalog
                        .storage_report()
                        .into_iter()
                        .map(|(name, kind, bytes)| (name, kind.as_str().to_string(), bytes))
                        .collect(),
                }))
            }
            Query::Stats { graph } => {
                let entry = self.lookup(graph)?;
                let g = &*entry.graph;
                let d = with_storage!(g, g, degree_stats(g));
                Ok(Answer::primary(Reply::Stats {
                    n: g.num_vertices(),
                    m: g.num_edges(),
                    weighted: g.is_weighted(),
                    symmetric: g.is_symmetric(),
                    min_degree: d.min,
                    avg_degree: d.avg,
                    max_degree: d.max,
                }))
            }
            Query::Mutate {
                graph,
                ops,
                compact,
            } => self.mutate(graph, ops, *compact),
            _ => self.serve(q, cancel, mode),
        }
    }

    /// Apply one mutation batch: serialized per graph, atomic per batch
    /// (the batch lands on a clone of the overlay, so a panic mid-apply
    /// publishes nothing), and epoch-stamped. Before it publishes, every
    /// cached result of the generation is kept if the batch provably
    /// cannot change it, repaired if it can be, dropped otherwise; one
    /// critical section restamps the survivors, drops the rest, and
    /// publishes. Brownout sheds mutations before any work; `Pressured`
    /// forces compaction after the batch.
    fn mutate(
        &self,
        name: &str,
        ops: &[Mutation],
        force_compact: bool,
    ) -> Result<Answer, ServiceError> {
        let lock = self.inner.mutation_lock(name);
        let _guard = lock.lock().expect("mutation lock poisoned");
        let entry = self.lookup(name)?;
        // the shed-or-apply decision point: `mutate_queries` counts
        // decided batches, so shed + applied reconciles exactly
        // (validation failures and injected panics land in `errors`)
        let pressure = self.inner.brownout.state();
        if pressure == Pressure::Brownout {
            self.inner.metrics.mutate_query();
            self.inner.metrics.mutation_shed();
            return Err(ServiceError::Shed);
        }
        // The batch lands on a clone: the clone copies only the delta
        // (the base CSR stays shared behind its Arc), and a panic or
        // validation error discards it with the published snapshot
        // untouched — atomicity by construction.
        let mut overlay = match &*entry.graph {
            GraphStore::Overlay(o) => o.clone(),
            _ => DeltaOverlay::new(Arc::clone(&entry.graph)),
        };
        let faults = &self.inner.faults;
        let applied = catch_unwind(AssertUnwindSafe(|| {
            if faults.should_panic_mutation() {
                panic!("injected mutation panic");
            }
            overlay.apply(ops)
        }));
        let applied = match applied {
            Ok(Ok(batch)) => batch,
            Ok(Err(bad)) => {
                let n = entry.graph.num_vertices();
                return Err(ServiceError::BadRequest(format!(
                    "ops[{}]: vertex {} out of range (n = {n})",
                    bad.index, bad.vertex
                )));
            }
            Err(payload) => return Err(ServiceError::Internal(panic_message(payload))),
        };
        self.inner.metrics.mutate_query();
        self.inner
            .metrics
            .mutation_batch(applied.changed_ops as u64);
        let mut compact_after = None;
        let new_entry = if applied.is_noop() {
            Arc::clone(&entry)
        } else {
            let epoch = entry.epoch + 1;
            let delta_bytes = overlay.delta_bytes();
            let store = GraphStore::Overlay(overlay);
            // `cached` outlives the critical section: no value is freed in it
            let cached = self
                .inner
                .cache
                .lock()
                .expect("cache lock poisoned")
                .generation_slots(entry.generation);
            let out = crate::mutate::revalidate(&cached, &applied, &store);
            self.inner
                .metrics
                .cache_revalidated(out.survivors.len() as u64);
            self.inner.metrics.cache_dropped(out.dropped);
            let mut cache = self.inner.cache.lock().expect("cache lock poisoned");
            let published = self
                .inner
                .catalog
                .publish(name, store, entry.generation, epoch)
                // a concurrent re-registration won the name; its
                // generation bump already invalidated everything this
                // batch could have staled
                .ok_or_else(|| ServiceError::UnknownGraph(name.to_string()))?;
            cache.restamp_generation(entry.generation, epoch, out.survivors);
            drop(cache);
            if force_compact
                || delta_bytes >= self.inner.config.compact_delta_bytes
                || pressure == Pressure::Pressured
            {
                compact_after = Some((published.generation, published.epoch));
            }
            published
        };
        // release the mutation lock before scheduling: the inline
        // fallback inside `schedule_compaction` re-takes it
        drop(_guard);
        if let Some((generation, epoch)) = compact_after {
            self.schedule_compaction(name, generation, epoch);
        }
        Ok(Answer::primary(Reply::Mutated {
            epoch: new_entry.epoch,
            applied: applied.changed_ops,
            n: new_entry.graph.num_vertices(),
            m: new_entry.graph.num_edges(),
        }))
    }

    /// Hand compaction to the worker pool; if the queue is full, run it
    /// inline so a `"compact":true` request still compacts under load.
    /// Inline is safe here: `run_compaction` takes the mutation lock
    /// itself, so the caller must not hold it.
    fn schedule_compaction(&self, name: &str, generation: u64, epoch: u64) {
        let work = Work::Compact {
            name: name.to_string(),
            generation,
            epoch,
        };
        if self.queue.try_send(work).is_err() {
            run_compaction(&self.inner, name, generation, epoch);
        }
    }

    fn lookup(&self, name: &str) -> Result<Arc<GraphEntry>, ServiceError> {
        self.inner
            .catalog
            .get(name)
            .ok_or_else(|| ServiceError::UnknownGraph(name.to_string()))
    }

    /// A flight query end to end, with bounded retry around the whole
    /// request. Every attempt — the first, and each retry after its
    /// backoff — re-plans from the graph name, so a retry sees a
    /// re-registered or mutated graph exactly as a fresh request would:
    /// out-of-range vertices are refused, and the oracle path is chosen
    /// again.
    fn serve(
        &self,
        q: &Query,
        cancel: &CancelToken,
        mode: QueryMode,
    ) -> Result<Answer, ServiceError> {
        let resilience = &self.inner.config.resilience;
        let mut retries_left = resilience.max_retries;
        let mut backoff = None;
        loop {
            let (key, entry) = self.plan(q)?;
            // An already-dead query must not schedule (or join) a flight.
            if cancel.is_cancelled() {
                return Err(cancel_kind(cancel));
            }
            let (waited, degraded) = self.obtain(key, &entry, cancel, mode);
            match waited {
                Ok(FlightOutcome::Value(v)) => {
                    self.inner.metrics.rounds(v.rounds());
                    let reply = reply_from(q, &entry, &v)?;
                    return Ok(Answer { reply, degraded });
                }
                // the degraded lane is the path of last resort: no retries
                Ok(outcome) if !degraded && outcome.retryable() && retries_left > 0 => {}
                other => return Err(flight_error(other)),
            }
            retries_left -= 1;
            self.inner.metrics.retry();
            let backoff = backoff.get_or_insert_with(|| Backoff::new(resilience, seed_for(&key)));
            if !sleep_cancellable(backoff.next_delay(), cancel) {
                return Err(ServiceError::Cancelled);
            }
        }
    }

    /// Resolve a flight query against the snapshot its graph name points
    /// to now: vertex checks, the symmetric-pair fold, and the compute
    /// key. The returned entry pins the `(generation, epoch)` the query
    /// answers at.
    fn plan(&self, q: &Query) -> Result<(ComputeKey, Arc<GraphEntry>), ServiceError> {
        let entry = self.lookup(q.graph().unwrap_or_default())?;
        let check = |vertices: &[Option<u32>]| {
            vertices
                .iter()
                .flatten()
                .try_for_each(|&v| check_vertex(&entry, v))
        };
        let generation = entry.generation;
        let key = match *q {
            Query::BfsDist { src, target, .. } => {
                check(&[Some(src), target])?;
                ComputeKey::HopDists { generation, src }
            }
            Query::SsspDist { src, target, .. } => {
                check(&[Some(src), target])?;
                ComputeKey::Dists { generation, src }
            }
            Query::Ptp { src, dst, .. } => {
                check(&[Some(src), Some(dst)])?;
                // On a symmetric graph d(s,t) = d(t,s), so both directions
                // canonicalize to one key: `s→t` and `t→s` coalesce into
                // one flight and one cached distance array.
                let (src, _) = canonical_pair(&entry, src, Some(dst));
                ComputeKey::Dists { generation, src }
            }
            Query::Oracle { src, dst, .. } => {
                check(&[Some(src), dst])?;
                let (src, _) = canonical_pair(&entry, src, dst);
                // Small graphs get a resident all-pairs oracle: every
                // query on the graph shares ONE key, so the existing
                // single-flight/retry/breaker/degraded machinery serves
                // maximal coalescing for free. Larger graphs take the
                // per-column path where distinct sources board one
                // multi-source flight. Under pressure, *new* all-pairs
                // promotion stops (it is the most memory- and time-hungry
                // flight the service runs) but an oracle already in cache
                // keeps serving through its key.
                let all_pairs = ComputeKey::OracleAllPairs { generation };
                let resident = entry.graph.num_vertices()
                    <= self.inner.config.oracle_resident_max.min(MAX_SOURCES);
                if resident
                    && (self.inner.brownout.state() == Pressure::Normal
                        || self.cache_has(&all_pairs, entry.epoch))
                {
                    all_pairs
                } else {
                    ComputeKey::OracleColumn { generation, src }
                }
            }
            Query::SccId { vertex, .. } => {
                check(&[vertex])?;
                ComputeKey::SccLabels { generation }
            }
            Query::CcId { vertex, .. } => {
                check(&[vertex])?;
                ComputeKey::CcLabels { generation }
            }
            Query::KCore { vertex, .. } => {
                check(&[vertex])?;
                ComputeKey::Coreness { generation }
            }
            Query::Health | Query::Stats { .. } | Query::Mutate { .. } => {
                unreachable!("answered without a flight")
            }
        };
        Ok((key, entry))
    }

    /// Cache → breaker → one flight. The flight runs on the primary lane,
    /// or on the degraded lane when the caller asks for it, brownout
    /// reroutes the key, or its breaker is open. Returns what the waiter
    /// saw, plus whether the degraded lane produced it.
    fn obtain(
        &self,
        key: ComputeKey,
        entry: &Arc<GraphEntry>,
        cancel: &CancelToken,
        mode: QueryMode,
    ) -> (Result<FlightOutcome, WaitAbort>, bool) {
        if mode == QueryMode::Degraded {
            return (self.obtain_degraded(key, entry, cancel), true);
        }
        // Cache before breaker: a hit is a hit even for a poisoned key,
        // and a successful probe's result serves later queries from here
        // without consulting the breaker again.
        if !self.inner.faults.should_force_cache_miss() {
            if let Some(v) = self
                .inner
                .cache
                .lock()
                .expect("cache lock poisoned")
                .get(&key, entry.epoch)
            {
                self.inner.metrics.cache_hit();
                if matches!(v, ComputeValue::Oracle { .. }) {
                    // answered by lookup in a resident oracle
                    self.inner.metrics.oracle_hit();
                }
                return (Ok(FlightOutcome::Value(v)), false);
            }
        }
        self.inner.metrics.cache_miss();
        // Brownout reroutes eligible keys (the oracle family and plain
        // BFS — queries the sequential lane answers bit-identically at
        // tolerable cost) straight to the fallback worker, shedding
        // parallel-lane load without touching correctness. Breaker
        // degradation composes with it unchanged.
        let browned_out =
            self.inner.brownout.state() == Pressure::Brownout && brownout_eligible(&key);
        if browned_out || self.inner.breakers.admit(&key) == Admission::Degrade {
            return (self.obtain_degraded(key, entry, cancel), true);
        }
        // Probe admission needs no special handling here: the probed
        // flight's outcome drives the breaker from the worker side.
        (self.attempt(key, entry, cancel), false)
    }

    /// Join (or lead) the primary-lane flight for `key` at the entry's
    /// epoch and wait on it. Oracle columns board the snapshot's
    /// multi-source batch, each adding its distinct source; every other
    /// key joins the keyed flight. The joiner's end-to-end deadline is
    /// stamped onto the flight.
    fn attempt(
        &self,
        key: ComputeKey,
        entry: &Arc<GraphEntry>,
        cancel: &CancelToken,
    ) -> Result<FlightOutcome, WaitAbort> {
        let deadline = cancel.earliest_deadline();
        let (flight, batch, leads) = match key {
            ComputeKey::OracleColumn { generation, src } => match self
                .inner
                .oracle_batcher
                .join_with_deadline((generation, entry.epoch), src, deadline)
            {
                OracleJoin::Leader(batch) => (Arc::clone(batch.flight()), Some(batch), true),
                OracleJoin::Follower(batch) => (Arc::clone(batch.flight()), None, false),
            },
            _ => match self
                .inner
                .batcher
                .join_with_deadline((key, entry.epoch), deadline)
            {
                Join::Leader(flight) => (flight, None, true),
                Join::Follower(flight) => (flight, None, false),
            },
        };
        if leads {
            let job = Job {
                key,
                entry: Arc::clone(entry),
                flight: Arc::clone(&flight),
                batch,
                cost: Duration::ZERO,
            };
            if let Err(outcome) = self.lead(job, deadline) {
                return Ok(outcome);
            }
        }
        flight.wait_cancellable(self.inner.config.query_timeout, cancel)
    }

    /// The leader's half of a flight: cost-aware admission, then the
    /// bounded queue. If the estimated debt ahead of the flight already
    /// makes its deadline (or the saturation ceiling) infeasible, it is
    /// shed now — newest-first by construction — instead of timing out
    /// inside the queue. A flight whose job never reaches a worker is
    /// completed here with the returned outcome.
    fn lead(&self, mut job: Job, deadline: Option<Instant>) -> Result<(), FlightOutcome> {
        let inner = &self.inner;
        let outcome = if inner.faults.should_force_queue_full() {
            FlightOutcome::Overloaded
        } else {
            job.cost = self.estimate_cost(&job.key, &job.entry);
            let budget = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if inner.cost.admit(job.cost, budget, self.ceiling()) == AdmitDecision::Shed {
                FlightOutcome::Shed
            } else {
                // Charge strictly before the job becomes visible to a
                // worker: the worker's settle must never race ahead of
                // the charge, or the estimate leaks into the ledger.
                inner.cost.charge(job.cost);
                let (outcome, work) = match self.queue.try_send(Work::Flight(job)) {
                    Ok(()) => return Ok(()),
                    Err(TrySendError::Full(w)) => (FlightOutcome::Overloaded, w),
                    Err(TrySendError::Disconnected(w)) => (FlightOutcome::Cancelled, w),
                };
                let Work::Flight(returned) = work else {
                    unreachable!("flight job returned as sent")
                };
                job = returned;
                // refund: the job never reached a worker
                inner.cost.settle(job.cost, Duration::ZERO);
                outcome
            }
        };
        // No breaker evidence either way — but a half-open probe latch
        // must be released or the key would degrade forever.
        inner.breakers.on_inconclusive(&job.key);
        inner.publish(&job, outcome.clone(), |_| {});
        Err(outcome)
    }

    /// The degraded lane: sequential algorithm on the fallback worker,
    /// its own batcher, no primary-cache writes, no retries (it is the
    /// path of last resort), no fault injection.
    fn obtain_degraded(
        &self,
        key: ComputeKey,
        entry: &Arc<GraphEntry>,
        cancel: &CancelToken,
    ) -> Result<FlightOutcome, WaitAbort> {
        let flight = match self.inner.degraded_batcher.join((key, entry.epoch)) {
            Join::Leader(flight) => {
                let job = Job {
                    key,
                    entry: Arc::clone(entry),
                    flight: Arc::clone(&flight),
                    batch: None,
                    // the fallback lane bypasses cost admission, so there
                    // is no charge to settle
                    cost: Duration::ZERO,
                };
                if let Err(e) = self.fallback_queue.try_send(job) {
                    let (outcome, job) = match e {
                        TrySendError::Full(job) => (FlightOutcome::Overloaded, job),
                        TrySendError::Disconnected(job) => (FlightOutcome::Cancelled, job),
                    };
                    self.inner.degraded_batcher.complete(
                        &(key, entry.epoch),
                        &job.flight,
                        outcome.clone(),
                        |_| {},
                    );
                    return Ok(outcome);
                }
                flight
            }
            Join::Follower(flight) => flight,
        };
        flight.wait_cancellable(self.inner.config.query_timeout, cancel)
    }
}

impl Inner {
    /// The per-graph mutation lock, created on first use. The map only
    /// ever grows, but entries are a name plus an `Arc<Mutex<()>>` —
    /// negligible next to the graph itself.
    fn mutation_lock(&self, name: &str) -> Arc<Mutex<()>> {
        Arc::clone(
            self.mutation_locks
                .lock()
                .expect("mutation-locks lock poisoned")
                .entry(name.to_string())
                .or_default(),
        )
    }

    /// Publish a primary-lane flight's outcome through the registry it
    /// was joined on.
    fn publish(&self, job: &Job, outcome: FlightOutcome, on_complete: impl FnOnce(u64)) {
        match &job.batch {
            Some(batch) => self.oracle_batcher.complete(batch, outcome, on_complete),
            None => self.batcher.complete(
                &(job.key, job.entry.epoch),
                &job.flight,
                outcome,
                on_complete,
            ),
        };
    }
}

/// The request's error for a flight that produced no value: one mapping
/// for both lanes.
fn flight_error(waited: Result<FlightOutcome, WaitAbort>) -> ServiceError {
    match waited {
        Err(WaitAbort::Timeout) => ServiceError::Timeout,
        Err(WaitAbort::Cancelled) | Ok(FlightOutcome::Cancelled) => ServiceError::Cancelled,
        Err(WaitAbort::DeadlineExceeded) | Ok(FlightOutcome::DeadlineExceeded) => {
            ServiceError::DeadlineExceeded
        }
        Ok(FlightOutcome::Overloaded) => ServiceError::Overloaded,
        Ok(FlightOutcome::Shed) => ServiceError::Shed,
        Ok(FlightOutcome::Failed(msg)) => ServiceError::Internal(msg),
        Ok(FlightOutcome::Value(_)) => unreachable!("a value answers the query"),
    }
}

/// Classify a fired caller token: an explicit cancel (disconnect,
/// shutdown) wins; otherwise the only way it fired is a deadline in its
/// chain.
fn cancel_kind(cancel: &CancelToken) -> ServiceError {
    if cancel.cancel_requested() {
        ServiceError::Cancelled
    } else {
        ServiceError::DeadlineExceeded
    }
}

/// Keys the brownout controller may reroute to the sequential lane: the
/// oracle family (pausing oracle batching and promotion entirely) and
/// plain BFS — work the fallback lane answers bit-identically at
/// tolerable sequential cost. Weighted SSSP, SCC, CC, and k-core stay on
/// the parallel lane: their sequential costs are the ones brownout exists
/// to avoid paying blind.
fn brownout_eligible(key: &ComputeKey) -> bool {
    matches!(
        key,
        ComputeKey::OracleColumn { .. }
            | ComputeKey::OracleAllPairs { .. }
            | ComputeKey::HopDists { .. }
    )
}

impl Drop for Service {
    fn drop(&mut self) {
        // Abort in-flight traversals so workers notice the closed queue
        // promptly instead of finishing answers nobody will read.
        self.cancel_inflight();
        // Closing the queues ends every worker's recv loop; swap in
        // zero-capacity stand-ins so the senders can be dropped here.
        let (dead, _) = std::sync::mpsc::sync_channel(1);
        drop(std::mem::replace(&mut self.queue, dead));
        let (dead, _) = std::sync::mpsc::sync_channel(1);
        drop(std::mem::replace(&mut self.fallback_queue, dead));
        for h in self
            .workers
            .lock()
            .expect("workers lock poisoned")
            .drain(..)
        {
            let _ = h.join();
        }
    }
}

/// Jitter seed for a query's backoff: key-dependent so concurrent
/// retriers of different keys decorrelate even within one millisecond.
fn seed_for(key: &ComputeKey) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    std::thread::current().id().hash(&mut h);
    h.finish()
}

/// Sleep `delay` in small slices, returning `false` if `cancel` fired.
fn sleep_cancellable(delay: Duration, cancel: &CancelToken) -> bool {
    let deadline = Instant::now() + delay;
    loop {
        if cancel.is_cancelled() {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(5)));
    }
}

/// The published entry of `name` if it is still at `(generation, epoch)`
/// — the one currency check of flights and compaction. Compaction
/// republishes at the same epoch, so a compacted graph does not
/// invalidate values computed against the overlay: the content is equal.
fn current_entry(inner: &Inner, name: &str, at: (u64, u64)) -> Option<Arc<GraphEntry>> {
    inner
        .catalog
        .get(name)
        .filter(|c| (c.generation, c.epoch) == at)
}

fn check_vertex(entry: &Arc<GraphEntry>, v: u32) -> Result<(), ServiceError> {
    let n = entry.graph.num_vertices();
    if (v as usize) < n {
        Ok(())
    } else {
        Err(ServiceError::VertexOutOfRange { vertex: v, n })
    }
}

/// Fold a (source, optional target) pair to canonical order on symmetric
/// graphs, where `d(s,t) = d(t,s)`: both directions then share one
/// compute key, one cache entry, and one flight. Directed graphs pass
/// through unchanged.
fn canonical_pair(entry: &GraphEntry, src: u32, dst: Option<u32>) -> (u32, Option<u32>) {
    match dst {
        Some(d) if entry.graph.is_symmetric() && d < src => (d, Some(src)),
        _ => (src, dst),
    }
}

/// Read a flight query's answer out of the value its flight (or the
/// cache) produced for the key [`Service::plan`] chose.
fn reply_from(q: &Query, entry: &GraphEntry, value: &ComputeValue) -> Result<Reply, ServiceError> {
    Ok(match (q, value) {
        (Query::BfsDist { target, .. }, ComputeValue::HopDists { dist, .. }) => {
            hop_reply(dist, *target)
        }
        (Query::SsspDist { target, .. }, ComputeValue::Dists { dist, .. }) => {
            weight_reply(dist, *target)
        }
        (Query::Ptp { src, dst, .. }, ComputeValue::Dists { dist, .. }) => {
            weight_reply(dist, canonical_pair(entry, *src, Some(*dst)).1)
        }
        (Query::Oracle { src, dst, .. }, ComputeValue::Oracle { oracle, .. }) => {
            let (src, dst) = canonical_pair(entry, *src, *dst);
            oracle_reply(oracle, src, dst)?
        }
        (
            Query::SccId { vertex, .. } | Query::CcId { vertex, .. },
            ComputeValue::Labels { labels, count, .. },
        ) => match *vertex {
            Some(v) => Reply::Label {
                vertex: v,
                label: labels[v as usize],
                components: *count,
            },
            None => Reply::LabelSummary { components: *count },
        },
        (
            Query::KCore { vertex, .. },
            ComputeValue::Coreness {
                coreness,
                degeneracy,
                ..
            },
        ) => match *vertex {
            Some(v) => Reply::Coreness {
                vertex: v,
                coreness: coreness[v as usize],
                degeneracy: *degeneracy,
            },
            None => Reply::CorenessSummary {
                degeneracy: *degeneracy,
            },
        },
        _ => return Err(ServiceError::Internal("wrong result kind".into())),
    })
}

/// Answer an oracle query by lookup: the PTP distance when `dst` is
/// given, the reachability summary of `src`'s column otherwise.
fn oracle_reply(
    oracle: &DistanceOracle,
    src: u32,
    dst: Option<u32>,
) -> Result<Reply, ServiceError> {
    let col = oracle
        .column(src)
        .ok_or_else(|| ServiceError::Internal(format!("oracle missing column for source {src}")))?;
    Ok(hop_reply(col, dst))
}

fn hop_reply(dist: &[u32], target: Option<u32>) -> Reply {
    match target {
        Some(t) => Reply::Dist {
            value: match dist[t as usize] {
                UNREACHED => None,
                d => Some(d as u64),
            },
        },
        None => {
            let mut reached = 0usize;
            let mut max = 0u64;
            for &d in dist {
                if d != UNREACHED {
                    reached += 1;
                    max = max.max(d as u64);
                }
            }
            Reply::DistSummary { reached, max }
        }
    }
}

fn weight_reply(dist: &[u64], target: Option<u32>) -> Reply {
    match target {
        Some(t) => Reply::Dist {
            value: match dist[t as usize] {
                u64::MAX => None,
                d => Some(d),
            },
        },
        None => {
            let mut reached = 0usize;
            let mut max = 0u64;
            for &d in dist {
                if d != u64::MAX {
                    reached += 1;
                    max = max.max(d);
                }
            }
            Reply::DistSummary { reached, max }
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "computation panicked".to_string()
    }
}

fn worker_loop(inner: Arc<Inner>, rx: Arc<Mutex<Receiver<Work>>>) {
    loop {
        let work = {
            let guard = rx.lock().expect("queue lock poisoned");
            match guard.recv() {
                Ok(work) => work,
                Err(_) => return, // service dropped
            }
        };
        match work {
            Work::Flight(job) => run_flight(&inner, job),
            Work::Compact {
                name,
                generation,
                epoch,
            } => run_compaction(&inner, &name, generation, epoch),
        }
    }
}

/// Fold the named graph's overlay into a fresh plain CSR and republish
/// it at the **same** epoch (compaction changes representation, not
/// content). Crash-consistent: the fold runs on a clone of the overlay
/// under `catch_unwind`, and the republish is guarded by the mutation
/// lock plus a `(generation, epoch)` re-check — a panic mid-fold, a
/// concurrent batch, or a re-registration all leave the currently
/// published snapshot serving untouched.
fn run_compaction(inner: &Inner, name: &str, generation: u64, epoch: u64) {
    let Some(entry) = current_entry(inner, name, (generation, epoch)) else {
        return; // stale before it started: nothing attempted, nothing counted
    };
    let GraphStore::Overlay(overlay) = &*entry.graph else {
        return; // already compact
    };
    inner.metrics.worker_busy();
    let overlay = overlay.clone();
    let folded = catch_unwind(AssertUnwindSafe(|| {
        if inner.faults.should_panic_compaction() {
            panic!("injected compaction panic");
        }
        overlay.compact()
    }));
    match folded {
        Ok(graph) => {
            let lock = inner.mutation_lock(name);
            let _guard = lock.lock().expect("mutation lock poisoned");
            if current_entry(inner, name, (generation, epoch)).is_some()
                && inner
                    .catalog
                    .publish(name, GraphStore::Plain(graph), generation, epoch)
                    .is_some()
            {
                inner.metrics.compaction();
            } else {
                // a batch or re-registration landed mid-fold: the folded
                // CSR no longer matches the published content — discard
                inner.metrics.compaction_failed();
            }
        }
        Err(_) => inner.metrics.compaction_failed(),
    }
    inner.metrics.worker_idle();
}

/// Execute one flight: a keyed computation, or a multi-source oracle
/// batch. A batch is sealed at pickup (sources that boarded while the job
/// queued are in; later arrivals open a fresh batch) and answered by one
/// bit-parallel traversal over all seats. The value goes to every waiter
/// and is recorded — cache entry and breaker evidence — under every key
/// the flight answered: one key, or one column key per boarded source,
/// all aliasing the shared [`DistanceOracle`].
fn run_flight(inner: &Inner, job: Job) {
    inner.metrics.worker_busy();
    let started = Instant::now();
    // The work token is a deadline-bearing child of the flight token,
    // stamped with the flight's deadline as read at pickup: the traversal
    // polls it per round, so a blown deadline aborts the computation
    // within one frontier round — the same mechanism abandonment uses.
    // Joins arriving after pickup may extend the stamp, but the running
    // worker honors the value it read.
    let token = job.flight.token().child(job.flight.deadline());
    if let Some(delay) = inner.faults.injected_delay() {
        // An injected stall still honors cancellation: once every
        // waiter gives up, the flight token frees this worker.
        let until = Instant::now() + delay;
        while Instant::now() < until && !token.is_cancelled() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let sources = job.batch.as_ref().map(|b| inner.oracle_batcher.seal(b));
    let keys = match &sources {
        Some(sources) => {
            inner.metrics.multi_source_flight(sources.len() as u64);
            let generation = job.key.generation();
            sources
                .iter()
                .map(|&src| ComputeKey::OracleColumn { generation, src })
                .collect()
        }
        None => vec![job.key],
    };
    // Acquired *outside* catch_unwind: on a panic the guard is still
    // owned here, so its Drop shelves the workspace back in the pool
    // (every `*_observed_in` re-prepares state at entry, making a
    // panic-abandoned workspace safe to reuse).
    let mut ws = inner.workspaces.acquire();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if inner.faults.should_panic_worker() {
            panic!("injected worker panic");
        }
        match sources {
            Some(sources) => multi_source(&job.entry, sources, &token, &mut ws),
            None => compute(inner, &job.key, &job.entry, &token, &mut ws),
        }
    }))
    .map_err(panic_message);
    drop(ws);
    let outcome = match result {
        Ok(Ok(value)) => FlightOutcome::Value(value),
        Ok(Err(Cancelled)) => {
            inner.metrics.computation_cancelled();
            // Explicit cancel (abandonment, shutdown) wins; otherwise the
            // work token fired on the flight deadline.
            if token.cancel_requested() {
                FlightOutcome::Cancelled
            } else {
                FlightOutcome::DeadlineExceeded
            }
        }
        Err(msg) => FlightOutcome::Failed(msg),
    };
    // The value answers this flight's waiters at the snapshot they
    // pinned, whatever landed since; it is cached, stamped with that
    // epoch, only while that snapshot is still the published one. The
    // re-check runs in the cache critical section `mutate` publishes in,
    // so no value lands beside a newer epoch's restamp.
    if let FlightOutcome::Value(value) = &outcome {
        let mut cache = inner.cache.lock().expect("cache lock poisoned");
        let entry = &job.entry;
        if current_entry(inner, &entry.name, (entry.generation, entry.epoch)).is_some() {
            for &key in &keys {
                cache.insert(key, entry.epoch, value.clone());
            }
        }
    }
    // Breaker evidence is per *flight*, not per waiter: a batch of 50
    // queries riding one panicked flight is one failure per key. A blown
    // deadline is time-budget pressure, not key poison — inconclusive,
    // like cancellation.
    for key in &keys {
        match &outcome {
            FlightOutcome::Value(_) => {
                if inner.breakers.on_success(key) {
                    inner.metrics.breaker_closed();
                }
            }
            FlightOutcome::Failed(_) => {
                if inner.breakers.on_failure(key) {
                    inner.metrics.breaker_opened();
                }
            }
            FlightOutcome::Cancelled | FlightOutcome::DeadlineExceeded => {
                inner.breakers.on_inconclusive(key)
            }
            FlightOutcome::Overloaded | FlightOutcome::Shed => {}
        }
    }
    // Every picked-up job settles its admission charge exactly once —
    // value, fault, cancel, or deadline — so debt cannot leak.
    inner.cost.settle(job.cost, started.elapsed());
    let answered = !matches!(
        outcome,
        FlightOutcome::Cancelled | FlightOutcome::DeadlineExceeded
    );
    // Drop the gauge before publishing, so by the time any waiter
    // observes the result the worker already reads as free.
    inner.metrics.worker_idle();
    inner.publish(&job, outcome, |batch| {
        // an aborted traversal did not produce a batch answer
        if answered {
            inner.metrics.computation(batch)
        }
    });
}

/// The degraded lane's worker: sequential algorithms, no fault injection
/// (the lane must stay dependable while the parallel path is being
/// chaos-tested), no breaker bookkeeping, no primary-cache writes.
fn fallback_worker_loop(inner: Arc<Inner>, rx: Receiver<Job>) {
    while let Ok(job) = rx.recv() {
        inner.metrics.worker_busy();
        let result = catch_unwind(AssertUnwindSafe(|| {
            compute_sequential(&job.key, &job.entry)
        }));
        let outcome = match result {
            Ok(value) => FlightOutcome::Value(value),
            Err(payload) => FlightOutcome::Failed(panic_message(payload)),
        };
        inner.metrics.worker_idle();
        inner.degraded_batcher.complete(
            &(job.key, job.entry.epoch),
            &job.flight,
            outcome,
            |batch| inner.metrics.computation(batch),
        );
    }
}

fn compute(
    inner: &Inner,
    key: &ComputeKey,
    entry: &GraphEntry,
    cancel: &CancelToken,
    ws: &mut TraversalWorkspace,
) -> Result<ComputeValue, Cancelled> {
    let vgc = VgcConfig {
        tau: inner.config.tau,
        adaptive: inner.config.adaptive_tau,
    };
    // All traversals run inside the recycled workspace; only the result
    // buffers are moved out (into the `Arc` the cache shares), never
    // copied.
    Ok(match *key {
        ComputeKey::HopDists { src, .. } => {
            let stats = with_storage!(
                &*entry.graph,
                g,
                bfs_vgc_dir_observed_in(g, src, None, &vgc, cancel, &NoopObserver, ws,)
            )?;
            ComputeValue::HopDists {
                dist: Arc::new(ws.take_hop_dist()),
                rounds: stats.rounds,
            }
        }
        ComputeKey::Dists { src, .. } => {
            let cfg = RhoConfig {
                vgc,
                ..RhoConfig::default()
            };
            let stats = with_storage!(
                &*entry.graph,
                g,
                sssp_rho_stepping_observed_in(g, src, &cfg, cancel, &NoopObserver, ws,)
            )?;
            ComputeValue::Dists {
                dist: Arc::new(ws.take_weighted_dist()),
                rounds: stats.rounds,
            }
        }
        ComputeKey::SccLabels { .. } => {
            let stats = with_storage!(
                &*entry.graph,
                g,
                scc_vgc_observed_in(g, &vgc, cancel, &NoopObserver, ws)
            )?;
            let count = ws.scc_num_sccs();
            // canonical (smallest-member) labels, so degraded Tarjan
            // answers are bit-for-bit equal to parallel FW-BW ones
            ComputeValue::Labels {
                labels: Arc::new(canonicalize_labels(&ws.take_scc_labels())),
                count,
                rounds: stats.rounds,
            }
        }
        ComputeKey::CcLabels { .. } => {
            let r = with_storage!(
                &*entry.graph,
                g,
                connectivity_observed_in(g, cancel, &NoopObserver, ws)
            )?;
            ComputeValue::Labels {
                labels: Arc::new(r.labels),
                count: r.num_components,
                rounds: r.stats.rounds,
            }
        }
        ComputeKey::OracleColumn { src, .. } => multi_source(entry, vec![src], cancel, ws)?,
        ComputeKey::OracleAllPairs { .. } => multi_source(
            entry,
            (0..entry.graph.num_vertices() as u32).collect(),
            cancel,
            ws,
        )?,
        ComputeKey::Coreness { .. } => {
            let und = entry.undirected();
            let stats = with_storage!(
                &*und,
                g,
                kcore_peel_observed_in(g, inner.config.tau, cancel, &NoopObserver, ws,)
            )?;
            let coreness = ws.take_coreness();
            let degeneracy = coreness.iter().copied().max().unwrap_or(0);
            ComputeValue::Coreness {
                coreness: Arc::new(coreness),
                degeneracy,
                rounds: stats.rounds,
            }
        }
    })
}

/// One bit-parallel multi-source BFS over `sources`, as a shared
/// distance oracle: a sealed oracle batch, or every vertex of a small
/// graph for the resident all-pairs oracle.
fn multi_source(
    entry: &GraphEntry,
    sources: Vec<u32>,
    cancel: &CancelToken,
    ws: &mut TraversalWorkspace,
) -> Result<ComputeValue, Cancelled> {
    let stats = with_storage!(
        &*entry.graph,
        g,
        multi_bfs_observed_in(g, &sources, cancel, &NoopObserver, ws)
    )?;
    Ok(ComputeValue::Oracle {
        oracle: Arc::new(DistanceOracle::from_columns(
            entry.graph.num_vertices(),
            sources,
            Arc::new(ws.take_multi_dist()),
        )),
        rounds: stats.rounds,
    })
}

/// Sequential counterpart of [`compute`] — the degraded lane's engine.
/// Answers must match the parallel path bit-for-bit: distances are unique
/// by definition, CC labels are smallest-member on both sides, and SCC
/// labels are canonicalized on both sides.
fn compute_sequential(key: &ComputeKey, entry: &GraphEntry) -> ComputeValue {
    match *key {
        ComputeKey::HopDists { src, .. } => {
            let r = with_storage!(&*entry.graph, g, bfs_seq(g, src));
            ComputeValue::HopDists {
                dist: Arc::new(r.dist),
                rounds: r.stats.rounds,
            }
        }
        ComputeKey::Dists { src, .. } => {
            let r = with_storage!(&*entry.graph, g, sssp_dijkstra(g, src));
            ComputeValue::Dists {
                dist: Arc::new(r.dist),
                rounds: r.stats.rounds,
            }
        }
        ComputeKey::SccLabels { .. } => {
            let r = with_storage!(&*entry.graph, g, scc_tarjan(g));
            ComputeValue::Labels {
                labels: Arc::new(canonicalize_labels(&r.labels)),
                count: r.num_sccs,
                rounds: r.stats.rounds,
            }
        }
        ComputeKey::CcLabels { .. } => {
            let r = with_storage!(&*entry.graph, g, connectivity_seq(g));
            ComputeValue::Labels {
                labels: Arc::new(r.labels),
                count: r.num_components,
                rounds: r.stats.rounds,
            }
        }
        ComputeKey::OracleColumn { src, .. } => {
            // One sequential BFS column; `multi_bfs` columns are
            // bit-identical to `bfs_seq`, so the degraded answer matches.
            let r = with_storage!(&*entry.graph, g, bfs_seq(g, src));
            ComputeValue::Oracle {
                oracle: Arc::new(DistanceOracle::from_columns(
                    entry.graph.num_vertices(),
                    vec![src],
                    Arc::new(r.dist),
                )),
                rounds: r.stats.rounds,
            }
        }
        ComputeKey::OracleAllPairs { .. } => {
            let n = entry.graph.num_vertices();
            let mut dist = Vec::with_capacity(n * n);
            let mut rounds = 0u64;
            for src in 0..n as u32 {
                let r = with_storage!(&*entry.graph, g, bfs_seq(g, src));
                rounds = rounds.max(r.stats.rounds);
                dist.extend_from_slice(&r.dist);
            }
            ComputeValue::Oracle {
                oracle: Arc::new(DistanceOracle::from_columns(
                    n,
                    (0..n as u32).collect(),
                    Arc::new(dist),
                )),
                rounds,
            }
        }
        ComputeKey::Coreness { .. } => {
            let und = entry.undirected();
            let r = with_storage!(&*und, g, kcore_seq(g));
            ComputeValue::Coreness {
                coreness: Arc::new(r.coreness),
                degeneracy: r.degeneracy,
                rounds: r.stats.rounds,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasgal_core::bfs::vgc::bfs_vgc;
    use pasgal_graph::gen::basic::grid2d;

    fn small_service() -> Service {
        Service::new(ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            query_timeout: Duration::from_secs(10),
            cache_capacity: 8,
            tau: 64,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn answers_match_direct_bfs() {
        let svc = small_service();
        svc.register("g", grid2d(6, 9));
        let direct = bfs_vgc(&grid2d(6, 9), 0, &VgcConfig::default()).dist;
        for t in [0u32, 13, 53] {
            let r = svc
                .query(&Query::BfsDist {
                    graph: "g".into(),
                    src: 0,
                    target: Some(t),
                })
                .unwrap();
            assert_eq!(
                r,
                Reply::Dist {
                    value: Some(direct[t as usize] as u64)
                }
            );
        }
    }

    #[test]
    fn repeated_query_hits_cache() {
        let svc = small_service();
        svc.register("g", grid2d(5, 5));
        let q = Query::BfsDist {
            graph: "g".into(),
            src: 0,
            target: Some(24),
        };
        let a = svc.query(&q).unwrap();
        let b = svc.query(&q).unwrap();
        assert_eq!(a, b);
        let m = svc.metrics();
        assert_eq!(m.computations, 1);
        assert!(m.cache_hits >= 1, "{m:?}");
    }

    #[test]
    fn unknown_graph_and_bad_vertex() {
        let svc = small_service();
        assert!(matches!(
            svc.query(&Query::Stats {
                graph: "nope".into()
            }),
            Err(ServiceError::UnknownGraph(_))
        ));
        svc.register("g", grid2d(2, 2));
        assert!(matches!(
            svc.query(&Query::BfsDist {
                graph: "g".into(),
                src: 4,
                target: None
            }),
            Err(ServiceError::VertexOutOfRange { vertex: 4, n: 4 })
        ));
    }

    #[test]
    fn stats_and_summary_replies() {
        let svc = small_service();
        svc.register("g", grid2d(3, 4));
        match svc.query(&Query::Stats { graph: "g".into() }).unwrap() {
            Reply::Stats {
                n, m, symmetric, ..
            } => {
                assert_eq!(n, 12);
                assert!(m > 0);
                assert!(symmetric);
            }
            other => panic!("unexpected {other:?}"),
        }
        match svc
            .query(&Query::BfsDist {
                graph: "g".into(),
                src: 0,
                target: None,
            })
            .unwrap()
        {
            Reply::DistSummary { reached, max } => {
                assert_eq!(reached, 12);
                assert_eq!(max, 2 + 3); // grid corner-to-corner hops
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pre_cancelled_token_yields_cancelled_fast() {
        let svc = small_service();
        svc.register("g", grid2d(8, 8));
        let t = pasgal_core::common::CancelToken::new();
        t.cancel();
        let start = Instant::now();
        let out = svc.query_with_token(
            &Query::BfsDist {
                graph: "g".into(),
                src: 0,
                target: Some(1),
            },
            &t,
        );
        assert!(matches!(out, Err(ServiceError::Cancelled)), "{out:?}");
        assert!(start.elapsed() < Duration::from_secs(5));
        let m = svc.metrics();
        assert_eq!(m.cancelled, 1);
        assert!(m.reconciles(), "{m:?}");
    }

    #[test]
    fn outcomes_land_in_terminal_buckets() {
        let svc = small_service();
        svc.register("g", grid2d(4, 4));
        svc.query(&Query::Stats { graph: "g".into() }).unwrap();
        svc.query(&Query::CcId {
            graph: "g".into(),
            vertex: Some(3),
        })
        .unwrap();
        let _ = svc.query(&Query::Stats {
            graph: "missing".into(),
        });
        let m = svc.metrics();
        assert_eq!(m.completed, 2);
        assert_eq!(m.errors, 1);
        assert!(m.reconciles(), "{m:?}");
        assert_eq!(m.workers_busy, 0, "workers idle between queries");
    }

    #[test]
    fn explicit_degraded_mode_skips_primary_cache() {
        let svc = small_service();
        svc.register("g", grid2d(5, 5));
        let q = Query::BfsDist {
            graph: "g".into(),
            src: 0,
            target: Some(24),
        };
        let a = svc
            .query_full(&q, &CancelToken::new(), QueryMode::Degraded)
            .unwrap();
        assert!(a.degraded);
        assert_eq!(a.reply, Reply::Dist { value: Some(8) });
        assert_eq!(svc.cache_entries(), 0, "degraded results must not cache");
        let m = svc.metrics();
        assert_eq!(m.degraded, 1);
        assert_eq!(m.completed, 0);
        assert!(m.reconciles(), "{m:?}");
        // the same query in normal mode computes (no cache poisoning)
        let b = svc
            .query_full(&q, &CancelToken::new(), QueryMode::Normal)
            .unwrap();
        assert!(!b.degraded);
        assert_eq!(b.reply, a.reply);
        assert_eq!(svc.cache_entries(), 1);
    }

    #[test]
    fn degraded_answers_match_normal_on_every_algorithm() {
        let svc = small_service();
        svc.register("g", grid2d(6, 7));
        let queries = [
            Query::BfsDist {
                graph: "g".into(),
                src: 3,
                target: None,
            },
            Query::SsspDist {
                graph: "g".into(),
                src: 3,
                target: Some(40),
            },
            Query::Ptp {
                graph: "g".into(),
                src: 0,
                dst: 41,
            },
            Query::SccId {
                graph: "g".into(),
                vertex: Some(11),
            },
            Query::CcId {
                graph: "g".into(),
                vertex: Some(11),
            },
            Query::KCore {
                graph: "g".into(),
                vertex: Some(11),
            },
        ];
        for q in &queries {
            let normal = svc
                .query_full(q, &CancelToken::new(), QueryMode::Normal)
                .unwrap();
            let degraded = svc
                .query_full(q, &CancelToken::new(), QueryMode::Degraded)
                .unwrap();
            assert!(!normal.degraded);
            assert!(degraded.degraded);
            assert_eq!(normal.reply, degraded.reply, "{q:?}");
        }
        assert!(svc.metrics().reconciles());
    }

    #[test]
    fn oracle_answers_from_resident_all_pairs_oracle() {
        let svc = small_service();
        svc.register("g", grid2d(6, 9)); // n = 54 ≤ resident max
        let direct = bfs_seq(&grid2d(6, 9), 7).dist;
        let q = Query::Oracle {
            graph: "g".into(),
            src: 7,
            dst: Some(40),
        };
        let a = svc.query(&q).unwrap();
        assert_eq!(
            a,
            Reply::Dist {
                value: Some(direct[40] as u64)
            }
        );
        // any other (src, dst) on the graph is now a pure cache lookup
        let b = svc
            .query(&Query::Oracle {
                graph: "g".into(),
                src: 33,
                dst: None,
            })
            .unwrap();
        let col = bfs_seq(&grid2d(6, 9), 33).dist;
        assert_eq!(
            b,
            Reply::DistSummary {
                reached: 54,
                max: col.iter().map(|&d| d as u64).max().unwrap()
            }
        );
        let m = svc.metrics();
        assert_eq!(m.computations, 1, "one flight answers every source");
        assert!(m.oracle_hits >= 1, "{m:?}");
        assert!(m.reconciles(), "{m:?}");
    }

    #[test]
    fn oracle_column_path_serves_large_graphs() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            query_timeout: Duration::from_secs(10),
            cache_capacity: 8,
            tau: 64,
            oracle_resident_max: 0, // force the per-column flight path
            ..ServiceConfig::default()
        });
        svc.register("g", grid2d(6, 9));
        let direct = bfs_seq(&grid2d(6, 9), 3).dist;
        let q = Query::Oracle {
            graph: "g".into(),
            src: 3,
            dst: Some(50),
        };
        let a = svc.query(&q).unwrap();
        assert_eq!(
            a,
            Reply::Dist {
                value: Some(direct[50] as u64)
            }
        );
        // repeat hits the cached column; a distinct source takes a flight
        svc.query(&q).unwrap();
        svc.query(&Query::Oracle {
            graph: "g".into(),
            src: 9,
            dst: None,
        })
        .unwrap();
        let m = svc.metrics();
        assert!(m.multi_source_flights >= 1, "{m:?}");
        assert!(m.oracle_hits >= 1, "{m:?}");
        assert!(m.reconciles(), "{m:?}");
        assert_eq!(svc.inner.oracle_batcher.open_batches(), 0);
    }

    #[test]
    fn degraded_oracle_matches_normal_and_skips_cache() {
        let svc = small_service();
        svc.register("g", grid2d(5, 7));
        for dst in [None, Some(20)] {
            let q = Query::Oracle {
                graph: "g".into(),
                src: 2,
                dst,
            };
            let degraded = svc
                .query_full(&q, &CancelToken::new(), QueryMode::Degraded)
                .unwrap();
            assert!(degraded.degraded);
            let normal = svc
                .query_full(&q, &CancelToken::new(), QueryMode::Normal)
                .unwrap();
            assert!(!normal.degraded);
            assert_eq!(normal.reply, degraded.reply, "{q:?}");
        }
        assert!(svc.metrics().reconciles());
    }

    #[test]
    fn symmetric_ptp_directions_share_one_computation() {
        let svc = small_service();
        svc.register("g", grid2d(4, 6)); // grids are symmetric
        let forward = svc
            .query(&Query::Ptp {
                graph: "g".into(),
                src: 2,
                dst: 21,
            })
            .unwrap();
        let backward = svc
            .query(&Query::Ptp {
                graph: "g".into(),
                src: 21,
                dst: 2,
            })
            .unwrap();
        assert_eq!(forward, backward);
        let m = svc.metrics();
        assert_eq!(m.computations, 1, "s→t and t→s must share one key");
        assert!(m.cache_hits >= 1, "{m:?}");
        // oracle queries canonicalize the same way
        let f = svc
            .query(&Query::Oracle {
                graph: "g".into(),
                src: 0,
                dst: Some(23),
            })
            .unwrap();
        let b = svc
            .query(&Query::Oracle {
                graph: "g".into(),
                src: 23,
                dst: Some(0),
            })
            .unwrap();
        assert_eq!(f, b);
    }

    #[test]
    fn expired_deadline_token_classifies_as_deadline_exceeded() {
        let svc = small_service();
        svc.register("g", grid2d(8, 8));
        let t = CancelToken::at(Instant::now() - Duration::from_millis(1));
        let out = svc.query_full(
            &Query::BfsDist {
                graph: "g".into(),
                src: 0,
                target: Some(1),
            },
            &t,
            QueryMode::Normal,
        );
        assert!(
            matches!(out, Err(ServiceError::DeadlineExceeded)),
            "{out:?}"
        );
        let m = svc.metrics();
        assert_eq!(m.deadline_exceeded, 1);
        assert_eq!(m.cancelled, 0, "deadline is not an explicit cancel");
        assert!(m.reconciles(), "{m:?}");
    }

    #[test]
    fn default_deadline_bounds_unbounded_queries() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            queue_capacity: 16,
            query_timeout: Duration::from_secs(10),
            tau: 64,
            default_deadline: Some(Duration::from_nanos(1)),
            ..ServiceConfig::default()
        });
        svc.register("g", grid2d(8, 8));
        // no caller deadline: the configured default applies and expires
        // before the query can be admitted
        let out = svc.query(&Query::BfsDist {
            graph: "g".into(),
            src: 0,
            target: Some(1),
        });
        assert!(
            matches!(out, Err(ServiceError::DeadlineExceeded)),
            "{out:?}"
        );
        // a caller-supplied (roomy) deadline overrides the default
        let t = CancelToken::with_deadline(Duration::from_secs(30));
        let out = svc.query_with_token(
            &Query::BfsDist {
                graph: "g".into(),
                src: 0,
                target: Some(1),
            },
            &t,
        );
        assert!(out.is_ok(), "{out:?}");
        assert!(svc.metrics().reconciles());
    }

    #[test]
    fn infeasible_deadline_is_shed_at_admission() {
        let svc = small_service();
        svc.register("g", grid2d(8, 8));
        // 8 s of queued debt across 2 workers → ~4 s expected wait; a
        // 50 ms budget is infeasible, but load (8/20) stays under the
        // Pressured threshold so the query reaches cost admission.
        svc.inner.cost.charge(Duration::from_secs(8));
        let t = CancelToken::with_deadline(Duration::from_millis(50));
        let out = svc.query_with_token(
            &Query::SsspDist {
                graph: "g".into(),
                src: 0,
                target: Some(1),
            },
            &t,
        );
        assert!(matches!(out, Err(ServiceError::Shed)), "{out:?}");
        let m = svc.metrics();
        assert_eq!(m.shed, 1);
        assert_eq!(m.rejected_overload, 0, "shed is its own bucket");
        assert!(m.reconciles(), "{m:?}");
        assert_eq!(
            svc.queue_debt(),
            Duration::from_secs(8),
            "a shed leader never charged the ledger"
        );
        svc.inner
            .cost
            .settle(Duration::from_secs(8), Duration::ZERO);
    }

    #[test]
    fn brownout_reroutes_eligible_work_and_recovers_hysteretically() {
        let svc = small_service();
        svc.register("g", grid2d(6, 9));
        // ceiling = 10 s × 2 workers = 20 s; 30 s of debt → load 1.5
        svc.inner.cost.charge(Duration::from_secs(30));
        let q = Query::BfsDist {
            graph: "g".into(),
            src: 0,
            target: Some(53),
        };
        let a = svc
            .query_full(&q, &CancelToken::new(), QueryMode::Normal)
            .unwrap();
        assert_eq!(svc.pressure(), Pressure::Brownout);
        assert!(a.degraded, "brownout must shed BFS to the sequential lane");
        assert_eq!(a.reply, Reply::Dist { value: Some(13) });
        assert_eq!(
            svc.inner.oracle_batcher.width_cap(),
            32,
            "pressure halves oracle flight width"
        );
        // drain the debt: recovery steps down through Pressured
        svc.inner
            .cost
            .settle(Duration::from_secs(30), Duration::ZERO);
        let b = svc
            .query_full(&q, &CancelToken::new(), QueryMode::Normal)
            .unwrap();
        assert_eq!(svc.pressure(), Pressure::Pressured);
        assert!(
            !b.degraded,
            "Pressured keeps eligible work on the parallel lane"
        );
        assert_eq!(
            svc.inner.oracle_batcher.width_cap(),
            32,
            "width stays capped"
        );
        let c = svc
            .query_full(&q, &CancelToken::new(), QueryMode::Normal)
            .unwrap();
        assert_eq!(svc.pressure(), Pressure::Normal);
        assert!(!c.degraded);
        assert_eq!(b.reply, a.reply);
        assert_eq!(c.reply, a.reply);
        assert_eq!(svc.inner.oracle_batcher.width_cap(), 64);
        let m = svc.metrics();
        assert_eq!(m.degraded, 1);
        assert!(m.reconciles(), "{m:?}");
    }

    #[test]
    fn pressured_stops_all_pairs_promotion_but_serves_cached_oracles() {
        let svc = small_service();
        svc.register("g", grid2d(6, 9)); // n = 54 ≤ resident max
                                         // Pressured: load 0.65 (13 s of 20 s ceiling)
        svc.inner.cost.charge(Duration::from_secs(13));
        svc.query(&Query::Oracle {
            graph: "g".into(),
            src: 7,
            dst: Some(40),
        })
        .unwrap();
        let m = svc.metrics();
        assert_eq!(svc.pressure(), Pressure::Pressured);
        assert_eq!(
            m.multi_source_flights, 1,
            "pressured oracle queries take the per-column path"
        );
        svc.inner
            .cost
            .settle(Duration::from_secs(13), Duration::ZERO);
        // back to Normal (two steps), then promotion resumes
        svc.query(&Query::Stats { graph: "g".into() }).unwrap();
        svc.query(&Query::Oracle {
            graph: "g".into(),
            src: 9,
            dst: None,
        })
        .unwrap();
        assert_eq!(svc.pressure(), Pressure::Normal);
        // the promoted oracle keeps only queries at its own epoch on the
        // all-pairs key under pressure
        let generation = svc.catalog().get("g").unwrap().generation;
        let all_pairs = ComputeKey::OracleAllPairs { generation };
        assert!(svc.cache_has(&all_pairs, 0) && !svc.cache_has(&all_pairs, 1));
        let m = svc.metrics();
        assert!(m.oracle_reconciles(), "{m:?}");
        assert_eq!(m.oracle_queries, 2);
        assert_eq!(m.oracle_served, 2);
        assert!(m.reconciles(), "{m:?}");
    }

    #[test]
    fn oracle_identity_counts_errors_as_unserved() {
        let svc = small_service();
        svc.register("g", grid2d(3, 3));
        svc.query(&Query::Oracle {
            graph: "g".into(),
            src: 0,
            dst: Some(8),
        })
        .unwrap();
        let out = svc.query(&Query::Oracle {
            graph: "g".into(),
            src: 99,
            dst: None,
        });
        assert!(matches!(out, Err(ServiceError::VertexOutOfRange { .. })));
        let m = svc.metrics();
        assert_eq!(m.oracle_queries, 2);
        assert_eq!(m.oracle_served, 1);
        assert_eq!(m.oracle_unserved, 1);
        assert!(m.oracle_reconciles(), "{m:?}");
        assert!(m.reconciles(), "{m:?}");
    }

    #[test]
    fn deadline_settles_debt_and_frees_worker() {
        let svc = small_service();
        svc.register("g", grid2d(64, 64));
        let t = CancelToken::with_deadline(Duration::from_micros(200));
        let out = svc.query_with_token(
            &Query::BfsDist {
                graph: "g".into(),
                src: 0,
                target: None,
            },
            &t,
        );
        // A fast machine may beat even this deadline, and admission may
        // find the remaining budget already below the estimate and shed;
        // the invariant under test is conservation, not the race's winner.
        assert!(
            matches!(
                out,
                Ok(_) | Err(ServiceError::DeadlineExceeded) | Err(ServiceError::Shed)
            ),
            "{out:?}"
        );
        // the worker either never received the job (shed/expired before
        // admission) or settled its charge on abort — debt must not leak
        let settle_by = Instant::now() + Duration::from_secs(5);
        while (svc.queue_debt() > Duration::ZERO || svc.metrics().workers_busy > 0)
            && Instant::now() < settle_by
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(svc.queue_debt(), Duration::ZERO);
        assert_eq!(svc.metrics().workers_busy, 0);
        assert!(svc.metrics().reconciles());
    }

    #[test]
    fn health_reports_ready_and_breakers() {
        let svc = small_service();
        svc.register("g", grid2d(3, 3));
        match svc.query(&Query::Health).unwrap() {
            Reply::Health {
                ready,
                workers,
                workers_busy,
                graphs,
                breakers,
                storage,
            } => {
                assert!(ready);
                assert_eq!(workers, 2);
                assert_eq!(workers_busy, 0);
                assert_eq!(graphs, 1);
                assert!(breakers.is_empty());
                assert_eq!(storage.len(), 1);
                assert_eq!(storage[0].0, "g");
                assert_eq!(storage[0].1, "plain");
                assert!(storage[0].2 > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        svc.cancel_inflight();
        match svc.query(&Query::Health).unwrap() {
            Reply::Health { ready, .. } => assert!(!ready, "drain clears readiness"),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Shutdown reaches a multi-source flight that is already computing:
    /// a one-source column flight on a long path runs one round per hop,
    /// and `cancel_inflight` stops it within a round instead of letting
    /// it run to the far end.
    #[test]
    fn cancel_inflight_stops_a_running_oracle_flight() {
        const N: usize = 200_000;
        let svc = Arc::new(small_service());
        svc.register("path", grid2d(1, N));
        let waiter = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                svc.query(&Query::Oracle {
                    graph: "path".into(),
                    src: 0,
                    dst: Some(N as u32 - 1),
                })
            })
        };
        // the flight is counted once the worker has sealed its batch
        let t0 = Instant::now();
        while svc.metrics().multi_source_flights == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "flight never started"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        svc.cancel_inflight();
        let out = waiter.join().unwrap();
        assert!(matches!(out, Err(ServiceError::Cancelled)), "{out:?}");
        let m = svc.metrics();
        assert_eq!(m.computations_cancelled, 1, "{m:?}");
        assert_eq!(svc.inner.oracle_batcher.open_batches(), 0);
    }

    fn mutate_q(ops: Vec<Mutation>) -> Query {
        Query::Mutate {
            graph: "g".into(),
            ops,
            compact: false,
        }
    }

    #[test]
    fn mutate_bumps_epoch_and_answers_follow() {
        let svc = small_service();
        svc.register("g", grid2d(3, 3)); // 0..8, corner 0 to corner 8 is 4 hops
        let far = Query::BfsDist {
            graph: "g".into(),
            src: 0,
            target: Some(8),
        };
        assert_eq!(svc.query(&far).unwrap(), Reply::Dist { value: Some(4) });
        // a shortcut straight across; grid2d is symmetric so one op is
        // two directed edges
        let r = svc
            .query(&mutate_q(vec![Mutation::InsertEdge { u: 0, v: 8, w: 1 }]))
            .unwrap();
        assert_eq!(
            r,
            Reply::Mutated {
                epoch: 1,
                applied: 1,
                n: 9,
                m: 24 + 2,
            }
        );
        assert_eq!(svc.catalog().get("g").unwrap().epoch, 1);
        assert_eq!(svc.query(&far).unwrap(), Reply::Dist { value: Some(1) });
        // deleting it restores the old distance at epoch 2
        let r = svc
            .query(&mutate_q(vec![Mutation::DeleteEdge { u: 0, v: 8 }]))
            .unwrap();
        assert!(matches!(r, Reply::Mutated { epoch: 2, .. }), "{r:?}");
        assert_eq!(svc.query(&far).unwrap(), Reply::Dist { value: Some(4) });
        let m = svc.metrics();
        assert_eq!(m.mutate_queries, 2);
        assert_eq!(m.mutation_batches, 2);
        assert!(m.mutation_reconciles(), "{m:?}");
    }

    #[test]
    fn noop_batch_keeps_epoch_and_storage() {
        let svc = small_service();
        svc.register("g", grid2d(3, 3));
        // edge already present: nothing changes, no overlay published
        let r = svc
            .query(&mutate_q(vec![Mutation::InsertEdge { u: 0, v: 1, w: 1 }]))
            .unwrap();
        assert_eq!(
            r,
            Reply::Mutated {
                epoch: 0,
                applied: 0,
                n: 9,
                m: 24,
            }
        );
        let entry = svc.catalog().get("g").unwrap();
        assert_eq!(entry.epoch, 0);
        assert!(matches!(&*entry.graph, GraphStore::Plain(_)));
    }

    #[test]
    fn mutate_rejects_out_of_range_atomically() {
        let svc = small_service();
        svc.register("g", grid2d(3, 3));
        // first op valid, second out of range: the whole batch must not land
        let out = svc.query(&mutate_q(vec![
            Mutation::InsertEdge { u: 0, v: 8, w: 1 },
            Mutation::DeleteEdge { u: 0, v: 99 },
        ]));
        assert!(matches!(out, Err(ServiceError::BadRequest(_))), "{out:?}");
        let entry = svc.catalog().get("g").unwrap();
        assert_eq!(entry.epoch, 0);
        assert_eq!(entry.graph.num_edges(), 24);
        assert_eq!(
            svc.query(&Query::BfsDist {
                graph: "g".into(),
                src: 0,
                target: Some(8)
            })
            .unwrap(),
            Reply::Dist { value: Some(4) }
        );
    }

    #[test]
    fn revalidation_retains_unaffected_entries() {
        let svc = small_service();
        svc.register("g", grid2d(4, 4));
        // warm a BFS cache entry from source 15, then insert an edge that
        // cannot shorten anything from 15's perspective... use CC instead:
        // insertions merge via union-find, entry survives.
        let cc = Query::CcId {
            graph: "g".into(),
            vertex: Some(0),
        };
        assert_eq!(
            svc.query(&cc).unwrap(),
            Reply::Label {
                vertex: 0,
                label: 0,
                components: 1
            }
        );
        let before = svc.metrics().computations;
        svc.query(&mutate_q(vec![Mutation::InsertEdge { u: 0, v: 15, w: 1 }]))
            .unwrap();
        // still one component; served from the revalidated entry, not a
        // fresh computation
        assert_eq!(
            svc.query(&cc).unwrap(),
            Reply::Label {
                vertex: 0,
                label: 0,
                components: 1
            }
        );
        let m = svc.metrics();
        assert_eq!(m.computations, before, "revalidated entry served the hit");
        assert!(m.cache_revalidated >= 1, "{m:?}");
    }

    #[test]
    fn forced_compaction_folds_overlay_to_plain() {
        let svc = small_service();
        svc.register("g", grid2d(3, 3));
        svc.query(&Query::Mutate {
            graph: "g".into(),
            ops: vec![Mutation::InsertEdge { u: 0, v: 8, w: 1 }],
            compact: true,
        })
        .unwrap();
        // compaction runs on the worker pool; wait for the republish
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let entry = svc.catalog().get("g").unwrap();
            if matches!(&*entry.graph, GraphStore::Plain(_)) {
                assert_eq!(entry.epoch, 1, "compaction republishes at the same epoch");
                assert_eq!(entry.graph.num_edges(), 26);
                break;
            }
            assert!(Instant::now() < deadline, "compaction never landed");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(svc.metrics().compactions, 1);
        // the compacted graph still answers with the shortcut
        assert_eq!(
            svc.query(&Query::BfsDist {
                graph: "g".into(),
                src: 0,
                target: Some(8)
            })
            .unwrap(),
            Reply::Dist { value: Some(1) }
        );
    }

    #[test]
    fn mutation_then_queries_on_all_algorithms_match_rebuilt_graph() {
        let svc = small_service();
        svc.register("g", grid2d(4, 4));
        svc.query(&mutate_q(vec![
            Mutation::InsertEdge { u: 0, v: 15, w: 1 },
            Mutation::DeleteEdge { u: 0, v: 1 },
            Mutation::AddVertex,
            Mutation::InsertEdge { u: 16, v: 0, w: 1 },
        ]))
        .unwrap();
        // the overlay must answer every algorithm identically to the
        // rebuilt plain graph
        let entry = svc.catalog().get("g").unwrap();
        assert!(matches!(&*entry.graph, GraphStore::Overlay(_)));
        let rebuilt = entry.graph.to_plain();
        let direct = bfs_vgc(&rebuilt, 0, &VgcConfig::default()).dist;
        for t in [1u32, 8, 15, 16] {
            let want = match direct[t as usize] {
                pasgal_core::common::UNREACHED => None,
                d => Some(d as u64),
            };
            assert_eq!(
                svc.query(&Query::BfsDist {
                    graph: "g".into(),
                    src: 0,
                    target: Some(t)
                })
                .unwrap(),
                Reply::Dist { value: want },
                "target {t}"
            );
        }
        match svc
            .query(&Query::CcId {
                graph: "g".into(),
                vertex: None,
            })
            .unwrap()
        {
            Reply::LabelSummary { components } => assert_eq!(components, 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
