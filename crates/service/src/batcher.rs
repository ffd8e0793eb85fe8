//! Micro-batching via single-flight coalescing.
//!
//! When several queries need the same computation (same [`ComputeKey`] —
//! e.g. many point-to-point queries from one source), exactly one of them
//! becomes the **leader** and schedules the traversal; the rest become
//! **followers** and wait on the leader's [`Flight`]. One BFS/SSSP then
//! answers the whole batch, which is where the service's throughput under
//! concurrent load comes from.
//!
//! A flight terminates in a typed [`FlightOutcome`] — value, overload,
//! cancellation, or failure — shared with the service so that retry and
//! circuit-breaker classification is a `match`, not a string comparison.
//!
//! Every flight owns a [`CancelToken`] that the executing worker polls.
//! Waiters are tracked live: when the **last** live waiter gives up
//! (timeout or its own cancellation) before a result exists, the flight is
//! marked *abandoned* and its token fired, so the worker stops burning a
//! core on an answer nobody wants. An abandoned flight is replaced by a
//! fresh one on the next [`Batcher::join`] for its key.
//!
//! Flights are registered under the **snapshot** they compute against —
//! the graph's `(generation, epoch)` — so a query joins only a flight
//! that answers at the epoch the query itself looked up. A flight that
//! started before a mutation batch keeps serving its own joiners; a
//! query issued after the batch opens a flight of its own.
//!
//! Lock order is always `inflight` map → `Flight::state`, so joining and
//! completing cannot deadlock.

use crate::cache::{ComputeKey, ComputeValue};
use pasgal_core::common::CancelToken;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Terminal outcome of a flight, published by whoever completes it and
/// observed by every waiter. Typed (rather than stringly encoded) so the
/// service's retry and breaker classification cannot drift on a typo.
#[derive(Debug, Clone)]
pub enum FlightOutcome {
    /// The computation finished and produced a shareable value.
    Value(ComputeValue),
    /// The leader could not enqueue the job: the admission queue was
    /// full. Transient — a retry may find room.
    Overloaded,
    /// The flight's computation was cancelled (abandonment, client
    /// disconnect, or service shutdown) before producing a value.
    Cancelled,
    /// The flight's deadline (the latest deadline among its joiners)
    /// expired before the computation finished; the worker aborted within
    /// one round. Not retryable — a fresh attempt cannot beat a deadline
    /// that has already passed — and not a key-poisoning failure either:
    /// it feeds the breaker as inconclusive evidence, like cancellation.
    DeadlineExceeded,
    /// Cost-aware admission refused the leader before queueing: the
    /// estimated queue debt made the request's deadline infeasible. Not
    /// retryable — re-entering the same queue meets the same debt.
    Shed,
    /// The computation itself failed (worker panic, injected fault); the
    /// message is preserved for the error reply. Transient from the
    /// caller's perspective — a retry starts a fresh flight.
    Failed(String),
}

impl FlightOutcome {
    /// Whether a fresh attempt could plausibly succeed where this one did
    /// not: overload drains and panics are per-flight, but a cancellation
    /// means nobody wants the answer any more, and a blown or infeasible
    /// deadline stays blown on retry.
    pub fn retryable(&self) -> bool {
        matches!(self, FlightOutcome::Overloaded | FlightOutcome::Failed(_))
    }

    /// Whether this outcome is evidence that the *key* is poisoned (feeds
    /// the per-key circuit breaker). Overload is service-wide pressure,
    /// cancellation is caller-side, and deadline expiry/shedding is
    /// time-budget pressure, so only failures count.
    pub fn is_failure(&self) -> bool {
        matches!(self, FlightOutcome::Failed(_))
    }
}

/// One in-flight computation that any number of queries may wait on.
pub struct Flight {
    /// State + condvar live behind an `Arc` so a caller-token waker can
    /// capture them without borrowing the flight.
    shared: Arc<FlightShared>,
    token: CancelToken,
}

struct FlightShared {
    state: Mutex<FlightState>,
    cv: Condvar,
}

struct FlightState {
    /// Queries that ever shared this computation (leader included); this
    /// is the batch size reported to metrics.
    joiners: u64,
    /// Waiters currently blocked in [`Flight::wait_cancellable`].
    waiting: u64,
    /// Set when the last live waiter departed without a result; the
    /// flight token is fired at the same moment.
    abandoned: bool,
    /// The latest deadline among all joiners — the point past which *no*
    /// waiter still wants the answer. `None` once any joiner is
    /// unbounded (served best-effort under the server timeout only).
    deadline: Option<Instant>,
    /// A joiner without a deadline boarded: the flight must not be
    /// deadline-aborted on other joiners' budgets.
    unbounded: bool,
    result: Option<FlightOutcome>,
}

impl FlightState {
    /// Fold one joiner's deadline into the flight's: the flight deadline
    /// is the *max* over joiners (aborting earlier would strand a waiter
    /// whose budget had room), and one unbounded joiner clears it.
    fn note_deadline(&mut self, deadline: Option<Instant>) {
        match deadline {
            None => {
                self.unbounded = true;
                self.deadline = None;
            }
            Some(d) => {
                if !self.unbounded {
                    self.deadline = Some(self.deadline.map_or(d, |cur| cur.max(d)));
                }
            }
        }
    }
}

/// The flight did not complete within the caller's timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeout;

/// Why a waiter gave up on a flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitAbort {
    /// The caller's timeout elapsed first.
    Timeout,
    /// The caller's cancel token was cancelled explicitly (disconnect,
    /// shutdown).
    Cancelled,
    /// The caller's end-to-end deadline expired while waiting.
    DeadlineExceeded,
}

impl Flight {
    fn new(deadline: Option<Instant>) -> Self {
        Self {
            shared: Arc::new(FlightShared {
                state: Mutex::new(FlightState {
                    joiners: 1,
                    waiting: 0,
                    abandoned: false,
                    deadline,
                    unbounded: deadline.is_none(),
                    result: None,
                }),
                cv: Condvar::new(),
            }),
            token: CancelToken::new(),
        }
    }

    /// The token the executing worker polls; cancelled on abandonment or
    /// service shutdown.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// The flight's stamped deadline: the latest deadline among joiners,
    /// `None` if any joiner is unbounded. Workers read this at pickup and
    /// derive a deadline-bearing child of the flight token from it, so
    /// the traversal aborts within one round of expiry. Joins after
    /// pickup still extend the stamp, but a running worker honors the
    /// value it read.
    pub fn deadline(&self) -> Option<Instant> {
        self.shared
            .state
            .lock()
            .expect("flight lock poisoned")
            .deadline
    }

    /// Block until the flight completes, `timeout` elapses, or `caller`
    /// is cancelled (explicitly or by deadline). A departing waiter that
    /// leaves the flight with no live waiters and no result abandons it
    /// (fires the flight token).
    ///
    /// The wait is a true condvar sleep bounded by
    /// `min(timeout, caller deadline)`: completion notifies the condvar,
    /// an explicit caller cancel fires a registered waker, and deadline
    /// expiry is the wait bound itself — no polling slice, no idle burn.
    pub fn wait_cancellable(
        &self,
        timeout: Duration,
        caller: &CancelToken,
    ) -> Result<FlightOutcome, WaitAbort> {
        let deadline = Instant::now() + timeout;
        // The waker takes the state lock before notifying: a waiter is
        // either holding it (it will re-check the token before sleeping)
        // or parked in wait_timeout (the notify lands). No missed wakeup.
        let shared = Arc::clone(&self.shared);
        let _waker = caller.register_waker(Arc::new(move || {
            let _guard = shared.state.lock().expect("flight lock poisoned");
            shared.cv.notify_all();
        }));
        let wake_by = match caller.earliest_deadline() {
            Some(d) => d.min(deadline),
            None => deadline,
        };
        let mut st = self.shared.state.lock().expect("flight lock poisoned");
        st.waiting += 1;
        loop {
            if let Some(r) = st.result.clone() {
                st.waiting -= 1;
                return Ok(r);
            }
            if caller.is_cancelled() {
                // Explicit cancel wins the classification; otherwise the
                // only way the token fired is a deadline in its chain.
                let why = if caller.cancel_requested() {
                    WaitAbort::Cancelled
                } else {
                    WaitAbort::DeadlineExceeded
                };
                return Err(self.depart(st, why));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(self.depart(st, WaitAbort::Timeout));
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(st, wake_by.saturating_duration_since(now))
                .expect("flight lock poisoned");
            st = guard;
        }
    }

    /// Compatibility wrapper: wait without a caller token.
    pub fn wait(&self, timeout: Duration) -> Result<FlightOutcome, WaitTimeout> {
        self.wait_cancellable(timeout, &CancelToken::new())
            .map_err(|_| WaitTimeout)
    }

    /// Publish the terminal outcome and wake every waiter; returns the
    /// batch size. `on_complete` runs with the batch size while the
    /// flight is still locked — strictly before any waiter observes the
    /// result — so bookkeeping (metrics) is visible by the time a query
    /// returns.
    fn publish(&self, outcome: FlightOutcome, on_complete: impl FnOnce(u64)) -> u64 {
        let mut st = self.shared.state.lock().expect("flight lock poisoned");
        let joiners = st.joiners;
        st.result = Some(outcome);
        on_complete(joiners);
        drop(st);
        self.shared.cv.notify_all();
        joiners
    }

    fn depart(&self, mut st: MutexGuard<'_, FlightState>, why: WaitAbort) -> WaitAbort {
        st.waiting -= 1;
        if st.waiting == 0 && st.result.is_none() {
            st.abandoned = true;
            self.token.cancel();
        }
        why
    }
}

/// Outcome of joining a key: leaders must compute and then call
/// [`Batcher::complete`]; followers just wait on the flight.
pub enum Join {
    Leader(Arc<Flight>),
    Follower(Arc<Flight>),
}

/// Registry of in-flight computations, keyed by [`ComputeKey`] plus the
/// epoch of the snapshot the flight computes against.
#[derive(Default)]
pub struct Batcher {
    inflight: Mutex<HashMap<(ComputeKey, u64), Arc<Flight>>>,
}

impl Batcher {
    pub fn new() -> Self {
        Self::default()
    }

    /// Join the flight for `key` (a compute key at an epoch) without a
    /// deadline (the joiner rides best-effort under the server timeout).
    pub fn join(&self, key: (ComputeKey, u64)) -> Join {
        self.join_with_deadline(key, None)
    }

    /// Join the flight for `key`, creating it (as leader) if absent, and
    /// stamp the joiner's end-to-end `deadline` onto the flight (the
    /// flight keeps the *latest* joiner deadline; one deadline-less
    /// joiner makes it unbounded). An abandoned flight with no result is
    /// dead — its worker is aborting — so it is replaced by a fresh
    /// flight with a fresh leader.
    pub fn join_with_deadline(&self, key: (ComputeKey, u64), deadline: Option<Instant>) -> Join {
        let mut map = self.inflight.lock().expect("batcher lock poisoned");
        if let Some(flight) = map.get(&key) {
            let mut st = flight.shared.state.lock().expect("flight lock poisoned");
            if !st.abandoned || st.result.is_some() {
                st.joiners += 1;
                st.note_deadline(deadline);
                drop(st);
                return Join::Follower(Arc::clone(flight));
            }
        }
        let flight = Arc::new(Flight::new(deadline));
        map.insert(key, Arc::clone(&flight));
        Join::Leader(flight)
    }

    /// Publish the flight's terminal outcome, waking every follower.
    /// Returns the batch size (how many queries shared the computation).
    ///
    /// Callers must insert a `Value` outcome into the cache *before*
    /// calling this, so a query that misses the retiring flight finds the
    /// cache entry instead of recomputing. `on_complete` runs with the
    /// batch size strictly before any waiter observes the result.
    ///
    /// The map entry is removed only if it still points at *this* flight:
    /// an abandoned flight may already have been replaced by a fresh one,
    /// which must not be torn down by the old worker retiring.
    pub fn complete(
        &self,
        key: &(ComputeKey, u64),
        flight: &Arc<Flight>,
        outcome: FlightOutcome,
        on_complete: impl FnOnce(u64),
    ) -> u64 {
        {
            let mut map = self.inflight.lock().expect("batcher lock poisoned");
            if map.get(key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
                map.remove(key);
            }
        }
        flight.publish(outcome, on_complete)
    }

    /// Fire every in-flight token (service shutdown): workers observe the
    /// tokens, abort their traversals, and publish cancellation outcomes,
    /// whose completion notifies every waiter's condvar.
    pub fn cancel_all(&self) {
        let map = self.inflight.lock().expect("batcher lock poisoned");
        for flight in map.values() {
            flight.token.cancel();
        }
    }

    /// Number of computations currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.lock().expect("batcher lock poisoned").len()
    }
}

// ------------------------------------------------- multi-source flights ---

/// An open multi-source BFS batch: the collector behind the `oracle`
/// query family. Where a [`Flight`] coalesces queries for the *same*
/// key, an `OracleBatch` coalesces queries for *distinct* sources on one
/// graph snapshot — they accumulate into a single source list and are
/// answered by one bit-parallel traversal
/// ([`pasgal_core::multi::multi_bfs`]-family), up to the word-width cap.
pub struct OracleBatch {
    /// The `(generation, epoch)` every source of this batch targets.
    snapshot: (u64, u64),
    state: Mutex<OracleBatchState>,
    flight: Arc<Flight>,
}

struct OracleBatchState {
    /// Distinct sources collected so far (the leader's first).
    sources: Vec<u32>,
    /// Set by the worker when it picks the batch up; no further sources
    /// may board after that.
    sealed: bool,
}

impl OracleBatch {
    fn new(snapshot: (u64, u64), src: u32, deadline: Option<Instant>) -> Self {
        Self {
            snapshot,
            state: Mutex::new(OracleBatchState {
                sources: vec![src],
                sealed: false,
            }),
            flight: Arc::new(Flight::new(deadline)),
        }
    }

    /// The shared flight every boarded query waits on.
    pub fn flight(&self) -> &Arc<Flight> {
        &self.flight
    }

    /// Board `src` onto the open batch: a duplicate source rides along
    /// for free; a new one takes a seat if the batch is still open and
    /// under `cap` seats. Fails once sealed, full, or abandoned. Lock
    /// order is batch state → flight state, matching module convention
    /// (outer structure → `Flight::state`).
    fn try_add(&self, src: u32, cap: usize, deadline: Option<Instant>) -> bool {
        let mut st = self.state.lock().expect("oracle batch lock poisoned");
        if st.sealed {
            return false;
        }
        let dup = st.sources.contains(&src);
        if !dup && st.sources.len() >= cap {
            return false;
        }
        let mut fst = self
            .flight
            .shared
            .state
            .lock()
            .expect("flight lock poisoned");
        if fst.abandoned && fst.result.is_none() {
            return false;
        }
        fst.joiners += 1;
        fst.note_deadline(deadline);
        drop(fst);
        if !dup {
            st.sources.push(src);
        }
        true
    }
}

/// Outcome of boarding a generation's open batch: the leader enqueues
/// the batch as a job; followers just wait on its flight.
pub enum OracleJoin {
    Leader(Arc<OracleBatch>),
    Follower(Arc<OracleBatch>),
}

/// Registry of multi-source batches, at most one boarding per graph
/// snapshot `(generation, epoch)`.
///
/// Lifecycle: the first query for a snapshot becomes the **leader**,
/// opens a batch, and enqueues it; queries arriving while the job sits in
/// the admission queue board as **followers**, each adding its (distinct)
/// source. The worker picking the job up calls [`seal`](Self::seal) —
/// closing boarding and snapshotting the source list — runs one
/// multi-source traversal, caches every column, and publishes the shared
/// [`DistanceOracle`] via [`complete`](Self::complete). Queueing delay is
/// thus *recycled* into batching opportunity: the longer the queue, the
/// fatter the flight, at zero added latency.
///
/// [`DistanceOracle`]: pasgal_core::multi::DistanceOracle
pub struct OracleBatcher {
    /// Every batch from open to [`complete`](Self::complete), oldest
    /// first. Only the newest batch of a snapshot may still board;
    /// sealed, full and superseded batches stay listed so
    /// [`cancel_all`](Self::cancel_all) reaches a running flight.
    live: Mutex<Vec<Arc<OracleBatch>>>,
    max_sources: usize,
    /// Live seat limit ≤ `max_sources`, lowered by the brownout
    /// controller under pressure (narrower flights finish sooner and
    /// hold less mask memory) and restored on recovery.
    width_cap: AtomicUsize,
}

impl OracleBatcher {
    /// `max_sources` caps seats per batch (clamped to the engine's
    /// [`MAX_SOURCES`](pasgal_core::multi::MAX_SOURCES) word-width limit).
    pub fn new(max_sources: usize) -> Self {
        let max_sources = max_sources.clamp(1, pasgal_core::multi::MAX_SOURCES);
        Self {
            live: Mutex::new(Vec::new()),
            max_sources,
            width_cap: AtomicUsize::new(max_sources),
        }
    }

    /// Lower (or restore) the live seat limit; clamped to
    /// `[1, max_sources]`. Already-boarded batches keep their seats —
    /// the cap applies to future boarding.
    pub fn set_width_cap(&self, cap: usize) {
        self.width_cap
            .store(cap.clamp(1, self.max_sources), Ordering::Relaxed);
    }

    /// The current live seat limit.
    pub fn width_cap(&self) -> usize {
        self.width_cap.load(Ordering::Relaxed)
    }

    /// Board the batch for `snapshot` (`(generation, epoch)`) without a
    /// deadline.
    pub fn join(&self, snapshot: (u64, u64), src: u32) -> OracleJoin {
        self.join_with_deadline(snapshot, src, None)
    }

    /// Board the newest batch for `snapshot`, opening a fresh one (as
    /// leader) if there is none, or if that batch is sealed, full, or
    /// abandoned. The joiner's `deadline` is stamped onto the batch
    /// flight exactly like [`Batcher::join_with_deadline`].
    pub fn join_with_deadline(
        &self,
        snapshot: (u64, u64),
        src: u32,
        deadline: Option<Instant>,
    ) -> OracleJoin {
        let cap = self.width_cap();
        let mut live = self.live.lock().expect("oracle batcher lock poisoned");
        if let Some(batch) = live.iter().rev().find(|b| b.snapshot == snapshot) {
            if batch.try_add(src, cap, deadline) {
                return OracleJoin::Follower(Arc::clone(batch));
            }
        }
        let batch = Arc::new(OracleBatch::new(snapshot, src, deadline));
        live.push(Arc::clone(&batch));
        OracleJoin::Leader(batch)
    }

    /// Worker-side: close boarding and snapshot the source list to
    /// compute. The next join for the snapshot opens a fresh batch; this
    /// one stays live (and cancellable) until [`complete`](Self::complete).
    pub fn seal(&self, batch: &Arc<OracleBatch>) -> Vec<u32> {
        let mut st = batch.state.lock().expect("oracle batch lock poisoned");
        st.sealed = true;
        st.sources.clone()
    }

    /// Retire the batch and publish its terminal outcome, waking every
    /// waiter; same contract as [`Batcher::complete`].
    pub fn complete(
        &self,
        batch: &Arc<OracleBatch>,
        outcome: FlightOutcome,
        on_complete: impl FnOnce(u64),
    ) -> u64 {
        self.live
            .lock()
            .expect("oracle batcher lock poisoned")
            .retain(|b| !Arc::ptr_eq(b, batch));
        batch.flight.publish(outcome, on_complete)
    }

    /// Fire every live batch's flight token (service shutdown), running
    /// ones included.
    pub fn cancel_all(&self) {
        let live = self.live.lock().expect("oracle batcher lock poisoned");
        for batch in live.iter() {
            batch.flight.token.cancel();
        }
    }

    /// Number of batches currently boarding, queued or running.
    pub fn open_batches(&self) -> usize {
        self.live
            .lock()
            .expect("oracle batcher lock poisoned")
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn key(src: u32) -> (ComputeKey, u64) {
        (ComputeKey::Dists { generation: 0, src }, 0)
    }

    fn value() -> ComputeValue {
        ComputeValue::Dists {
            dist: Arc::new(vec![1, 2, 3]),
            rounds: 1,
        }
    }

    #[test]
    fn leader_then_followers_share_one_result() {
        let b = Arc::new(Batcher::new());
        let leader = match b.join(key(7)) {
            Join::Leader(f) => f,
            Join::Follower(_) => panic!("first join must lead"),
        };
        let computations = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = Arc::clone(&b);
            let computations = Arc::clone(&computations);
            handles.push(std::thread::spawn(move || match b.join(key(7)) {
                Join::Leader(_) => {
                    computations.fetch_add(1, Ordering::SeqCst);
                    panic!("only one leader expected");
                }
                Join::Follower(f) => match f.wait(Duration::from_secs(5)).unwrap() {
                    FlightOutcome::Value(ComputeValue::Dists { dist, .. }) => dist.len(),
                    other => panic!("wrong outcome {other:?}"),
                },
            }));
        }
        // wait until all four followers have joined, then complete
        while leader.shared.state.lock().unwrap().joiners < 5 {
            std::thread::yield_now();
        }
        let batch = b.complete(&key(7), &leader, FlightOutcome::Value(value()), |_| {});
        assert_eq!(batch, 5);
        for h in handles {
            assert_eq!(h.join().unwrap(), 3);
        }
        assert_eq!(b.in_flight(), 0);
        assert_eq!(computations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn wait_times_out_when_leader_stalls() {
        let b = Batcher::new();
        let _leader = b.join(key(1));
        let f = match b.join(key(1)) {
            Join::Follower(f) => f,
            _ => panic!("second join must follow"),
        };
        assert!(f.wait(Duration::from_millis(10)).is_err());
    }

    #[test]
    fn failure_outcomes_propagate() {
        let b = Batcher::new();
        let leader = match b.join(key(2)) {
            Join::Leader(f) => f,
            _ => panic!("first join must lead"),
        };
        b.complete(
            &key(2),
            &leader,
            FlightOutcome::Failed("boom".into()),
            |_| {},
        );
        match leader.wait(Duration::from_secs(1)).unwrap() {
            FlightOutcome::Failed(msg) => assert_eq!(msg, "boom"),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn outcome_classification() {
        assert!(FlightOutcome::Overloaded.retryable());
        assert!(FlightOutcome::Failed("x".into()).retryable());
        assert!(!FlightOutcome::Cancelled.retryable());
        assert!(!FlightOutcome::Value(value()).retryable());
        assert!(FlightOutcome::Failed("x".into()).is_failure());
        assert!(!FlightOutcome::Overloaded.is_failure());
        assert!(!FlightOutcome::Cancelled.is_failure());
    }

    #[test]
    fn distinct_keys_fly_separately() {
        let b = Batcher::new();
        assert!(matches!(b.join(key(1)), Join::Leader(_)));
        assert!(matches!(b.join(key(2)), Join::Leader(_)));
        assert!(matches!(b.join(key(1)), Join::Follower(_)));
        assert_eq!(b.in_flight(), 2);
    }

    /// Regression for the leader-timeout edge: a leader that gives up
    /// waiting does NOT kill the flight while a follower is still live;
    /// the follower must still receive the worker's result.
    #[test]
    fn leader_timeout_leaves_followers_served() {
        let b = Arc::new(Batcher::new());
        let leader = match b.join(key(9)) {
            Join::Leader(f) => f,
            _ => panic!("first join must lead"),
        };
        let follower = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || match b.join(key(9)) {
                Join::Follower(f) => f.wait(Duration::from_secs(5)),
                _ => panic!("second join must follow"),
            })
        };
        // let the follower block in wait
        while leader.shared.state.lock().unwrap().waiting < 1 {
            std::thread::yield_now();
        }
        // leader's own wait times out; flight must NOT be abandoned
        assert!(matches!(
            leader.wait_cancellable(Duration::from_millis(5), &CancelToken::new()),
            Err(WaitAbort::Timeout)
        ));
        assert!(!leader.token().is_cancelled());
        b.complete(&key(9), &leader, FlightOutcome::Value(value()), |_| {});
        assert!(matches!(
            follower.join().unwrap(),
            Ok(FlightOutcome::Value(_))
        ));
    }

    /// The last live waiter departing abandons the flight, fires its
    /// token, and the next join for the key starts a fresh flight.
    #[test]
    fn last_waiter_abandons_and_rejoin_replaces() {
        let b = Batcher::new();
        let leader = match b.join(key(3)) {
            Join::Leader(f) => f,
            _ => panic!("first join must lead"),
        };
        assert!(matches!(
            leader.wait_cancellable(Duration::from_millis(5), &CancelToken::new()),
            Err(WaitAbort::Timeout)
        ));
        assert!(leader.token().is_cancelled());
        // the abandoned flight is replaced, not followed
        let fresh = match b.join(key(3)) {
            Join::Leader(f) => f,
            Join::Follower(_) => panic!("abandoned flight must be replaced"),
        };
        assert!(!fresh.token().is_cancelled());
        // the old worker retiring must not tear down the fresh flight
        b.complete(&key(3), &leader, FlightOutcome::Cancelled, |_| {});
        assert_eq!(b.in_flight(), 1);
        b.complete(&key(3), &fresh, FlightOutcome::Value(value()), |_| {});
        assert_eq!(b.in_flight(), 0);
    }

    #[test]
    fn caller_token_aborts_wait_quickly() {
        let b = Batcher::new();
        let leader = match b.join(key(4)) {
            Join::Leader(f) => f,
            _ => panic!("first join must lead"),
        };
        let caller = CancelToken::new();
        caller.cancel();
        let start = Instant::now();
        assert!(matches!(
            leader.wait_cancellable(Duration::from_secs(30), &caller),
            Err(WaitAbort::Cancelled)
        ));
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    /// A cancel arriving while the waiter is parked must wake it via the
    /// registered waker — there is no polling slice any more, so a missed
    /// wakeup would sleep the full 30 s timeout.
    #[test]
    fn mid_wait_cancel_wakes_parked_waiter() {
        let b = Arc::new(Batcher::new());
        let leader = match b.join(key(5)) {
            Join::Leader(f) => f,
            _ => panic!("first join must lead"),
        };
        let caller = CancelToken::new();
        let waiter = {
            let caller = caller.clone();
            let leader = Arc::clone(&leader);
            std::thread::spawn(move || leader.wait_cancellable(Duration::from_secs(30), &caller))
        };
        while leader.shared.state.lock().unwrap().waiting < 1 {
            std::thread::yield_now();
        }
        let start = Instant::now();
        caller.cancel();
        assert!(matches!(waiter.join().unwrap(), Err(WaitAbort::Cancelled)));
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    /// A caller whose token carries only a deadline is classified as
    /// DeadlineExceeded, not Cancelled; an explicit cancel wins even when
    /// a deadline has also expired.
    #[test]
    fn deadline_wait_classification() {
        let b = Batcher::new();
        let leader = match b.join(key(6)) {
            Join::Leader(f) => f,
            _ => panic!("first join must lead"),
        };
        let caller = CancelToken::at(Instant::now() + Duration::from_millis(20));
        let start = Instant::now();
        assert!(matches!(
            leader.wait_cancellable(Duration::from_secs(30), &caller),
            Err(WaitAbort::DeadlineExceeded)
        ));
        // woke at the deadline, not the 30 s timeout
        assert!(start.elapsed() < Duration::from_secs(5));

        let fresh = match b.join(key(6)) {
            Join::Leader(f) => f,
            _ => panic!("abandoned flight must be replaced"),
        };
        let caller = CancelToken::at(Instant::now() - Duration::from_millis(1));
        caller.cancel();
        assert!(matches!(
            fresh.wait_cancellable(Duration::from_secs(30), &caller),
            Err(WaitAbort::Cancelled)
        ));
    }

    /// Joiner deadlines fold into the flight stamp: max over joiners,
    /// cleared permanently by any unbounded joiner.
    #[test]
    fn flight_deadline_is_max_over_joiners_until_unbounded() {
        let b = Batcher::new();
        let near = Instant::now() + Duration::from_millis(50);
        let far = Instant::now() + Duration::from_secs(50);
        let leader = match b.join_with_deadline(key(8), Some(near)) {
            Join::Leader(f) => f,
            _ => panic!("first join must lead"),
        };
        assert_eq!(leader.deadline(), Some(near));
        // a later joiner extends the stamp
        assert!(matches!(
            b.join_with_deadline(key(8), Some(far)),
            Join::Follower(_)
        ));
        assert_eq!(leader.deadline(), Some(far));
        // an earlier joiner does not shrink it
        assert!(matches!(
            b.join_with_deadline(key(8), Some(near)),
            Join::Follower(_)
        ));
        assert_eq!(leader.deadline(), Some(far));
        // a deadline-less joiner clears it for good
        assert!(matches!(b.join(key(8)), Join::Follower(_)));
        assert_eq!(leader.deadline(), None);
        assert!(matches!(
            b.join_with_deadline(key(8), Some(near)),
            Join::Follower(_)
        ));
        assert_eq!(leader.deadline(), None);
        b.complete(&key(8), &leader, FlightOutcome::Cancelled, |_| {});
    }

    #[test]
    fn oracle_batch_deadline_stamping_and_width_cap() {
        let b = OracleBatcher::new(64);
        let near = Instant::now() + Duration::from_millis(50);
        let far = Instant::now() + Duration::from_secs(50);
        let leader = match b.join_with_deadline((3, 0), 1, Some(near)) {
            OracleJoin::Leader(batch) => batch,
            _ => panic!("first join must lead"),
        };
        assert_eq!(leader.flight().deadline(), Some(near));
        assert!(matches!(
            b.join_with_deadline((3, 0), 2, Some(far)),
            OracleJoin::Follower(_)
        ));
        assert_eq!(leader.flight().deadline(), Some(far));
        // brownout narrows future boarding to 2 seats: the third distinct
        // source overflows to a fresh batch
        b.set_width_cap(2);
        assert!(matches!(b.join((3, 0), 9), OracleJoin::Leader(_)));
        assert_eq!(b.width_cap(), 2);
        // restore (clamped to max_sources)
        b.set_width_cap(usize::MAX);
        assert_eq!(b.width_cap(), 64);
        b.complete(&leader, FlightOutcome::Cancelled, |_| {});
    }

    #[test]
    fn deadline_and_shed_outcomes_are_not_retryable() {
        assert!(!FlightOutcome::DeadlineExceeded.retryable());
        assert!(!FlightOutcome::DeadlineExceeded.is_failure());
        assert!(!FlightOutcome::Shed.retryable());
        assert!(!FlightOutcome::Shed.is_failure());
    }

    #[test]
    fn oracle_batch_collects_distinct_sources_until_sealed() {
        let b = OracleBatcher::new(64);
        let leader = match b.join((5, 0), 10) {
            OracleJoin::Leader(batch) => batch,
            OracleJoin::Follower(_) => panic!("first join must lead"),
        };
        assert!(matches!(b.join((5, 0), 11), OracleJoin::Follower(_)));
        assert!(matches!(b.join((5, 0), 10), OracleJoin::Follower(_))); // dup rides
        assert_eq!(b.open_batches(), 1);
        // a different generation opens its own batch
        assert!(matches!(b.join((6, 0), 10), OracleJoin::Leader(_)));
        let sources = b.seal(&leader);
        assert_eq!(sources, vec![10, 11]); // dup collapsed
                                           // sealed: the next join for generation 5 opens a fresh batch
        let fresh = match b.join((5, 0), 12) {
            OracleJoin::Leader(batch) => batch,
            OracleJoin::Follower(_) => panic!("sealed batch must be replaced"),
        };
        assert!(!Arc::ptr_eq(&fresh, &leader));
        // three boarded queries shared the sealed flight
        let batch_size = b.complete(&leader, FlightOutcome::Cancelled, |_| {});
        assert_eq!(batch_size, 3);
    }

    #[test]
    fn oracle_batch_full_batch_overflows_to_a_fresh_one() {
        let b = OracleBatcher::new(2);
        let first = match b.join((0, 0), 1) {
            OracleJoin::Leader(batch) => batch,
            _ => panic!("first join must lead"),
        };
        assert!(matches!(b.join((0, 0), 2), OracleJoin::Follower(_)));
        // seat 3 does not fit; a duplicate of a seated source still rides
        assert!(matches!(b.join((0, 0), 1), OracleJoin::Follower(_)));
        let second = match b.join((0, 0), 3) {
            OracleJoin::Leader(batch) => batch,
            OracleJoin::Follower(_) => panic!("full batch must overflow"),
        };
        assert_eq!(b.seal(&first), vec![1, 2]);
        assert_eq!(b.seal(&second), vec![3]);
        // retiring the displaced first batch must not tear down the second
        b.complete(&first, FlightOutcome::Cancelled, |_| {});
        b.complete(&second, FlightOutcome::Cancelled, |_| {});
        assert_eq!(b.open_batches(), 0);
    }

    #[test]
    fn oracle_batch_waiters_share_the_flight_outcome() {
        let b = Arc::new(OracleBatcher::new(64));
        let leader = match b.join((1, 0), 0) {
            OracleJoin::Leader(batch) => batch,
            _ => panic!("first join must lead"),
        };
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || match b.join((1, 0), 7) {
                OracleJoin::Follower(batch) => batch.flight().wait(Duration::from_secs(5)),
                OracleJoin::Leader(_) => panic!("second join must follow"),
            })
        };
        while leader.flight().shared.state.lock().unwrap().waiting < 1 {
            std::thread::yield_now();
        }
        let sources = b.seal(&leader);
        assert_eq!(sources, vec![0, 7]);
        b.complete(&leader, FlightOutcome::Value(value()), |_| {});
        assert!(matches!(
            waiter.join().unwrap(),
            Ok(FlightOutcome::Value(_))
        ));
    }

    #[test]
    fn abandoned_oracle_batch_is_replaced_on_next_join() {
        let b = OracleBatcher::new(64);
        let leader = match b.join((2, 0), 4) {
            OracleJoin::Leader(batch) => batch,
            _ => panic!("first join must lead"),
        };
        // the only waiter departs resultless → flight abandoned
        assert!(matches!(
            leader
                .flight()
                .wait_cancellable(Duration::from_millis(5), &CancelToken::new()),
            Err(WaitAbort::Timeout)
        ));
        assert!(leader.flight().token().is_cancelled());
        let fresh = match b.join((2, 0), 4) {
            OracleJoin::Leader(batch) => batch,
            OracleJoin::Follower(_) => panic!("abandoned batch must be replaced"),
        };
        assert!(!fresh.flight().token().is_cancelled());
        // shutdown reaches a sealed (running) batch, not only boarding ones
        b.seal(&fresh);
        b.cancel_all();
        assert!(fresh.flight().token().is_cancelled());
    }

    /// A joiner at a later epoch of the same key (or, for oracle columns,
    /// of the same generation) opens its own flight.
    #[test]
    fn later_epoch_never_joins_an_earlier_flight() {
        let b = Batcher::new();
        let k = ComputeKey::Dists {
            generation: 0,
            src: 1,
        };
        assert!(matches!(b.join((k, 0)), Join::Leader(_)));
        assert!(matches!(b.join((k, 1)), Join::Leader(_)));
        assert!(matches!(b.join((k, 0)), Join::Follower(_)));
        let o = OracleBatcher::new(64);
        assert!(matches!(o.join((0, 0), 1), OracleJoin::Leader(_)));
        assert!(matches!(o.join((0, 1), 2), OracleJoin::Leader(_)));
        assert!(matches!(o.join((0, 0), 2), OracleJoin::Follower(_)));
    }

    #[test]
    fn cancel_all_fires_every_flight_token() {
        let b = Batcher::new();
        let f1 = match b.join(key(1)) {
            Join::Leader(f) => f,
            _ => panic!("first join must lead"),
        };
        let f2 = match b.join(key(2)) {
            Join::Leader(f) => f,
            _ => panic!("first join must lead"),
        };
        b.cancel_all();
        assert!(f1.token().is_cancelled());
        assert!(f2.token().is_cancelled());
    }
}
