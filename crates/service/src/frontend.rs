//! Event-driven front end: a readiness loop multiplexing many pipelined
//! connections over a few I/O threads.
//!
//! A thread per connection stops scaling past a few hundred clients (the
//! scheduler thrashes); this front end keeps the thread count fixed:
//!
//! * One **accept thread** hands new sockets round-robin to the I/O
//!   threads through per-thread inboxes plus a [`Waker`].
//! * Each **I/O thread** owns a [`Poller`] and a set of nonblocking
//!   connections. Reads drain into per-connection [`FrameBuf`]s; every
//!   complete frame becomes a job for the owning shard's executor pool.
//!   Responses come back tagged with the frame's per-connection sequence
//!   number and are written **in arrival order** through a reorder
//!   buffer, so pipelined clients can match responses to requests
//!   positionally.
//! * Per-shard **executor pools** run the blocking service dispatch
//!   ([`crate::shard::handle_sharded_request`]), so admission control,
//!   deadlines, breakers, brownout, and every metrics identity are the
//!   in-process service's own.
//!
//! Backpressure is per connection: once `pipeline_depth` frames are in
//! flight (parsed but not yet answered into the write buffer), the I/O
//! thread stops parsing — and once the frame buffer holds a full frame's
//! worth of unparsed bytes it also drops read interest, so a client
//! blasting requests is throttled by TCP instead of ballooning memory.

use crate::json::Json;
use crate::metrics::{FrontendSnapshot, FrontendStats};
use crate::poller::{Interest, Poller, Waker};
use crate::protocol::{decode_request, encode_response, FrameBuf, WireMode, MAX_FRAME_BYTES};
use crate::query::ServiceError;
use crate::shard::{handle_sharded_request, ShardedService};
use pasgal_core::common::CancelToken;
use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Poll-loop token reserved for the waker.
const WAKE_TOKEN: usize = usize::MAX;

/// Idle poll timeout: the loop re-checks the shutdown flag this often.
const POLL_TIMEOUT: Duration = Duration::from_millis(100);

/// Event front end tuning.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// I/O threads (each runs a poller over its share of connections).
    pub io_threads: usize,
    /// Frames a single connection may have in flight (parsed, not yet
    /// answered) before the I/O thread stops parsing it.
    pub pipeline_depth: usize,
    /// Executor threads per shard running the blocking dispatch.
    pub executors_per_shard: usize,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        FrontendConfig {
            io_threads: cores.clamp(1, 4),
            pipeline_depth: 128,
            executors_per_shard: 4,
        }
    }
}

/// One unit of work for a shard executor.
struct Job {
    request: Json,
    seq: u64,
    mode: WireMode,
    conn: Arc<ConnShared>,
}

/// State a connection shares with executors: its cancel token and the
/// mailbox where finished responses land (any order; the I/O thread
/// re-sequences them).
struct ConnShared {
    token: CancelToken,
    completed: Mutex<Vec<(u64, Vec<u8>)>>,
    /// Waker of the I/O thread that owns the connection.
    waker: Arc<Waker>,
}

/// A running event front end; dropping it (or [`EventServer::shutdown`])
/// drains and stops every thread.
pub struct EventServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Set once the drain deadline passes: I/O threads drop connections
    /// without waiting for unflushed output.
    force_close: Arc<AtomicBool>,
    stats: Arc<FrontendStats>,
    sharded: Arc<ShardedService>,
    wakers: Vec<Arc<Waker>>,
    accept_thread: Option<JoinHandle<()>>,
    io_threads: Vec<JoinHandle<()>>,
    executor_threads: Vec<JoinHandle<()>>,
    /// Kept so dropping the server closes the executor channels.
    senders: Vec<Sender<Job>>,
    /// The tuning actually in effect (after clamping), for banners.
    config: FrontendConfig,
}

impl EventServer {
    /// Bind `addr` (port 0 for ephemeral) and serve `sharded` with
    /// `config` I/O threads and executors.
    pub fn spawn(
        sharded: Arc<ShardedService>,
        addr: &str,
        config: FrontendConfig,
    ) -> std::io::Result<EventServer> {
        let config = FrontendConfig {
            io_threads: config.io_threads.max(1),
            pipeline_depth: config.pipeline_depth.max(1),
            executors_per_shard: config.executors_per_shard.max(1),
        };
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let force_close = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(FrontendStats::new());

        // per-shard executor pools
        let mut senders = Vec::new();
        let mut executor_threads = Vec::new();
        for shard_idx in 0..sharded.num_shards() {
            let (tx, rx) = std::sync::mpsc::channel::<Job>();
            let rx = Arc::new(Mutex::new(rx));
            senders.push(tx);
            for exec_idx in 0..config.executors_per_shard.max(1) {
                let rx = Arc::clone(&rx);
                let fleet = Arc::clone(&sharded);
                let stats = Arc::clone(&stats);
                let flag = Arc::clone(&shutdown);
                executor_threads.push(
                    std::thread::Builder::new()
                        .name(format!("pasgal-exec-{shard_idx}-{exec_idx}"))
                        .spawn(move || executor_loop(rx, fleet, stats, flag))?,
                );
            }
        }

        // I/O threads
        let mut wakers = Vec::new();
        let mut inboxes = Vec::new();
        let mut io_threads = Vec::new();
        for io_idx in 0..config.io_threads.max(1) {
            let waker = Arc::new(Waker::new()?);
            let inbox: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
            wakers.push(Arc::clone(&waker));
            inboxes.push(Arc::clone(&inbox));
            let ctx = IoCtx {
                waker,
                inbox,
                sharded: Arc::clone(&sharded),
                senders: senders.clone(),
                stats: Arc::clone(&stats),
                shutdown: Arc::clone(&shutdown),
                force_close: Arc::clone(&force_close),
                pipeline_depth: config.pipeline_depth.max(1),
            };
            io_threads.push(
                std::thread::Builder::new()
                    .name(format!("pasgal-io-{io_idx}"))
                    .spawn(move || io_loop(ctx))?,
            );
        }

        // accept thread: round-robin handoff
        let accept_thread = {
            let flag = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let wakers = wakers.clone();
            let inboxes = inboxes.clone();
            std::thread::Builder::new()
                .name("pasgal-ev-accept".into())
                .spawn(move || {
                    let mut next = 0usize;
                    for stream in listener.incoming() {
                        if flag.load(Ordering::SeqCst) {
                            return;
                        }
                        let Ok(stream) = stream else { continue };
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        stats.connection_opened();
                        let i = next % inboxes.len();
                        next = next.wrapping_add(1);
                        inboxes[i].lock().expect("inbox poisoned").push(stream);
                        wakers[i].wake();
                    }
                })?
        };

        Ok(EventServer {
            addr,
            shutdown,
            force_close,
            stats,
            sharded,
            wakers,
            accept_thread: Some(accept_thread),
            io_threads,
            executor_threads,
            senders,
            config,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection-level counters.
    pub fn stats(&self) -> FrontendSnapshot {
        self.stats.snapshot()
    }

    /// The tuning in effect (clamped to sane minimums at spawn).
    pub fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// [`EventServer::shutdown_with_deadline`] with a 5-second drain.
    pub fn shutdown(&mut self) {
        self.shutdown_with_deadline(Duration::from_secs(5));
    }

    /// Graceful shutdown: stop accepting, cancel every connection and
    /// in-flight computation, then wait up to `drain` for connections to
    /// flush final responses and close. Idempotent.
    pub fn shutdown_with_deadline(&mut self, drain: Duration) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr); // unblock accept()
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // each I/O thread cancels its connections' tokens once woken
        self.sharded.cancel_inflight();
        for w in &self.wakers {
            w.wake();
        }
        let deadline = Instant::now() + drain;
        while self.stats.snapshot().connections_open > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // past the deadline: stop waiting on clients that won't read
        self.force_close.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            w.wake();
        }
        for h in self.io_threads.drain(..) {
            let _ = h.join();
        }
        self.senders.clear(); // disconnect executor channels
        for h in self.executor_threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for EventServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn executor_loop(
    rx: Arc<Mutex<Receiver<Job>>>,
    fleet: Arc<ShardedService>,
    stats: Arc<FrontendStats>,
    shutdown: Arc<AtomicBool>,
) {
    loop {
        let job = {
            let guard = rx.lock().expect("executor rx poisoned");
            match guard.recv_timeout(POLL_TIMEOUT) {
                Ok(job) => job,
                Err(RecvTimeoutError::Timeout) => {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    continue;
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
        let mut response = handle_sharded_request(&fleet, &job.request, &job.conn.token);
        if job.request.get("op").and_then(Json::as_str) == Some("metrics") {
            // connection counters live in the front end, not the shards
            stats.snapshot().inject(&mut response);
        }
        let mut bytes = Vec::new();
        encode_response(job.mode, &response, &mut bytes);
        stats.frame_out();
        job.conn
            .completed
            .lock()
            .expect("conn mailbox poisoned")
            .push((job.seq, bytes));
        job.conn.waker.wake();
    }
}

/// Everything an I/O thread needs.
struct IoCtx {
    waker: Arc<Waker>,
    inbox: Arc<Mutex<Vec<TcpStream>>>,
    sharded: Arc<ShardedService>,
    senders: Vec<Sender<Job>>,
    stats: Arc<FrontendStats>,
    shutdown: Arc<AtomicBool>,
    force_close: Arc<AtomicBool>,
    pipeline_depth: usize,
}

/// Per-connection state owned by its I/O thread.
struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    shared: Arc<ConnShared>,
    /// Sequence assigned to the next parsed frame.
    next_seq: u64,
    /// Sequence the next in-order response must carry.
    deliver_seq: u64,
    /// Out-of-order responses waiting for their turn.
    reorder: BTreeMap<u64, Vec<u8>>,
    outbuf: Vec<u8>,
    written: usize,
    /// The peer closed its write side; close once what it sent is parsed.
    eof: bool,
    /// Stop reading/parsing; close once all responses are flushed.
    closing: bool,
    /// Tear down now, without waiting for pending responses.
    error: bool,
    interest: Interest,
}

impl Conn {
    /// Frames parsed but not yet answered into the write buffer.
    fn inflight(&self) -> u64 {
        self.next_seq - self.deliver_seq
    }

    /// The framing to encode responses in (lines until negotiated).
    fn mode(&self) -> WireMode {
        match self.frames.mode() {
            WireMode::Binary => WireMode::Binary,
            _ => WireMode::Lines,
        }
    }

    /// Queue a response produced on the I/O thread itself (decode errors
    /// and fatal framing errors) under the next sequence number.
    fn push_local_response(&mut self, response: &Json) {
        let mut bytes = Vec::new();
        encode_response(self.mode(), response, &mut bytes);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.reorder.insert(seq, bytes);
    }
}

fn io_loop(ctx: IoCtx) {
    let Ok(poller) = Poller::new() else { return };
    if ctx.waker.register(&poller, WAKE_TOKEN).is_err() {
        return;
    }
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut events = Vec::new();
    loop {
        events.clear();
        let _ = poller.wait(&mut events, Some(POLL_TIMEOUT));
        let shutting_down = ctx.shutdown.load(Ordering::SeqCst);

        let mut woken = false;
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                woken = true;
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue;
            };
            if ev.hangup && !ev.readable {
                conn.error = true;
                continue;
            }
            if ev.readable {
                read_conn(conn, &ctx);
            }
            if ev.writable {
                flush_conn(conn);
            }
        }
        if woken {
            ctx.waker.drain();
            for stream in ctx.inbox.lock().expect("inbox poisoned").drain(..) {
                accept_conn(stream, &poller, &mut conns, &ctx);
            }
        }

        // pump executor responses (wakes are coalesced, so scan all)
        for conn in conns.values_mut() {
            pump_responses(conn);
            flush_conn(conn);
        }

        if shutting_down {
            // cancelled queries still produce responses; give each conn
            // its flush, then close everything
            let force = ctx.force_close.load(Ordering::SeqCst);
            for conn in conns.values_mut() {
                conn.closing = true;
                conn.shared.token.cancel();
                if force {
                    conn.error = true;
                }
            }
        }

        // parse any frames unblocked by delivered responses, fix
        // interest, and reap finished connections
        let done: Vec<usize> = conns
            .iter_mut()
            .filter_map(|(&token, conn)| {
                if !conn.error && !conn.closing {
                    parse_frames(conn, &ctx);
                }
                let drained = conn.inflight() == 0
                    && conn.reorder.is_empty()
                    && conn.written == conn.outbuf.len();
                if conn.error || (conn.closing && drained) {
                    return Some(token);
                }
                update_interest(conn, &poller, &ctx);
                None
            })
            .collect();
        for token in done {
            if let Some(conn) = conns.remove(&token) {
                let _ = poller.deregister(conn.stream.as_raw_fd());
                conn.shared.token.cancel();
                ctx.stats.connection_closed();
            }
        }

        if shutting_down && conns.is_empty() {
            return;
        }
    }
}

fn accept_conn(stream: TcpStream, poller: &Poller, conns: &mut HashMap<usize, Conn>, ctx: &IoCtx) {
    // the fd names the connection to the poller: unique while it is open
    let poll_token = stream.as_raw_fd() as usize;
    let conn = Conn {
        stream,
        frames: FrameBuf::new(),
        shared: Arc::new(ConnShared {
            token: CancelToken::new(),
            completed: Mutex::new(Vec::new()),
            waker: Arc::clone(&ctx.waker),
        }),
        next_seq: 0,
        deliver_seq: 0,
        reorder: BTreeMap::new(),
        outbuf: Vec::new(),
        written: 0,
        eof: false,
        closing: false,
        error: false,
        interest: Interest::READ,
    };
    if poller
        .register(conn.stream.as_raw_fd(), poll_token, Interest::READ)
        .is_err()
    {
        ctx.stats.connection_closed();
        return;
    }
    conns.insert(poll_token, conn);
}

/// Drain the socket into the frame buffer (bounded per pass so one loud
/// connection cannot starve the rest of the poll set).
fn read_conn(conn: &mut Conn, ctx: &IoCtx) {
    let mut buf = [0u8; 16 * 1024];
    let mut budget = 4; // ≤ 64 KiB per readiness event; level-trigger re-fires
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                // The peer closed its write side. A client that is gone
                // and one that half-closed look the same from here, so
                // both get the same treatment: what is computing is
                // abandoned rather than finished into the void, and
                // every request received still gets its one reply.
                conn.eof = true;
                conn.shared.token.cancel();
                break;
            }
            Ok(n) => {
                ctx.stats.bytes_in(n as u64);
                conn.frames.push(&buf[..n]);
                budget -= 1;
                if budget == 0 || n < buf.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.error = true;
                return;
            }
        }
    }
    parse_frames(conn, ctx);
}

/// Parse complete frames while the pipeline has room, handing each to
/// its shard's executors.
fn parse_frames(conn: &mut Conn, ctx: &IoCtx) {
    while conn.inflight() < ctx.pipeline_depth as u64 {
        match conn.frames.next_frame() {
            Ok(Some(payload)) => {
                ctx.stats.frame_in();
                let mode = conn.mode();
                match decode_request(conn.frames.mode(), &payload) {
                    Ok(request) => {
                        let shard = ctx.sharded.route(&request);
                        let job = Job {
                            request,
                            seq: conn.next_seq,
                            mode,
                            conn: Arc::clone(&conn.shared),
                        };
                        conn.next_seq += 1;
                        if ctx.senders[shard].send(job).is_err() {
                            // executors gone (shutdown): answer in place
                            conn.next_seq -= 1;
                            ctx.stats.frame_out();
                            conn.push_local_response(&ServiceError::Cancelled.to_json());
                        }
                    }
                    Err(msg) => {
                        ctx.stats.frame_bad();
                        ctx.stats.frame_out();
                        conn.push_local_response(&ServiceError::BadRequest(msg).to_json());
                    }
                }
            }
            Ok(None) => {
                conn.closing |= conn.eof;
                break;
            }
            Err(e) => {
                // unframeable stream: one final error, then drain & close
                ctx.stats.frame_bad();
                ctx.stats.frame_out();
                conn.push_local_response(&e.to_response());
                conn.closing = true;
                break;
            }
        }
    }
    pump_responses(conn);
}

/// Move finished responses into the reorder buffer, then append every
/// in-order response to the write buffer.
fn pump_responses(conn: &mut Conn) {
    {
        let mut completed = conn.shared.completed.lock().expect("conn mailbox poisoned");
        for (seq, bytes) in completed.drain(..) {
            conn.reorder.insert(seq, bytes);
        }
    }
    while let Some(bytes) = conn.reorder.remove(&conn.deliver_seq) {
        conn.outbuf.extend_from_slice(&bytes);
        conn.deliver_seq += 1;
    }
    // compact the flushed prefix once it dominates the buffer
    if conn.written > 0 && conn.written >= conn.outbuf.len() / 2 {
        conn.outbuf.drain(..conn.written);
        conn.written = 0;
    }
}

/// Write as much buffered output as the socket accepts.
fn flush_conn(conn: &mut Conn) {
    while conn.written < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[conn.written..]) {
            Ok(0) => {
                conn.error = true;
                return;
            }
            Ok(n) => conn.written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.error = true;
                return;
            }
        }
    }
}

/// Keep poll interest in sync with what the connection can make progress
/// on: read while the pipeline and frame buffer have room, write while
/// output is buffered.
fn update_interest(conn: &mut Conn, poller: &Poller, ctx: &IoCtx) {
    let backpressured = conn.inflight() >= ctx.pipeline_depth as u64
        || conn.frames.pending_bytes() > MAX_FRAME_BYTES;
    let want = Interest {
        readable: !conn.closing && !conn.eof && !backpressured,
        writable: conn.written < conn.outbuf.len(),
    };
    let fd = conn.stream.as_raw_fd();
    if want != conn.interest && poller.modify(fd, fd as usize, want).is_ok() {
        conn.interest = want;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        decode_binary_response, encode_binary_request, BINARY_MAGIC, TAG_BFS, TAG_PTP,
    };
    use crate::service::ServiceConfig;
    use pasgal_graph::gen::basic::grid2d;
    use std::io::{BufRead, BufReader};

    fn event_server(shards: usize) -> EventServer {
        let fleet = Arc::new(ShardedService::new(
            ServiceConfig {
                workers: 2,
                queue_capacity: 16,
                ..ServiceConfig::default()
            },
            shards,
        ));
        fleet.register("g", grid2d(6, 9));
        EventServer::spawn(
            fleet,
            "127.0.0.1:0",
            FrontendConfig {
                io_threads: 2,
                pipeline_depth: 32,
                executors_per_shard: 2,
            },
        )
        .unwrap()
    }

    #[test]
    fn json_lines_round_trip_and_port_zero() {
        let mut server = event_server(2);
        assert_ne!(
            server.local_addr().port(),
            0,
            "port 0 resolves to the bound port"
        );
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for (req, check) in [
            (r#"{"op":"stats","graph":"g"}"#, "\"n\":54"),
            (
                r#"{"op":"bfs","graph":"g","src":0,"target":53}"#,
                "\"dist\":13",
            ),
            (r#"{"op":"metrics"}"#, "\"connections_open\":1"),
        ] {
            writer.write_all(req.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(check), "{req} → {line}");
        }
        server.shutdown();
        let s = server.stats();
        assert!(s.reconciles(), "{s:?}");
        assert_eq!(s.frames_in, 3);
    }

    #[test]
    fn pipelined_burst_answers_in_order() {
        let mut server = event_server(1);
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // a burst of distinct queries in one write; responses must come
        // back positionally (dist grows with the target's grid distance)
        let mut burst = String::new();
        for target in [1u32, 9, 10, 53, 0] {
            burst.push_str(&format!(
                "{{\"op\":\"bfs\",\"graph\":\"g\",\"src\":0,\"target\":{target}}}\n"
            ));
        }
        writer.write_all(burst.as_bytes()).unwrap();
        let expect = [1u64, 1, 2, 13, 0];
        for (i, want) in expect.into_iter().enumerate() {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(
                line.contains(&format!("\"dist\":{want}")),
                "response {i}: {line}"
            );
        }
        server.shutdown();
        assert!(server.stats().reconciles());
    }

    #[test]
    fn binary_protocol_round_trip() {
        let mut server = event_server(2);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut wire = BINARY_MAGIC.to_vec();
        encode_binary_request(TAG_BFS, "g", 0, Some(53), None, &mut wire);
        encode_binary_request(TAG_PTP, "g", 0, Some(9), None, &mut wire);
        wire.extend_from_slice(&5u32.to_le_bytes());
        wire.extend_from_slice(&[0x99, 1, 2, 3, 4]); // unknown tag: recoverable
        encode_binary_request(TAG_BFS, "g", 53, Some(0), Some(30_000), &mut wire);
        stream.write_all(&wire).unwrap();
        let mut fb = FrameBuf::with_mode(WireMode::Binary);
        let mut replies = Vec::new();
        let mut buf = [0u8; 4096];
        while replies.len() < 4 {
            let n = stream.read(&mut buf).unwrap();
            assert!(n > 0, "server closed early");
            fb.push(&buf[..n]);
            while let Ok(Some(payload)) = fb.next_frame() {
                replies.push(decode_binary_response(&payload).unwrap());
            }
        }
        assert_eq!(replies[0].get("dist").and_then(Json::as_u64), Some(13));
        assert_eq!(replies[1].get("dist").and_then(Json::as_u64), Some(1));
        assert_eq!(
            replies[2].get("kind").and_then(Json::as_str),
            Some("bad_request"),
            "{}",
            replies[2]
        );
        assert_eq!(replies[3].get("dist").and_then(Json::as_u64), Some(13));
        drop(stream);
        server.shutdown();
        let s = server.stats();
        assert!(s.reconciles(), "{s:?}");
        assert_eq!(s.frames_bad, 1);
    }

    #[test]
    fn register_and_query_across_shards_over_tcp() {
        let fleet = Arc::new(ShardedService::new(ServiceConfig::default(), 4));
        for name in ["alpha", "beta", "gamma"] {
            fleet.register(name, grid2d(4, 4));
        }
        let mut server =
            EventServer::spawn(fleet, "127.0.0.1:0", FrontendConfig::default()).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"op\":\"list\"}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        for name in ["alpha", "beta", "gamma"] {
            assert!(line.contains(name), "{line}");
        }
        writer.write_all(b"{\"op\":\"health\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ready\":true"), "{line}");
        assert!(line.contains("\"graphs\":3"), "{line}");
        server.shutdown();
    }

    #[test]
    fn oversized_line_gets_error_then_close() {
        let mut server = event_server(1);
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..(MAX_FRAME_BYTES / chunk.len() + 2) {
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
        let _ = writer.flush();
        let _ = writer.shutdown(std::net::Shutdown::Write);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("bad_request"), "{line}");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap_or(0), 0, "{rest:?}");
        server.shutdown();
    }

    #[test]
    fn non_utf8_line_gets_bad_request_and_connection_survives() {
        let mut server = event_server(1);
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(&[0xff, 0xfe, 0x80, b'\n']).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("bad_request"), "{line}");
        assert!(line.contains("UTF-8"), "{line}");
        writer
            .write_all(b"{\"op\":\"stats\",\"graph\":\"g\"}\n")
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        server.shutdown();
        assert_eq!(server.stats().frames_bad, 1);
    }

    fn wait_for_busy(fleet: &ShardedService, want: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while fleet.merged_metrics().workers_busy != want {
            assert!(
                Instant::now() < deadline,
                "workers_busy never became {want}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A client with a far BFS computing on the fleet's only worker.
    /// τ = 1 on a long path is one vertex per round: the traversal takes
    /// seconds unless something cancels it.
    fn slow_query_in_flight() -> (Arc<ShardedService>, EventServer, TcpStream) {
        let fleet = Arc::new(ShardedService::new(
            ServiceConfig {
                workers: 1,
                tau: 1,
                adaptive_tau: false,
                ..ServiceConfig::default()
            },
            1,
        ));
        fleet.register("p", pasgal_graph::gen::basic::path(200_000));
        // depth 1: whatever follows the BFS stays buffered, unparsed
        let config = FrontendConfig {
            pipeline_depth: 1,
            ..FrontendConfig::default()
        };
        let server = EventServer::spawn(Arc::clone(&fleet), "127.0.0.1:0", config).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"{\"op\":\"bfs\",\"graph\":\"p\",\"src\":0,\"target\":199999}\n")
            .unwrap();
        wait_for_busy(&fleet, 1);
        (fleet, server, stream)
    }

    #[test]
    fn disconnect_mid_flight_frees_the_worker() {
        let (fleet, mut server, stream) = slow_query_in_flight();
        drop(stream);
        wait_for_busy(&fleet, 0);
        let m = fleet.merged_metrics();
        assert_eq!(m.cancelled, 1, "{m:?}");
        assert_eq!(m.completed, 0, "{m:?}");
        assert_eq!(m.computations_cancelled, 1, "{m:?}");
        server.shutdown();
    }

    /// The half-close contract, pinned: shutting down the write side with
    /// a query still computing cancels it exactly as a disconnect does —
    /// the two are one event on the wire — but each request still gets
    /// its reply, in order, before the server closes its side.
    #[test]
    fn half_close_cancels_what_is_computing_and_still_answers_in_order() {
        let (fleet, mut server, mut stream) = slow_query_in_flight();
        stream
            .write_all(b"{\"op\":\"stats\",\"graph\":\"p\"}\n")
            .unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let replies: Vec<String> = BufReader::new(stream).lines().map(Result::unwrap).collect();
        assert_eq!(replies.len(), 2, "{replies:?}");
        assert!(replies[0].contains("\"kind\":\"cancelled\""), "{replies:?}");
        assert!(replies[1].contains("\"n\":200000"), "{replies:?}");
        wait_for_busy(&fleet, 0);
        server.shutdown();
        assert!(server.stats().reconciles());
    }

    #[test]
    fn shutdown_drains_idle_connections() {
        let mut server = event_server(2);
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        writer
            .write_all(b"{\"op\":\"stats\",\"graph\":\"g\"}\n")
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"ok\":true"), "{line}");
        let start = Instant::now();
        server.shutdown_with_deadline(Duration::from_secs(5));
        assert!(start.elapsed() < Duration::from_secs(5), "drain hung");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap_or(0), 0);
    }
}
