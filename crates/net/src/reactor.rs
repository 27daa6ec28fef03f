//! The TCP server: one blocking thread per connection, serving framed
//! RPC with nothing that polls.
//!
//! The workspace denies `unsafe_code`, so there is no `epoll`; what safe
//! `std` offers at zero idle cost is a thread blocked in a system call.
//! Every thread here is blocked in one until it has work (DESIGN.md §11):
//!
//! * **Who reads.** The acceptor (`dasp-acceptor`) blocks in `accept` and
//!   gives every connection its own thread (`dasp-reactor-<n>`), which
//!   blocks in `read`, feeds a [`FrameDecoder`] and dispatches every
//!   complete request; a [`FrameKind::BatchRequest`] is one dispatch per
//!   sub-message.
//! * **Who runs.** The connection thread runs a request itself when
//!   [`SharedService::runs_inline`] returned `true` for it, or when there
//!   is no pool (`workers == 0`: everything inline) — and never
//!   otherwise. `runs_inline` is the service's promise that the request
//!   cannot block, so a connection's reads are never queued behind its
//!   own or anyone's writes. Every other request is copied to the bounded
//!   worker pool (`dasp-tcp-worker-<w>`).
//! * **Who writes.** Whoever produced the response. It is staged on the
//!   connection, and the thread that finds no flush in flight becomes the
//!   leader: outside the lock it encodes everything staged, writes it,
//!   and repeats until nothing is staged; a thread that finds a leader
//!   leaves its response for it. So at most one thread is ever blocked
//!   on one peer, and responses finishing together share a `write` — for
//!   a peer that has sent a batch frame, a [`FrameKind::BatchResponse`]
//!   envelope (a peer that never batches only ever sees plain
//!   `Response` frames).
//! * **Backpressure.** The connection thread stops reading — blocks —
//!   while the connection has [`ReactorConfig::max_inflight_per_conn`]
//!   requests in the pool or [`ReactorConfig::max_outbound_bytes`] of
//!   responses not yet written, or while the job queue is full. Together
//!   with the decoder's frame cap these bound a connection's memory.
//! * **Stall.** A response write that makes no progress for
//!   [`WRITE_STALL_LIMIT`] closes the connection: a peer that does not
//!   read holds one thread, for that long.
//! * **Errors.** Any byte stream ends in a typed [`crate::FrameError`],
//!   a `protocol_errors` count and a clean close, never a panic.
//! * **Shutdown.** [`TcpServer::shutdown`] returns only after every
//!   thread above has exited and every socket is closed.

use crate::channel::{bounded, spawn_workers, Sender, TrySendError};
use crate::wire::{
    batch_items, encode_frame_into, BatchFrameBuilder, FrameDecoder, FrameKind, MAX_FRAME_BODY,
};
use crate::SharedService;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for a [`TcpServer`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Ignored. There are no shards: every connection has its own
    /// thread. The field remains only because `benchmark/` names it.
    pub shards: usize,
    /// Service worker threads draining the shared request queue.
    /// `0` selects *inline mode*: no worker pool — every request runs on
    /// the thread of the connection that sent it, which then serves
    /// nothing else until the handler returns. Right for cheap handlers;
    /// keep a pool (the default) for services that can block.
    pub workers: usize,
    /// Largest accepted frame body (guards a corrupt length prefix).
    pub max_frame_body: u32,
    /// Requests a single connection may have in the pool before its
    /// thread stops reading.
    pub max_inflight_per_conn: usize,
    /// Response bytes a connection may hold un-written before its thread
    /// stops reading.
    pub max_outbound_bytes: usize,
    /// Capacity of the shared request queue; a connection thread that
    /// finds it full blocks until a worker takes a job.
    pub job_queue: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ReactorConfig {
            shards: 1,
            workers: cores.min(4),
            max_frame_body: MAX_FRAME_BODY,
            max_inflight_per_conn: 256,
            max_outbound_bytes: 8 << 20,
            job_queue: 4096,
        }
    }
}

/// Longest a response write may make no progress before the connection
/// is closed — the bound [`crate::TcpClientConfig::write_timeout`] puts
/// on the client's own writes.
pub const WRITE_STALL_LIMIT: Duration = Duration::from_secs(1);

/// How long the acceptor parks after a failed `accept` (or `shutdown`
/// after a failed wake-up connect). Running out of descriptors does not
/// consume the pending connection, so an immediate retry would spin.
/// Armed by a failure only: an idle server has no timer.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

/// Bytes a connection thread asks the socket for at a time.
const READ_CHUNK: usize = 16 * 1024;

/// Write-buffer capacity a connection keeps through quiet periods; see
/// [`Conn::flush`] for the shrink policy.
const OUT_RETAIN: usize = 64 * 1024;

#[derive(Default)]
struct StatsInner {
    accepted: AtomicU64,
    open: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    batch_frames_in: AtomicU64,
    batch_frames_out: AtomicU64,
    protocol_errors: AtomicU64,
    backpressure_pauses: AtomicU64,
}

/// Point-in-time counters of a [`TcpServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStatsSnapshot {
    /// Connections accepted since start.
    pub accepted: u64,
    /// Connections currently open.
    pub open: u64,
    /// Request messages admitted (batch sub-requests count individually).
    pub frames_in: u64,
    /// Response messages written (batch sub-responses count
    /// individually).
    pub frames_out: u64,
    /// Batch envelopes decoded from clients.
    pub batch_frames_in: u64,
    /// Batch envelopes coalesced onto the wire.
    pub batch_frames_out: u64,
    /// Connections closed for violating the frame protocol.
    pub protocol_errors: u64,
    /// Times a connection thread stopped reading for backpressure.
    pub backpressure_pauses: u64,
}

/// Shared, cheaply cloneable server counters.
#[derive(Clone, Default)]
pub struct ServerStats(Arc<StatsInner>);

impl ServerStats {
    /// Snapshot all counters.
    pub fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            accepted: self.0.accepted.load(Ordering::Relaxed),
            open: self.0.open.load(Ordering::Relaxed),
            frames_in: self.0.frames_in.load(Ordering::Relaxed),
            frames_out: self.0.frames_out.load(Ordering::Relaxed),
            batch_frames_in: self.0.batch_frames_in.load(Ordering::Relaxed),
            batch_frames_out: self.0.batch_frames_out.load(Ordering::Relaxed),
            protocol_errors: self.0.protocol_errors.load(Ordering::Relaxed),
            backpressure_pauses: self.0.backpressure_pauses.load(Ordering::Relaxed),
        }
    }
}

/// One request on its way through the worker pool.
struct Job {
    conn: Arc<Conn>,
    token: u64,
    payload: Vec<u8>,
}

/// What a connection's thread and the workers answering its requests
/// share. `out` is held only to stage a response or to claim or release
/// the flush — never across a socket write, a `jobs` send, a handler, or
/// a wait on anything but `resumed` (the condvar is why it is a `std`
/// mutex). Every critical section is a few field updates that leave
/// [`Outbound`] valid at each step, which is why a poisoned lock is
/// entered rather than propagated.
struct Conn {
    stream: TcpStream,
    out: std::sync::Mutex<Outbound>,
    /// Where the connection thread parks while a limit holds.
    resumed: Condvar,
}

#[derive(Default)]
struct Outbound {
    /// Responses waiting for the next flush round.
    staged: Vec<(u64, Vec<u8>)>,
    /// Payload bytes staged or in the round being written.
    unflushed: usize,
    /// Requests in the pool and not yet answered.
    inflight: usize,
    /// A leader is encoding or writing, outside the lock.
    flushing: bool,
    /// The peer has sent a batch frame, opting in to coalesced
    /// [`FrameKind::BatchResponse`] replies.
    batching: bool,
    /// The connection thread is parked on `resumed`.
    paused: bool,
    /// Closed: nothing more is staged, admitted or written.
    dead: bool,
    /// The write buffer, kept between flushes.
    wire: Vec<u8>,
}

impl Conn {
    /// The backpressure gate, passed before every request: parks the
    /// connection thread while a per-connection limit holds, and counts
    /// the request into `inflight` if it is bound for the pool. False
    /// once the connection is dead.
    fn admit(&self, shared: &Shared, to_pool: bool) -> bool {
        let cfg = &shared.cfg;
        let over = |out: &Outbound| {
            !out.dead
                && (out.inflight >= cfg.max_inflight_per_conn
                    || out.unflushed >= cfg.max_outbound_bytes)
        };
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        if over(&out) {
            drop(out);
            let stats = &shared.stats.0;
            stats.backpressure_pauses.fetch_add(1, Ordering::Relaxed);
            // What this thread staged goes out before it parks; if the
            // un-flushed bytes are its own, that alone lifts the limit.
            self.flush(shared);
            out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
            while over(&out) {
                out.paused = true;
                out = self
                    .resumed
                    .wait(out)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            out.paused = false;
        }
        if to_pool && !out.dead {
            out.inflight += 1;
        }
        !out.dead
    }

    /// Stage one response; `from_pool` when it answers a request that
    /// [`Conn::admit`] counted into `inflight`.
    fn stage(&self, token: u64, payload: Vec<u8>, from_pool: bool) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        if from_pool {
            out.inflight -= 1;
            if out.paused {
                self.resumed.notify_all();
            }
        }
        if !out.dead {
            out.unflushed += payload.len();
            out.staged.push((token, payload));
        }
    }

    /// Write out everything staged unless a flush is already in flight,
    /// in which case its leader will: each round takes what is staged,
    /// encodes and writes it outside the lock, and looks again. A write
    /// error — [`WRITE_STALL_LIMIT`] without progress included — kills
    /// the connection. On the way out the write buffer shrinks toward
    /// the larger of [`OUT_RETAIN`] and the last round, so a burst does
    /// not pin megabytes per connection and steady large responses do
    /// not thrash the allocator.
    fn flush(&self, shared: &Shared) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        if out.flushing || out.staged.is_empty() {
            return;
        }
        out.flushing = true;
        let mut wire = std::mem::take(&mut out.wire);
        let mut round = Vec::new();
        loop {
            std::mem::swap(&mut out.staged, &mut round);
            let batching = out.batching;
            drop(out);
            let bytes: usize = round.iter().map(|(_, payload)| payload.len()).sum();
            wire.clear();
            encode_responses(&mut wire, &mut round, batching, shared);
            if (&self.stream).write_all(&wire).is_err() {
                self.kill();
            }
            out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
            out.unflushed -= bytes;
            if out.paused {
                self.resumed.notify_all();
            }
            if out.staged.is_empty() {
                break;
            }
        }
        let keep = OUT_RETAIN.max(wire.len());
        if wire.capacity() > keep * 2 {
            wire.shrink_to(keep);
        }
        out.wire = wire;
        out.flushing = false;
        // Both are empty; `staged` keeps the allocation.
        std::mem::swap(&mut out.staged, &mut round);
    }

    /// Close the connection from any thread: whatever is staged is
    /// dropped, a blocked `read` or `write` on the socket returns, and
    /// the connection thread leaves its park.
    fn kill(&self) {
        {
            let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
            out.dead = true;
            out.unflushed -= out.staged.iter().map(|(_, p)| p.len()).sum::<usize>();
            out.staged.clear();
        }
        // An error here means the socket is already shut down.
        let _ = self.stream.shutdown(Shutdown::Both);
        self.resumed.notify_all();
    }
}

/// Pack one flush round onto `wire`. A batching peer gets the round
/// coalesced into [`FrameKind::BatchResponse`] envelopes (split whenever
/// the next sub-message would push the body past the frame cap);
/// everyone else, and a round of one, gets a plain
/// [`FrameKind::Response`] frame per response.
fn encode_responses(
    wire: &mut Vec<u8>,
    round: &mut Vec<(u64, Vec<u8>)>,
    batching: bool,
    shared: &Shared,
) {
    let stats = &shared.stats.0;
    let max_body = shared.cfg.max_frame_body as usize;
    stats
        .frames_out
        .fetch_add(round.len() as u64, Ordering::Relaxed);
    if !batching || round.len() == 1 {
        for (token, payload) in round.drain(..) {
            encode_frame_into(wire, token, FrameKind::Response, &payload);
        }
        return;
    }
    let mut rest = round.drain(..).peekable();
    while rest.peek().is_some() {
        let mut b = BatchFrameBuilder::begin(wire, FrameKind::BatchResponse);
        while let Some((token, payload)) =
            rest.next_if(|(_, p)| b.count() == 0 || b.body_len_with(p.len()) <= max_body)
        {
            b.push(token, &payload);
        }
        b.finish();
        stats.batch_frames_out.fetch_add(1, Ordering::Relaxed);
    }
}

/// What every thread of one server shares.
struct Shared {
    service: Arc<dyn SharedService>,
    cfg: ReactorConfig,
    stats: ServerStats,
    shutdown: AtomicBool,
    registry: Mutex<Registry>,
}

/// The live connections, so [`TcpServer::shutdown`] can close and join
/// them, and the handles of connection threads that have ended.
#[derive(Default)]
struct Registry {
    live: HashMap<u64, Live>,
    /// Joined by the acceptor at the next accept, or by `shutdown`.
    ended: Vec<JoinHandle<()>>,
}

struct Live {
    conn: Arc<Conn>,
    /// `None` until the acceptor has stored the handle `spawn` returned.
    thread: Option<JoinHandle<()>>,
}

/// A connection's thread: read, decode, run or hand off, write.
struct ConnThread {
    id: u64,
    conn: Arc<Conn>,
    shared: Arc<Shared>,
    /// `None` in inline mode.
    jobs: Option<Sender<Job>>,
}

impl ConnThread {
    fn run(self) {
        let mut decoder = FrameDecoder::with_max_body(self.shared.cfg.max_frame_body);
        let mut buf = vec![0u8; READ_CHUNK];
        loop {
            let n = match (&self.conn.stream).read(&mut buf) {
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Ok(0) | Err(_) => return,
                Ok(n) => n,
            };
            decoder.extend(&buf[..n]);
            if !self.serve_frames(&mut decoder) {
                return;
            }
            // Everything this read's requests produced inline goes out
            // in one round: a batch of reads comes back as one envelope.
            self.conn.flush(&self.shared);
        }
    }

    /// Dispatch every complete frame the decoder holds. False means the
    /// connection is over.
    fn serve_frames(&self, decoder: &mut FrameDecoder) -> bool {
        let stats = &self.shared.stats.0;
        loop {
            let view = match decoder.next_frame_view() {
                Ok(Some(view)) => view,
                Ok(None) => return true,
                Err(_) => break,
            };
            match view.kind {
                FrameKind::Request => {
                    if !self.dispatch(view.token, view.payload) {
                        return false;
                    }
                }
                FrameKind::BatchRequest => {
                    self.conn
                        .out
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .batching = true;
                    stats.batch_frames_in.fetch_add(1, Ordering::Relaxed);
                    for item in batch_items(view.payload) {
                        let Ok((token, payload)) = item else {
                            // Truncated batch body: the sub-messages
                            // before it were served, the rest is noise.
                            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            return false;
                        };
                        if !self.dispatch(token, payload) {
                            return false;
                        }
                    }
                }
                // Clients must not send response kinds.
                FrameKind::Response | FrameKind::BatchResponse => break,
            }
        }
        stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
        false
    }

    /// One request: through the gate, then run here or handed to the
    /// pool. False means the connection is over.
    fn dispatch(&self, token: u64, payload: &[u8]) -> bool {
        let shared = &*self.shared;
        let pool = self
            .jobs
            .as_ref()
            .filter(|_| !shared.service.runs_inline(payload));
        if !self.conn.admit(shared, pool.is_some()) {
            return false;
        }
        shared.stats.0.frames_in.fetch_add(1, Ordering::Relaxed);
        let Some(jobs) = pool else {
            let response = shared.service.handle(payload);
            self.conn.stage(token, response, false);
            return true;
        };
        let job = Job {
            conn: Arc::clone(&self.conn),
            token,
            payload: payload.to_vec(),
        };
        match jobs.try_send(job) {
            Ok(()) => true,
            Err(TrySendError::Full(job)) => {
                let stats = &shared.stats.0;
                stats.backpressure_pauses.fetch_add(1, Ordering::Relaxed);
                self.conn.flush(shared);
                jobs.send(job).is_ok()
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }
}

impl Drop for ConnThread {
    /// The one way a connection ends, also when its thread could not be
    /// spawned (the closure that owns `self` is dropped) or a handler
    /// panicked on it.
    fn drop(&mut self) {
        self.conn.kill();
        let stats = &self.shared.stats.0;
        stats.open.fetch_sub(1, Ordering::Relaxed);
        let mut registry = self.shared.registry.lock();
        // No entry: `shutdown` took it and joins this thread itself.
        // No handle yet: the acceptor will file it under `ended`.
        if let Some(thread) = registry.live.remove(&self.id).and_then(|l| l.thread) {
            registry.ended.push(thread);
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>, jobs: Option<Sender<Job>>) {
    let stats = &shared.stats.0;
    for id in 0u64.. {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // `accepted` is shutdown's wake-up connection
        }
        let stream = match accepted {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                std::thread::park_timeout(ACCEPT_RETRY);
                continue;
            }
        };
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        if stream.set_nodelay(true).is_err()
            || stream.set_write_timeout(Some(WRITE_STALL_LIMIT)).is_err()
        {
            continue;
        }
        stats.open.fetch_add(1, Ordering::Relaxed);
        let conn = Arc::new(Conn {
            stream,
            out: Default::default(),
            resumed: Condvar::new(),
        });
        let thread = ConnThread {
            id,
            conn: Arc::clone(&conn),
            shared: Arc::clone(&shared),
            jobs: jobs.clone(),
        };
        let live = Live { conn, thread: None };
        shared.registry.lock().live.insert(id, live);
        // A failed spawn drops the closure and `thread` with it, which
        // closes the connection; the server keeps accepting.
        let spawned = std::thread::Builder::new()
            .name(format!("dasp-reactor-{id}"))
            .spawn(move || thread.run());
        let mut registry = shared.registry.lock();
        if let Ok(handle) = spawned {
            match registry.live.get_mut(&id) {
                Some(live) => live.thread = Some(handle),
                None => registry.ended.push(handle), // already over
            }
        }
        let ended = std::mem::take(&mut registry.ended);
        drop(registry);
        for t in ended {
            let _ = t.join();
        }
    }
}

/// A running TCP RPC server: acceptor + a thread per connection + worker
/// pool, serving one [`SharedService`]. Shuts down (and joins every
/// thread) on drop.
pub struct TcpServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl TcpServer {
    /// Bind `addr` (use port 0 to pick a free port) and serve `service`.
    pub fn serve<A: ToSocketAddrs>(
        addr: A,
        service: Arc<dyn SharedService>,
        cfg: ReactorConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (jobs_tx, jobs_rx) = bounded(cfg.job_queue.max(1));
        let pool = cfg.workers; // 0 = inline mode, no pool
        let shared = Arc::new(Shared {
            service,
            cfg,
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            registry: Mutex::default(),
        });
        let served = Arc::clone(&shared);
        let name = |w| format!("dasp-tcp-worker-{w}");
        let workers = spawn_workers(pool, name, &jobs_rx, move |job: Job| {
            let response = served.service.handle(&job.payload);
            job.conn.stage(job.token, response, true);
            job.conn.flush(&served);
        });
        drop(jobs_rx);
        let mut server = TcpServer {
            local_addr,
            shared: Arc::clone(&shared),
            acceptor: None,
            workers,
        };
        if pool > 0 && server.workers.is_empty() {
            return Err(std::io::Error::other("could not spawn any worker thread"));
        }
        // The acceptor and the connection threads hold the only senders:
        // once they are gone (or were never spawned) the workers drain
        // the queue and exit, which is what `shutdown` and `Drop` join.
        let jobs = (pool > 0).then_some(jobs_tx);
        let acceptor = std::thread::Builder::new()
            .name("dasp-acceptor".to_string())
            .spawn(move || accept_loop(listener, shared, jobs))
            .map_err(|e| std::io::Error::other(format!("spawn acceptor: {e}")))?;
        server.acceptor = Some(acceptor);
        Ok(server)
    }

    /// The bound address (resolves port 0 to the chosen port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live server counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Stop accepting, close every connection, and return once every
    /// server thread has exited and every socket is closed: the address
    /// can be bound again at once, and nothing still serves the old
    /// service. A handler still running is waited for. Idempotent; also
    /// invoked by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor is blocked in `accept`: connect to it.
            let mut wake = self.local_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            while !acceptor.is_finished() && TcpStream::connect(wake).is_err() {
                std::thread::park_timeout(ACCEPT_RETRY);
            }
            let _ = acceptor.join();
        }
        // With the acceptor gone every live entry has its handle.
        let (live, ended) = {
            let mut registry = self.shared.registry.lock();
            (
                std::mem::take(&mut registry.live),
                std::mem::take(&mut registry.ended),
            )
        };
        for live in live.values() {
            live.conn.kill();
        }
        let threads = live.into_values().filter_map(|live| live.thread);
        for t in threads.chain(ended).chain(self.workers.drain(..)) {
            let _ = t.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}
