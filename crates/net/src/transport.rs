//! Socket-backed client transport: a multiplexing [`TcpClient`] that
//! carries a [`crate::rpc::Cluster`]'s calls to a remote provider, plus
//! a simple blocking per-connection handle for load generators.
//!
//! The design goal is *transport independence*: `Cluster`, the quorum
//! engine, hedged reads, retries, circuit breakers and failure injection
//! were written against in-process services and must run unchanged over
//! sockets. Requests from any number of threads are written
//! framed-and-tokened onto one shared connection, and a dedicated reader
//! thread routes response frames back by token — the same out-of-order
//! multiplexing the worker pools use. A response goes where its request
//! said: `TcpClient::submit` names a reply queue and a tag, and the
//! reader queues the response there, waking the queue's receiver only if
//! it is parked (the cluster's quorum engine hands it its own queue, so a
//! TCP call wakes no thread but the reader, and at most once per engine
//! wait); [`TcpClient::call`] opens a queue of its own and parks on it
//! until its response arrives.
//!
//! Writes follow the leader/follower rule of the WAL's group commit and
//! the server's response flush: a caller that finds no write in flight
//! writes its own request, then everything callers staged meanwhile, as
//! one [`FrameKind::BatchRequest`] per round, until nothing is staged. A
//! caller that finds a write in flight stages its request and goes on.
//! No thread, timer or window: a lone caller's frame is a plain
//! [`FrameKind::Request`], and concurrent callers coalesce exactly as
//! deep as they overlap a write.
//!
//! Failure mapping keeps the cluster's semantics: a dead or unreachable
//! provider process behaves like a crashed in-process provider. A
//! submitted request the transport fails to deliver is answered with the
//! error instead of a response, and the next request redials; the
//! cluster's engine does not count that as an answer, so the attempt
//! still ends at its deadline — [`crate::RpcError::Timeout`], precisely
//! what a crashed provider produces — while a read moves on at once (see
//! [`crate::rpc`]). As a [`SharedService`], [`TcpClient::handle`]
//! quietly retries a failing transport until
//! [`TcpClientConfig::error_hold`] elapses, then returns an empty
//! payload (providers never produce empty responses, so downstream
//! share-consistency checks treat it like a corrupt Byzantine response).

use crate::channel::{self, ReplyTo};
use crate::wire::{
    batch_items, encode_frame, encode_frame_into, BatchFrameBuilder, FrameDecoder, FrameError,
    FrameKind, MAX_FRAME_BODY,
};
use crate::SharedService;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client-side transport failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// Could not connect (or reconnect) to the provider.
    Unreachable(String),
    /// The connection failed mid-call.
    Io(String),
    /// The peer sent bytes that do not frame-decode; connection closed.
    Frame(FrameError),
    /// No response within [`TcpClientConfig::call_timeout`].
    TimedOut,
    /// The client was closed.
    Closed,
    /// The provider's handler failed on this request (an in-process
    /// handler panicked). The same request fails the same way again, so
    /// it is final: never resent.
    HandlerFailed,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Unreachable(e) => write!(f, "provider unreachable: {e}"),
            TransportError::Io(e) => write!(f, "connection failed: {e}"),
            TransportError::Frame(e) => write!(f, "frame error: {e}"),
            TransportError::TimedOut => write!(f, "call timed out"),
            TransportError::Closed => write!(f, "client closed"),
            TransportError::HandlerFailed => write!(f, "provider handler failed"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Tuning for a [`TcpClient`].
#[derive(Debug, Clone)]
pub struct TcpClientConfig {
    /// Dial timeout per connection attempt.
    pub connect_timeout: Duration,
    /// How long one [`TcpClient::call`] waits for its response.
    pub call_timeout: Duration,
    /// Upper bound on one blocked socket write. The leading caller
    /// writes under the connection lock, so without a bound a stalled
    /// peer with a full TCP send buffer would wedge it, every caller
    /// staged behind it, and `close()`. On expiry the connection is torn
    /// down and every call in the frame fails with
    /// [`TransportError::TimedOut`].
    pub write_timeout: Duration,
    /// Minimum spacing between reconnection attempts.
    pub reconnect_backoff: Duration,
    /// How long [`SharedService::handle`] keeps retrying a failing
    /// transport before giving up. Set above the cluster's per-attempt
    /// timeout so a dead provider surfaces as a timeout (crash
    /// equivalence), yet small enough that shutdown does not hang.
    pub error_hold: Duration,
    /// Largest accepted response frame body.
    pub max_frame_body: u32,
}

impl Default for TcpClientConfig {
    fn default() -> Self {
        TcpClientConfig {
            connect_timeout: Duration::from_secs(1),
            call_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(1),
            reconnect_backoff: Duration::from_millis(50),
            error_hold: Duration::from_secs(2),
            max_frame_body: MAX_FRAME_BODY,
        }
    }
}

/// Most sub-messages one outbound batch frame packs.
const MAX_BATCH_SUBS: usize = 128;

/// Most payload bytes one outbound batch frame packs.
const MAX_BATCH_BYTES: usize = 1 << 20;

/// Where a request's outcome goes: the waiter's queue, under its tag.
/// `Err` is a request the transport failed to deliver or answer.
pub(crate) type Reply = (u64, Result<Vec<u8>, TransportError>);

/// Who waits for a request's response: a reply queue and the tag to
/// send the outcome under.
struct Waiter(ReplyTo<Reply>, u64);

impl Waiter {
    /// Hand over the outcome. Never blocks, and a waiter that timed out
    /// and dropped its queue is simply not told. Run it outside
    /// `pending`.
    fn finish(self, result: Result<Vec<u8>, TransportError>) {
        let Waiter(tx, tag) = self;
        tx.send((tag, result));
    }
}

type PendingMap = HashMap<u64, Waiter>;

/// Requests waiting for the write in flight.
#[derive(Default)]
struct Stage {
    /// A leader is writing. Cleared only together with `reqs` empty, so
    /// a staged request always has a leader that will write it.
    writing: bool,
    /// `(token, payload)` of every follower, in arrival order.
    reqs: Vec<(u64, Vec<u8>)>,
}

struct ConnState {
    /// The live connection's write half; `None` while disconnected.
    stream: Option<TcpStream>,
    /// Finished (or running) reader threads, joined opportunistically.
    readers: Vec<std::thread::JoinHandle<()>>,
    last_dial: Option<Instant>,
}

struct Inner {
    addr: SocketAddr,
    cfg: TcpClientConfig,
    /// Lock order: `state` before `pending` (the reader's teardown).
    /// `stage` is never held across either.
    state: Mutex<ConnState>,
    pending: Mutex<PendingMap>,
    stage: Mutex<Stage>,
    next_token: AtomicU64,
    epoch: AtomicU64,
    closed: AtomicBool,
}

/// A multiplexing RPC client over one TCP connection (reconnecting on
/// failure). Safe to call from many threads at once; implements
/// [`SharedService`] so a [`crate::Cluster`] can treat a remote provider
/// exactly like an in-process one.
pub struct TcpClient {
    inner: Arc<Inner>,
}

impl TcpClient {
    /// Resolve `addr` and connect. Fails fast if the provider is down;
    /// later disconnections reconnect transparently.
    pub fn connect<A: ToSocketAddrs>(addr: A, cfg: TcpClientConfig) -> std::io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "no address resolved"))?;
        let client = TcpClient {
            inner: Arc::new(Inner {
                addr,
                cfg,
                state: Mutex::new(ConnState {
                    stream: None,
                    readers: Vec::new(),
                    last_dial: None,
                }),
                pending: Mutex::new(HashMap::new()),
                stage: Mutex::new(Stage::default()),
                next_token: AtomicU64::new(0),
                epoch: AtomicU64::new(0),
                closed: AtomicBool::new(false),
            }),
        };
        {
            let mut st = client.inner.state.lock();
            Self::dial(&client.inner, &mut st)
                .map_err(|e| std::io::Error::new(ErrorKind::ConnectionRefused, e.to_string()))?;
        }
        Ok(client)
    }

    /// One request/response exchange with a typed error. Concurrent
    /// callers share the connection; responses are matched by token.
    pub fn call(&self, payload: &[u8]) -> Result<Vec<u8>, TransportError> {
        let (tx, rx) = channel::replies();
        let token = self.send(payload, Waiter(tx, 0))?;
        let now = Instant::now();
        // A timeout past the clock's range waits as good as forever.
        let deadline = now
            .checked_add(self.inner.cfg.call_timeout)
            .unwrap_or_else(|| now + Duration::from_secs(1 << 32));
        let mut got = VecDeque::new();
        rx.take(deadline, &mut got);
        match got.pop_front() {
            Some((_, result)) => result,
            None => {
                self.cancel(token);
                Err(TransportError::TimedOut)
            }
        }
    }

    /// Send `payload` without waiting: its outcome goes to `reply`,
    /// tagged `tag` — the response from the reader thread, or the
    /// transport error that lost the request. Returns the request's
    /// entry, which [`cancel`](Self::cancel) frees if no answer is wanted
    /// any more. Only a closed client or an oversized request is refused
    /// outright.
    pub(crate) fn submit(
        &self,
        payload: &[u8],
        reply: ReplyTo<Reply>,
        tag: u64,
    ) -> Result<u64, TransportError> {
        self.send(payload, Waiter(reply, tag))
    }

    /// Forget the request `entry` names: a late response is dropped.
    pub fn cancel(&self, entry: u64) {
        self.inner.pending.lock().remove(&entry);
    }

    /// Requests still waiting for a response.
    #[cfg(test)]
    pub(crate) fn pending_len(&self) -> usize {
        self.inner.pending.lock().len()
    }

    /// Register `waiter` under a fresh token and get the request written.
    /// The caller that finds no write in flight writes its own request
    /// and then everything staged behind it (see the module docs); every
    /// other caller stages its request.
    fn send(&self, payload: &[u8], waiter: Waiter) -> Result<u64, TransportError> {
        if self.inner.closed.load(Ordering::Relaxed) {
            return Err(TransportError::Closed);
        }
        // Refused here, not in `encode_frame`'s assert: that would panic
        // whichever thread leads the write and strand the staged calls.
        let body = 8 + 1 + payload.len(); // token, kind, payload
        if body > MAX_FRAME_BODY as usize {
            return Err(TransportError::Frame(FrameError::BadLength {
                len: u32::try_from(body).unwrap_or(u32::MAX),
                max: MAX_FRAME_BODY,
            }));
        }
        let token = self.inner.next_token.fetch_add(1, Ordering::Relaxed);
        self.inner.pending.lock().insert(token, waiter);
        let lead = {
            let mut stage = self.inner.stage.lock();
            if stage.writing {
                stage.reqs.push((token, payload.to_vec()));
                false
            } else {
                stage.writing = true;
                true
            }
        };
        if lead {
            lead_writes(&self.inner, token, payload);
        }
        Ok(token)
    }

    /// Dial a fresh connection and spawn its reader. Caller holds `state`.
    fn dial(inner: &Arc<Inner>, st: &mut ConnState) -> Result<(), TransportError> {
        if inner.closed.load(Ordering::Relaxed) {
            return Err(TransportError::Closed);
        }
        if let Some(last) = st.last_dial {
            if last.elapsed() < inner.cfg.reconnect_backoff {
                return Err(TransportError::Unreachable("reconnect backoff".to_string()));
            }
        }
        st.last_dial = Some(Instant::now());
        let stream = TcpStream::connect_timeout(&inner.addr, inner.cfg.connect_timeout)
            .map_err(|e| TransportError::Unreachable(e.to_string()))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_write_timeout(Some(inner.cfg.write_timeout))
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let my_epoch = inner.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let reader_inner = Arc::clone(inner);
        let spawned = std::thread::Builder::new()
            .name("dasp-tcp-reader".to_string())
            .spawn(move || reader_loop(reader_inner, read_half, my_epoch));
        match spawned {
            Ok(handle) => {
                // Reap only readers that have already exited. A stale
                // reader may still be mid-teardown, which takes the
                // `state` lock the caller holds — joining it here would
                // deadlock. Unfinished handles stay queued and are
                // joined by `close()` outside the lock.
                st.readers.retain(|h| !h.is_finished());
                st.readers.push(handle);
                st.stream = Some(stream);
                Ok(())
            }
            Err(e) => Err(TransportError::Io(format!("spawn reader: {e}"))),
        }
    }

    /// Close the connection and wake every pending caller.
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Relaxed);
        let readers: Vec<_> = {
            let mut st = self.inner.state.lock();
            if let Some(stream) = st.stream.take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            st.readers.drain(..).collect()
        };
        for h in readers {
            let _ = h.join();
        }
        let waiters: Vec<Waiter> = self.inner.pending.lock().drain().map(|(_, w)| w).collect();
        for waiter in waiters {
            waiter.finish(Err(TransportError::Closed));
        }
    }
}

impl Drop for TcpClient {
    fn drop(&mut self) {
        self.close();
    }
}

/// The leader's job: write its own request as a plain frame, then
/// whatever followers staged meanwhile — a plain frame for one, one
/// batch frame for several, within the size caps — round after round
/// until the stage is empty. The stage lock is held only to take
/// requests, never across `state`, `pending` or a write.
fn lead_writes(inner: &Arc<Inner>, token: u64, payload: &[u8]) {
    let mut frame = encode_frame(token, FrameKind::Request, payload);
    write_pack(inner, &frame, [token]);
    let mut pack: Vec<(u64, Vec<u8>)> = Vec::new();
    loop {
        {
            let mut stage = inner.stage.lock();
            if stage.reqs.is_empty() {
                stage.writing = false;
                return;
            }
            let mut bytes = 0;
            let n = stage
                .reqs
                .iter()
                .take(MAX_BATCH_SUBS)
                .take_while(|(_, p)| {
                    bytes += p.len();
                    bytes <= MAX_BATCH_BYTES
                })
                .count();
            // A request past the byte cap on its own leaves alone.
            pack.extend(stage.reqs.drain(..n.max(1)));
        }
        frame.clear();
        if let [(token, payload)] = pack.as_slice() {
            encode_frame_into(&mut frame, *token, FrameKind::Request, payload);
        } else {
            let mut b = BatchFrameBuilder::begin(&mut frame, FrameKind::BatchRequest);
            for (token, payload) in &pack {
                b.push(*token, payload);
            }
            b.finish();
        }
        write_pack(inner, &frame, pack.iter().map(|(token, _)| *token));
        pack.clear();
    }
}

/// Write one encoded frame under the connection lock, dialing first if
/// the connection dropped. On failure every call packed in the frame is
/// woken with the error through `pending` (each token is removed at
/// most once, so a call's reply queue never sees a second send).
fn write_pack(inner: &Arc<Inner>, frame: &[u8], tokens: impl IntoIterator<Item = u64>) {
    let result = {
        let mut st = inner.state.lock();
        (|| -> Result<(), TransportError> {
            if st.stream.is_none() {
                TcpClient::dial(inner, &mut st)?;
            }
            let stream = st.stream.as_mut().ok_or(TransportError::Closed)?;
            // A write timeout may have left a partial frame on the wire,
            // so any failure tears the connection down.
            if let Err(e) = stream.write_all(frame) {
                let _ = stream.shutdown(Shutdown::Both);
                st.stream = None;
                return Err(io_error(e));
            }
            Ok(())
        })()
    };
    if let Err(err) = result {
        let waiters: Vec<Waiter> = {
            let mut pending = inner.pending.lock();
            tokens
                .into_iter()
                .filter_map(|t| pending.remove(&t))
                .collect()
        };
        for waiter in waiters {
            waiter.finish(Err(err.clone()));
        }
    }
}

fn reader_loop(inner: Arc<Inner>, stream: TcpStream, my_epoch: u64) {
    let mut decoder = FrameDecoder::with_max_body(inner.cfg.max_frame_body);
    let mut buf = vec![0u8; 64 * 1024];
    let answer = |token, payload: &[u8]| {
        let waiter = inner.pending.lock().remove(&token);
        if let Some(waiter) = waiter {
            waiter.finish(Ok(payload.to_vec()));
        }
    };
    let error = loop {
        let read = read_into(&stream, &mut buf, &mut decoder);
        if let Err(e) = read.and_then(|()| take_responses(&mut decoder, answer)) {
            break e;
        }
    };
    let _ = stream.shutdown(Shutdown::Both);
    // Tear down only if this connection is still the current one; a
    // newer epoch means a reconnect already superseded us and the
    // pending map belongs to the new connection.
    let waiters: Vec<Waiter> = {
        let mut st = inner.state.lock();
        if inner.epoch.load(Ordering::SeqCst) != my_epoch {
            return;
        }
        if let Some(s) = st.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        // `state` -> `pending` is the crate-wide lock order; the waiters
        // are told after both are released.
        let drained = inner.pending.lock().drain().map(|(_, w)| w).collect();
        drained
    };
    for waiter in waiters {
        waiter.finish(Err(error.clone()));
    }
}

/// Read once from `stream` into `decoder`, through `buf`.
fn read_into(
    mut stream: &TcpStream,
    buf: &mut [u8],
    decoder: &mut FrameDecoder,
) -> Result<(), TransportError> {
    loop {
        match stream.read(buf) {
            Ok(0) => return Err(TransportError::Closed),
            Ok(n) => {
                decoder.extend(buf.get(..n).unwrap_or_default());
                return Ok(());
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }
}

/// A socket error as the caller sees it: a read or write that ran out
/// its timeout (`WouldBlock` on Unix, `TimedOut` on Windows) timed out.
fn io_error(e: std::io::Error) -> TransportError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportError::TimedOut,
        _ => TransportError::Io(e.to_string()),
    }
}

/// Pass every complete response in `decoder`, a plain frame or a batch
/// sub-message, to `answer` with its token. A damaged frame or one of a
/// request kind is the peer's error.
fn take_responses(
    decoder: &mut FrameDecoder,
    mut answer: impl FnMut(u64, &[u8]),
) -> Result<(), TransportError> {
    while let Some(view) = decoder.next_frame_view().map_err(TransportError::Frame)? {
        match view.kind {
            FrameKind::Response => answer(view.token, view.payload),
            FrameKind::BatchResponse => {
                for item in batch_items(view.payload) {
                    let (token, payload) = item.map_err(TransportError::Frame)?;
                    answer(token, payload);
                }
            }
            kind @ (FrameKind::Request | FrameKind::BatchRequest) => {
                return Err(TransportError::Frame(FrameError::BadKind(kind.to_u8())))
            }
        }
    }
    Ok(())
}

impl SharedService for TcpClient {
    /// Cluster-facing entry point. Retries transport failures within
    /// [`TcpClientConfig::error_hold`] so transient disconnects heal
    /// invisibly and hard-dead providers surface as cluster timeouts —
    /// identical to an in-process crashed provider.
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let start = Instant::now();
        loop {
            match self.call(request) {
                Ok(response) => return response,
                Err(TransportError::Closed) => return Vec::new(),
                Err(_) if start.elapsed() < self.inner.cfg.error_hold => {
                    std::thread::sleep(
                        self.inner
                            .cfg
                            .reconnect_backoff
                            .min(Duration::from_millis(20)),
                    );
                }
                Err(_) => return Vec::new(),
            }
        }
    }
}

/// A blocking, non-multiplexed connection: one request in flight at a
/// time, synchronous send/receive. The shape a thin client or a load
/// generator wants (E20 drives thousands of these concurrently).
pub struct BlockingConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    next_token: u64,
    buf: Vec<u8>,
    /// Reusable frame-encode scratch: steady-state calls allocate
    /// nothing on the request path.
    frame: Vec<u8>,
}

impl BlockingConn {
    /// Connect with `timeout` applied to the dial and each read/write.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let _ = stream.set_nodelay(true);
        Ok(BlockingConn {
            stream,
            decoder: FrameDecoder::new(),
            next_token: 0,
            buf: vec![0u8; 64 * 1024],
            frame: Vec::new(),
        })
    }

    /// One synchronous request/response exchange.
    pub fn call(&mut self, payload: &[u8]) -> Result<Vec<u8>, TransportError> {
        let token = self.next_token;
        self.next_token += 1;
        self.frame.clear();
        encode_frame_into(&mut self.frame, token, FrameKind::Request, payload);
        Ok(self.exchange(token, 1)?.pop().unwrap_or_default())
    }

    /// Send `payloads` as one [`FrameKind::BatchRequest`] frame and
    /// collect every response, returned in request order. One CRC, one
    /// length prefix, one `write` for the whole batch; responses may
    /// arrive as individual frames or coalesced batch frames in any
    /// order. The combined request body must stay under the server's
    /// frame cap.
    pub fn call_many(&mut self, payloads: &[&[u8]]) -> Result<Vec<Vec<u8>>, TransportError> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        let base = self.next_token;
        self.next_token += payloads.len() as u64;
        self.frame.clear();
        let mut b = BatchFrameBuilder::begin(&mut self.frame, FrameKind::BatchRequest);
        for (token, payload) in (base..).zip(payloads) {
            b.push(token, payload);
        }
        b.finish();
        self.exchange(base, payloads.len())
    }

    /// Write the encoded `frame`, then read until the responses to tokens
    /// `base..base + count` are in; they come back in token order, and a
    /// response to any other token (a past call's) is skipped.
    fn exchange(&mut self, base: u64, count: usize) -> Result<Vec<Vec<u8>>, TransportError> {
        self.stream
            .write_all(&self.frame)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let mut results: Vec<Option<Vec<u8>>> = vec![None; count];
        let mut missing = count;
        loop {
            take_responses(&mut self.decoder, |token, payload| {
                let slot = usize::try_from(token.wrapping_sub(base))
                    .ok()
                    .and_then(|i| results.get_mut(i));
                if let Some(slot) = slot.filter(|slot| slot.is_none()) {
                    *slot = Some(payload.to_vec());
                    missing -= 1;
                }
            })?;
            if missing == 0 {
                return Ok(results.into_iter().flatten().collect());
            }
            read_into(&self.stream, &mut self.buf, &mut self.decoder)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// More than a loopback send buffer plus the receive window of a
    /// peer that never reads, so the leader's write blocks until the
    /// peer reads (or goes away).
    const BLOCKING_PAYLOAD: usize = 16 << 20;
    const FOLLOWERS: usize = 8;

    /// A client connected to a raw peer that reads nothing until told.
    /// The listener is gone on return, so a redial is refused.
    fn withheld_peer() -> (TcpClient, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let cfg = TcpClientConfig {
            call_timeout: Duration::from_secs(60),
            write_timeout: Duration::from_secs(60),
            ..TcpClientConfig::default()
        };
        let client = TcpClient::connect(listener.local_addr().expect("addr"), cfg).expect("dial");
        let (peer, _) = listener.accept().expect("accept");
        // A hang guard only: the peer reads what the client wrote.
        peer.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        (client, peer)
    }

    /// Spin until `done` holds of the stage; the clock only guards
    /// against a hang.
    fn wait_for_stage(client: &TcpClient, what: &str, done: impl Fn(&Stage) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !done(&client.inner.stage.lock()) {
            assert!(Instant::now() < deadline, "never saw {what}");
            std::thread::yield_now();
        }
    }

    /// Start a leader blocked in its write, then `FOLLOWERS` callers
    /// staged behind it; returns every caller's result once `release`
    /// (run with all of them staged) lets the leader's write end.
    fn stage_behind_blocked_leader(
        client: &TcpClient,
        release: impl FnOnce(),
    ) -> Vec<Result<Vec<u8>, TransportError>> {
        let big = vec![7u8; BLOCKING_PAYLOAD];
        std::thread::scope(|s| {
            let mut calls = vec![s.spawn(|| client.call(&big))];
            wait_for_stage(client, "a leader", |st| st.writing);
            for i in 0..FOLLOWERS as u8 {
                calls.push(s.spawn(move || client.call(&[i])));
            }
            wait_for_stage(client, "every follower staged", |st| {
                st.reqs.len() == FOLLOWERS
            });
            release();
            calls
                .into_iter()
                .map(|c| c.join().expect("caller"))
                .collect()
        })
    }

    #[test]
    fn followers_staged_behind_a_blocked_write_leave_in_one_batch() {
        let (client, mut peer) = withheld_peer();
        // `move`: a failed assertion drops the peer, which wakes the
        // callers instead of leaving them to `call_timeout`.
        let results = stage_behind_blocked_leader(&client, move || {
            let mut decoder = FrameDecoder::new();
            let mut buf = vec![0u8; 64 * 1024];
            let mut frames = Vec::new();
            while frames.len() < 2 {
                match decoder.next_frame().expect("well-formed frames") {
                    Some(frame) => frames.push(frame),
                    None => {
                        let n = peer.read(&mut buf).expect("read");
                        assert!(n > 0, "client closed the connection");
                        decoder.extend(&buf[..n]);
                    }
                }
            }
            let (lead, batch) = (&frames[0], &frames[1]);
            assert_eq!(lead.kind, FrameKind::Request);
            assert_eq!(lead.payload.len(), BLOCKING_PAYLOAD);
            assert_eq!(batch.kind, FrameKind::BatchRequest);
            assert_eq!(
                batch.token, FOLLOWERS as u64,
                "one batch carries every follower"
            );
            let mut reply = encode_frame(lead.token, FrameKind::Response, b"lead");
            for item in batch_items(&batch.payload) {
                let (token, payload) = item.expect("sub-message");
                encode_frame_into(&mut reply, token, FrameKind::Response, payload);
            }
            peer.write_all(&reply).expect("reply");
        });
        assert_eq!(results[0], Ok(b"lead".to_vec()));
        for (i, result) in results[1..].iter().enumerate() {
            assert_eq!(result, &Ok(vec![i as u8]));
        }
        assert!(!client.inner.stage.lock().writing);
    }

    #[test]
    fn a_failed_leader_write_wakes_every_staged_follower() {
        let (client, peer) = withheld_peer();
        // Closing with unread bytes resets the connection: the leader's
        // blocked write fails, and the redial for the staged batch is
        // refused.
        let results = stage_behind_blocked_leader(&client, || drop(peer));
        for result in results {
            let err = result.expect_err("the connection is gone");
            assert_ne!(err, TransportError::TimedOut, "woken by call_timeout");
        }
        assert!(!client.inner.stage.lock().writing);
    }

    #[test]
    fn an_oversized_request_is_refused_before_it_is_staged() {
        let (client, _peer) = withheld_peer();
        let err = client
            .call(&vec![0u8; MAX_FRAME_BODY as usize])
            .expect_err("over the frame cap");
        assert!(matches!(
            err,
            TransportError::Frame(FrameError::BadLength { .. })
        ));
        let stage = client.inner.stage.lock();
        assert!(!stage.writing && stage.reqs.is_empty());
    }
}
