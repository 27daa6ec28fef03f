//! Socket-backed client transport: a multiplexing [`TcpClient`] that
//! plugs into [`crate::rpc::Cluster`] as a [`SharedService`], plus a
//! simple blocking per-connection handle for load generators.
//!
//! The design goal is *transport independence*: `Cluster`, the quorum
//! engine, hedged reads, retries and circuit breakers were written
//! against in-process services and must run unchanged over sockets. A
//! [`TcpClient`] is exactly an in-process service whose `handle` happens
//! to cross a wire: many cluster worker threads call it concurrently,
//! requests are written framed-and-tokened onto one shared connection,
//! and a dedicated reader thread routes response frames back to callers
//! by token — the same out-of-order multiplexing the worker pools use.
//!
//! Failure mapping keeps the cluster's semantics: a dead or unreachable
//! provider process behaves like a crashed in-process provider. On
//! transport failure, [`TcpClient::handle`] quietly retries (the
//! connection may heal) until [`TcpClientConfig::error_hold`] elapses;
//! the cluster's per-attempt timeout fires first, so callers observe
//! [`crate::RpcError::Timeout`] — precisely what a crashed provider
//! produces. Only after the hold expires does `handle` give up and
//! return an empty payload (providers never produce empty responses, so
//! downstream share-consistency checks treat it like a corrupt
//! Byzantine response).

use crate::wire::{
    batch_items, encode_frame, encode_frame_into, BatchFrameBuilder, FrameDecoder, FrameError,
    FrameKind, MAX_FRAME_BODY,
};
use crate::SharedService;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Unreachable(e) => write!(f, "provider unreachable: {e}"),
            TransportError::Io(e) => write!(f, "connection failed: {e}"),
            TransportError::Frame(e) => write!(f, "frame error: {e}"),
            TransportError::TimedOut => write!(f, "call timed out"),
            TransportError::Closed => write!(f, "client closed"),
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
    /// Upper bound on one blocked socket write. The request write in
    /// [`TcpClient::call`] happens under the connection lock, so without
    /// a bound a stalled peer with a full TCP send buffer would wedge
    /// every concurrent caller plus `close()`. On expiry the connection
    /// is torn down and the call fails with
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
    /// Coalescing window for outbound requests — "group commit for
    /// RPCs", the WAL's group commit applied to a socket (which, unlike
    /// an fsync, needs a window to collect a batch). `Duration::ZERO`
    /// (the default unless `DASP_BATCH_WINDOW_US` is set) disables
    /// batching: every call writes its own frame, exactly the
    /// pre-batching behavior.
    /// A nonzero window routes calls through a batcher thread that packs
    /// concurrent requests (quorum fan-out, `query_many` workers) into
    /// one [`FrameKind::BatchRequest`] frame — one CRC, one length
    /// prefix, one syscall — flushing as soon as every in-flight call is
    /// packed, when the window expires, or at the batch size caps, so a
    /// lone synchronous caller pays ~zero added latency.
    pub batch_window: Duration,
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
            batch_window: batch_window_from_env(),
        }
    }
}

/// The coalescing window `DASP_BATCH_WINDOW_US` selects (microseconds);
/// unset, zero or unparsable means no batching. This is the knob CI and
/// the experiment harness flip to run the whole stack batched without
/// touching call sites.
pub fn batch_window_from_env() -> Duration {
    std::env::var("DASP_BATCH_WINDOW_US")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_micros)
        .unwrap_or(Duration::ZERO)
}

/// Most sub-messages one outbound batch frame packs.
const MAX_BATCH_SUBS: usize = 128;

/// Most payload bytes one outbound batch frame packs.
const MAX_BATCH_BYTES: usize = 1 << 20;

/// One request queued for the batcher thread.
struct BatchItem {
    token: u64,
    payload: Vec<u8>,
}

type PendingMap = HashMap<u64, Sender<Result<Vec<u8>, TransportError>>>;

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
    /// Lock order: `state` before `pending` (the reader's teardown and
    /// the writer's registration both follow it). `batch_tx` is never
    /// held across either — callers clone the sender out and drop the
    /// guard before touching `state` or `pending`.
    state: Mutex<ConnState>,
    pending: Mutex<PendingMap>,
    /// Queue handle for the batcher thread; `None` when batching is off
    /// or the client is closed (closing drops the sender, which ends the
    /// batcher's `recv` loop).
    batch_tx: Mutex<Option<Sender<BatchItem>>>,
    /// Calls handed (or about to be handed) to the batcher that it has
    /// not yet pulled off the queue. The batcher flushes early when this
    /// hits zero: every in-flight call is packed, so waiting out the
    /// window would only add latency.
    unsent: AtomicUsize,
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
                batch_tx: Mutex::new(None),
                unsent: AtomicUsize::new(0),
                next_token: AtomicU64::new(0),
                epoch: AtomicU64::new(0),
                closed: AtomicBool::new(false),
            }),
        };
        {
            let mut st = client.inner.state.lock();
            // dasp::allow(L1): `dial` spawns `reader_loop` on a fresh thread —
            // the analyzer's call chain into it does not run under this guard.
            Self::dial(&client.inner, &mut st)
                .map_err(|e| std::io::Error::new(ErrorKind::ConnectionRefused, e.to_string()))?;
        }
        if client.inner.cfg.batch_window > Duration::ZERO {
            let (btx, brx) = unbounded::<BatchItem>();
            let batcher_inner = Arc::clone(&client.inner);
            let spawned = std::thread::Builder::new()
                .name("dasp-tcp-batcher".to_string())
                .spawn(move || batcher_loop(batcher_inner, brx));
            if let Ok(handle) = spawned {
                *client.inner.batch_tx.lock() = Some(btx);
                // The batcher joins through the same drain as readers.
                client.inner.state.lock().readers.push(handle);
            }
            // Spawn failure falls back to direct per-call writes.
        }
        Ok(client)
    }

    /// The provider address this client dials.
    pub fn peer_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// True while a connection is established.
    pub fn is_connected(&self) -> bool {
        self.inner.state.lock().stream.is_some()
    }

    /// One request/response exchange with a typed error. Concurrent
    /// callers share the connection; responses are matched by token.
    /// With a nonzero [`TcpClientConfig::batch_window`] the request is
    /// queued to the batcher thread, which packs concurrent calls into
    /// one batch frame; otherwise it is written directly.
    pub fn call(&self, payload: &[u8]) -> Result<Vec<u8>, TransportError> {
        if self.inner.closed.load(Ordering::Relaxed) {
            return Err(TransportError::Closed);
        }
        let token = self.inner.next_token.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        let batch_tx = self.inner.batch_tx.lock().clone();
        if let Some(btx) = batch_tx {
            // dasp::allow(L1): `pending` is taken alone here — consistent
            // with the crate-wide `state` -> `pending` order.
            self.inner.pending.lock().insert(token, tx);
            // Count *before* sending so the batcher's early-flush check
            // (`unsent == 0`) can never miss an item that is mid-send.
            self.inner.unsent.fetch_add(1, Ordering::AcqRel);
            let item = BatchItem {
                token,
                payload: payload.to_vec(),
            };
            if btx.send(item).is_err() {
                self.inner.unsent.fetch_sub(1, Ordering::AcqRel);
                self.inner.pending.lock().remove(&token);
                return Err(TransportError::Closed);
            }
            return match rx.recv_timeout(self.inner.cfg.call_timeout) {
                Ok(result) => result,
                Err(_) => {
                    self.inner.pending.lock().remove(&token);
                    Err(TransportError::TimedOut)
                }
            };
        }
        {
            let mut st = self.inner.state.lock();
            if st.stream.is_none() {
                // dasp::allow(L1): `dial` spawns `reader_loop` on a fresh
                // thread — that chain does not run under this guard.
                Self::dial(&self.inner, &mut st)?;
            }
            // dasp::allow(L1): lock order is `state` -> `pending` everywhere
            // (here and in `reader_loop`'s teardown); never the reverse.
            self.inner.pending.lock().insert(token, tx);
            let frame = encode_frame(token, FrameKind::Request, payload);
            let Some(stream) = st.stream.as_mut() else {
                // dasp::allow(L1): same `state` -> `pending` order as above.
                self.inner.pending.lock().remove(&token);
                return Err(TransportError::Closed);
            };
            if let Err(e) = stream.write_all(&frame) {
                let _ = stream.shutdown(Shutdown::Both);
                st.stream = None;
                // dasp::allow(L1): same `state` -> `pending` order as above.
                self.inner.pending.lock().remove(&token);
                // A write timeout (WouldBlock on Unix, TimedOut on
                // Windows) may have left a partial frame on the wire;
                // the connection is already torn down above.
                let err = if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    TransportError::TimedOut
                } else {
                    TransportError::Io(e.to_string())
                };
                return Err(err);
            }
        }
        match rx.recv_timeout(self.inner.cfg.call_timeout) {
            Ok(result) => result,
            Err(_) => {
                self.inner.pending.lock().remove(&token);
                Err(TransportError::TimedOut)
            }
        }
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
        // Dropping the sender ends the batcher's recv loop; it is joined
        // through the readers drain below.
        *self.inner.batch_tx.lock() = None;
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
        let mut pending = self.inner.pending.lock();
        for (_t, tx) in pending.drain() {
            // dasp::allow(L1, E1): each `tx` is a capacity-1 channel that sees
            // at most one send ever — this send can never block — and the
            // waiter may already have timed out and dropped its rx.
            let _ = tx.send(Err(TransportError::Closed));
        }
    }
}

impl Drop for TcpClient {
    fn drop(&mut self) {
        self.close();
    }
}

/// The coalescing loop: park on the queue, and once a request arrives
/// keep packing until the batch reaches the *adaptive depth target*,
/// the window expires, or a size cap is hit — then write the whole pack
/// as one frame. The frame scratch is reused across flushes and shrunk
/// back after outsized bursts.
///
/// The depth target is the Nagle/group-commit trick that makes the
/// window safe on a loaded box. Flushing the instant the queue drains
/// (`unsent == 0`) degenerates under scheduler ping-pong: the reader
/// wakes caller A, A's submit wakes this thread, and the batch flushes
/// as a singleton before callers B..k ever run — so steady-state depth
/// collapses to 1 and batching pays its costs without its savings.
/// Instead the batcher remembers how deep batches have recently been
/// and keeps parking on the queue (up to the window) until that many
/// requests are aboard. The target grows instantly when a flush packs
/// more, and *decays instantly* whenever a window expiry flushes fewer
/// — so when concurrency drops, at most one flush pays the window
/// before the target matches, and a lone synchronous caller (target 1)
/// never waits at all.
fn batcher_loop(inner: Arc<Inner>, rx: Receiver<BatchItem>) {
    let window = inner.cfg.batch_window;
    let mut items: Vec<BatchItem> = Vec::new();
    let mut frame: Vec<u8> = Vec::new();
    // How many requests steady state is expected to deliver per batch.
    let mut target: usize = 1;
    while let Ok(first) = rx.recv() {
        inner.unsent.fetch_sub(1, Ordering::AcqRel);
        let deadline = Instant::now() + window;
        let mut bytes = first.payload.len();
        let mut timed_out = false;
        items.push(first);
        loop {
            if items.len() >= MAX_BATCH_SUBS || bytes >= MAX_BATCH_BYTES {
                break;
            }
            match rx.try_recv() {
                Ok(item) => {
                    inner.unsent.fetch_sub(1, Ordering::AcqRel);
                    bytes += item.payload.len();
                    items.push(item);
                    continue;
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => break,
            }
            // Met the expected depth with no submission visibly in
            // flight: everything this round of concurrency produced is
            // aboard — ship it without waiting out the window.
            if items.len() >= target && inner.unsent.load(Ordering::Acquire) == 0 {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                timed_out = true;
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(item) => {
                    inner.unsent.fetch_sub(1, Ordering::AcqRel);
                    bytes += item.payload.len();
                    items.push(item);
                }
                Err(RecvTimeoutError::Timeout) => {
                    timed_out = true;
                    break;
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        target = if timed_out && items.len() < target {
            items.len() // concurrency dropped: stop waiting for ghosts
        } else {
            target.max(items.len())
        };
        write_pack(&inner, &items, &mut frame);
        items.clear();
        if frame.capacity() > 2 * MAX_BATCH_BYTES {
            frame.shrink_to(MAX_BATCH_BYTES);
        }
    }
}

/// Encode the packed requests (a plain frame for one, a batch frame for
/// many) and write them under the connection lock — dialing first if the
/// connection dropped, with the same error mapping as the direct path.
/// On failure every packed call is woken with the error through
/// `pending` (each token is removed at most once, so the capacity-1
/// reply channels never see a second send).
fn write_pack(inner: &Arc<Inner>, items: &[BatchItem], frame: &mut Vec<u8>) {
    frame.clear();
    if let [only] = items {
        encode_frame_into(frame, only.token, FrameKind::Request, &only.payload);
    } else {
        let mut b = BatchFrameBuilder::begin(frame, FrameKind::BatchRequest);
        for item in items {
            b.push(item.token, &item.payload);
        }
        b.finish();
    }
    let result = {
        let mut st = inner.state.lock();
        (|| -> Result<(), TransportError> {
            if st.stream.is_none() {
                // dasp::allow(L1): `dial` spawns `reader_loop` on a fresh
                // thread — that chain does not run under this guard.
                TcpClient::dial(inner, &mut st)?;
            }
            let Some(stream) = st.stream.as_mut() else {
                return Err(TransportError::Closed);
            };
            if let Err(e) = stream.write_all(frame) {
                let _ = stream.shutdown(Shutdown::Both);
                st.stream = None;
                // A write timeout may have left a partial frame on the
                // wire; the connection is already torn down above.
                return Err(
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                        TransportError::TimedOut
                    } else {
                        TransportError::Io(e.to_string())
                    },
                );
            }
            Ok(())
        })()
    };
    if let Err(err) = result {
        // dasp::allow(L1): `state` was released above; `pending` is taken
        // alone, and each `tx` is a capacity-1, single-send channel.
        let mut pending = inner.pending.lock();
        for item in items {
            if let Some(tx) = pending.remove(&item.token) {
                // dasp::allow(L1, E1): capacity-1, single-send channel — never
                // blocks, and the waiter may have timed out and dropped it.
                let _ = tx.send(Err(err.clone()));
            }
        }
    }
}

fn reader_loop(inner: Arc<Inner>, mut stream: TcpStream, my_epoch: u64) {
    let mut decoder = FrameDecoder::with_max_body(inner.cfg.max_frame_body);
    let mut buf = vec![0u8; 64 * 1024];
    let error = loop {
        match stream.read(&mut buf) {
            Ok(0) => break TransportError::Closed,
            Ok(n) => {
                // dasp::allow(P3): `read` returns `n <= buf.len()`.
                decoder.extend(&buf[..n]);
                let mut failed = None;
                loop {
                    match decoder.next_frame_view() {
                        Ok(Some(view)) => match view.kind {
                            FrameKind::Response => {
                                if let Some(tx) = inner.pending.lock().remove(&view.token) {
                                    // dasp::allow(E1): the requester may have
                                    // timed out and dropped its reply rx.
                                    let _ = tx.send(Ok(view.payload.to_vec()));
                                }
                            }
                            FrameKind::BatchResponse => {
                                for item in batch_items(view.payload) {
                                    match item {
                                        Ok((token, payload)) => {
                                            if let Some(tx) = inner.pending.lock().remove(&token) {
                                                // dasp::allow(E1): the requester
                                                // may have timed out already.
                                                let _ = tx.send(Ok(payload.to_vec()));
                                            }
                                        }
                                        Err(e) => {
                                            failed = Some(TransportError::Frame(e));
                                            break;
                                        }
                                    }
                                }
                                if failed.is_some() {
                                    break;
                                }
                            }
                            FrameKind::Request | FrameKind::BatchRequest => {
                                failed = Some(TransportError::Frame(FrameError::BadKind(
                                    view.kind.to_u8(),
                                )));
                                break;
                            }
                        },
                        Ok(None) => break,
                        Err(e) => {
                            failed = Some(TransportError::Frame(e));
                            break;
                        }
                    }
                }
                if let Some(e) = failed {
                    break e;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => break TransportError::Io(e.to_string()),
        }
    };
    let _ = stream.shutdown(Shutdown::Both);
    // Tear down only if this connection is still the current one; a
    // newer epoch means a reconnect already superseded us and the
    // pending map belongs to the new connection.
    let mut st = inner.state.lock();
    if inner.epoch.load(Ordering::SeqCst) == my_epoch {
        if let Some(s) = st.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        // dasp::allow(L1): `state` -> `pending` is the crate-wide lock order,
        // and each `tx` is a capacity-1, single-send channel — never blocks.
        let mut pending = inner.pending.lock();
        for (_t, tx) in pending.drain() {
            // dasp::allow(L1, E1): capacity-1, single-send channel — never
            // blocks, and the waiter may have timed out and dropped it.
            let _ = tx.send(Err(error.clone()));
        }
    }
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
        self.stream
            .write_all(&self.frame)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        loop {
            match self.decoder.next_frame() {
                Ok(Some(f)) if f.token == token && f.kind == FrameKind::Response => {
                    return Ok(f.payload)
                }
                Ok(Some(_)) => continue, // stale response from a past call
                Ok(None) => {}
                Err(e) => return Err(TransportError::Frame(e)),
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => self.decoder.extend(&self.buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(TransportError::TimedOut)
                }
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
    }

    /// Send `payloads` as one [`FrameKind::BatchRequest`] frame and
    /// collect every response, returned in request order. One CRC, one
    /// length prefix, one `write` for the whole batch; responses may
    /// arrive as individual frames or coalesced batch frames in any
    /// order. A missing (never-produced) response surfaces as an empty
    /// payload, mirroring [`SharedService`] error mapping; the combined
    /// request body must stay under the server's frame cap.
    pub fn call_many(&mut self, payloads: &[&[u8]]) -> Result<Vec<Vec<u8>>, TransportError> {
        if payloads.is_empty() {
            return Ok(Vec::new());
        }
        let base = self.next_token;
        self.next_token += payloads.len() as u64;
        self.frame.clear();
        let mut b = BatchFrameBuilder::begin(&mut self.frame, FrameKind::BatchRequest);
        for (i, payload) in payloads.iter().enumerate() {
            b.push(base + i as u64, payload);
        }
        b.finish();
        self.stream
            .write_all(&self.frame)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let mut results: Vec<Option<Vec<u8>>> = vec![None; payloads.len()];
        let mut got = 0usize;
        let mut fill = |token: u64, payload: Vec<u8>, got: &mut usize| {
            if token >= base {
                if let Some(slot) = results.get_mut((token - base) as usize) {
                    if slot.is_none() {
                        *slot = Some(payload);
                        *got += 1;
                    }
                }
            }
        };
        while got < payloads.len() {
            match self.decoder.next_frame() {
                Ok(Some(f)) => {
                    match f.kind {
                        FrameKind::Response => fill(f.token, f.payload, &mut got),
                        FrameKind::BatchResponse => {
                            for item in batch_items(&f.payload) {
                                let (token, payload) = item.map_err(TransportError::Frame)?;
                                fill(token, payload.to_vec(), &mut got);
                            }
                        }
                        _ => continue, // stale or unexpected: skip
                    }
                    continue;
                }
                Ok(None) => {}
                Err(e) => return Err(TransportError::Frame(e)),
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => self.decoder.extend(&self.buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Err(TransportError::TimedOut)
                }
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
        Ok(results.into_iter().map(|r| r.unwrap_or_default()).collect())
    }
}
