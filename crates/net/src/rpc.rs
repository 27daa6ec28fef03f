//! Threaded RPC fabric with failure injection and a resilient quorum
//! engine.
//!
//! A provider is reached one of two ways. An in-process
//! [`SharedService`] runs as a pool of OS threads serving requests from
//! one shared queue ([`Cluster::spawn_concurrent`]) — the closest
//! laptop analogue of the paper's independent DAS sites. A remote
//! provider sits behind a [`TcpClient`] ([`Cluster::connect_tcp`]): the
//! engine writes the request frame on the caller's own thread, and the
//! client's reader thread puts the answer straight onto the engine's
//! reply queue, so a TCP call wakes no client thread but that reader.
//! Either way the caller waits with a timeout, so a crashed provider
//! degrades into a timeout exactly as a dead site would. A request the
//! TCP transport loses is reported to the engine: the attempt still ends
//! at its deadline, but a [`QuorumMode::FirstK`] read escalates to its
//! next provider at once and resends the lost request after a short
//! pause (a write is never resent: it may have been applied). An
//! in-process handler that panics loses its request the same way, and
//! its worker serves the next. The engine takes every reply already
//! queued before it judges a deadline, so a send that held the caller's
//! thread never times out an answer that arrived meanwhile.
//!
//! Every call — one provider or many, first-k or all — goes through one
//! quorum engine. Quorum calls are *first-k-wins*: every in-flight
//! attempt replies onto one reply queue tagged with an attempt token,
//! and the engine returns the moment enough valid responses have arrived
//! — stragglers are abandoned, timed-out attempts are retried per
//! [`RetryPolicy`], failures escalate to hedge launches at the
//! next-fastest provider, and providers with open circuit breakers (see
//! [`HealthTracker`]) are skipped unless the quorum cannot be met without
//! them. Independent calls can share one engine run as *rounds*
//! ([`Cluster::call_quorum_rounds`]): each round is judged alone, and
//! all their requests are in flight at once while the caller waits on
//! one queue.
//!
//! Failure injection (per provider, switchable at runtime) happens in
//! the engine, above either kind of provider, from one seeded RNG per
//! provider:
//! * [`FailureMode::Crashed`] — requests are never sent (client times out).
//! * [`FailureMode::Omission`] — each arriving response is dropped with
//!   probability p.
//! * [`FailureMode::Byzantine`] — each arriving response has a random bit
//!   flipped with probability p (exercises share-consistency detection).
//! * [`Cluster::set_latency`] — each request is held back for the delay,
//!   then sent by the engine's own deadline loop; a delay occupies no
//!   thread.

use crate::channel::{self, spawn_workers, unbounded, ReplyTo};
use crate::cost::TrafficStats;
use crate::resilience::{
    Admission, BreakerConfig, Clock, HealthTracker, ProviderOutcome, QuorumError, RetryPolicy,
    SystemClock,
};
use crate::transport::{Reply, TcpClient, TcpClientConfig, TransportError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Index of a provider within a cluster (0-based).
pub type ProviderId = usize;

/// A request handler that serves many requests concurrently: the worker
/// pool spawned by [`Cluster::spawn_concurrent`] calls `handle` from
/// several threads at once, so implementations synchronize internally
/// (e.g. the provider engine's read/write lock).
pub trait SharedService: Send + Sync {
    /// Handle one request payload, producing a response payload.
    fn handle(&self, request: &[u8]) -> Vec<u8>;

    /// A promise that [`handle`](Self::handle) cannot block on
    /// `request`: it takes no lock a writer holds across I/O and waits
    /// for no disk, peer or other request. [`crate::TcpServer`] runs such
    /// a request on the thread that read it instead of handing it to the
    /// worker pool. The default promises nothing.
    fn runs_inline(&self, _request: &[u8]) -> bool {
        false
    }
}

impl<F> SharedService for F
where
    F: Fn(&[u8]) -> Vec<u8> + Send + Sync,
{
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        self(request)
    }
}

/// Per-provider failure behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailureMode {
    /// Normal operation.
    Healthy,
    /// Provider is down: requests vanish.
    Crashed,
    /// Each response is dropped with this probability.
    Omission(f64),
    /// Each response is corrupted (random byte flipped) with this
    /// probability.
    Byzantine(f64),
}

/// RPC failure as seen by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// No response within the deadline (crashed/omitting provider).
    Timeout(ProviderId),
    /// The provider id does not exist.
    UnknownProvider(ProviderId),
    /// A quorum call could not gather enough valid responses.
    QuorumUnreachable {
        /// Responses required.
        needed: usize,
        /// Valid responses obtained.
        got: usize,
    },
    /// The cluster was shut down.
    Closed,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Timeout(p) => write!(f, "provider {p} timed out"),
            RpcError::UnknownProvider(p) => write!(f, "unknown provider {p}"),
            RpcError::QuorumUnreachable { needed, got } => write!(
                f,
                "quorum unreachable: {got} of the required {needed} providers responded"
            ),
            RpcError::Closed => write!(f, "cluster closed"),
        }
    }
}

impl std::error::Error for RpcError {}

/// How a quorum call fans out and when it returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumMode {
    /// Return as soon as enough valid responses arrive; stragglers are
    /// abandoned and providers with open breakers are skipped when the
    /// quorum can be met without them. For idempotent reads.
    FirstK,
    /// Contact every listed provider (breakers notwithstanding) and wait
    /// for each to resolve. Required for writes, which must reach all
    /// replicas and must not be silently skipped.
    All,
}

/// Tuning for [`Cluster::call_quorum_rounds`].
pub struct QuorumOptions<'a> {
    /// Retry schedule for failed attempts. Use [`RetryPolicy::none`] for
    /// non-idempotent requests.
    pub retry: RetryPolicy,
    /// Extra providers contacted up front beyond the response target, to
    /// race stragglers (hedged requests). [`QuorumMode::FirstK`] only.
    pub hedge: usize,
    /// Extra responses collected beyond `need` when available (the quorum
    /// still succeeds with `need`). Lets callers cross-check shares.
    pub extra: usize,
    /// Fan-out / return discipline.
    pub mode: QuorumMode,
    /// Application-level response check, given the round index (0 for a
    /// one-round call), the provider and the response; a refused
    /// response counts as a failed attempt, retried as its [`Refusal`]
    /// says, then reported as [`ProviderOutcome::Rejected`].
    #[allow(clippy::type_complexity)]
    pub validate: Option<&'a dyn Fn(usize, ProviderId, &[u8]) -> Result<(), Refusal>>,
}

/// Why a [`QuorumOptions::validate`] check refused a response. Either
/// way the attempt failed, the provider's breaker is charged once and a
/// [`QuorumMode::FirstK`] round asks its next provider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// A damaged or wrong answer, which asking again may heal: retried
    /// per [`RetryPolicy`].
    Retry(String),
    /// The provider's own answer, which asking again would only repeat:
    /// never retried.
    Final(String),
}

impl Default for QuorumOptions<'_> {
    fn default() -> Self {
        QuorumOptions {
            retry: RetryPolicy::none(),
            hedge: 0,
            extra: 0,
            mode: QuorumMode::FirstK,
            validate: None,
        }
    }
}

struct Envelope {
    request: Vec<u8>,
    reply_to: ReplyTo<Reply>,
    token: u64,
}

/// A cloneable switch over one provider's failure mode, detached from
/// the [`Cluster`] borrow so another thread can inject churn mid-call.
#[derive(Clone)]
pub struct FailureSwitch(Arc<Mutex<FailureMode>>);

impl FailureSwitch {
    /// Flip the provider's failure mode.
    pub fn set(&self, mode: FailureMode) {
        *self.0.lock() = mode;
    }

    /// The current failure mode.
    pub fn get(&self) -> FailureMode {
        *self.0.lock()
    }
}

/// How attempts reach one provider.
enum Link {
    /// An in-process service: worker threads drain one request channel.
    Pool {
        tx: channel::Sender<Envelope>,
        threads: Vec<JoinHandle<()>>,
    },
    /// A remote provider: the engine writes each frame itself and the
    /// client's reader answers onto the engine's reply queue.
    Tcp(TcpClient),
    /// Shut down, or no worker thread could be started.
    Closed,
}

/// The provider is shut down: nothing can be sent to it.
struct Closed;

struct ProviderHandle {
    link: Link,
    failure: Arc<Mutex<FailureMode>>,
    /// How long each request is held back before it is sent.
    latency: Mutex<Duration>,
    /// Draws omission and Byzantine faults, seeded by provider id.
    rng: Mutex<StdRng>,
}

impl ProviderHandle {
    fn new(id: ProviderId, link: Link) -> Self {
        ProviderHandle {
            link,
            failure: Arc::new(Mutex::new(FailureMode::Healthy)),
            latency: Mutex::new(Duration::ZERO),
            rng: Mutex::new(StdRng::seed_from_u64(0x5eed ^ id as u64)),
        }
    }

    fn is_open(&self) -> bool {
        !matches!(self.link, Link::Closed)
    }

    /// Put attempt `token` on its way; a crashed provider swallows it.
    /// `Ok(Some(entry))` names the [`TcpClient`] entry to cancel should
    /// the attempt be abandoned. A transport that loses the request says
    /// so on `reply`; one that refuses it outright reports nothing, and
    /// the attempt runs into its deadline, as with a crashed provider.
    fn deliver(
        &self,
        request: &[u8],
        reply: &ReplyTo<Reply>,
        token: u64,
    ) -> Result<Option<u64>, Closed> {
        if *self.failure.lock() == FailureMode::Crashed {
            return Ok(None);
        }
        match &self.link {
            Link::Pool { tx, .. } => tx
                .send(Envelope {
                    request: request.to_vec(),
                    reply_to: reply.clone(),
                    token,
                })
                .map(|()| None)
                .map_err(|_| Closed),
            Link::Tcp(client) => match client.submit(request, reply.clone(), token) {
                Ok(entry) => Ok(Some(entry)),
                Err(TransportError::Closed) => Err(Closed),
                Err(_) => Ok(None),
            },
            Link::Closed => Err(Closed),
        }
    }

    /// Apply the injected fault to an arriving response; `false` means
    /// the response is lost.
    fn inject(&self, response: &mut [u8]) -> bool {
        let mode = *self.failure.lock();
        match mode {
            FailureMode::Healthy | FailureMode::Crashed => true,
            FailureMode::Omission(p) => self.rng.lock().gen::<f64>() >= p,
            FailureMode::Byzantine(p) => {
                let mut rng = self.rng.lock();
                if !response.is_empty() && rng.gen::<f64>() < p {
                    let idx = rng.gen_range(0..response.len());
                    let bit = rng.gen_range(0u32..8);
                    if let Some(byte) = response.get_mut(idx) {
                        *byte ^= 1u8 << bit;
                    }
                }
                true
            }
        }
    }

    /// Forget an abandoned attempt's [`TcpClient`] entry.
    fn cancel(&self, entry: u64) {
        if let Link::Tcp(client) = &self.link {
            client.cancel(entry);
        }
    }
}

/// A running cluster of providers plus client-side metering and
/// per-provider health tracking.
pub struct Cluster {
    providers: Vec<ProviderHandle>,
    stats: TrafficStats,
    timeout: Duration,
    health: HealthTracker,
}

impl Cluster {
    /// Worker-pool size used when callers don't pick one: `min(4, cores)`.
    /// Small enough that a laptop cluster of n providers doesn't
    /// oversubscribe, large enough to overlap slow requests.
    pub fn default_workers() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4)
    }

    /// Spawn `workers` threads per provider, all draining one request
    /// channel, so a provider serves up to `workers` requests at once and
    /// responses may return out of order — the quorum engine multiplexes
    /// them by attempt token. `timeout` bounds every call; breakers take
    /// [`BreakerConfig::default`] on the system clock until
    /// [`with_breaker`](Self::with_breaker) says otherwise.
    pub fn spawn_concurrent(
        services: Vec<Arc<dyn SharedService>>,
        timeout: Duration,
        workers: usize,
    ) -> Self {
        let workers = workers.max(1);
        let links = services.into_iter().enumerate().map(|(id, service)| {
            let (tx, rx) = unbounded();
            let name = |w| format!("dasp-provider-{id}-w{w}");
            let threads = spawn_workers(workers, name, &rx, move |env: Envelope| {
                // A handler that panics answers its one request with a
                // final error, which the engine escalates past at once
                // and never resends, and leaves the worker serving the
                // next.
                let answer = catch_unwind(AssertUnwindSafe(|| service.handle(&env.request)))
                    .map_err(|_| TransportError::HandlerFailed);
                env.reply_to.send((env.token, answer));
            });
            // If the OS refuses every worker thread, every call to this
            // provider fails with RpcError::Closed (a dead provider),
            // instead of panicking the whole cluster at construction.
            if threads.is_empty() {
                Link::Closed
            } else {
                Link::Pool { tx, threads }
            }
        });
        Self::from_links(links.collect(), timeout)
    }

    fn from_links(links: Vec<Link>, timeout: Duration) -> Self {
        let n = links.len();
        Cluster {
            providers: links
                .into_iter()
                .enumerate()
                .map(|(id, link)| ProviderHandle::new(id, link))
                .collect(),
            stats: TrafficStats::new(),
            timeout,
            health: HealthTracker::new(n, BreakerConfig::default(), Arc::new(SystemClock::new())),
        }
    }

    /// The same cluster with circuit breakers tuned by `breaker`, their
    /// cooldowns timed by `clock` (a [`crate::ManualClock`] makes them
    /// deterministic). Health recorded so far is discarded.
    pub fn with_breaker(mut self, breaker: BreakerConfig, clock: Arc<dyn Clock>) -> Self {
        self.health = HealthTracker::new(self.n(), breaker, clock);
        self
    }

    /// Connect a cluster to remote TCP providers, one [`TcpClient`] per
    /// address. Everything above the transport — first-k-wins quorum,
    /// hedged reads, retries, circuit breakers, failure injection — runs
    /// unchanged, and no client thread is spawned but each client's
    /// reader: the caller writes its own frames.
    ///
    /// A dead provider process surfaces as [`RpcError::Timeout`], the
    /// same observable failure as an in-process crashed provider: a
    /// request the transport cannot deliver runs into its deadline. A
    /// read does not wait for it, though: the engine escalates to the
    /// next provider at once and resends the request after a short
    /// pause, which heals a reset connection within the attempt.
    ///
    /// Sending holds the caller's thread: a redial for at most `timeout`
    /// or 1 s, whichever is shorter, and a blocked socket write for at
    /// most as long again. Replies that arrive meanwhile are taken
    /// before any deadline is judged, so a slow send never times out a
    /// provider that has answered.
    pub fn connect_tcp(addrs: &[std::net::SocketAddr], timeout: Duration) -> std::io::Result<Self> {
        let defaults = TcpClientConfig::default();
        let cfg = TcpClientConfig {
            connect_timeout: defaults.connect_timeout.min(timeout),
            write_timeout: defaults.write_timeout.min(timeout),
            ..defaults
        };
        let mut links = Vec::with_capacity(addrs.len());
        for addr in addrs {
            links.push(Link::Tcp(TcpClient::connect(*addr, cfg.clone())?));
        }
        Ok(Self::from_links(links, timeout))
    }

    /// Number of providers.
    pub fn n(&self) -> usize {
        self.providers.len()
    }

    /// The shared traffic meters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Per-provider health: breaker states, failure streaks, latency
    /// EWMAs. Print `health().snapshot()` for a table.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The per-call (and default per-attempt) timeout.
    pub fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Set a provider's failure mode.
    pub fn set_failure(&self, provider: ProviderId, mode: FailureMode) {
        if let Some(h) = self.providers.get(provider) {
            *h.failure.lock() = mode;
        }
    }

    /// A cloneable, thread-safe handle to one provider's failure switch.
    /// Lets a churn thread flip failure modes while the owner of the
    /// cluster keeps issuing calls (soak tests).
    pub fn failure_switch(&self, provider: ProviderId) -> Option<FailureSwitch> {
        self.providers
            .get(provider)
            .map(|h| FailureSwitch(Arc::clone(&h.failure)))
    }

    /// Inject real per-request latency at every provider (live WAN
    /// emulation — complements the analytical [`crate::NetworkModel`]):
    /// each request is sent `delay` after its launch. The delay holds no
    /// worker, so it does not limit how many requests a provider serves
    /// at once. The call timeout must exceed the injected latency.
    pub fn set_latency(&self, delay: Duration) {
        for h in &self.providers {
            *h.latency.lock() = delay;
        }
    }

    /// Inject latency at a single provider (a straggler, not a WAN).
    pub fn set_latency_for(&self, provider: ProviderId, delay: Duration) {
        if let Some(h) = self.providers.get(provider) {
            *h.latency.lock() = delay;
        }
    }

    /// Stop accepting requests, join every provider worker and close
    /// every [`TcpClient`]. In-flight requests are abandoned; subsequent
    /// calls return [`RpcError::Closed`]. Idempotent; also invoked by
    /// `Drop`.
    pub fn shutdown(&mut self) {
        let mut threads = Vec::new();
        for p in &mut self.providers {
            // A pool's workers drain their queue and exit once its sender
            // is dropped; a dropped `TcpClient` closes.
            if let Link::Pool { threads: t, .. } = std::mem::replace(&mut p.link, Link::Closed) {
                threads.extend(t);
            }
        }
        for t in threads {
            let _ = t.join();
        }
    }

    /// Call one provider once, counting the exchange as a round trip.
    pub fn call(&self, provider: ProviderId, request: Vec<u8>) -> Result<Vec<u8>, RpcError> {
        let opts = QuorumOptions {
            mode: QuorumMode::All,
            ..Default::default()
        };
        let resolution = self.run_quorum(vec![vec![(provider, request)]], 1, &opts);
        match resolution.into_iter().flatten().next() {
            Some((_, Ok(response))) => Ok(response),
            Some(_) if provider >= self.n() => Err(RpcError::UnknownProvider(provider)),
            Some((_, Err(ProviderOutcome::Disconnected))) | None => Err(RpcError::Closed),
            Some(_) => Err(RpcError::Timeout(provider)),
        }
    }

    /// Fan out and return as soon as `k` successes arrive (the paper's
    /// "any k of the service providers must be available"). Responses
    /// beyond the first k successes may be discarded.
    pub fn call_quorum(
        &self,
        requests: Vec<(ProviderId, Vec<u8>)>,
        k: usize,
    ) -> Result<Vec<(ProviderId, Vec<u8>)>, RpcError> {
        let opts = QuorumOptions {
            hedge: usize::MAX,
            ..Default::default()
        };
        let mut rounds = self.run_quorum(vec![requests], k, &opts);
        quorum_result(k, rounds.pop().unwrap_or_default()).map_err(|e| {
            RpcError::QuorumUnreachable {
                needed: e.needed,
                got: e.got,
            }
        })
    }

    /// First-k-wins quorum calls with retries, hedging and breaker-aware
    /// provider selection, several in one engine run, so their requests
    /// overlap on the wire and at the providers while the caller waits
    /// once. Each round is judged on its own — its retries, escalations
    /// and breaker top-ups, its success count — and resolves exactly as
    /// it would alone; `opts.validate` receives the round's index. Each
    /// round returns its successful `(provider, response)` pairs in
    /// request order — at least `need` of them, up to `need + extra` — or
    /// a [`QuorumError`] post-mortem. Results come back in round order.
    /// Counts one round trip.
    #[allow(clippy::type_complexity)]
    pub fn call_quorum_rounds(
        &self,
        rounds: Vec<Vec<(ProviderId, Vec<u8>)>>,
        need: usize,
        opts: &QuorumOptions<'_>,
    ) -> Vec<Result<Vec<(ProviderId, Vec<u8>)>, QuorumError>> {
        self.run_quorum(rounds, need, opts)
            .into_iter()
            .map(|resolutions| quorum_result(need, resolutions))
            .collect()
    }

    /// The quorum engine: one reply queue per run, token-tagged
    /// attempts, an event loop over response/timeout/retry deadlines.
    /// Every round runs the same rules over its own requests; the rounds
    /// share only the queue, the token map and the wait. Returns each
    /// round's resolutions in request order.
    fn run_quorum(
        &self,
        rounds: Vec<Vec<(ProviderId, Vec<u8>)>>,
        need: usize,
        opts: &QuorumOptions<'_>,
    ) -> Vec<Resolutions> {
        self.stats.record_round_trip();
        let per_attempt = opts.retry.per_attempt_timeout.unwrap_or(self.timeout);
        let max_attempts = opts.retry.max_attempts.max(1);

        struct Cand {
            round: usize,
            provider: ProviderId,
            request: Vec<u8>,
            attempts: u32,
            /// (token, sent_at, deadline) of the attempt in flight.
            live: Option<(u64, Instant, Instant)>,
            retry_at: Option<Instant>,
            held: bool,
            done: Option<Result<Vec<u8>, ProviderOutcome>>,
        }

        /// One call's progress.
        struct Round {
            /// Successes after which the round stops.
            want: usize,
            successes: usize,
            /// Admitted candidates in launch order.
            ready: VecDeque<usize>,
            /// Candidates whose breaker is open, launched only when the
            /// quorum cannot be met otherwise.
            held: VecDeque<usize>,
            /// Per-pass tallies of attempts in flight, retries pending
            /// and attempts that just timed out.
            live: usize,
            retries: usize,
            escalations: usize,
            /// Nothing can change the outcome any more: the round's
            /// candidates are skipped and late replies to it dropped.
            settled: bool,
        }

        let mut cands: Vec<Cand> = Vec::new();
        let mut states: Vec<Round> = Vec::with_capacity(rounds.len());
        for (round, requests) in rounds.into_iter().enumerate() {
            let first = cands.len();
            let n_req = requests.len();
            cands.extend(requests.into_iter().map(|(provider, request)| Cand {
                round,
                provider,
                request,
                attempts: 0,
                live: None,
                retry_at: None,
                held: false,
                done: if provider < self.providers.len() {
                    None
                } else {
                    Some(Err(ProviderOutcome::Unsent))
                },
            }));
            // Launch order: admitted candidates, fastest EWMA first with
            // never-measured providers leading (so they get sampled),
            // then — only when the quorum cannot be met otherwise —
            // providers whose breaker is open.
            let mut admitted: Vec<((u8, Duration, ProviderId), usize)> = Vec::new();
            let mut held: VecDeque<usize> = VecDeque::new();
            for (idx, c) in cands.iter_mut().enumerate().skip(first) {
                if c.done.is_some() {
                    continue;
                }
                let admit = match opts.mode {
                    QuorumMode::All => Admission::Yes,
                    QuorumMode::FirstK => self.health.admit(c.provider),
                };
                if admit == Admission::No {
                    c.held = true;
                    held.push_back(idx);
                } else {
                    let rank = match self.health.ewma_latency(c.provider) {
                        None => (0u8, Duration::ZERO, c.provider),
                        Some(d) => (1u8, d, c.provider),
                    };
                    admitted.push((rank, idx));
                }
            }
            admitted.sort();
            states.push(Round {
                want: match opts.mode {
                    QuorumMode::All => n_req,
                    QuorumMode::FirstK => need.saturating_add(opts.extra).min(n_req),
                },
                successes: 0,
                ready: admitted.into_iter().map(|(_, idx)| idx).collect(),
                held,
                live: 0,
                retries: 0,
                escalations: 0,
                settled: false,
            });
        }

        let (reply_tx, reply_rx) = channel::replies();
        let mut arrived = VecDeque::new();
        let mut fl = Flights {
            map: HashMap::new(),
            next_token: 0,
            delayed: Vec::new(),
        };

        // Hand attempt `token` of `c` to its provider. One the provider
        // turns out to be closed for ends the candidate, if still live.
        let dispatch = |c: &mut Cand, token: u64, map: &mut HashMap<u64, Attempt>| {
            let Some(h) = self.providers.get(c.provider) else {
                return;
            };
            match h.deliver(&c.request, &reply_tx, token) {
                Ok(entry) => {
                    if let Some(attempt) = map.get_mut(&token) {
                        attempt.entry = entry;
                    }
                }
                Err(Closed) => {
                    if c.done.is_none() && c.live.is_some_and(|(t, _, _)| t == token) {
                        c.live = None;
                        c.done = Some(Err(ProviderOutcome::Disconnected));
                    }
                }
            }
        };

        // Start an attempt: send it now, or once the provider's injected
        // latency has passed. Its deadline runs from now either way.
        let launch = |cands: &mut [Cand], idx: usize, fl: &mut Flights| {
            let Some(c) = cands.get_mut(idx) else { return };
            c.attempts += 1;
            let Some(h) = self.providers.get(c.provider).filter(|h| h.is_open()) else {
                c.done = Some(Err(ProviderOutcome::Disconnected));
                return;
            };
            let token = fl.next_token;
            fl.next_token += 1;
            let now = Instant::now();
            self.stats.record_send(c.request.len());
            fl.map.insert(
                token,
                Attempt {
                    cand: idx,
                    sent_at: now,
                    entry: None,
                    lost: false,
                },
            );
            c.live = Some((token, now, now + per_attempt));
            let delay = *h.latency.lock();
            if delay.is_zero() {
                dispatch(c, token, &mut fl.map);
            } else {
                fl.delayed.push((now + delay, token));
            }
        };

        // Take one reply. A response settles its candidate or, rejected,
        // counts as a failed attempt; a failed handler is a final
        // rejection. A lost request (any other transport error) leaves
        // the attempt to its deadline, as with a crashed provider, but a
        // read need not wait for that: on the first loss the round
        // escalates to its next provider, and the request goes out again
        // after a pause, which heals a reset connection.
        let take =
            |(token, reply): Reply, cands: &mut [Cand], states: &mut [Round], fl: &mut Flights| {
                let answer = match reply {
                    Ok(payload) => Ok(payload),
                    Err(e @ TransportError::HandlerFailed) => Err(Refusal::Final(e.to_string())),
                    Err(_) => {
                        let Some(attempt) = fl.map.get_mut(&token) else {
                            return;
                        };
                        attempt.entry = None;
                        let first_loss = !std::mem::replace(&mut attempt.lost, true);
                        let Some(c) = cands.get(attempt.cand) else {
                            return;
                        };
                        let Some(s) = states.get_mut(c.round) else {
                            return;
                        };
                        if opts.mode != QuorumMode::FirstK
                            || s.settled
                            || c.done.is_some()
                            || c.live.map(|(t, _, _)| t) != Some(token)
                        {
                            return;
                        }
                        fl.delayed.push((Instant::now() + RESEND_GAP, token));
                        if first_loss && s.successes < s.want {
                            if let Some(next) = s.ready.pop_front() {
                                launch(cands, next, fl);
                            }
                        }
                        return;
                    }
                };
                let Some(Attempt { cand, sent_at, .. }) = fl.map.remove(&token) else {
                    return;
                };
                let Some(c) = cands.get_mut(cand) else {
                    return;
                };
                let Some(s) = states.get_mut(c.round) else {
                    return;
                };
                if s.settled || c.done.is_some() {
                    return; // late response for a settled round or candidate
                }
                let verdict = match answer {
                    Ok(mut payload) => {
                        if !self
                            .providers
                            .get(c.provider)
                            .is_some_and(|h| h.inject(&mut payload))
                        {
                            return; // omitted on the way back
                        }
                        self.stats.record_recv(payload.len());
                        match opts.validate {
                            Some(f) => f(c.round, c.provider, &payload).map(|()| payload),
                            None => Ok(payload),
                        }
                    }
                    Err(refusal) => Err(refusal),
                };
                match verdict {
                    Ok(payload) => {
                        self.health.record_success(c.provider, sent_at.elapsed());
                        c.live = None;
                        c.retry_at = None;
                        c.done = Some(Ok(payload));
                        s.successes += 1;
                        // At its target the round settles now, so the
                        // replies still queued behind this one are late.
                        s.settled = s.successes >= s.want;
                    }
                    Err(refusal) => {
                        self.health.record_failure(c.provider);
                        let (reason, retry) = match refusal {
                            Refusal::Retry(reason) => (reason, true),
                            Refusal::Final(reason) => (reason, false),
                        };
                        if !retry {
                            // A final answer settles the candidate, even
                            // with another of its attempts still out.
                            (c.live, c.retry_at) = (None, None);
                        } else if c.live.map(|(t, _, _)| t) == Some(token) {
                            c.live = None;
                        }
                        if c.live.is_none() && c.retry_at.is_none() {
                            if retry && c.attempts < max_attempts && s.successes < need {
                                c.retry_at = Some(
                                    Instant::now() + opts.retry.backoff_for(c.provider, c.attempts),
                                );
                            } else {
                                c.done = Some(Err(ProviderOutcome::Rejected {
                                    attempts: c.attempts,
                                    reason,
                                }));
                            }
                        }
                        if s.successes < s.want {
                            if let Some(next) = s.ready.pop_front() {
                                launch(cands, next, fl);
                            }
                        }
                    }
                }
            };

        // Initial wave, round by round: everything in All mode; the
        // response target plus the hedge allowance in FirstK mode.
        for s in states.iter_mut() {
            let wave = match opts.mode {
                QuorumMode::All => s.ready.len(),
                QuorumMode::FirstK => s.want.saturating_add(opts.hedge).min(s.ready.len()),
            };
            for _ in 0..wave {
                let Some(idx) = s.ready.pop_front() else {
                    break;
                };
                launch(&mut cands, idx, &mut fl);
            }
        }

        loop {
            // Take every reply already here before judging deadlines: a
            // send that held this thread (a dial, a write to a peer that
            // stopped reading) must not time out an answer that arrived
            // meanwhile. Each is judged alone, in arrival order.
            reply_rx.take(Instant::now(), &mut arrived);
            for reply in arrived.drain(..) {
                take(reply, &mut cands, &mut states, &mut fl);
            }
            let now = Instant::now();

            // Send the attempts whose injected latency has passed, and
            // resend lost reads still waited for, in launch order.
            let (due, wait): (Vec<_>, Vec<_>) = std::mem::take(&mut fl.delayed)
                .into_iter()
                .partition(|&(at, _)| at <= now);
            fl.delayed = wait;
            for (_, token) in due {
                let Some(&Attempt { cand, lost, .. }) = fl.map.get(&token) else {
                    continue;
                };
                let Some(c) = cands.get_mut(cand) else {
                    continue;
                };
                let wanted = c.done.is_none()
                    && c.live.map(|(t, _, _)| t) == Some(token)
                    && states.get(c.round).is_some_and(|s| !s.settled);
                if !lost || wanted {
                    dispatch(c, token, &mut fl.map);
                }
            }

            // Finalize attempts past their deadline: record the failure,
            // schedule a retry if budget and the quorum still need it,
            // and escalate by launching the next-best provider not yet asked.
            for c in cands.iter_mut() {
                let Some(s) = states.get_mut(c.round) else {
                    continue;
                };
                if s.settled || c.done.is_some() || !matches!(c.live, Some((_, _, dl)) if now >= dl)
                {
                    continue;
                }
                self.health.record_failure(c.provider);
                c.live = None;
                if c.attempts < max_attempts && s.successes < need {
                    c.retry_at = Some(now + opts.retry.backoff_for(c.provider, c.attempts));
                } else {
                    c.done = Some(Err(ProviderOutcome::TimedOut {
                        attempts: c.attempts,
                    }));
                }
                s.escalations += 1;
            }
            for s in states.iter_mut().filter(|s| !s.settled) {
                let escalations = std::mem::take(&mut s.escalations);
                if s.successes < s.want {
                    for _ in 0..escalations {
                        let Some(next) = s.ready.pop_front() else {
                            break;
                        };
                        launch(&mut cands, next, &mut fl);
                    }
                }
            }

            // Fire retries that have cooled down.
            for idx in 0..cands.len() {
                let Some(c) = cands.get_mut(idx) else {
                    continue;
                };
                let Some(s) = states.get(c.round) else {
                    continue;
                };
                if s.settled
                    || c.done.is_some()
                    || c.live.is_some()
                    || !matches!(c.retry_at, Some(at) if now >= at)
                {
                    continue;
                }
                c.retry_at = None;
                if s.successes < need {
                    launch(&mut cands, idx, &mut fl);
                } else {
                    c.done = Some(Err(ProviderOutcome::TimedOut {
                        attempts: c.attempts,
                    }));
                }
            }

            // Quorum met: cancel pending retries so only live attempts
            // can still add responses (bounds degraded-read latency).
            // Then tally what each round still has in play.
            for s in states.iter_mut() {
                (s.live, s.retries) = (0, 0);
            }
            for c in cands.iter_mut() {
                let Some(s) = states.get_mut(c.round) else {
                    continue;
                };
                if s.settled || c.done.is_some() {
                    continue;
                }
                if s.successes >= need && c.live.is_none() && c.retry_at.take().is_some() {
                    c.done = Some(Err(ProviderOutcome::TimedOut {
                        attempts: c.attempts,
                    }));
                    continue;
                }
                s.live += usize::from(c.live.is_some());
                s.retries += usize::from(c.retry_at.is_some());
            }

            // Top up: the quorum must stay reachable — force-include
            // held (breaker-open) providers when nothing else remains.
            // A round settles once it has its target or nothing in play.
            for s in states.iter_mut().filter(|s| !s.settled) {
                while s.successes < need && s.successes + s.live + s.retries < need {
                    let Some(idx) = s.ready.pop_front().or_else(|| s.held.pop_front()) else {
                        break;
                    };
                    launch(&mut cands, idx, &mut fl);
                    if cands.get(idx).is_some_and(|c| c.live.is_some()) {
                        s.live += 1;
                    }
                }
                s.settled = s.successes >= s.want || s.live + s.retries == 0;
            }
            if states.iter().all(|s| s.settled) {
                break;
            }

            // Sleep until the next deadline, delayed send or reply.
            let next_event = cands
                .iter()
                .filter(|c| c.done.is_none() && states.get(c.round).is_some_and(|s| !s.settled))
                .flat_map(|c| c.live.map(|(_, _, dl)| dl).into_iter().chain(c.retry_at))
                .chain(fl.delayed.iter().map(|&(at, _)| at))
                .min();
            let Some(next_event) = next_event else { break };
            reply_rx.take(next_event, &mut arrived);
        }

        // Unanswered attempts are abandoned: free their transport entries.
        for attempt in fl.map.into_values() {
            let provider = cands.get(attempt.cand).map(|c| c.provider);
            if let (Some(entry), Some(h)) =
                (attempt.entry, provider.and_then(|p| self.providers.get(p)))
            {
                h.cancel(entry);
            }
        }

        let mut out: Vec<Vec<_>> = states.iter().map(|_| Vec::new()).collect();
        for c in cands {
            let resolution = match c.done {
                Some(r) => r,
                None if c.attempts > 0 => Err(ProviderOutcome::TimedOut {
                    attempts: c.attempts,
                }),
                None if c.held => Err(ProviderOutcome::BreakerOpen),
                None => Err(ProviderOutcome::Unsent),
            };
            if let Some(round) = out.get_mut(c.round) {
                round.push((c.provider, resolution));
            }
        }
        out
    }
}

/// One attempt the quorum engine has launched and not yet heard from.
struct Attempt {
    /// Index of its candidate.
    cand: usize,
    sent_at: Instant,
    /// Its [`TcpClient`] entry, if it went out over TCP and is still
    /// waiting there.
    entry: Option<u64>,
    /// The transport lost its request at least once.
    lost: bool,
}

/// How long a read whose request the transport lost waits before it is
/// sent again: a reset connection redials at once, and a dead provider
/// costs one refused dial per pause until the attempt's deadline.
const RESEND_GAP: Duration = Duration::from_millis(20);

/// The quorum engine's attempts in flight.
struct Flights {
    /// Attempt token → attempt. An attempt leaves when its reply
    /// arrives; a timed-out one stays, so a slow first attempt can still
    /// satisfy its candidate.
    map: HashMap<u64, Attempt>,
    next_token: u64,
    /// `(send at, token)` of attempts held back by injected latency, and
    /// of lost reads waiting to be resent.
    delayed: Vec<(Instant, u64)>,
}

/// Each request's outcome in one round, in request order: its accepted
/// response, or why there is none.
type Resolutions = Vec<(ProviderId, Result<Vec<u8>, ProviderOutcome>)>;

/// A round's resolutions as a quorum call's result: the successful
/// `(provider, response)` pairs in request order if at least `need`
/// arrived, else a post-mortem of every request.
fn quorum_result(
    need: usize,
    resolutions: Resolutions,
) -> Result<Vec<(ProviderId, Vec<u8>)>, QuorumError> {
    let got = resolutions.iter().filter(|(_, r)| r.is_ok()).count();
    if got >= need {
        return Ok(resolutions
            .into_iter()
            .filter_map(|(p, r)| r.ok().map(|v| (p, v)))
            .collect());
    }
    Err(QuorumError {
        needed: need,
        got,
        per_provider: resolutions
            .into_iter()
            .map(|(p, r)| (p, r.err().unwrap_or(ProviderOutcome::Ok)))
            .collect(),
    })
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::resilience::{BreakerState, ManualClock};

    fn echo_cluster(n: usize) -> Cluster {
        let services: Vec<Arc<dyn SharedService>> = (0..n)
            .map(|id| {
                Arc::new(move |req: &[u8]| {
                    let mut out = vec![id as u8];
                    out.extend_from_slice(req);
                    out
                }) as Arc<dyn SharedService>
            })
            .collect();
        Cluster::spawn_concurrent(services, Duration::from_millis(200), 1)
    }

    /// [`Cluster::call_quorum_rounds`] with a single round.
    fn one_round(
        cluster: &Cluster,
        requests: Vec<(ProviderId, Vec<u8>)>,
        need: usize,
        opts: &QuorumOptions<'_>,
    ) -> Result<Vec<(ProviderId, Vec<u8>)>, QuorumError> {
        cluster
            .call_quorum_rounds(vec![requests], need, opts)
            .remove(0)
    }

    /// Send every request, breakers notwithstanding; each must answer.
    fn fan_out(
        cluster: &Cluster,
        requests: Vec<(ProviderId, Vec<u8>)>,
    ) -> Result<Vec<(ProviderId, Vec<u8>)>, QuorumError> {
        let need = requests.len();
        let opts = QuorumOptions {
            mode: QuorumMode::All,
            ..Default::default()
        };
        one_round(cluster, requests, need, &opts)
    }

    /// Two plain echo providers whose breakers open after
    /// `failure_threshold` failures and cool down on `clock`.
    fn breaker_cluster(
        failure_threshold: u32,
        cooldown: Duration,
        clock: Arc<ManualClock>,
    ) -> Cluster {
        let services = (0..2)
            .map(|_| Arc::new(|req: &[u8]| req.to_vec()) as Arc<dyn SharedService>)
            .collect();
        Cluster::spawn_concurrent(services, Duration::from_millis(50), 1).with_breaker(
            BreakerConfig {
                failure_threshold,
                cooldown,
            },
            clock,
        )
    }

    #[test]
    fn call_roundtrip() {
        let cluster = echo_cluster(3);
        let resp = cluster.call(1, b"ping".to_vec()).unwrap();
        assert_eq!(resp, b"\x01ping");
    }

    #[test]
    fn unknown_provider() {
        let cluster = echo_cluster(2);
        assert_eq!(cluster.call(5, vec![]), Err(RpcError::UnknownProvider(5)));
    }

    #[test]
    fn crashed_provider_times_out_but_others_serve() {
        let cluster = echo_cluster(3);
        cluster.set_failure(0, FailureMode::Crashed);
        assert_eq!(cluster.call(0, b"x".to_vec()), Err(RpcError::Timeout(0)));
        assert!(cluster.call(1, b"x".to_vec()).is_ok());
        // Recovery.
        cluster.set_failure(0, FailureMode::Healthy);
        assert!(cluster.call(0, b"x".to_vec()).is_ok());
    }

    #[test]
    fn fan_out_hits_all() {
        let cluster = echo_cluster(4);
        let reqs = (0..4).map(|i| (i, vec![i as u8])).collect();
        let results = fan_out(&cluster, reqs).unwrap();
        assert_eq!(results.len(), 4);
        for (provider, result) in results {
            assert_eq!(result, vec![provider as u8, provider as u8]);
        }
        // One fan-out = one round trip.
        assert_eq!(cluster.stats().snapshot().round_trips, 1);
    }

    #[test]
    fn fan_out_reports_unknown_providers_in_order() {
        let cluster = echo_cluster(2);
        let err = fan_out(&cluster, vec![(0, vec![1]), (7, vec![2]), (1, vec![3])]).unwrap_err();
        assert_eq!(err.got, 2);
        assert_eq!(
            err.per_provider,
            vec![
                (0, ProviderOutcome::Ok),
                (7, ProviderOutcome::Unsent),
                (1, ProviderOutcome::Ok)
            ]
        );
    }

    #[test]
    fn quorum_tolerates_crashes() {
        let cluster = echo_cluster(4);
        cluster.set_failure(2, FailureMode::Crashed);
        let reqs = (0..4).map(|i| (i, vec![9])).collect();
        let got = cluster.call_quorum(reqs, 2).unwrap();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(p, _)| *p != 2));
    }

    #[test]
    fn quorum_unreachable_when_too_many_crash() {
        let cluster = echo_cluster(3);
        cluster.set_failure(0, FailureMode::Crashed);
        cluster.set_failure(1, FailureMode::Crashed);
        let reqs = (0..3).map(|i| (i, vec![])).collect();
        assert_eq!(
            cluster.call_quorum(reqs, 2),
            Err(RpcError::QuorumUnreachable { needed: 2, got: 1 })
        );
    }

    #[test]
    fn first_k_wins_ignores_a_slow_straggler() {
        let cluster = echo_cluster(5);
        cluster.set_latency_for(4, Duration::from_millis(120));
        let reqs = (0..5).map(|i| (i, vec![7])).collect();
        let start = Instant::now();
        let got = cluster.call_quorum(reqs, 3).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|(p, _)| *p != 4), "straggler not awaited");
        assert!(
            elapsed < Duration::from_millis(100),
            "first-k-wins returned in {elapsed:?}, must beat the straggler"
        );
    }

    #[test]
    fn hedged_extra_responses_are_returned_when_available() {
        let cluster = echo_cluster(4);
        let opts = QuorumOptions {
            extra: 1,
            hedge: 1,
            ..Default::default()
        };
        let reqs = (0..4).map(|i| (i, vec![1])).collect();
        let got = one_round(&cluster, reqs, 2, &opts).unwrap();
        assert_eq!(got.len(), 3, "need + extra responses collected");
    }

    #[test]
    fn quorum_succeeds_with_need_when_extra_is_unavailable() {
        let cluster = echo_cluster(3);
        cluster.set_failure(2, FailureMode::Crashed);
        let opts = QuorumOptions {
            extra: 1,
            hedge: 2,
            ..Default::default()
        };
        let reqs = (0..3).map(|i| (i, vec![1])).collect();
        let got = one_round(&cluster, reqs, 2, &opts).unwrap();
        assert_eq!(got.len(), 2, "extra is best-effort, need is the floor");
    }

    #[test]
    fn validator_rejections_do_not_count_toward_quorum() {
        let cluster = echo_cluster(3);
        let reject_p0 = |_round: usize, p: ProviderId, _resp: &[u8]| {
            if p == 0 {
                Err(Refusal::Retry("untrusted share".to_string()))
            } else {
                Ok(())
            }
        };
        let opts = QuorumOptions {
            hedge: usize::MAX,
            validate: Some(&reject_p0),
            ..Default::default()
        };
        let reqs: Vec<_> = (0..3).map(|i| (i, vec![1])).collect();
        let got = one_round(&cluster, reqs.clone(), 2, &opts).unwrap();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|(p, _)| *p != 0));

        let err = one_round(&cluster, reqs, 3, &opts).unwrap_err();
        assert_eq!(err.needed, 3);
        assert_eq!(err.got, 2);
        assert!(err.per_provider.iter().any(|(p, o)| {
            *p == 0 && matches!(o, ProviderOutcome::Rejected { reason, .. } if reason == "untrusted share")
        }));
    }

    #[test]
    fn retry_heals_an_omitting_provider() {
        let cluster = echo_cluster(1);
        cluster.set_failure(0, FailureMode::Omission(0.7));
        let policy = RetryPolicy {
            max_attempts: 30,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            per_attempt_timeout: Some(Duration::from_millis(25)),
            jitter_seed: 7,
        };
        let opts = QuorumOptions {
            retry: policy,
            ..Default::default()
        };
        let resp = one_round(&cluster, vec![(0, b"hi".to_vec())], 1, &opts)
            .expect("retries ride out omission faults");
        assert_eq!(resp, vec![(0, b"\x00hi".to_vec())]);
        assert_eq!(cluster.stats().snapshot().round_trips, 1);
    }

    #[test]
    fn quorum_retries_heal_omission_faults() {
        let cluster = echo_cluster(3);
        cluster.set_failure(1, FailureMode::Omission(0.9));
        let opts = QuorumOptions {
            retry: RetryPolicy {
                max_attempts: 40,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                per_attempt_timeout: Some(Duration::from_millis(20)),
                jitter_seed: 3,
            },
            mode: QuorumMode::All,
            ..Default::default()
        };
        let reqs = (0..3).map(|i| (i, vec![5])).collect();
        let got = one_round(&cluster, reqs, 3, &opts).unwrap();
        assert_eq!(got.len(), 3, "omitting provider healed by retries");
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_recovers() {
        let clock = Arc::new(ManualClock::new());
        let mut cluster = breaker_cluster(2, Duration::from_millis(80), Arc::clone(&clock));
        cluster.set_failure(0, FailureMode::Crashed);
        assert!(cluster.call(0, vec![1]).is_err());
        assert!(cluster.call(0, vec![1]).is_err());
        assert_eq!(cluster.health().breaker_state(0), BreakerState::Open);

        // FirstK quorum skips the sick provider entirely: the one request
        // that goes out is provider 1's.
        let reqs: Vec<_> = (0..2).map(|i| (i, vec![2])).collect();
        let opts = QuorumOptions {
            hedge: usize::MAX,
            ..Default::default()
        };
        let sent = cluster.stats().snapshot().messages_sent;
        let got = one_round(&cluster, reqs.clone(), 1, &opts).unwrap();
        assert_eq!(got, vec![(1, vec![2])]);
        assert_eq!(
            cluster.stats().snapshot().messages_sent - sent,
            1,
            "open breaker must cost no attempt"
        );

        // After healing + cooldown, a half-open probe re-admits it.
        cluster.set_failure(0, FailureMode::Healthy);
        clock.advance(Duration::from_millis(100));
        let got = one_round(&cluster, reqs, 2, &opts).unwrap();
        assert_eq!(got.len(), 2, "probe re-admits the healed provider");
        assert_eq!(cluster.health().breaker_state(0), BreakerState::Closed);
        cluster.shutdown();
    }

    #[test]
    fn open_breaker_is_force_included_when_quorum_requires_it() {
        let cluster = breaker_cluster(1, Duration::from_secs(3600), Arc::new(ManualClock::new()));
        cluster.set_failure(0, FailureMode::Crashed);
        assert!(cluster.call(0, vec![1]).is_err());
        cluster.set_failure(0, FailureMode::Healthy);
        // Breaker on 0 is open with an hour of cooldown left, but a
        // quorum of 2 of 2 cannot be met without it.
        let reqs: Vec<_> = (0..2).map(|i| (i, vec![3])).collect();
        let got = one_round(&cluster, reqs, 2, &QuorumOptions::default()).unwrap();
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn shutdown_makes_subsequent_calls_fail_fast() {
        let mut cluster = echo_cluster(2);
        assert!(cluster.call(0, vec![1]).is_ok());
        cluster.shutdown();
        cluster.shutdown(); // idempotent
        let start = Instant::now();
        assert_eq!(cluster.call(0, vec![1]), Err(RpcError::Closed));
        assert!(
            start.elapsed() < Duration::from_millis(50),
            "no timeout wait"
        );
        let err = fan_out(&cluster, vec![(0, vec![1]), (1, vec![2])]).unwrap_err();
        assert!(err
            .per_provider
            .iter()
            .all(|(_, o)| *o == ProviderOutcome::Disconnected));
        let err = cluster
            .call_quorum((0..2).map(|i| (i, vec![])).collect(), 1)
            .unwrap_err();
        assert_eq!(err, RpcError::QuorumUnreachable { needed: 1, got: 0 });
    }

    #[test]
    fn byzantine_mode_corrupts_responses() {
        let cluster = echo_cluster(1);
        cluster.set_failure(0, FailureMode::Byzantine(1.0));
        let mut corrupted = 0;
        for _ in 0..20 {
            let resp = cluster.call(0, b"abc".to_vec()).unwrap();
            if resp != b"\x00abc" {
                corrupted += 1;
            }
        }
        assert_eq!(corrupted, 20, "p=1.0 must corrupt every response");
    }

    #[test]
    fn omission_mode_drops_some() {
        let cluster = echo_cluster(1);
        cluster.set_failure(0, FailureMode::Omission(1.0));
        assert_eq!(cluster.call(0, vec![1]), Err(RpcError::Timeout(0)));
        cluster.set_failure(0, FailureMode::Omission(0.0));
        assert!(cluster.call(0, vec![1]).is_ok());
    }

    #[test]
    fn traffic_is_metered() {
        let cluster = echo_cluster(2);
        cluster.call(0, vec![0u8; 100]).unwrap();
        let snap = cluster.stats().snapshot();
        assert_eq!(snap.bytes_sent, 100);
        assert_eq!(snap.bytes_received, 101);
        assert_eq!(snap.messages_sent, 1);
    }

    #[test]
    fn injected_latency_slows_calls_and_parallel_fanout_shares_it() {
        let cluster = echo_cluster(3);
        cluster.set_latency(Duration::from_millis(30));
        let start = std::time::Instant::now();
        cluster.call(0, vec![1]).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "serial call delayed"
        );
        // Fan-out to all three in parallel: latency is paid once, not 3×.
        let start = std::time::Instant::now();
        fan_out(&cluster, (0..3).map(|p| (p, vec![2])).collect()).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(30));
        assert!(
            elapsed < Duration::from_millis(85),
            "parallel fan-out took {elapsed:?}; latency must not serialize"
        );
        cluster.set_latency(Duration::ZERO);
        let start = std::time::Instant::now();
        cluster.call(0, vec![3]).unwrap();
        assert!(
            start.elapsed() < Duration::from_millis(25),
            "latency cleared"
        );
    }

    #[test]
    fn health_snapshot_reflects_call_outcomes() {
        let cluster = echo_cluster(2);
        cluster.call(0, vec![1]).unwrap();
        cluster.set_failure(1, FailureMode::Crashed);
        let _ = cluster.call(1, vec![1]);
        let snap = cluster.health().snapshot();
        assert_eq!(snap.providers[0].total_successes, 1);
        assert!(snap.providers[0].ewma_latency.is_some());
        assert_eq!(snap.providers[1].total_failures, 1);
    }

    /// One provider whose per-request sleep is the first request byte
    /// (in milliseconds), echoing the request back.
    fn sleepy_shared_provider() -> Arc<dyn SharedService> {
        Arc::new(|req: &[u8]| {
            let ms = u64::from(req.first().copied().unwrap_or(0));
            std::thread::sleep(Duration::from_millis(ms));
            req.to_vec()
        })
    }

    #[test]
    fn default_workers_is_bounded() {
        let w = Cluster::default_workers();
        assert!((1..=4).contains(&w), "default workers {w}");
    }

    #[test]
    fn worker_pool_overlaps_slow_and_fast_requests() {
        // Two workers: a 60 ms request must not serialize behind-queued
        // fast requests; responses multiplex back by token, out of order.
        let cluster =
            Cluster::spawn_concurrent(vec![sleepy_shared_provider()], Duration::from_secs(2), 2);
        let start = Instant::now();
        let results = fan_out(
            &cluster,
            vec![(0, vec![60, 1]), (0, vec![20, 2]), (0, vec![20, 3])],
        )
        .unwrap();
        let elapsed = start.elapsed();
        // Every request got its own reply despite the shared channel.
        assert_eq!(results.len(), 3);
        for (i, expect) in [vec![60u8, 1], vec![20, 2], vec![20, 3]].iter().enumerate() {
            assert_eq!(&results[i].1, expect, "slot {i}");
        }
        // Compare against a serial replay rather than a wall-clock bound,
        // so the assertion holds on loaded machines too: one worker pays
        // the 60 ms sleep plus both 20 ms requests end to end (~100 ms),
        // while two workers overlap them inside the 60 ms (~40 ms of
        // slack, enough that scheduler jitter cannot flip the verdict).
        let serial = {
            let cluster = Cluster::spawn_concurrent(
                vec![sleepy_shared_provider()],
                Duration::from_secs(2),
                1,
            );
            let start = Instant::now();
            fan_out(
                &cluster,
                vec![(0, vec![60, 1]), (0, vec![20, 2]), (0, vec![20, 3])],
            )
            .unwrap();
            start.elapsed()
        };
        assert!(
            elapsed < serial,
            "2-worker pool ({elapsed:?}) must beat the serial provider ({serial:?})"
        );
    }

    #[test]
    fn worker_pool_preserves_failure_switch_semantics() {
        let cluster =
            Cluster::spawn_concurrent(vec![sleepy_shared_provider()], Duration::from_millis(80), 4);
        cluster.set_failure(0, FailureMode::Crashed);
        assert_eq!(cluster.call(0, vec![0]), Err(RpcError::Timeout(0)));
        cluster.set_failure(0, FailureMode::Healthy);
        assert_eq!(cluster.call(0, vec![0, 9]).unwrap(), vec![0, 9]);
    }

    #[test]
    fn concurrent_cluster_shutdown_joins_all_workers() {
        let mut cluster = Cluster::spawn_concurrent(
            vec![sleepy_shared_provider()],
            Duration::from_millis(200),
            3,
        );
        assert!(cluster.call(0, vec![1]).is_ok());
        cluster.shutdown();
        cluster.shutdown(); // idempotent
        assert_eq!(cluster.call(0, vec![1]), Err(RpcError::Closed));
    }

    #[test]
    fn rounds_resolve_as_if_sent_alone() {
        // Five rounds in one engine run, with provider 1 crashed and
        // provider 2 dropping half its answers. Round 3 asks only
        // providers 0 and 1, so it cannot reach its quorum of 2; the
        // others must heal provider 2's omissions by retrying.
        let cluster = echo_cluster(3);
        cluster.set_failure(1, FailureMode::Crashed);
        cluster.set_failure(2, FailureMode::Omission(0.5));
        let opts = QuorumOptions {
            retry: RetryPolicy {
                max_attempts: 16,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                per_attempt_timeout: Some(Duration::from_millis(20)),
                jitter_seed: 11,
            },
            hedge: usize::MAX,
            ..Default::default()
        };
        let rounds: Vec<Vec<(ProviderId, Vec<u8>)>> = (0..5u8)
            .map(|r| {
                let providers = if r == 3 { vec![0, 1] } else { vec![0, 1, 2] };
                providers.into_iter().map(|p| (p, vec![r])).collect()
            })
            .collect();
        let together = cluster.call_quorum_rounds(rounds.clone(), 2, &opts);
        assert_eq!(cluster.stats().snapshot().round_trips, 1);
        assert_eq!(together.len(), rounds.len());
        for (r, (got, requests)) in together.iter().zip(rounds).enumerate() {
            let tag = r as u8;
            if r == 3 {
                assert!(
                    matches!(got, Err(e) if e.needed == 2 && e.got == 1),
                    "round 3 fails on its own: {got:?}"
                );
            } else {
                assert_eq!(got, &Ok(vec![(0, vec![0, tag]), (2, vec![2, tag])]));
            }
            let alone = one_round(&cluster, requests, 2, &opts);
            assert_eq!(got, &alone, "round {r} resolved differently alone");
        }
    }

    #[test]
    fn abandoned_tcp_attempts_leave_no_pending_entry() {
        use crate::{ReactorConfig, TcpServer};
        let servers: Vec<TcpServer> = (0..2)
            .map(|_| {
                let echo = Arc::new(|req: &[u8]| req.to_vec());
                TcpServer::serve("127.0.0.1:0", echo, ReactorConfig::default()).unwrap()
            })
            .collect();
        let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut addrs: Vec<_> = servers.iter().map(TcpServer::local_addr).collect();
        addrs.push(silent.local_addr().unwrap());
        let cluster = Cluster::connect_tcp(&addrs, Duration::from_secs(3600)).unwrap();
        // Provider 2 takes every request and never answers one.
        let (_straggler, _) = silent.accept().unwrap();
        for i in 0..100u8 {
            let reqs = (0..3).map(|p| (p, vec![i])).collect();
            let got = cluster.call_quorum(reqs, 2).unwrap();
            assert_eq!(got, vec![(0, vec![i]), (1, vec![i])]);
        }
        assert_eq!(cluster.stats().snapshot().messages_sent, 300);
        for (p, h) in cluster.providers.iter().enumerate() {
            let Link::Tcp(client) = &h.link else {
                panic!("provider {p} is not a TCP link");
            };
            assert_eq!(client.pending_len(), 0, "provider {p}");
        }
    }

    #[test]
    fn a_late_reply_never_answers_the_next_run() {
        // One worker, which holds request 0 for 100 ms. Run A gives up on
        // it after 20 ms; run B's request waits behind it at the worker.
        // A's reply then arrives while B waits, under the same attempt
        // token 0 that B's request carries.
        let slow_zero = Arc::new(|req: &[u8]| {
            if req == [0] {
                std::thread::sleep(Duration::from_millis(100));
            }
            req.to_vec()
        });
        let cluster = Cluster::spawn_concurrent(vec![slow_zero], Duration::from_secs(5), 1);
        let opts = QuorumOptions {
            retry: RetryPolicy {
                max_attempts: 1,
                per_attempt_timeout: Some(Duration::from_millis(20)),
                ..RetryPolicy::none()
            },
            ..Default::default()
        };
        let a = one_round(&cluster, vec![(0, vec![0])], 1, &opts);
        assert_eq!(a.unwrap_err().got, 0, "run A times out");
        let b = one_round(&cluster, vec![(0, vec![1])], 1, &Default::default());
        assert_eq!(b.unwrap(), vec![(0, vec![1])], "run B gets its own answer");
    }

    #[test]
    fn a_panicking_handler_loses_one_request_not_its_worker() {
        // Provider 0 panics on request 9; its one worker must live on.
        // Provider 1 stands by, and a read escalates to it at once.
        let services: Vec<Arc<dyn SharedService>> = vec![
            Arc::new(|req: &[u8]| {
                assert_ne!(req, [9], "marked request");
                req.to_vec()
            }),
            Arc::new(|req: &[u8]| req.to_vec()),
        ];
        let cluster = Cluster::spawn_concurrent(services, Duration::from_secs(30), 1);
        let start = Instant::now();
        // No hedge: provider 0, never measured and first by id, is asked
        // alone until it fails.
        let got = one_round(
            &cluster,
            vec![(0, vec![9]), (1, vec![9])],
            1,
            &Default::default(),
        );
        assert_eq!(got, Ok(vec![(1, vec![9])]));
        assert!(start.elapsed() < Duration::from_secs(10), "no escalation");
        assert_eq!(cluster.call(0, vec![1]), Ok(vec![1]), "the worker lives");
    }

    #[test]
    fn a_panicking_handler_runs_once_and_is_never_resent() {
        // n = 2, need 2: the round still needs provider 0 after its
        // handler panics. The failure is final, not a lost request, so
        // the engine neither resends it nor waits out the deadline.
        let runs = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counted = Arc::clone(&runs);
        let services: Vec<Arc<dyn SharedService>> = vec![
            Arc::new(move |req: &[u8]| {
                counted.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                assert_ne!(req, [9], "marked request");
                req.to_vec()
            }),
            Arc::new(|req: &[u8]| req.to_vec()),
        ];
        let cluster = Cluster::spawn_concurrent(services, Duration::from_secs(1), 1);
        let start = Instant::now();
        let got = one_round(
            &cluster,
            vec![(0, vec![9]), (1, vec![9])],
            2,
            &Default::default(),
        );
        let err = got.expect_err("provider 0 cannot answer");
        assert!(
            matches!(
                err.per_provider.iter().find(|(p, _)| *p == 0),
                Some((_, ProviderOutcome::Rejected { attempts: 1, .. }))
            ),
            "{err:?}"
        );
        assert_eq!(runs.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert!(
            start.elapsed() < Duration::from_millis(900),
            "waited out the deadline"
        );
    }

    #[test]
    fn late_reply_to_a_settled_round_is_ignored() {
        // Provider 1 answers 40 ms late and serves one request at a time.
        // Round 0 settles on provider 0's answer; round 1 waits for
        // provider 1, which first serves round 0's copy — so that late
        // reply arrives while the engine is still running round 1.
        let cluster = echo_cluster(2);
        cluster.set_latency_for(1, Duration::from_millis(40));
        let opts = QuorumOptions {
            hedge: usize::MAX,
            ..Default::default()
        };
        let rounds = vec![vec![(0, vec![7]), (1, vec![7])], vec![(1, vec![8])]];
        let got = cluster.call_quorum_rounds(rounds, 1, &opts);
        assert_eq!(
            got,
            vec![Ok(vec![(0, vec![0, 7])]), Ok(vec![(1, vec![1, 8])])]
        );
        let snap = cluster.stats().snapshot();
        assert_eq!(snap.messages_sent, 3);
        assert_eq!(snap.messages_received, 2, "the late reply is not metered");
        assert_eq!(snap.bytes_received, 4);
        assert_eq!(snap.round_trips, 1);
    }
}
