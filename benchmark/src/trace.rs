//! Spans recorded from outside the program, at seams it already has.
//!
//! Two `SharedService` decorators: [`TracedCall`] wraps each `TcpClient`
//! before `Cluster::spawn_concurrent` (span `rpc.call`), and
//! [`TracedProvider`] wraps each `ProviderService` before
//! `TcpServer::serve`, performing `ProviderService::serve`'s own three
//! steps as timed stages under `service.handle`. The driver opens the
//! root `op` span. Nothing travels on the wire: with one cluster worker
//! and one server worker per provider, the i-th call to provider p is
//! the i-th request p handles, so the two sides are joined by
//! `(provider, sequence number)` when the run ends.

use dasp_net::SharedService;
use dasp_server::{ProviderService, Request, Response};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub const OP: &str = "op";
pub const RPC_CALL: &str = "rpc.call";
pub const SERVICE_HANDLE: &str = "service.handle";
pub const PROTO_DECODE: &str = "proto.decode";
pub const ENGINE_EXECUTE: &str = "engine.execute";
pub const PROTO_ENCODE: &str = "proto.encode";

/// One timed interval. `parent` and `op` are 0 until known; for
/// `service.handle` and its stages they are filled in by [`link`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `(provider, sequence number)` on `rpc.call` and `service.handle`.
    pub link: Option<(usize, u64)>,
}

impl Span {
    pub fn interval(&self) -> Interval {
        (self.start_ns, self.end_ns)
    }
}

/// In-memory span sink shared by the driver and both decorators.
pub struct Tracer {
    epoch: Instant,
    /// Whether the op in flight is recorded. Flipped by the driver
    /// between ops; decorators read it when a call starts.
    enabled: AtomicBool,
    /// Id of the `op` span in flight (parent of its `rpc.call`s).
    current_op: AtomicU64,
    /// Calls the client-side decorators have seen return, traced or not.
    calls_finished: AtomicU64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            current_op: AtomicU64::new(0),
            calls_finished: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("a tracing thread panicked")
            .push(span);
    }

    /// Open the root span of one operation; `record` asks for it to be
    /// traced. Only the driver calls this, between ops. A call takes the
    /// op id it finds when it *starts*, and a quorum read may return
    /// while a call it no longer needs is still queued or running; such
    /// a call would start under this op's id. `dispatched` is the number
    /// of calls the cluster has sent so far (`TrafficStats`): the op is
    /// traced only once that many have returned, which is waited for
    /// briefly, outside the op's time.
    pub fn begin_op(&self, record: bool, dispatched: u64) -> OpGuard<'_> {
        let record = record && self.quiet(dispatched);
        let id = if record { self.fresh_id() } else { 0 };
        self.current_op.store(id, Ordering::SeqCst);
        self.enabled.store(record, Ordering::SeqCst);
        OpGuard {
            tracer: self,
            id,
            start_ns: self.now_ns(),
        }
    }

    /// Have `dispatched` calls returned? Gives stragglers 100 ms.
    fn quiet(&self, dispatched: u64) -> bool {
        let start = Instant::now();
        while self.calls_finished.load(Ordering::SeqCst) < dispatched {
            if start.elapsed().as_millis() >= 100 {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Every span recorded so far, joined across the wire.
    pub fn finish(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("a tracing thread panicked"));
        link(&mut spans);
        spans
    }
}

/// Closes the `op` span when the operation returns.
pub struct OpGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    start_ns: u64,
}

impl OpGuard<'_> {
    /// Close the span; true if the op was traced.
    pub fn end(self) -> bool {
        self.tracer.enabled.store(false, Ordering::SeqCst);
        let traced = self.id != 0;
        if traced {
            self.tracer.record(Span {
                id: self.id,
                parent: 0,
                op: self.id,
                name: OP,
                start_ns: self.start_ns,
                end_ns: self.tracer.now_ns(),
                link: None,
            });
        }
        traced
    }
}

/// Client-side decorator: one `rpc.call` span per request to a provider.
pub struct TracedCall {
    pub inner: Arc<dyn SharedService>,
    pub tracer: Arc<Tracer>,
    pub provider: usize,
    pub seq: AtomicU64,
}

impl SharedService for TracedCall {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if !self.tracer.enabled.load(Ordering::SeqCst) {
            let response = self.inner.handle(request);
            self.tracer.calls_finished.fetch_add(1, Ordering::SeqCst);
            return response;
        }
        let op = self.tracer.current_op.load(Ordering::SeqCst);
        let start_ns = self.tracer.now_ns();
        let response = self.inner.handle(request);
        self.tracer.calls_finished.fetch_add(1, Ordering::SeqCst);
        self.tracer.record(Span {
            id: self.tracer.fresh_id(),
            parent: op,
            op,
            name: RPC_CALL,
            start_ns,
            end_ns: self.tracer.now_ns(),
            link: Some((self.provider, seq)),
        });
        response
    }
}

/// Provider-side decorator: `ProviderService`'s decode → execute →
/// encode, each as a stage span under `service.handle`.
pub struct TracedProvider {
    pub inner: Arc<ProviderService>,
    pub tracer: Arc<Tracer>,
    pub provider: usize,
    pub seq: AtomicU64,
}

impl SharedService for TracedProvider {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if !self.tracer.enabled.load(Ordering::SeqCst) {
            return SharedService::handle(&*self.inner, request);
        }
        let t = &self.tracer;
        let handle_id = t.fresh_id();
        let stage = |name, start_ns, end_ns| Span {
            id: t.fresh_id(),
            parent: handle_id,
            op: 0,
            name,
            start_ns,
            end_ns,
            link: None,
        };
        let t0 = t.now_ns();
        let decoded = Request::decode(request);
        let t1 = t.now_ns();
        let response = match decoded {
            Ok(req) => self.inner.engine().execute(&req),
            Err(e) => Response::Error(format!("bad request: {e}")),
        };
        let t2 = t.now_ns();
        let bytes = response.encode();
        let t3 = t.now_ns();
        let mut spans = t.spans.lock().expect("a tracing thread panicked");
        spans.push(Span {
            id: handle_id,
            parent: 0,
            op: 0,
            name: SERVICE_HANDLE,
            start_ns: t0,
            end_ns: t3,
            link: Some((self.provider, seq)),
        });
        spans.push(stage(PROTO_DECODE, t0, t1));
        spans.push(stage(ENGINE_EXECUTE, t1, t2));
        spans.push(stage(PROTO_ENCODE, t2, t3));
        bytes
    }
}

/// Join the two sides of the wire: each `service.handle` takes the
/// `rpc.call` with the same `(provider, seq)` as parent, and it and its
/// stages take that call's op. A handle whose call was not recorded
/// (or the reverse) keeps parent 0 and is ignored by the analysis.
pub fn link(spans: &mut [Span]) {
    let calls: HashMap<(usize, u64), (u64, u64)> = spans
        .iter()
        .filter(|s| s.name == RPC_CALL)
        .filter_map(|s| Some((s.link?, (s.id, s.op))))
        .collect();
    let mut handle_op: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter_mut().filter(|s| s.name == SERVICE_HANDLE) {
        if let Some(&(call_id, op)) = s.link.and_then(|l| calls.get(&l)) {
            s.parent = call_id;
            s.op = op;
            handle_op.insert(s.id, op);
        }
    }
    for s in spans.iter_mut() {
        if let Some(&op) = handle_op.get(&s.parent) {
            s.op = op;
        }
    }
}

pub type Interval = (u64, u64);

/// Sorted, disjoint cover of `intervals` clipped to `within`.
pub fn union(intervals: impl IntoIterator<Item = Interval>, within: Interval) -> Vec<Interval> {
    let mut clipped: Vec<Interval> = intervals
        .into_iter()
        .map(|(s, e)| (s.max(within.0), e.min(within.1)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(clipped.len());
    for (s, e) in clipped {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

pub fn total(cover: &[Interval]) -> u64 {
    cover.iter().map(|(s, e)| e - s).sum()
}

/// Length of `a` not covered by `b`; both sorted and disjoint.
pub fn uncovered(a: &[Interval], b: &[Interval]) -> u64 {
    let mut left = 0;
    let mut j = 0;
    for &(s, e) in a {
        let mut at = s;
        while j < b.len() && b[j].1 <= at {
            j += 1;
        }
        let mut i = j;
        while i < b.len() && b[i].0 < e {
            if b[i].0 > at {
                left += b[i].0 - at;
            }
            at = at.max(b[i].1);
            i += 1;
        }
        if at < e {
            left += e - at;
        }
    }
    left
}

/// A span's self time: its duration minus the part of it that its
/// children cover, however they overlap each other.
pub fn self_time(span: Interval, children: impl IntoIterator<Item = Interval>) -> u64 {
    if span.0 >= span.1 {
        return 0;
    }
    uncovered(&[span], &union(children, span))
}

/// Where one traced op's wall time went, by layer. The three parts are
/// computed independently; they add up to `op_ns` exactly when every
/// `service.handle` lies inside its `rpc.call`, so the sum checks the
/// cross-wire join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpBreakdown {
    pub op_ns: u64,
    /// `op` minus the union of its `rpc.call`s: dasp-client, dasp-sss,
    /// dasp-field, and quorum dispatch before the first call starts.
    pub client_ns: u64,
    /// Inside some `rpc.call` but no `service.handle`: queues, frame
    /// codec, sockets, reactor.
    pub net_ns: u64,
    /// Inside some `service.handle`: proto, engine, WAL.
    pub server_ns: u64,
}

/// Per-layer numbers distilled from one traced run.
#[derive(Debug, Default)]
pub struct Analysis {
    pub ops: Vec<OpBreakdown>,
    /// Per `rpc.call` with a joined handle: call minus handle.
    pub net_call_ns: Vec<u64>,
    pub handle_ns: Vec<u64>,
    pub decode_ns: Vec<u64>,
    pub execute_ns: Vec<u64>,
    pub encode_ns: Vec<u64>,
}

pub fn analyse(spans: &[Span]) -> Analysis {
    let mut by_op: HashMap<u64, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.op != 0 && s.name != OP) {
        by_op.entry(s.op).or_default().push(s);
    }
    let handle_by_call: HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.name == SERVICE_HANDLE && s.parent != 0)
        .map(|s| (s.parent, s))
        .collect();
    let mut out = Analysis::default();
    for op in spans.iter().filter(|s| s.name == OP) {
        let within = op.interval();
        let members = by_op.get(&op.id).map_or(&[][..], Vec::as_slice);
        let of = |name: &'static str| {
            members
                .iter()
                .filter(move |s| s.name == name)
                .map(|s| s.interval())
        };
        let calls = union(of(RPC_CALL), within);
        let handles = union(of(SERVICE_HANDLE), within);
        out.ops.push(OpBreakdown {
            op_ns: within.1 - within.0,
            client_ns: uncovered(&[within], &calls),
            net_ns: uncovered(&calls, &handles),
            server_ns: total(&handles),
        });
        for s in members {
            let dur = s.end_ns - s.start_ns;
            match s.name {
                RPC_CALL => {
                    if let Some(h) = handle_by_call.get(&s.id) {
                        out.net_call_ns
                            .push(self_time(s.interval(), [h.interval()]));
                    }
                }
                SERVICE_HANDLE => out.handle_ns.push(dur),
                PROTO_DECODE => out.decode_ns.push(dur),
                ENGINE_EXECUTE => out.execute_ns.push(dur),
                PROTO_ENCODE => out.encode_ns.push(dur),
                _ => {}
            }
        }
    }
    out
}

/// One JSON object per line: name, start, end, parent, op id.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, op: u64, name: &'static str, iv: Interval) -> Span {
        Span {
            id,
            parent,
            op,
            name,
            start_ns: iv.0,
            end_ns: iv.1,
            link: None,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        let u = union([(5, 10), (0, 3), (8, 12), (12, 13), (20, 30)], (1, 25));
        assert_eq!(u, vec![(1, 3), (5, 13), (20, 25)]);
        assert_eq!(total(&u), 2 + 8 + 5);
        assert!(union([(3, 3), (9, 4)], (0, 10)).is_empty());
    }

    #[test]
    fn self_time_subtracts_the_union_not_the_sum() {
        // Two parallel children covering 10..40 and 30..60 of a 0..100
        // parent cover 50, not 60.
        assert_eq!(self_time((0, 100), [(10, 40), (30, 60)]), 50);
        // Children reaching outside the parent only count inside it.
        assert_eq!(self_time((0, 100), [(90, 150)]), 90);
        assert_eq!(self_time((0, 100), []), 100);
        assert_eq!(self_time((0, 100), [(0, 100), (20, 30)]), 0);
        assert_eq!(self_time((5, 5), [(0, 10)]), 0);
    }

    #[test]
    fn uncovered_walks_both_lists() {
        let a = [(0, 10), (20, 30), (40, 50)];
        let b = [(5, 25), (45, 46), (48, 60)];
        assert_eq!(uncovered(&a, &b), 5 + 5 + (5 + 2));
        assert_eq!(uncovered(&a, &[]), 30);
        assert_eq!(uncovered(&[], &b), 0);
    }

    #[test]
    fn link_joins_handles_to_calls_by_provider_and_sequence() {
        let mut spans = vec![
            span(1, 0, 1, OP, (0, 100)),
            Span {
                link: Some((2, 7)),
                ..span(2, 1, 1, RPC_CALL, (10, 90))
            },
            Span {
                link: Some((2, 7)),
                ..span(3, 0, 0, SERVICE_HANDLE, (20, 80))
            },
            span(4, 3, 0, ENGINE_EXECUTE, (30, 70)),
            // Same sequence number on another provider: no partner.
            Span {
                link: Some((1, 7)),
                ..span(5, 0, 0, SERVICE_HANDLE, (20, 80))
            },
            span(6, 5, 0, ENGINE_EXECUTE, (30, 70)),
        ];
        link(&mut spans);
        assert_eq!((spans[2].parent, spans[2].op), (2, 1));
        assert_eq!(spans[3].op, 1);
        assert_eq!((spans[4].parent, spans[4].op), (0, 0));
        assert_eq!(spans[5].op, 0);
    }

    #[test]
    fn breakdown_of_parallel_calls_adds_up_to_the_op() {
        // Two providers in parallel; handles nested in their calls.
        let mut spans = vec![
            span(1, 0, 1, OP, (0, 1000)),
            Span {
                link: Some((0, 0)),
                ..span(2, 1, 1, RPC_CALL, (100, 700))
            },
            Span {
                link: Some((1, 0)),
                ..span(3, 1, 1, RPC_CALL, (150, 900))
            },
            Span {
                link: Some((0, 0)),
                ..span(4, 0, 0, SERVICE_HANDLE, (200, 500))
            },
            Span {
                link: Some((1, 0)),
                ..span(5, 0, 0, SERVICE_HANDLE, (400, 800))
            },
            span(6, 4, 0, PROTO_DECODE, (200, 210)),
            span(7, 4, 0, ENGINE_EXECUTE, (210, 480)),
            span(8, 4, 0, PROTO_ENCODE, (480, 500)),
        ];
        link(&mut spans);
        let a = analyse(&spans);
        assert_eq!(
            a.ops,
            vec![OpBreakdown {
                op_ns: 1000,
                client_ns: 100 + 100,
                net_ns: 100 + 100,
                server_ns: 600,
            }]
        );
        let b = a.ops[0];
        assert_eq!(b.client_ns + b.net_ns + b.server_ns, b.op_ns);
        let mut net = a.net_call_ns.clone();
        net.sort_unstable();
        assert_eq!(net, vec![300, 350]);
        assert_eq!(a.execute_ns, vec![270]);
        assert_eq!(a.handle_ns.len(), 2);
    }

    #[test]
    fn a_handle_outside_its_call_breaks_the_sum() {
        let mut spans = vec![
            span(1, 0, 1, OP, (0, 1000)),
            Span {
                link: Some((0, 0)),
                ..span(2, 1, 1, RPC_CALL, (100, 500))
            },
            Span {
                link: Some((0, 0)),
                ..span(3, 0, 0, SERVICE_HANDLE, (400, 800))
            },
        ];
        link(&mut spans);
        let b = analyse(&spans).ops[0];
        assert_ne!(b.client_ns + b.net_ns + b.server_ns, b.op_ns);
    }

    #[test]
    fn untraced_ops_leave_no_spans_and_traced_ops_do() {
        let tracer = Tracer::new();
        let call = TracedCall {
            inner: Arc::new(|req: &[u8]| req.to_vec()),
            tracer: Arc::clone(&tracer),
            provider: 0,
            seq: AtomicU64::new(0),
        };
        let guard = tracer.begin_op(false, 0);
        assert_eq!(call.handle(b"x"), b"x");
        assert!(!guard.end());
        assert!(tracer.finish().is_empty());

        let guard = tracer.begin_op(true, 1);
        assert_eq!(call.handle(b"y"), b"y");
        assert!(guard.end());
        let spans = tracer.finish();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec![RPC_CALL, OP]);
        assert_eq!(spans[0].parent, spans[1].id);
        // The untraced call still advanced the sequence number.
        assert_eq!(spans[0].link, Some((0, 1)));
    }

    #[test]
    fn an_op_is_not_traced_while_an_earlier_call_is_out() {
        let tracer = Tracer::new();
        let call = TracedCall {
            inner: Arc::new(|req: &[u8]| req.to_vec()),
            tracer: Arc::clone(&tracer),
            provider: 0,
            seq: AtomicU64::new(0),
        };
        // One call dispatched, none returned: a straggler is out.
        let guard = tracer.begin_op(true, 1);
        // It starts now, under what would have been this op's id.
        call.handle(b"late");
        assert!(!guard.end());
        assert!(tracer.finish().is_empty());
        // It has returned: the next op is traced.
        assert!(tracer.begin_op(true, 1).end());
    }
}
