//! Rules **C1** and **C2** — whole-program deadlock detection — and the
//! one model of guard lifetimes and callee effects that C1, C2 and W1
//! read.
//!
//! **The guard walk.** [`walk_scope`] follows a fn body unit by unit. A
//! named guard (`let g = x.lock();`) lives to the end of its block or an
//! explicit `drop(g)`; any other guard (`let v = *x.lock();`,
//! `f(&mut x.write())`) is a temporary that lives to the end of its
//! statement, so a call in that statement, arguments included, runs
//! under it. The walk runs once for the code outside `spawn(…)`
//! closures, and once per spawn closure with the caller's guards
//! cleared, because the closure runs on another thread.
//!
//! **The summary.** [`LockFacts::collect`] runs one fixpoint over the
//! calls the walks record outside spawn closures. It gives each fn the
//! lock identities it acquires, whether it makes a channel send or a
//! service call, and whether it appends to the WAL durably or publishes
//! a snapshot ([`crate::ordering`]), directly or through its callees,
//! each with the first witness chain found.
//!
//! **C1 — lock-order cycles.** Every acquisition is given an identity
//! ([`LockId`]: `Inner.state`, `Wal.file`, …). The acquired-while-held
//! edges, direct or through a callee, form a global graph; any cycle is
//! a potential deadlock: two threads interleaving the witness paths
//! block each other forever. A one-lock cycle is a lock taken again
//! while its own guard is held, and the thread waits for itself. Findings
//! carry the witness of every edge (thread A's order vs thread B's).
//!
//! **C2 — blocking waits.** The spawn/channel topology is recovered
//! statically: threads are the `spawn(…)` sites plus a synthetic caller
//! thread; channel endpoints are matched from `let (tx, rx) =
//! bounded(n)/unbounded()` construction sites and propagated through
//! `clone()` aliases, captured closures, and argument positions. Three
//! checks:
//!
//! * **wait ring** — a cycle in the thread wait graph (bounded `send` →
//!   receiver thread, blocking `recv` → sender thread, `join` → joined
//!   thread) containing at least one bounded-send edge: every thread in
//!   the ring is blocked waiting for the next.
//! * **lock-held blocking wait** — a function blocks (join / blocking
//!   recv / bounded send) while holding a lock identity the awaited
//!   thread acquires: the exact shape of the PR 7 reconnect deadlock
//!   (fixed in e3a2826), where `reconnect` held the connection-state
//!   mutex while joining a reader thread that locks the same state.
//! * **blocking op under guard** — a channel send or service call,
//!   directly or through a callee, while a write-capable guard (a mutex
//!   or an `RwLock` write guard) is held: a blocked peer stalls every
//!   thread that needs the lock. A read guard is shared and passes.
//!
//! Endpoints that vanish into fields or collections are deliberately
//! untracked (no edges): C2 under-approximates rather than guess.

use crate::callgraph::resolve_call;
use crate::ir::{Ctx, CtxKind, FnId, FnItem, WorkspaceIr};
use crate::locks::{lock_class, lock_identity, LockClass, LockId};
use crate::ordering::{is_durable_seed, is_publish_ctx};
use crate::{Hit, Rule};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The guard walks of every first-party fn, and their summary.
pub struct LockFacts {
    facts: BTreeMap<FnId, FnFacts>,
    sums: Vec<Summary>,
}

impl LockFacts {
    /// Walk every first-party fn, then summarize to a fixpoint.
    /// Vendored internals keep their own locks ordered; modeling them
    /// would only add noise.
    pub fn collect(ws: &WorkspaceIr) -> LockFacts {
        let mut facts = BTreeMap::new();
        for (id, f) in ws.fns.iter().enumerate() {
            if ws.files[f.file].vendor || f.body.is_none() {
                continue;
            }
            let spans = spawn_spans(f);
            let own = walk_scope(ws, f, &|i| !spans.iter().any(|&(_, s, e)| s <= i && i < e));
            let mut spawned = Vec::new();
            for &(ctx_idx, s, e) in &spans {
                // Exclude spawn closures nested inside this one: they
                // are their own threads.
                let inner: Vec<(usize, usize)> = spans
                    .iter()
                    .filter(|&&(_, s2, e2)| s2 > s && e2 <= e)
                    .map(|&(_, s2, e2)| (s2, e2))
                    .collect();
                let scope = walk_scope(ws, f, &|i| {
                    s <= i && i < e && !inner.iter().any(|&(s2, e2)| s2 <= i && i < e2)
                });
                spawned.push((ctx_idx, scope));
            }
            facts.insert(id, FnFacts { own, spawned });
        }
        let sums = summarize(ws, &facts);
        LockFacts { facts, sums }
    }

    /// What fn `id` does on its own thread.
    pub(crate) fn summary(&self, id: FnId) -> &Summary {
        &self.sums[id]
    }
}

/// Run C1 and C2 over the workspace.
pub fn run(ws: &WorkspaceIr, lf: &LockFacts) -> Vec<Hit> {
    let mut hits = find_lock_cycles(ws, &lf.facts, &lf.sums);
    hits.extend(find_wait_cycles(ws, &lf.facts, &lf.sums));
    hits.extend(find_blocking_under_guard(ws, &lf.facts, &lf.sums));
    hits
}

/// A lock acquisition with identity (when derivable).
#[derive(Clone)]
struct Acq {
    id: Option<LockId>,
    class: LockClass,
    line: u32,
}

impl Acq {
    /// `` `Inner.state` (mutex guard) ``, or `a mutex guard` unnamed.
    fn describe(&self) -> String {
        match &self.id {
            Some(id) => format!("`{id}` ({})", self.class.describe()),
            None => format!("a {}", self.class.describe()),
        }
    }
}

/// One non-lock call made during a walk.
struct CallSite {
    /// Index into the fn's `ctxs`.
    ctx: usize,
    /// Guards held when the call runs.
    held: Vec<Acq>,
    /// Resolved workspace callees.
    callees: Vec<FnId>,
}

/// Facts from one thread-scope walk of a fn body (the fn minus its
/// spawn closures, or one spawn closure).
#[derive(Default)]
struct ScopeFacts {
    /// (held, acquired) per acquisition, in source order.
    acq_edges: Vec<(Acq, Acq)>,
    /// Every acquisition in scope.
    acquires: Vec<Acq>,
    /// True when one of them publishes a snapshot (W1).
    publishes: bool,
    /// Every resolved call in scope with the guards held at it.
    calls: Vec<CallSite>,
}

/// Per-fn facts: the caller-thread scope plus one scope per spawn site.
struct FnFacts {
    /// Code outside any spawn closure.
    own: ScopeFacts,
    /// `(ctx index of the spawn call, facts of its closure)`.
    spawned: Vec<(usize, ScopeFacts)>,
}

impl FnFacts {
    /// Every scope: the fn's own, then each spawn closure's.
    fn scopes(&self) -> impl Iterator<Item = &ScopeFacts> {
        std::iter::once(&self.own).chain(self.spawned.iter().map(|(_, s)| s))
    }
}

/// Spawn-call contexts: `spawn(…)` by any path/receiver. The closure
/// argument span is the spawned thread's inline body.
fn spawn_spans(f: &FnItem) -> Vec<(usize, usize, usize)> {
    f.ctxs
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == CtxKind::Call && c.callee == "spawn")
        .map(|(i, c)| (i, c.args_start, c.args_end))
        .collect()
}

/// The guard walk over the part of `f` that `scope` admits (see the
/// module doc for the lifetime model).
fn walk_scope(ws: &WorkspaceIr, f: &FnItem, scope: &dyn Fn(usize) -> bool) -> ScopeFacts {
    let tokens = &ws.files[f.file].tokens;
    let mut facts = ScopeFacts::default();
    struct Guard {
        acq: Acq,
        name: Option<String>,
        depth: u32,
    }
    let mut active: Vec<Guard> = Vec::new();
    for u in &f.units {
        let ctxs: Vec<(usize, &Ctx)> = f
            .ctxs
            .iter()
            .enumerate()
            .filter(|(_, c)| u.start <= c.name_tok && c.name_tok <= u.end && scope(c.name_tok))
            .collect();
        // A spawn closure lives *inside* a unit whose start/end tokens
        // (`let h = …;`) are outside the closure span, so scope the unit
        // by its in-scope ctxs too, not just its boundary tokens.
        if !scope(u.start) && !scope(u.end) && ctxs.is_empty() {
            continue;
        }
        active.retain(|g| g.depth <= u.depth);
        // Temporary guards born in this unit: (name token, acquisition).
        let unit_locks: Vec<(usize, Acq)> = ctxs
            .iter()
            .filter_map(|&(_, c)| {
                let class = lock_class(ws, f, c)?;
                let id = lock_identity(ws, f, c);
                Some((
                    c.name_tok,
                    Acq {
                        id,
                        class,
                        line: c.line,
                    },
                ))
            })
            .collect();
        for &(ctx_idx, ctx) in &ctxs {
            if ctx.kind == CtxKind::MacroCall {
                continue;
            }
            if !ctx.method && ctx.path.is_empty() && ctx.callee == "drop" {
                let arg = crate::parser::next_nc(tokens, ctx.args_start)
                    .filter(|&i| i < ctx.args_end)
                    .map(|i| tokens[i].text.clone());
                if let Some(name) = arg {
                    active.retain(|g| g.name.as_deref() != Some(name.as_str()));
                }
                continue;
            }
            if let Some(k) = unit_locks.iter().position(|(t, _)| *t == ctx.name_tok) {
                let acq = &unit_locks[k].1;
                let earlier = unit_locks[..k].iter().map(|(_, a)| a);
                for held in active.iter().map(|g| &g.acq).chain(earlier) {
                    facts.acq_edges.push((held.clone(), acq.clone()));
                }
                facts.publishes |= is_publish_ctx(ws, f, ctx);
                facts.acquires.push(acq.clone());
                continue;
            }
            if ctx.kind != CtxKind::Call {
                continue;
            }
            // The statement's temporaries born before the call, or
            // inside its arguments, are alive while it runs.
            let held: Vec<Acq> = active
                .iter()
                .map(|g| g.acq.clone())
                .chain(
                    unit_locks
                        .iter()
                        .filter(|&&(tok, _)| tok < ctx.name_tok || ctx.contains(tok))
                        .map(|(_, a)| a.clone()),
                )
                .collect();
            facts.calls.push(CallSite {
                ctx: ctx_idx,
                held,
                callees: resolve_call(ws, f, ctx),
            });
        }
        // End of unit: temporaries die; a plain `let g = x.lock();`
        // (lock call is the whole RHS) becomes a named guard.
        if let (Some(name), false) = (&u.let_name, u.deref_rhs) {
            if let Some((tok, acq)) = unit_locks.last() {
                let lock_ctx = f.ctxs.iter().find(|c| c.name_tok == *tok);
                let outermost = lock_ctx.is_some_and(|c| {
                    crate::parser::next_nc(tokens, c.args_end + 1)
                        .is_some_and(|i| tokens[i].is_punct(';'))
                });
                if outermost {
                    active.push(Guard {
                        acq: acq.clone(),
                        name: Some(name.clone()),
                        depth: u.depth,
                    });
                }
            }
        }
    }
    facts
}

/// A chain of fn labels from a fn down to the site of an effect.
type Chain = Vec<String>;

/// What a fn does on its own thread, directly or through the fns it
/// calls there; a spawn closure's work happens on another thread and is
/// left out. Each fact keeps the first witness chain found.
#[derive(Default, Clone)]
pub(crate) struct Summary {
    /// Lock identities acquired, with the class of the acquisition.
    acquires: BTreeMap<LockId, (LockClass, Chain)>,
    /// A channel send or service call, named by [`op_desc`].
    sends: Option<(&'static str, Chain)>,
    /// A durable WAL append.
    pub durable: Option<Chain>,
    /// A snapshot publish.
    pub publish: Option<Chain>,
}

impl Summary {
    /// Add the facts of `callee` that this fn lacks, their chains
    /// prefixed with `caller`. True when anything was added.
    fn absorb(&mut self, callee: &Summary, caller: &dyn Fn() -> String) -> bool {
        let via = |chain: &Chain| -> Chain {
            std::iter::once(caller())
                .chain(chain.iter().cloned())
                .collect()
        };
        let mut changed = false;
        for (lid, (class, chain)) in &callee.acquires {
            if !self.acquires.contains_key(lid) {
                self.acquires.insert(lid.clone(), (*class, via(chain)));
                changed = true;
            }
        }
        if let (None, Some((desc, chain))) = (&self.sends, &callee.sends) {
            self.sends = Some((desc, via(chain)));
            changed = true;
        }
        for (mine, theirs) in [
            (&mut self.durable, &callee.durable),
            (&mut self.publish, &callee.publish),
        ] {
            if mine.is_none() {
                if let Some(chain) = theirs {
                    *mine = Some(via(chain));
                    changed = true;
                }
            }
        }
        changed
    }
}

/// Channel-send and service-call method names.
fn op_desc(ctx: &Ctx) -> Option<&'static str> {
    if ctx.kind != CtxKind::Call || !ctx.method {
        return None;
    }
    match ctx.callee.as_str() {
        "send" | "send_timeout" | "try_send" => Some("channel send"),
        "handle" => Some("service call"),
        c if c == "call" || c.starts_with("call_") => Some("service call"),
        _ => None,
    }
}

/// Seed each fn's [`Summary`] with its direct effects, then propagate
/// along the calls outside spawn closures until nothing changes.
fn summarize(ws: &WorkspaceIr, facts: &BTreeMap<FnId, FnFacts>) -> Vec<Summary> {
    let mut sums = vec![Summary::default(); ws.fns.len()];
    for (&id, ff) in facts {
        let (f, me, own) = (&ws.fns[id], &mut sums[id], &ff.own);
        let direct = || vec![ws.label(id)];
        for a in &own.acquires {
            if let Some(lid) = &a.id {
                me.acquires
                    .entry(lid.clone())
                    .or_insert_with(|| (a.class, direct()));
            }
        }
        let op = own.calls.iter().find_map(|c| op_desc(&f.ctxs[c.ctx]));
        me.sends = op.map(|desc| (desc, direct()));
        me.durable = is_durable_seed(f).then(direct);
        me.publish = own.publishes.then(direct);
    }
    loop {
        let mut changed = false;
        for (&id, ff) in facts {
            for call in &ff.own.calls {
                for &callee in call.callees.iter().filter(|&&c| c != id) {
                    let (me, from) = if id < callee {
                        let (lo, hi) = sums.split_at_mut(callee);
                        (&mut lo[id], &hi[0])
                    } else {
                        let (lo, hi) = sums.split_at_mut(id);
                        (&mut hi[0], &lo[callee])
                    };
                    changed |= me.absorb(from, &|| ws.label(id));
                }
            }
        }
        if !changed {
            break;
        }
    }
    sums
}

/// One acquired-while-held edge's witness.
struct EdgeWit {
    fn_id: FnId,
    line: u32,
    /// e.g. "`Pager::flush` acquires `Wal.state` (mutex guard) while
    /// holding `Pager.cache`" (+ " via A -> B" when interprocedural).
    desc: String,
}

/// Build the global lock-order graph and report every cycle (C1).
fn find_lock_cycles(
    ws: &WorkspaceIr,
    facts: &BTreeMap<FnId, FnFacts>,
    sums: &[Summary],
) -> Vec<Hit> {
    let mut edges: BTreeMap<(LockId, LockId), EdgeWit> = BTreeMap::new();
    let mut add = |from: &LockId, to: &LockId, wit: EdgeWit| {
        edges.entry((from.clone(), to.clone())).or_insert(wit);
    };
    for (&id, ff) in facts {
        let label = ws.label(id);
        for scope in ff.scopes() {
            for (held, acq) in &scope.acq_edges {
                let (Some(h), Some(a)) = (&held.id, &acq.id) else {
                    continue;
                };
                add(
                    h,
                    a,
                    EdgeWit {
                        fn_id: id,
                        line: acq.line,
                        desc: format!(
                            "`{label}` acquires `{a}` ({}) while holding `{h}`",
                            acq.class.describe()
                        ),
                    },
                );
            }
            for call in &scope.calls {
                for &callee in &call.callees {
                    for (lid, (class, chain)) in &sums[callee].acquires {
                        for held in &call.held {
                            let Some(h) = &held.id else { continue };
                            let line = ws.fns[id].ctxs[call.ctx].line;
                            add(
                                h,
                                lid,
                                EdgeWit {
                                    fn_id: id,
                                    line,
                                    desc: format!(
                                        "`{label}` acquires `{lid}` ({}) while holding `{h}` via {}",
                                        class.describe(),
                                        chain.join(" -> ")
                                    ),
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    let mut adj: BTreeMap<&LockId, Vec<&LockId>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut seen: BTreeSet<Vec<LockId>> = BTreeSet::new();
    let mut hits = Vec::new();
    for (from, to) in edges.keys() {
        let Some(path) = bfs_path(&adj, to, from) else {
            continue;
        };
        // Cycle nodes in order: from -> to -> … -> from.
        let mut cycle: Vec<LockId> = vec![from.clone()];
        cycle.extend(path.into_iter().take_while(|&n| n != from).cloned());
        let canon = canonical(&cycle);
        if !seen.insert(canon) {
            continue;
        }
        let descs: Vec<&EdgeWit> = cycle
            .iter()
            .zip(cycle.iter().cycle().skip(1))
            .filter_map(|(a, b)| edges.get(&(a.clone(), b.clone())))
            .collect();
        let anchor = match descs.first() {
            Some(w) => (w.fn_id, w.line),
            None => continue,
        };
        let message = if cycle.len() == 1 {
            format!(
                "C1 lock-order cycle on `{}` alone: {} — the lock is not reentrant, so the thread waits for itself",
                cycle[0],
                descs.first().map(|w| w.desc.as_str()).unwrap_or(""),
            )
        } else if cycle.len() == 2 {
            format!(
                "C1 lock-order cycle between `{}` and `{}`: one thread {}; another thread {} — interleaved, each waits for the lock the other holds",
                cycle[0],
                cycle[1],
                descs.first().map(|w| w.desc.as_str()).unwrap_or(""),
                descs.get(1).map(|w| w.desc.as_str()).unwrap_or(""),
            )
        } else {
            format!(
                "C1 lock-order cycle: {} -> back to start; {}",
                cycle
                    .iter()
                    .map(|n| format!("`{n}`"))
                    .collect::<Vec<_>>()
                    .join(" -> "),
                descs
                    .iter()
                    .map(|w| w.desc.as_str())
                    .collect::<Vec<_>>()
                    .join("; "),
            )
        };
        hits.push(Hit::at(Rule::C1, anchor.0, anchor.1, message));
    }
    hits
}

/// Shortest path `from -> … -> to` (inclusive) over the adjacency map.
fn bfs_path<T: Ord + Copy>(adj: &BTreeMap<T, Vec<T>>, from: T, to: T) -> Option<Vec<T>> {
    let mut parent: BTreeMap<T, T> = BTreeMap::new();
    let mut visited = BTreeSet::from([from]);
    let mut queue = VecDeque::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            let mut cur = n;
            while let Some(&p) = parent.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &next in adj.get(&n).into_iter().flatten() {
            if visited.insert(next) {
                parent.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

/// Rotate a cycle's node list to start at its minimum element, so each
/// distinct cycle is reported exactly once.
fn canonical<T: Clone + Ord>(cycle: &[T]) -> Vec<T> {
    let Some(min_pos) = cycle
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.cmp(b.1))
        .map(|(i, _)| i)
    else {
        return Vec::new();
    };
    let mut out = Vec::with_capacity(cycle.len());
    out.extend_from_slice(&cycle[min_pos..]);
    out.extend_from_slice(&cycle[..min_pos]);
    out
}

// ---------------------------------------------------------------------
// C2 — thread/channel topology.

/// One statically recovered channel construction site.
struct Channel {
    bounded: bool,
    /// Constructing fn and the endpoint binding names, for messages.
    fn_id: FnId,
    tx: String,
    rx: String,
}

/// Which end of a channel a binding holds.
#[derive(Clone, Copy, PartialEq, Eq)]
enum End {
    Tx,
    Rx,
}

/// A channel operation found at a call site.
#[derive(Clone, Copy)]
enum ChanOp {
    /// `send`-family call; blocking iff plain `send` on a bounded
    /// channel.
    Send { chan: usize, blocking: bool },
    /// `recv`-family call; blocking iff plain `recv`.
    Recv { chan: usize, blocking: bool },
    /// `join()` on a handle (no args).
    Join,
}

/// A node in the thread wait graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ThreadNode {
    /// The synthetic caller thread (everything reachable from public
    /// entry points without crossing a spawn).
    Main,
    /// The closure passed to the spawn call at `(fn, ctx index)`.
    Spawned(FnId, usize),
}

/// The recovered topology: channels, endpoint environment, threads.
struct Topology {
    channels: Vec<Channel>,
    /// (fn, binding name) → endpoint.
    env: EndpointEnv,
    /// Thread → fns that (may) run on it.
    members: BTreeMap<ThreadNode, BTreeSet<FnId>>,
    /// Spawned-thread entry labels for messages.
    entries: BTreeMap<ThreadNode, String>,
}

/// `(fn, binding name)` → `(channel index, which end)`.
type EndpointEnv = BTreeMap<(FnId, String), (usize, End)>;

/// Find `let (tx, rx) = bounded(n) / unbounded() / channel()` units.
fn find_channels(ws: &WorkspaceIr) -> (Vec<Channel>, EndpointEnv) {
    let mut channels = Vec::new();
    let mut env = BTreeMap::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if ws.files[f.file].vendor {
            continue;
        }
        let tokens = &ws.files[f.file].tokens;
        for u in &f.units {
            let Some(ctor) = f.ctxs.iter().find(|c| {
                c.kind == CtxKind::Call
                    && matches!(c.callee.as_str(), "bounded" | "unbounded" | "channel")
                    && u.start <= c.name_tok
                    && c.name_tok <= u.end
            }) else {
                continue;
            };
            // Parse the `let (a, b) =` tuple pattern by hand — `Unit`
            // deliberately leaves tuple-lets unnamed.
            let nc: Vec<usize> = (u.start..=u.end.min(tokens.len().saturating_sub(1)))
                .filter(|&i| !tokens[i].is_comment())
                .collect();
            let ident = |k: usize| {
                nc.get(k)
                    .map(|&i| &tokens[i])
                    .filter(|t| t.kind == crate::lexer::TokenKind::Ident)
                    .map(|t| t.text.clone())
            };
            let punct = |k: usize, c: char| nc.get(k).is_some_and(|&i| tokens[i].is_punct(c));
            let shape = ident(0).as_deref() == Some("let")
                && punct(1, '(')
                && punct(3, ',')
                && punct(5, ')')
                && punct(6, '=');
            let (Some(tx), Some(rx)) = (ident(2), ident(4)) else {
                continue;
            };
            if !shape || tx == "_" || rx == "_" {
                continue;
            }
            let key = channels.len();
            env.insert((id, tx.clone()), (key, End::Tx));
            env.insert((id, rx.clone()), (key, End::Rx));
            channels.push(Channel {
                bounded: ctor.callee == "bounded",
                fn_id: id,
                tx,
                rx,
            });
        }
    }
    (channels, env)
}

/// Propagate endpoints: `clone()` aliases within a fn, then argument
/// positions into callees, to a fixpoint.
fn propagate_endpoints(ws: &WorkspaceIr, env: &mut EndpointEnv) {
    let mut queue: VecDeque<(FnId, String)> = env.keys().cloned().collect();
    let mut seen: BTreeSet<(FnId, String)> = env.keys().cloned().collect();
    while let Some((id, name)) = queue.pop_front() {
        let Some(&(chan, end)) = env.get(&(id, name.clone())) else {
            continue;
        };
        let f = &ws.fns[id];
        let tokens = &ws.files[f.file].tokens;
        // Aliases: `let other = name;` / `let other = name.clone();`.
        for u in &f.units {
            let Some(alias) = u.let_name.as_ref().or(u.pat_name.as_ref()) else {
                continue;
            };
            let Some(rhs) = u.rhs_start else { continue };
            let nc: Vec<&str> = (rhs..=u.end.min(tokens.len().saturating_sub(1)))
                .filter(|&i| !tokens[i].is_comment())
                .map(|i| tokens[i].text.as_str())
                .collect();
            let is_alias = nc == [name.as_str(), ";"]
                || nc == [name.as_str(), ".", "clone", "(", ")", ";"]
                || nc == [name.as_str()]
                || nc == [name.as_str(), ".", "clone", "(", ")"];
            if is_alias {
                let key = (id, alias.clone());
                if env.insert(key.clone(), (chan, end)).is_none() && seen.insert(key.clone()) {
                    queue.push_back(key);
                }
            }
        }
        // Argument positions: `g(…, name, …)` / `g(…, name.clone(), …)`
        // maps to the callee's parameter of the same position.
        for ctx in &f.ctxs {
            if ctx.kind != CtxKind::Call {
                continue;
            }
            for (pos, arg) in split_args(tokens, ctx).into_iter().enumerate() {
                let texts: Vec<&str> = arg.iter().map(|&i| tokens[i].text.as_str()).collect();
                let matches_name = texts == [name.as_str()]
                    || texts == ["&", name.as_str()]
                    || texts == [name.as_str(), ".", "clone", "(", ")"];
                if !matches_name {
                    continue;
                }
                for callee in resolve_call(ws, f, ctx) {
                    let cf = &ws.fns[callee];
                    let skip_self = usize::from(
                        ctx.method && cf.params.first().is_some_and(|p| p.name == "self"),
                    );
                    let Some(param) = cf.params.get(pos + skip_self) else {
                        continue;
                    };
                    if param.name == "self" || param.name == "_" {
                        continue;
                    }
                    let key = (callee, param.name.clone());
                    if env.insert(key.clone(), (chan, end)).is_none() && seen.insert(key.clone()) {
                        queue.push_back(key);
                    }
                }
            }
        }
    }
}

/// Top-level comma-separated argument token slices of a call context.
fn split_args(tokens: &[crate::lexer::Token], ctx: &Ctx) -> Vec<Vec<usize>> {
    let mut args = Vec::new();
    let mut cur = Vec::new();
    let mut depth = 0i32;
    for (i, t) in tokens
        .iter()
        .enumerate()
        .take(ctx.args_end)
        .skip(ctx.args_start)
    {
        if t.is_comment() {
            continue;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            args.push(std::mem::take(&mut cur));
            continue;
        }
        cur.push(i);
    }
    if !cur.is_empty() {
        args.push(cur);
    }
    args
}

/// Recover threads and their fn membership.
fn build_threads(ws: &WorkspaceIr, facts: &BTreeMap<FnId, FnFacts>) -> Topology {
    let (channels, mut env) = find_channels(ws);
    propagate_endpoints(ws, &mut env);

    // Same-thread call edges: resolved calls outside spawn closures.
    let mut same_thread: BTreeMap<FnId, BTreeSet<FnId>> = BTreeMap::new();
    for (&id, ff) in facts {
        let entry = same_thread.entry(id).or_default();
        for call in &ff.own.calls {
            entry.extend(call.callees.iter().copied());
        }
    }
    let closure = |roots: BTreeSet<FnId>| -> BTreeSet<FnId> {
        let mut set = roots;
        let mut queue: VecDeque<FnId> = set.iter().copied().collect();
        while let Some(n) = queue.pop_front() {
            for &next in same_thread.get(&n).into_iter().flatten() {
                if set.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        set
    };

    let mut members = BTreeMap::new();
    let mut entries = BTreeMap::new();
    let mut spawn_entries: BTreeSet<FnId> = BTreeSet::new();
    for (&id, ff) in facts {
        for (ctx_idx, scope) in &ff.spawned {
            let node = ThreadNode::Spawned(id, *ctx_idx);
            let roots: BTreeSet<FnId> = scope
                .calls
                .iter()
                .flat_map(|c| c.callees.iter().copied())
                .collect();
            spawn_entries.extend(roots.iter().copied());
            entries.insert(
                node,
                roots
                    .iter()
                    .next()
                    .map(|&r| ws.label(r))
                    .unwrap_or_else(|| "closure".to_string()),
            );
            members.insert(node, closure(roots));
        }
    }
    let main_roots: BTreeSet<FnId> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(id, f)| {
            !ws.files[f.file].vendor && f.is_pub && f.body.is_some() && !spawn_entries.contains(id)
        })
        .map(|(id, _)| id)
        .collect();
    members.insert(ThreadNode::Main, closure(main_roots));
    Topology {
        channels,
        env,
        members,
        entries,
    }
}

/// Channel ops in one fn scope, from its recorded calls.
fn scope_ops(
    ws: &WorkspaceIr,
    env: &EndpointEnv,
    channels: &[Channel],
    env_fn: FnId,
    facts_fn: FnId,
    scope: &ScopeFacts,
) -> Vec<(usize, ChanOp)> {
    let f = &ws.fns[facts_fn];
    let mut ops = Vec::new();
    for call in &scope.calls {
        let ctx = &f.ctxs[call.ctx];
        if !ctx.method {
            continue;
        }
        let endpoint = || {
            let name = match ctx.recv.as_slice() {
                [n] if n != "self" && n != "<expr>" => n,
                _ => return None,
            };
            env.get(&(env_fn, name.clone())).copied()
        };
        let op = match ctx.callee.as_str() {
            "send" | "send_timeout" | "try_send" => match endpoint() {
                Some((chan, End::Tx)) => Some(ChanOp::Send {
                    chan,
                    blocking: ctx.callee == "send" && channels[chan].bounded,
                }),
                _ => None,
            },
            "recv" | "recv_timeout" | "try_recv" => match endpoint() {
                Some((chan, End::Rx)) => Some(ChanOp::Recv {
                    chan,
                    blocking: ctx.callee == "recv",
                }),
                _ => None,
            },
            "join" if ctx.args_start == ctx.args_end => Some(ChanOp::Join),
            _ => None,
        };
        if let Some(op) = op {
            ops.push((call.ctx, op));
        }
    }
    ops
}

/// A wait-edge target: `(awaited thread, is bounded send, (channel,
/// is_send) for channel ops, description)`.
type WaitTarget = (ThreadNode, bool, Option<(usize, bool)>, String);

/// An edge in the thread wait graph.
struct WaitEdge {
    /// True for a bounded-channel `send` (the edge kind a ring must
    /// contain to be a deadlock rather than ordinary producer/consumer
    /// flow).
    bounded_send: bool,
    /// `(channel, is_send)` for channel waits; `None` for joins. Used
    /// to recognize rendezvous pairs (send one way, recv of the *same*
    /// channel back), which unblock each other and are not deadlocks.
    chan_op: Option<(usize, bool)>,
    fn_id: FnId,
    line: u32,
    desc: String,
}

/// Both C2 checks: the thread wait-ring and lock-held blocking waits.
fn find_wait_cycles(
    ws: &WorkspaceIr,
    facts: &BTreeMap<FnId, FnFacts>,
    sums: &[Summary],
) -> Vec<Hit> {
    let topo = build_threads(ws, facts);
    let mut hits = Vec::new();

    // Ops per thread: every member fn's caller-scope ops, plus the
    // spawn closure's inline ops for spawned threads.
    let mut thread_ops: BTreeMap<ThreadNode, Vec<(FnId, usize, ChanOp)>> = BTreeMap::new();
    for (&node, fns) in &topo.members {
        let ops = thread_ops.entry(node).or_default();
        for &g in fns {
            if let Some(ff) = facts.get(&g) {
                for (ctx, op) in scope_ops(ws, &topo.env, &topo.channels, g, g, &ff.own) {
                    ops.push((g, ctx, op));
                }
            }
        }
        if let ThreadNode::Spawned(f_id, ctx_idx) = node {
            if let Some(ff) = facts.get(&f_id) {
                if let Some((_, scope)) = ff.spawned.iter().find(|(i, _)| *i == ctx_idx) {
                    for (ctx, op) in scope_ops(ws, &topo.env, &topo.channels, f_id, f_id, scope) {
                        ops.push((f_id, ctx, op));
                    }
                }
            }
        }
    }

    // Channel → sender/receiver threads.
    let mut senders: BTreeMap<usize, BTreeSet<ThreadNode>> = BTreeMap::new();
    let mut receivers: BTreeMap<usize, BTreeSet<ThreadNode>> = BTreeMap::new();
    for (&node, ops) in &thread_ops {
        for &(_, _, op) in ops {
            match op {
                ChanOp::Send { chan, .. } => {
                    senders.entry(chan).or_default().insert(node);
                }
                ChanOp::Recv { chan, .. } => {
                    receivers.entry(chan).or_default().insert(node);
                }
                ChanOp::Join => {}
            }
        }
    }

    let tlabel = |node: ThreadNode| -> String {
        match node {
            ThreadNode::Main => "caller thread".to_string(),
            ThreadNode::Spawned(f, _) => format!(
                "thread spawned in `{}` (entry `{}`)",
                ws.label(f),
                topo.entries.get(&node).cloned().unwrap_or_default()
            ),
        }
    };
    let chan_desc = |chan: usize| -> String {
        let c = &topo.channels[chan];
        format!(
            "{} channel `({}, {})` created in `{}`",
            if c.bounded { "bounded" } else { "unbounded" },
            c.tx,
            c.rx,
            ws.label(c.fn_id)
        )
    };
    // Joinable threads for a fn: spawned by the fn itself or by a fn of
    // the same impl type (handles routinely flow through self fields).
    let join_peers = |g: FnId| -> Vec<ThreadNode> {
        let g_impl = ws.fns[g].impl_type.as_deref();
        topo.members
            .keys()
            .filter(|n| match n {
                ThreadNode::Spawned(f, _) => {
                    *f == g || (g_impl.is_some() && ws.fns[*f].impl_type.as_deref() == g_impl)
                }
                ThreadNode::Main => false,
            })
            .copied()
            .collect()
    };

    // Check 1: wait ring with at least one bounded-send edge.
    let mut edges: BTreeMap<(ThreadNode, ThreadNode), WaitEdge> = BTreeMap::new();
    for (&node, ops) in &thread_ops {
        for &(g, ctx_idx, op) in ops {
            let line = ws.fns[g].ctxs[ctx_idx].line;
            let targets: Vec<WaitTarget> = match op {
                ChanOp::Send {
                    chan,
                    blocking: true,
                } => receivers
                    .get(&chan)
                    .into_iter()
                    .flatten()
                    .filter(|&&u| u != node)
                    .map(|&u| {
                        (
                            u,
                            true,
                            Some((chan, true)),
                            format!(
                                "the {} blocks in `{}` sending on the {} until the {} drains it",
                                tlabel(node),
                                ws.label(g),
                                chan_desc(chan),
                                tlabel(u)
                            ),
                        )
                    })
                    .collect(),
                ChanOp::Recv {
                    chan,
                    blocking: true,
                } => senders
                    .get(&chan)
                    .into_iter()
                    .flatten()
                    .filter(|&&u| u != node)
                    .map(|&u| {
                        (
                            u,
                            false,
                            Some((chan, false)),
                            format!(
                                "the {} blocks in `{}` receiving on the {} until the {} sends",
                                tlabel(node),
                                ws.label(g),
                                chan_desc(chan),
                                tlabel(u)
                            ),
                        )
                    })
                    .collect(),
                ChanOp::Join => join_peers(g)
                    .into_iter()
                    .filter(|&u| u != node)
                    .map(|u| {
                        (
                            u,
                            false,
                            None,
                            format!(
                                "the {} blocks in `{}` joining the {}",
                                tlabel(node),
                                ws.label(g),
                                tlabel(u)
                            ),
                        )
                    })
                    .collect(),
                _ => Vec::new(),
            };
            for (to, bounded_send, chan_op, desc) in targets {
                let edge = WaitEdge {
                    bounded_send,
                    chan_op,
                    fn_id: g,
                    line,
                    desc,
                };
                // Keep the strongest witness per thread pair: a bounded
                // send beats a recv/join wait.
                match edges.entry((node, to)) {
                    std::collections::btree_map::Entry::Vacant(v) => {
                        v.insert(edge);
                    }
                    std::collections::btree_map::Entry::Occupied(mut o) => {
                        if edge.bounded_send && !o.get().bounded_send {
                            o.insert(edge);
                        }
                    }
                }
            }
        }
    }
    let mut adj: BTreeMap<ThreadNode, Vec<ThreadNode>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(*from).or_default().push(*to);
    }
    let mut seen: BTreeSet<Vec<ThreadNode>> = BTreeSet::new();
    for (from, to) in edges.keys() {
        let Some(path) = bfs_path(&adj, *to, *from) else {
            continue;
        };
        let mut cycle: Vec<ThreadNode> = vec![*from];
        cycle.extend(path.into_iter().take_while(|n| n != from));
        if !seen.insert(canonical(&cycle)) {
            continue;
        }
        let wits: Vec<&WaitEdge> = cycle
            .iter()
            .zip(cycle.iter().cycle().skip(1))
            .filter_map(|(a, b)| edges.get(&(*a, *b)))
            .collect();
        if !wits.iter().any(|w| w.bounded_send) {
            continue; // an all-recv/join ring is normal request/reply flow
        }
        // Rendezvous, not deadlock: a 2-ring whose edges are the send
        // and the recv of the *same* channel unblocks itself.
        if let [a, b] = wits.as_slice() {
            if let (Some((c1, s1)), Some((c2, s2))) = (a.chan_op, b.chan_op) {
                if c1 == c2 && s1 != s2 {
                    continue;
                }
            }
        }
        let Some(anchor) = wits.iter().find(|w| w.bounded_send).or(wits.first()) else {
            continue;
        };
        let message = format!(
            "C2 bounded-channel wait cycle: {} — every thread in the ring waits for the next, and the bounded queue can be full",
            wits.iter()
                .map(|w| w.desc.as_str())
                .collect::<Vec<_>>()
                .join("; ")
        );
        hits.push(Hit::at(Rule::C2, anchor.fn_id, anchor.line, message));
    }

    // Check 2: blocking wait while holding a lock the awaited thread
    // acquires (the e3a2826 reconnect-deadlock shape).
    let thread_acquires = |node: ThreadNode| -> BTreeMap<LockId, Vec<String>> {
        let mut out = BTreeMap::new();
        for &g in topo.members.get(&node).into_iter().flatten() {
            for (lid, (_, chain)) in &sums[g].acquires {
                out.entry(lid.clone()).or_insert_with(|| chain.clone());
            }
        }
        if let ThreadNode::Spawned(f_id, ctx_idx) = node {
            if let Some(ff) = facts.get(&f_id) {
                if let Some((_, scope)) = ff.spawned.iter().find(|(i, _)| *i == ctx_idx) {
                    for a in &scope.acquires {
                        if let Some(lid) = &a.id {
                            out.entry(lid.clone())
                                .or_insert_with(|| vec![ws.label(f_id)]);
                        }
                    }
                }
            }
        }
        out
    };
    let mut emitted: BTreeSet<String> = BTreeSet::new();
    for (&g, ff) in facts {
        for scope in ff.scopes() {
            let ops: BTreeMap<usize, ChanOp> =
                scope_ops(ws, &topo.env, &topo.channels, g, g, scope)
                    .into_iter()
                    .collect();
            for call in &scope.calls {
                if call.held.iter().all(|h| h.id.is_none()) {
                    continue;
                }
                let (wait_desc, peers): (String, Vec<ThreadNode>) = match ops.get(&call.ctx) {
                    Some(ChanOp::Join) => ("a thread join".to_string(), join_peers(g)),
                    Some(&ChanOp::Recv {
                        chan,
                        blocking: true,
                    }) => (
                        format!("a blocking recv on the {}", chan_desc(chan)),
                        senders.get(&chan).into_iter().flatten().copied().collect(),
                    ),
                    Some(&ChanOp::Send {
                        chan,
                        blocking: true,
                    }) => (
                        format!("a blocking send on the {}", chan_desc(chan)),
                        receivers
                            .get(&chan)
                            .into_iter()
                            .flatten()
                            .copied()
                            .collect(),
                    ),
                    _ => continue,
                };
                let line = ws.fns[g].ctxs[call.ctx].line;
                for peer in peers {
                    let acq = thread_acquires(peer);
                    for held in &call.held {
                        let Some(h) = &held.id else { continue };
                        let Some(chain) = acq.get(h) else { continue };
                        let message = format!(
                            "C2 deadlock: `{}` blocks on {} while holding `{}`; the awaited {} acquires `{}` via {} — the wait can never finish",
                            ws.label(g),
                            wait_desc,
                            h,
                            tlabel(peer),
                            h,
                            chain.join(" -> ")
                        );
                        if emitted.insert(message.clone()) {
                            hits.push(Hit::at(Rule::C2, g, line, message));
                        }
                    }
                }
            }
        }
    }
    hits
}

/// C2's blocking-op-under-guard check: a channel send or service call,
/// made directly or through a callee, while a write-capable guard is
/// held. One finding per call site, naming the first such guard.
fn find_blocking_under_guard(
    ws: &WorkspaceIr,
    facts: &BTreeMap<FnId, FnFacts>,
    sums: &[Summary],
) -> Vec<Hit> {
    let mut hits = Vec::new();
    for (&id, ff) in facts {
        for call in ff.scopes().flat_map(|s| &s.calls) {
            let Some(guard) = call.held.iter().find(|a| a.class.write_capable()) else {
                continue;
            };
            let ctx = &ws.fns[id].ctxs[call.ctx];
            let (what, via) = match op_desc(ctx) {
                Some(desc) => (desc, String::new()),
                None => match call.callees.iter().find_map(|&c| sums[c].sends.as_ref()) {
                    Some((desc, chain)) => (*desc, format!(" via {}", chain.join(" -> "))),
                    None => continue,
                },
            };
            let message = format!(
                "C2 blocking op under guard: `{}` makes a {what}{via} while holding {} — a blocked peer stalls every thread that needs the lock",
                ws.label(id),
                guard.describe()
            );
            hits.push(Hit::at(Rule::C2, id, ctx.line, message));
        }
    }
    hits
}
