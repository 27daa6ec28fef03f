//! Rule **L1** — lock discipline over the concurrent engine paths.
//!
//! DESIGN.md §9 declares one lock order: tables-`RwLock` first, then a
//! pool-shard mutex, never the other way, and never two locks of the
//! same class at once. On top of that, no channel send or `Service`
//! call may run while a write-capable guard (an `RwLock` write guard or
//! any mutex guard) is held — a blocked peer would stall every reader.
//!
//! The analysis walks each fn body unit by unit, modeling guard
//! lifetimes syntactically:
//!
//! * `let g = x.write();` — named guard, lives to the end of its block
//!   (or an explicit `drop(g)`).
//! * `let v = *x.lock();` — deref copy, the temporary dies at the `;`.
//! * `f(&mut x.write(), …)` — temporary guard, alive for exactly the
//!   statement that contains it (so `f` runs under it).
//!
//! Calls made under a guard are checked against per-fn summaries
//! computed to a fixpoint over the call graph: does the callee
//! (transitively) send on a channel or acquire a lock class that
//! violates the declared order? Findings carry the witness chain.

use crate::callgraph::{resolve_call, resolve_recv_types, CallGraph};
use crate::ir::{Ctx, CtxKind, FnId, FnItem, WorkspaceIr};
use crate::lexer::{Token, TokenKind};
use std::collections::BTreeMap;
use std::fmt;

/// The lock classes the workspace uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// `RwLock::read` — shared, not write-capable.
    RwRead,
    /// `RwLock::write` — exclusive.
    RwWrite,
    /// Any mutex (`Mutex::lock`), e.g. a pool shard or stats cell.
    Mutex,
}

impl LockClass {
    /// Coarse class family for double-acquisition checks.
    pub fn family(self) -> &'static str {
        match self {
            LockClass::RwRead | LockClass::RwWrite => "RwLock",
            LockClass::Mutex => "mutex",
        }
    }

    /// Guards that exclude other threads entirely.
    pub fn write_capable(self) -> bool {
        matches!(self, LockClass::RwWrite | LockClass::Mutex)
    }

    pub(crate) fn describe(self) -> &'static str {
        match self {
            LockClass::RwRead => "RwLock read guard",
            LockClass::RwWrite => "RwLock write guard",
            LockClass::Mutex => "mutex guard",
        }
    }
}

/// A lock *identity*: which specific lock object an acquisition refers
/// to, as precisely as the receiver chain can be typed. `self.state
/// .lock()` inside `impl Inner` and `inner.state.lock()` where `inner:
/// &Arc<Inner>` both yield `Inner.state`; an indexed shard
/// (`pool.shards[i].lock()`) yields `BufferPool.shards[]` — one
/// identity per shard *array*, which is exactly the granularity a
/// whole-program lock-order graph needs. Shared between L1 (which
/// classifies by [`LockClass`]) and the C1 cycle detector in
/// [`crate::deadlock`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub String);

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Derive the [`LockId`] of a lock-acquisition context (one that
/// [`lock_class`] already accepted). `None` when the receiver cannot be
/// identified (e.g. produced by a call: `pending().lock()`), in which
/// case C1 conservatively skips the acquisition rather than guess.
pub(crate) fn lock_identity(ws: &WorkspaceIr, f: &FnItem, ctx: &Ctx) -> Option<LockId> {
    if !ctx.method {
        return None;
    }
    let tokens = &ws.files[f.file].tokens;
    let segs = recv_segments(tokens, ctx.name_tok)?;
    let (last, owner_segs) = segs.split_last()?;
    if owner_segs.is_empty() {
        // Single-segment receiver: `self.lock()` is the impl type
        // itself; a param/local mutex is identified by its type.
        if last == "self" {
            return f.impl_type.clone().map(LockId);
        }
        let head = vec![last.trim_end_matches("[]").to_string()];
        return resolve_recv_types(ws, f, &head).map(|ty| LockId(render_ty(&ty)));
    }
    // Field access: identify as `OwnerType.field`, falling back to the
    // lexical path (`state.out_buf`) when the owner cannot be typed.
    let owner: Vec<String> = owner_segs
        .iter()
        .map(|s| s.trim_end_matches("[]").to_string())
        .collect();
    if let Some(ty) = resolve_recv_types(ws, f, &owner) {
        let name = ty
            .iter()
            .find(|t| ws.structs.contains_key(t.as_str()))
            .or_else(|| ty.first())?;
        return Some(LockId(format!("{name}.{last}")));
    }
    let mut parts = segs.clone();
    if let (Some(head), Some(t)) = (parts.first_mut(), &f.impl_type) {
        if head == "self" {
            *head = t.clone();
        }
    }
    Some(LockId(parts.join(".")))
}

/// Render a type-ident list as a display type (`["Mutex", "ConnState"]`
/// → `Mutex<ConnState>`).
fn render_ty(ty: &[String]) -> String {
    match ty.split_first() {
        Some((h, rest)) if !rest.is_empty() => format!("{h}<{}>", rest.join(", ")),
        Some((h, _)) => h.clone(),
        None => String::new(),
    }
}

/// The lexical receiver chain of a method call, walked back over `.`
/// from the callee name. Unlike [`Ctx::recv`] this traverses index
/// groups, so `pool.shards[i].lock()` yields `["pool", "shards[]"]`
/// instead of `["<expr>"]`. `None` when the chain starts at anything
/// other than a plain ident path (e.g. a producing call).
fn recv_segments(tokens: &[Token], name_tok: usize) -> Option<Vec<String>> {
    let mut segs: Vec<String> = Vec::new();
    let dot = crate::parser::prev_nc(tokens, name_tok)?;
    if !tokens[dot].is_punct('.') {
        return None;
    }
    let mut i = dot;
    loop {
        i = crate::parser::prev_nc(tokens, i)?;
        if tokens[i].is_punct(']') {
            let open = open_of(tokens, i)?;
            let base = crate::parser::prev_nc(tokens, open)?;
            if tokens[base].kind != TokenKind::Ident
                || crate::parser::is_keyword(&tokens[base].text)
            {
                return None;
            }
            segs.insert(0, format!("{}[]", tokens[base].text));
            i = base;
        } else if matches!(tokens[i].kind, TokenKind::Ident | TokenKind::Number) {
            if crate::parser::is_keyword(&tokens[i].text) {
                return None;
            }
            segs.insert(0, tokens[i].text.clone());
        } else {
            return None;
        }
        match crate::parser::prev_nc(tokens, i) {
            Some(p) if tokens[p].is_punct('.') => i = p,
            _ => break,
        }
    }
    Some(segs)
}

/// Matching open bracket for the `]` at `close`, scanning backwards.
fn open_of(tokens: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0usize;
    for k in (0..=close).rev() {
        if tokens[k].is_punct(']') {
            depth += 1;
        } else if tokens[k].is_punct('[') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// One L1 result, pre-waiver.
pub struct L1Hit {
    /// Fn the violation occurs in.
    pub fn_id: FnId,
    /// 1-based line of the offending acquisition / send / call.
    pub line: u32,
    /// Line-free message (stable under unrelated edits).
    pub message: String,
}

/// Per-fn interprocedural summary.
#[derive(Default, Clone)]
struct Summary {
    /// `Some(chain)` when the fn (transitively) sends on a channel or
    /// makes a `Service` call; the chain lists fn labels to a direct
    /// sender.
    sends: Option<Vec<String>>,
    /// Lock classes (transitively) acquired, each with a witness chain.
    acquires: BTreeMap<LockClass, Vec<String>>,
}

/// Classify a context as a lock acquisition. Shared with rule B1,
/// which treats any write-capable acquisition on an inline path as a
/// blocking sink.
pub(crate) fn lock_class(ws: &WorkspaceIr, f: &FnItem, ctx: &Ctx) -> Option<LockClass> {
    if ctx.kind != CtxKind::Call || !ctx.method || ctx.args_start != ctx.args_end {
        return None; // locks take no arguments
    }
    match ctx.callee.as_str() {
        "lock" => Some(LockClass::Mutex),
        "read" | "write" => {
            let ty = resolve_recv_types(ws, f, &ctx.recv)?;
            if ty.iter().any(|t| t == "RwLock") {
                Some(if ctx.callee == "read" {
                    LockClass::RwRead
                } else {
                    LockClass::RwWrite
                })
            } else {
                None
            }
        }
        _ => None,
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

/// Compute send/acquire summaries to a fixpoint over the call graph.
fn summaries(ws: &WorkspaceIr, graph: &CallGraph) -> Vec<Summary> {
    let mut sums: Vec<Summary> = vec![Summary::default(); ws.fns.len()];
    // Seed with direct facts.
    for (id, f) in ws.fns.iter().enumerate() {
        let label = ws.label(id);
        for ctx in &f.ctxs {
            if let Some(c) = lock_class(ws, f, ctx) {
                sums[id]
                    .acquires
                    .entry(c)
                    .or_insert_with(|| vec![label.clone()]);
            } else if op_desc(ctx).is_some() && sums[id].sends.is_none() {
                sums[id].sends = Some(vec![label.clone()]);
            }
        }
    }
    // Propagate along edges until stable.
    loop {
        let mut changed = false;
        for id in 0..ws.fns.len() {
            for e in &graph.edges[id] {
                let callee = sums[e.to].clone();
                let me = &mut sums[id];
                if me.sends.is_none() {
                    if let Some(chain) = callee.sends {
                        let mut c = vec![ws.label(id)];
                        c.extend(chain);
                        me.sends = Some(c);
                        changed = true;
                    }
                }
                for (class, chain) in callee.acquires {
                    me.acquires.entry(class).or_insert_with(|| {
                        changed = true;
                        let mut c = vec![ws.label(id)];
                        c.extend(chain);
                        c
                    });
                }
            }
        }
        if !changed {
            break;
        }
    }
    sums
}

/// A guard alive at some point in a body walk.
struct Guard {
    class: LockClass,
    name: Option<String>,
    depth: u32,
    line: u32,
}

/// Run L1 over every first-party fn.
pub fn run_l1(ws: &WorkspaceIr, graph: &CallGraph) -> Vec<L1Hit> {
    let sums = summaries(ws, graph);
    let mut hits = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if ws.files[f.file].vendor {
            continue;
        }
        check_fn(ws, f, id, &sums, &mut hits);
    }
    hits.sort_by_key(|h| (h.fn_id, h.line));
    hits
}

fn check_fn(ws: &WorkspaceIr, f: &FnItem, id: FnId, sums: &[Summary], hits: &mut Vec<L1Hit>) {
    let tokens = &ws.files[f.file].tokens;
    let label = ws.label(id);
    let mut active: Vec<Guard> = Vec::new();
    for u in &f.units {
        // Guards die when their block closes.
        active.retain(|g| g.depth <= u.depth);
        // Contexts inside this unit, in token order.
        let ctxs: Vec<&Ctx> = f
            .ctxs
            .iter()
            .filter(|c| u.start <= c.name_tok && c.name_tok <= u.end)
            .collect();
        // Temporary guards born in this unit: (token, class, line).
        let mut unit_locks: Vec<(usize, LockClass, u32)> = Vec::new();
        for ctx in &ctxs {
            if ctx.kind == CtxKind::MacroCall {
                continue;
            }
            // Explicit `drop(g)` releases a named guard.
            if !ctx.method && ctx.path.is_empty() && ctx.callee == "drop" {
                let arg = crate::parser::next_nc(tokens, ctx.args_start)
                    .filter(|&i| i < ctx.args_end)
                    .map(|i| tokens[i].text.clone());
                if let Some(name) = arg {
                    active.retain(|g| g.name.as_deref() != Some(name.as_str()));
                }
                continue;
            }
            if let Some(class) = lock_class(ws, f, ctx) {
                // Check this acquisition against everything held.
                let held = active
                    .iter()
                    .map(|g| (g.class, g.line))
                    .chain(unit_locks.iter().map(|&(_, c, l)| (c, l)));
                for (hc, _) in held {
                    if hc.family() == class.family() {
                        hits.push(L1Hit {
                            fn_id: id,
                            line: ctx.line,
                            message: format!(
                                "L1 double acquisition: {} taken while a {} is already held in {}",
                                class.describe(),
                                hc.describe(),
                                label
                            ),
                        });
                    } else if hc == LockClass::Mutex
                        && matches!(class, LockClass::RwRead | LockClass::RwWrite)
                    {
                        hits.push(L1Hit {
                            fn_id: id,
                            line: ctx.line,
                            message: format!(
                                "L1 lock-order inversion: {} taken while a mutex guard is held in {} (declared order: tables-RwLock before pool-shard mutex)",
                                class.describe(),
                                label
                            ),
                        });
                    }
                }
                unit_locks.push((ctx.name_tok, class, ctx.line));
                continue;
            }
            // Guards in effect for this call: active named guards plus
            // temporaries that were (or are being) created in this
            // statement before/inside the call.
            let under: Vec<(LockClass, u32)> = active
                .iter()
                .map(|g| (g.class, g.line))
                .chain(
                    unit_locks
                        .iter()
                        .filter(|&&(tok, _, _)| tok < ctx.name_tok || ctx.contains(tok))
                        .map(|&(_, c, l)| (c, l)),
                )
                .collect();
            // Also catch locks lexically *inside* the call's argument
            // span that appear later in `ctxs` order.
            let arg_locks: Vec<(LockClass, u32)> = ctxs
                .iter()
                .filter(|c2| c2.name_tok > ctx.name_tok && ctx.contains(c2.name_tok))
                .filter_map(|c2| lock_class(ws, f, c2).map(|cl| (cl, c2.line)))
                .collect();
            let under: Vec<(LockClass, u32)> = under.into_iter().chain(arg_locks).collect();
            if under.is_empty() {
                continue;
            }
            if let Some(desc) = op_desc(ctx) {
                if let Some(&(c, _)) = under.iter().find(|(c, _)| c.write_capable()) {
                    hits.push(L1Hit {
                        fn_id: id,
                        line: ctx.line,
                        message: format!(
                            "L1 blocking op under guard: {} while holding a {} in {}",
                            desc,
                            c.describe(),
                            label
                        ),
                    });
                }
                continue;
            }
            // Ordinary call under a guard: consult callee summaries.
            if ctx.kind != CtxKind::Call {
                continue;
            }
            for callee in resolve_call(ws, f, ctx) {
                let s = &sums[callee];
                if let Some(chain) = &s.sends {
                    if let Some(&(c, _)) = under.iter().find(|(c, _)| c.write_capable()) {
                        hits.push(L1Hit {
                            fn_id: id,
                            line: ctx.line,
                            message: format!(
                                "L1 blocking op under guard: call chain {} sends while {} holds a {}",
                                chain.join(" -> "),
                                label,
                                c.describe()
                            ),
                        });
                    }
                }
                for (&class, chain) in &s.acquires {
                    for &(hc, _) in &under {
                        if hc.family() == class.family() {
                            hits.push(L1Hit {
                                fn_id: id,
                                line: ctx.line,
                                message: format!(
                                    "L1 double acquisition via call: chain {} acquires a {} while {} already holds a {}",
                                    chain.join(" -> "),
                                    class.describe(),
                                    label,
                                    hc.describe()
                                ),
                            });
                        } else if hc == LockClass::Mutex
                            && matches!(class, LockClass::RwRead | LockClass::RwWrite)
                        {
                            hits.push(L1Hit {
                                fn_id: id,
                                line: ctx.line,
                                message: format!(
                                    "L1 lock-order inversion via call: chain {} acquires a {} while {} holds a mutex guard",
                                    chain.join(" -> "),
                                    class.describe(),
                                    label
                                ),
                            });
                        }
                    }
                }
            }
        }
        // End of unit: temporaries die; a plain `let g = x.lock();`
        // (no deref, lock call is the whole RHS) becomes a named guard.
        if let (Some(name), false) = (&u.let_name, u.deref_rhs) {
            if let Some(&(tok, class, line)) = unit_locks.last() {
                let lock_ctx = f.ctxs.iter().find(|c| c.name_tok == tok);
                let outermost = lock_ctx.is_some_and(|c| {
                    crate::parser::next_nc(tokens, c.args_end + 1)
                        .is_some_and(|i| tokens[i].is_punct(';'))
                });
                if outermost {
                    active.push(Guard {
                        class,
                        name: Some(name.clone()),
                        depth: u.depth,
                        line,
                    });
                }
            }
        }
    }
    let _ = &active;
}
