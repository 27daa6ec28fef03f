//! Rule **B1** — nothing a connection thread runs inline blocks.
//!
//! The TCP server gives every connection one thread, and that thread
//! runs a request itself — no hand-off to the worker pool — when the
//! service promises the request cannot block (`SharedService::
//! runs_inline`). `ProviderService` makes that promise for exactly what
//! `ProviderEngine::execute_read` serves. A blocking call anywhere under
//! it — an fsync, a durable WAL append, a write-capable engine lock, a
//! sleep, an unbounded channel send, or straight blocking I/O — stalls
//! every request pipelined behind it on the connection and puts reads
//! back behind writes, which is exactly the availability failure the
//! paper's provider model cannot afford (§V-B).
//!
//! The rule walks the call graph from the inline entry points
//! (`ProviderEngine::execute_read` in `engine.rs`, plus the
//! `FrameDecoder` feed methods in `wire.rs`, which run on the connection
//! thread between `read` and dispatch) and reports every blocking
//! operation reachable from them, with the witness chain in the message
//! like P3's. Traversal stops at the `vendor/` boundary: the vendored
//! channel internals are the runtime the server links against, so
//! blocking facts are classified at the first-party call site by name
//! instead.
//!
//! Sanctioned sinks (never reported): `try_send` / `try_recv` /
//! `recv_timeout` / `send_timeout` / `wait_timeout` (bounded by
//! construction), `RwLock::read` (shared, held briefly), and
//! `read`/`write` calls inside a fn whose body handles
//! `WouldBlock` (the nonblocking-I/O idiom).

use crate::callgraph::{resolve_call, resolve_recv_types, CallGraph, Reach};
use crate::ir::{Ctx, CtxKind, FnId, FnItem, WorkspaceIr};
use crate::{Hit, Rule};
use std::collections::BTreeMap;

/// The B1 entry points: `ProviderEngine::execute_read` in an
/// `engine.rs` — what `runs_inline` promises about — and every bodied
/// method of `FrameDecoder` in a `wire.rs`, minus constructors. Scoping
/// by file *and* impl type keeps unrelated same-named items out of the
/// root set.
pub fn b1_roots(ws: &WorkspaceIr) -> Vec<FnId> {
    let mut roots = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        let file = &ws.files[f.file];
        if file.vendor || f.body.is_none() {
            continue;
        }
        let inline = file.path.ends_with("engine.rs")
            && f.impl_type.as_deref() == Some("ProviderEngine")
            && f.name == "execute_read";
        let decoder = file.path.ends_with("wire.rs")
            && f.impl_type.as_deref() == Some("FrameDecoder")
            && !(f.name == "new" || f.name == "default" || f.name.starts_with("with_"));
        if inline || decoder {
            roots.push(id);
        }
    }
    roots
}

/// True when the fn body mentions `WouldBlock`: it is written against
/// the nonblocking-I/O contract, so its `read`/`write` calls return
/// instead of parking the thread.
fn wouldblock_aware(ws: &WorkspaceIr, f: &FnItem) -> bool {
    let Some((start, end)) = f.body else {
        return false;
    };
    let tokens = &ws.files[f.file].tokens;
    let end = end.min(tokens.len().saturating_sub(1));
    tokens[start..=end].iter().any(|t| t.is_ident("WouldBlock"))
}

/// Classify one call context as a blocking operation. `resolved` is the
/// call-graph resolution of the context: a call that resolves to a
/// bodied first-party fn is *not* classified by name (the traversal
/// walks into the body instead), except `append_durable`, whose whole
/// point is to block until fsync.
fn blocking_desc(
    ws: &WorkspaceIr,
    f: &FnItem,
    ctx: &Ctx,
    resolved: &[FnId],
    aware: bool,
) -> Option<&'static str> {
    if ctx.kind != CtxKind::Call {
        return None;
    }
    if ctx.callee == "append_durable" {
        return Some("durable WAL append");
    }
    if let Some(class) = crate::locks::lock_class(ws, f, ctx) {
        // RwLock::read is shared and held briefly; everything
        // write-capable can wait behind a writer's fsync.
        return class
            .write_capable()
            .then_some("write-capable lock acquisition");
    }
    let first_party_body = resolved
        .iter()
        .any(|&id| ws.fns[id].body.is_some() && !ws.files[ws.fns[id].file].vendor);
    if first_party_body {
        return None;
    }
    match ctx.callee.as_str() {
        "sleep" | "sleep_ms" | "park" => Some("thread sleep"),
        "sync_all" | "sync_data" | "fsync" => Some("fsync"),
        "wait" | "wait_while" => Some("condvar wait"),
        "send" if ctx.method => Some("unbounded channel send"),
        "recv" if ctx.method => Some("blocking channel recv"),
        // Dynamic dispatch through a bodyless first-party trait method:
        // the analyzer cannot see past it, so it cannot vouch for it.
        "handle" | "call" => {
            (ctx.method && !resolved.is_empty()).then_some("dynamic service dispatch")
        }
        c if c.starts_with("call_") => {
            (ctx.method && !resolved.is_empty()).then_some("dynamic service dispatch")
        }
        // Blocking I/O on an external handle (TcpStream, File): only
        // when the receiver *was* typed — an untyped receiver would
        // drown the rule in `Vec::write`-style noise — and the fn does
        // not speak WouldBlock.
        "read" | "read_exact" | "read_to_end" | "write" | "write_all" => {
            (ctx.method && !aware && resolve_recv_types(ws, f, &ctx.recv).is_some())
                .then_some("blocking I/O")
        }
        _ => None,
    }
}

/// Run B1 over the workspace: every blocking operation inside a fn
/// reachable from [`b1_roots`], one hit per (fn, kind) with the
/// root-to-fn chain in its message.
pub fn run_b1(ws: &WorkspaceIr, graph: &CallGraph) -> Vec<Hit> {
    let roots = b1_roots(ws);
    let mut edges = graph.edges.clone();
    for es in &mut edges {
        es.retain(|e| !ws.files[ws.fns[e.to].file].vendor);
    }
    let first_party = CallGraph { edges };
    let reach = Reach::from(&first_party, &roots);
    let mut hits = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if !reach.reachable(id) || ws.files[f.file].vendor {
            continue;
        }
        let aware = wouldblock_aware(ws, f);
        let mut by_desc: BTreeMap<&'static str, Vec<u32>> = BTreeMap::new();
        for ctx in &f.ctxs {
            if ctx.kind != CtxKind::Call {
                continue;
            }
            let resolved = resolve_call(ws, f, ctx);
            let Some(desc) = blocking_desc(ws, f, ctx, &resolved, aware) else {
                continue;
            };
            by_desc.entry(desc).or_default().push(ctx.line);
        }
        if by_desc.is_empty() {
            continue;
        }
        let path = reach.path(ws, id).join(" -> ");
        for (desc, lines) in by_desc {
            let message = format!(
                "B1 blocking on inline path: {desc} in {}, reachable via {path}",
                ws.label(id)
            );
            hits.push(Hit {
                rule: Rule::B1,
                fn_id: id,
                lines,
                message,
            });
        }
    }
    hits
}
