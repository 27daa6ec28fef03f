//! Rule **T1** — interprocedural secret taint.
//!
//! The lattice is deliberately small (§III of the paper: the evaluation
//! points and per-domain keys are the only secret):
//!
//! * **Sources** — `.expose()` / `.expose_mut()` / `.expose_points()`
//!   method calls, any `reconstruct*` call (its output is plaintext),
//!   and calls to workspace fns whose return value is secret-derived
//!   (computed as a fixpoint summary).
//! * **Sanitizers** — the sanctioned share-encoding and basis
//!   functions in dasp-sss / dasp-client / dasp-crypto
//!   ([`SANITIZERS`]), re-wrapping constructors of secret types, and
//!   value-free consumers (`len`, `is_empty`, `count`).
//! * **Sinks** — format/log macros, `WireWriter` `write_*` methods,
//!   `Request` construction, and provider RPC (`call*`, `send*`).
//!
//! Propagation is per-statement inside a fn (through `let` bindings and
//! assignments) and per-parameter across fns: each fn gets a fixpoint
//! summary of which parameters flow to a sink or to the return value,
//! so a taint can be traced through helper layers; findings carry the
//! full chain.

use crate::callgraph::resolve_call;
use crate::ir::{Ctx, CtxKind, FnItem, WorkspaceIr};
use std::collections::BTreeMap;

/// Sanctioned share-encoding / key-derivation / basis functions: a
/// secret value passed into (or chained through) one of these has been
/// converted to shares or digests and stops being secret.
const SANITIZERS: &[&str] = &[
    "basis_for",
    "deterministic_poly",
    "deterministic_poly_with",
    "deterministic_share",
    "derive",
    "encode_chunk",
    "encode_rows",
    "hash_u64",
    "hmac_sha256",
    "range_for",
    "share",
    "share_batch",
    "share_for",
    "split_deterministic",
    "split_deterministic_batch",
    "split_predicate",
    "split_random",
    "split_random_batch",
];

/// Value-free chain consumers: `secret.expose().len()` leaks a length,
/// not the secret.
const CONSUMERS: &[&str] = &["count", "is_empty", "len"];

/// A sink reached during one fn walk.
struct SinkReach {
    line: u32,
    /// Where the tainted value came from ("expose()", "parameter `x`").
    origin: String,
    /// What it reached ("println! macro", ".write_u64() wire write").
    sink: String,
    /// Intermediate fn labels (callee-side) for interprocedural flows.
    via: Vec<String>,
}

/// A parameter-to-sink summary entry: the sink description and the
/// callee-side chain that reaches it.
type ParamSink = Option<(String, Vec<String>)>;

/// Per-fn interprocedural summaries, fixpointed over the call graph.
struct Summaries {
    /// `param_sink[f][k]` — parameter `k` of `f` flows to a sink.
    param_sink: Vec<Vec<ParamSink>>,
    /// `param_ret[f][k]` — parameter `k` taints the return value.
    param_ret: Vec<Vec<bool>>,
    /// `fresh_ret[f]` — `f` returns a secret-derived value.
    fresh_ret: Vec<bool>,
}

/// `Some(desc)` when the context is a taint source.
fn source_desc(ctx: &Ctx) -> Option<String> {
    if ctx.kind != CtxKind::Call {
        return None;
    }
    let c = ctx.callee.as_str();
    if ctx.method && (c == "expose" || c == "expose_mut" || c == "expose_points") {
        return Some(format!("{c}()"));
    }
    if c.starts_with("reconstruct") {
        return Some(format!("{c}()"));
    }
    None
}

/// True when the context consumes (sanitizes) values passed to it.
fn is_sanitizer(ctx: &Ctx, secret_types: &[&str]) -> bool {
    match ctx.kind {
        CtxKind::Call => {
            let c = ctx.callee.as_str();
            SANITIZERS.contains(&c)
                || CONSUMERS.contains(&c)
                || (c == "new"
                    && ctx
                        .path
                        .last()
                        .is_some_and(|t| secret_types.contains(&t.as_str())))
        }
        _ => false,
    }
}

/// `Some(desc)` when the context is a sink.
fn sink_desc(ctx: &Ctx) -> Option<String> {
    match ctx.kind {
        CtxKind::MacroCall => {
            if crate::rules::FMT_MACROS.contains(&ctx.callee.as_str()) {
                Some(format!("{}! macro", ctx.callee))
            } else {
                None
            }
        }
        CtxKind::StructLit => {
            let head = ctx.path.first().map(String::as_str).unwrap_or("");
            if head == "Request" || ctx.callee == "Request" {
                Some("Request construction".to_string())
            } else {
                None
            }
        }
        CtxKind::Call => {
            let c = ctx.callee.as_str();
            if ctx.method && c.starts_with("write_") {
                Some(format!(".{c}() wire write"))
            } else if ctx.path.first().is_some_and(|p| p == "Request") {
                Some("Request construction".to_string())
            } else if ctx.method
                && (c == "call" || c.starts_with("call_") || c == "send" || c == "send_timeout")
            {
                Some(format!(".{c}() provider rpc"))
            } else {
                None
            }
        }
    }
}

/// Top-level argument slices of a call/struct-literal span.
fn arg_slices(ws: &WorkspaceIr, f: &FnItem, ctx: &Ctx) -> Vec<(usize, usize)> {
    let tokens = &ws.files[f.file].tokens;
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = ctx.args_start;
    let mut i = ctx.args_start;
    while i < ctx.args_end {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(',') && depth == 0 {
            out.push((start, i));
            start = i + 1;
        }
        i += 1;
    }
    if start < ctx.args_end {
        out.push((start, ctx.args_end));
    }
    out
}

/// Walk one fn body; `pre_taint` optionally seeds a parameter name
/// (summary mode). Returns sinks reached and whether the return value
/// is tainted.
fn walk(
    ws: &WorkspaceIr,
    f: &FnItem,
    pre_taint: Option<&str>,
    sums: &Summaries,
    secret_types: &[&str],
) -> (Vec<SinkReach>, bool) {
    let tokens = &ws.files[f.file].tokens;
    let mut tainted: BTreeMap<String, String> = BTreeMap::new();
    if let Some(p) = pre_taint {
        tainted.insert(p.to_string(), format!("parameter `{p}`"));
    }
    let mut sinks = Vec::new();
    let mut ret_tainted = false;
    let n_units = f.units.len();
    for (ui, u) in f.units.iter().enumerate() {
        let ctxs: Vec<&Ctx> = f
            .ctxs
            .iter()
            .filter(|c| u.start <= c.name_tok && c.name_tok <= u.end)
            .collect();
        let sanitizers: Vec<&&Ctx> = ctxs
            .iter()
            .filter(|c| is_sanitizer(c, secret_types))
            .collect();
        let consumed = |tok: usize, var: Option<&str>| -> bool {
            sanitizers.iter().any(|s| {
                s.contains(tok)
                    || (s.method && var.is_some_and(|v| s.recv.iter().any(|r| r == v)))
                    || (s.method
                        && var.is_none()
                        && s.recv.first().is_some_and(|r| r == "<expr>")
                        && tok < s.name_tok)
            })
        };
        // Unconsumed tainted occurrences in this unit: (token, origin).
        let mut occ: Vec<(usize, String)> = Vec::new();
        for i in u.start..=u.end.min(tokens.len().saturating_sub(1)) {
            let t = &tokens[i];
            if t.is_comment() || t.kind != crate::lexer::TokenKind::Ident {
                continue;
            }
            if let Some(origin) = tainted.get(&t.text) {
                let field_pos =
                    crate::parser::prev_nc(tokens, i).is_some_and(|p| tokens[p].is_punct('.'));
                if !field_pos && !consumed(i, Some(&t.text)) {
                    occ.push((i, origin.clone()));
                }
            }
        }
        for ctx in &ctxs {
            if let Some(desc) = source_desc(ctx) {
                if !consumed(ctx.name_tok, None) {
                    occ.push((ctx.name_tok, desc));
                }
            } else if ctx.kind == CtxKind::Call && !is_sanitizer(ctx, secret_types) {
                // Calls returning secret-derived values are sources too.
                for callee in resolve_call(ws, f, ctx) {
                    if sums.fresh_ret[callee] && !consumed(ctx.name_tok, None) {
                        occ.push((
                            ctx.name_tok,
                            format!("{}() (secret-derived return)", ws.label(callee)),
                        ));
                        break;
                    }
                }
            }
        }
        occ.sort_by_key(|&(i, _)| i);
        // Direct sinks.
        for ctx in &ctxs {
            if let Some(sink) = sink_desc(ctx) {
                if let Some((_, origin)) = occ.iter().find(|&&(tok, _)| ctx.contains(tok)) {
                    sinks.push(SinkReach {
                        line: ctx.line,
                        origin: origin.clone(),
                        sink,
                        via: Vec::new(),
                    });
                }
            }
        }
        // Interprocedural arg passing.
        for ctx in &ctxs {
            if ctx.kind != CtxKind::Call
                || is_sanitizer(ctx, secret_types)
                || sink_desc(ctx).is_some()
            {
                continue;
            }
            let slices = arg_slices(ws, f, ctx);
            let mut call_ret_tainted: Option<String> = None;
            for callee in resolve_call(ws, f, ctx) {
                let g = &ws.fns[callee];
                let self_offset =
                    usize::from(ctx.method && g.params.first().is_some_and(|p| p.name == "self"));
                for (slot, &(s, e)) in slices.iter().enumerate() {
                    let hit = occ.iter().find(|&&(tok, _)| s <= tok && tok < e);
                    let Some((_, origin)) = hit else { continue };
                    let k = slot + self_offset;
                    if let Some(Some((sink, via))) =
                        sums.param_sink.get(callee).and_then(|v| v.get(k))
                    {
                        let mut chain = vec![ws.label(callee)];
                        chain.extend(via.iter().cloned());
                        sinks.push(SinkReach {
                            line: ctx.line,
                            origin: origin.clone(),
                            sink: sink.clone(),
                            via: chain,
                        });
                    }
                    if sums.param_ret.get(callee).and_then(|v| v.get(k)) == Some(&true)
                        && call_ret_tainted.is_none()
                    {
                        call_ret_tainted = Some(origin.clone());
                    }
                }
            }
            if let Some(origin) = call_ret_tainted {
                occ.push((ctx.name_tok, origin));
            }
        }
        // Propagation into bindings.
        if let Some(first) = occ.first() {
            if let Some(name) = &u.let_name {
                tainted
                    .entry(name.clone())
                    .or_insert_with(|| first.1.clone());
            } else {
                // Plain assignment `x = …;`.
                let nc: Vec<usize> = (u.start..=u.end.min(tokens.len().saturating_sub(1)))
                    .filter(|&i| !tokens[i].is_comment())
                    .collect();
                if nc.len() >= 2
                    && tokens[nc[0]].kind == crate::lexer::TokenKind::Ident
                    && tokens[nc[1]].is_punct('=')
                    && !tokens.get(nc[1] + 1).is_some_and(|t| t.is_punct('='))
                {
                    tainted
                        .entry(tokens[nc[0]].text.clone())
                        .or_insert_with(|| first.1.clone());
                }
            }
            // Return-value taint: explicit `return` or trailing expr.
            let is_return = tokens
                .get(u.start)
                .is_some_and(|t| t.is_ident("return") || t.is_ident("Ok") || t.is_ident("Some"))
                && u.let_name.is_none();
            let is_tail = ui + 1 == n_units
                && u.depth == 0
                && !tokens.get(u.end).is_some_and(|t| t.is_punct(';'));
            if is_return || is_tail {
                ret_tainted = true;
            }
        }
    }
    (sinks, ret_tainted)
}

/// Run T1 over every first-party fn, returning hits in fn order.
pub fn run_t1(ws: &WorkspaceIr, secret_types: &[&str]) -> Vec<crate::Hit> {
    // Fixpoint the summaries (bounded; the lattice is finite and small).
    let mut sums = Summaries {
        param_sink: ws.fns.iter().map(|f| vec![None; f.params.len()]).collect(),
        param_ret: ws.fns.iter().map(|f| vec![false; f.params.len()]).collect(),
        fresh_ret: vec![false; ws.fns.len()],
    };
    for _ in 0..6 {
        let mut changed = false;
        for (id, f) in ws.fns.iter().enumerate() {
            if f.body.is_none() || ws.files[f.file].vendor {
                continue;
            }
            let (_, fresh) = walk(ws, f, None, &sums, secret_types);
            if fresh && !sums.fresh_ret[id] {
                sums.fresh_ret[id] = true;
                changed = true;
            }
            for k in 0..f.params.len() {
                let name = f.params[k].name.clone();
                if name == "self" || name == "_" {
                    continue;
                }
                let (sinks, ret) = walk(ws, f, Some(&name), &sums, secret_types);
                if let Some(first) = sinks.first() {
                    if sums.param_sink[id][k].is_none() {
                        sums.param_sink[id][k] = Some((first.sink.clone(), first.via.clone()));
                        changed = true;
                    }
                }
                if ret && !sums.param_ret[id][k] {
                    sums.param_ret[id][k] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Reporting pass: sources only.
    let mut hits = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if f.body.is_none() || ws.files[f.file].vendor {
            continue;
        }
        let (sinks, _) = walk(ws, f, None, &sums, secret_types);
        for s in sinks {
            let via = if s.via.is_empty() {
                String::new()
            } else {
                format!(" via {}", s.via.join(" -> "))
            };
            let message = format!(
                "T1 secret taint: value from {} reaches {} in {}{}",
                s.origin,
                s.sink,
                ws.label(id),
                via
            );
            hits.push(crate::Hit::at(crate::Rule::T1, id, s.line, message));
        }
    }
    hits
}
