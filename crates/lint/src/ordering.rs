//! Rule **W1** — durability ordering on provider write paths.
//!
//! The group-commit WAL contract (DESIGN.md §7) is apply → log →
//! publish → ack: a snapshot may only become visible, and a success
//! response may only leave the engine, after the WAL append that
//! records the write is durable. The PR-6/7 machinery implements the
//! order; this rule pins it statically, in three checks:
//!
//! * **publish ordering** — in any fn that both publishes a snapshot
//!   (a `write()` lock on a `published` field, directly or through a
//!   callee) and performs a durable WAL append (`Wal::commit` /
//!   `Wal::append_durable`, directly or through a callee), every
//!   publish must sit at or after the first durable append in the
//!   statement sequence. Callee effects come from the one summary of
//!   [`crate::deadlock::LockFacts`], so the events carry witness chains.
//! * **ack ordering** — in any fn that performs a durable append, no
//!   `return Ok` may precede the first durable append: an early success
//!   ack promises durability the WAL has not delivered yet.
//! * **crash-point discipline** — `crash_point_hit(…)` models "the
//!   process dies here" for fault injection; its result must steer
//!   control. A bare `crash_point_hit(…);` statement discards the
//!   verdict, and an `if crash_point_hit(…) { … }` guard whose body
//!   never returns/breaks falls through and keeps mutating state the
//!   simulated crash should have frozen.

use crate::callgraph::resolve_call;
use crate::deadlock::LockFacts;
use crate::ir::{CtxKind, FnId, FnItem, Unit, WorkspaceIr};
use crate::locks::{lock_class, LockClass};
use crate::{Hit, Rule};

/// True for the fns that *are* the durable append: blocking until a
/// group-commit leader (possibly the caller) has fsynced past the
/// requested LSN.
pub(crate) fn is_durable_seed(f: &FnItem) -> bool {
    f.impl_type.as_deref() == Some("Wal") && (f.name == "commit" || f.name == "append_durable")
}

/// True for a direct snapshot-publish context: a write-capable lock on
/// a field named `published`.
pub(crate) fn is_publish_ctx(ws: &WorkspaceIr, f: &FnItem, ctx: &crate::ir::Ctx) -> bool {
    lock_class(ws, f, ctx) == Some(LockClass::RwWrite)
        && ctx.recv.last().is_some_and(|s| s == "published")
}

/// Format a witness suffix for an event that happens through a callee
/// chain; direct events need none.
fn via(chain: &[String]) -> String {
    if chain.len() <= 1 {
        String::new()
    } else {
        format!(" via {}", chain.join(" -> "))
    }
}

/// Run W1 over every first-party fn.
pub fn run_w1(ws: &WorkspaceIr, locks: &LockFacts) -> Vec<Hit> {
    let mut hits = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if ws.files[f.file].vendor || f.body.is_none() {
            continue;
        }
        check_ordering(ws, f, id, locks, &mut hits);
        check_crash_points(ws, f, id, &mut hits);
    }
    hits
}

/// The publish- and ack-ordering checks over one fn's statement
/// sequence. Event positions are the call-site token indices; a single
/// callee that both publishes and appends (a correct write path called
/// whole) yields both events at the same position, which the strict
/// `<` comparisons treat as ordered.
fn check_ordering(ws: &WorkspaceIr, f: &FnItem, id: FnId, locks: &LockFacts, hits: &mut Vec<Hit>) {
    let label = ws.label(id);
    // (token, line, chain) per event, in source order.
    let mut durables: Vec<(usize, u32, Vec<String>)> = Vec::new();
    let mut publishes: Vec<(usize, u32, Vec<String>)> = Vec::new();
    for ctx in &f.ctxs {
        if ctx.kind != CtxKind::Call {
            continue;
        }
        if is_publish_ctx(ws, f, ctx) {
            publishes.push((ctx.name_tok, ctx.line, vec![label.clone()]));
            continue;
        }
        for callee in resolve_call(ws, f, ctx) {
            let sum = locks.summary(callee);
            if let Some(chain) = &sum.durable {
                durables.push((ctx.name_tok, ctx.line, chain.clone()));
            }
            if let Some(chain) = &sum.publish {
                publishes.push((ctx.name_tok, ctx.line, chain.clone()));
            }
        }
    }
    let Some(&(first_durable, _, _)) = durables.first() else {
        return; // no durable append in scope: nothing to order against
    };
    for (tok, line, chain) in &publishes {
        if *tok < first_durable {
            let message = format!(
                "W1 durability ordering: snapshot publish precedes durable WAL append in {label}{}",
                via(chain)
            );
            hits.push(Hit::at(Rule::W1, id, *line, message));
        }
    }
    // An early `return Ok` acks a write the WAL has not made durable.
    // Scoped to the engine itself: a client-side early `return Ok` on
    // an empty batch is a no-op exit, not an ack — the contract only
    // binds ProviderEngine write paths (DESIGN.md §8).
    if f.impl_type.as_deref() != Some("ProviderEngine") {
        return;
    }
    let tokens = &ws.files[f.file].tokens;
    for u in &f.units {
        let Some(ret) = unit_head(tokens, u).filter(|&i| tokens[i].is_ident("return")) else {
            continue;
        };
        if ret >= first_durable {
            break; // units are in source order
        }
        let ok = crate::parser::next_nc(tokens, ret + 1)
            .is_some_and(|i| i <= u.end && tokens[i].is_ident("Ok"));
        if ok {
            let message = format!(
                "W1 durability ordering: success ack returned before durable WAL append in {label}"
            );
            hits.push(Hit::at(Rule::W1, id, tokens[ret].line, message));
        }
    }
}

/// First non-comment token of a unit.
fn unit_head(tokens: &[crate::lexer::Token], u: &Unit) -> Option<usize> {
    crate::parser::next_nc(tokens, u.start).filter(|&i| i <= u.end)
}

/// The crash-point discipline check: every `crash_point_hit(…)` call
/// must be consumed as a value or steer control out of the enclosing
/// block.
fn check_crash_points(ws: &WorkspaceIr, f: &FnItem, id: FnId, hits: &mut Vec<Hit>) {
    let label = ws.label(id);
    let tokens = &ws.files[f.file].tokens;
    for ctx in &f.ctxs {
        if ctx.kind != CtxKind::Call || ctx.callee != "crash_point_hit" {
            continue;
        }
        let Some((ui, u)) = f
            .units
            .iter()
            .enumerate()
            .find(|(_, u)| u.start <= ctx.name_tok && ctx.name_tok <= u.end)
        else {
            continue;
        };
        let Some(head) = unit_head(tokens, u) else {
            continue;
        };
        // `if crash_point_hit(…) { … }`: the guard body must leave the
        // enclosing block, otherwise execution continues past the
        // simulated crash. A negated or compound guard (`if !hit`,
        // `if armed && hit`) consumes the value and is not modeled.
        if tokens[head].is_ident("if") || tokens[head].is_ident("while") {
            let guarded = crate::parser::next_nc(tokens, head + 1)
                .is_some_and(|i| i <= ctx.name_tok && path_prefix_from(tokens, i, ctx.name_tok));
            if guarded && !guard_body_diverges(tokens, f, ui, u) {
                let message = format!(
                    "W1 crash-point discipline: execution continues past crash point guard in {label}"
                );
                hits.push(Hit::at(Rule::W1, id, ctx.line, message));
            }
            continue;
        }
        // `crash_point_hit(…);` as a whole statement (a `::` path
        // prefix still counts): the verdict is dropped on the floor.
        // Anything else — `let hit = …`, `.map(|()| …)`, `… && hit` —
        // is a value position, consumed by the surrounding expression.
        if !path_prefix_from(tokens, head, ctx.name_tok) {
            continue;
        }
        let terminated = match crate::parser::next_nc(tokens, ctx.args_end + 1) {
            Some(i) => i > u.end || tokens[i].is_punct(';'),
            None => true,
        };
        if terminated {
            let message =
                format!("W1 crash-point discipline: crash_point_hit result discarded in {label}");
            hits.push(Hit::at(Rule::W1, id, ctx.line, message));
        }
    }
}

/// True when some unit of the guard body (the units nested deeper than
/// `u`, up to the first back at `u`'s depth) leaves the enclosing
/// block.
fn guard_body_diverges(tokens: &[crate::lexer::Token], f: &FnItem, ui: usize, u: &Unit) -> bool {
    for nu in &f.units[ui + 1..] {
        if nu.depth <= u.depth {
            break;
        }
        let end = nu.end.min(tokens.len().saturating_sub(1));
        let escapes = (nu.start..=end).any(|i| {
            tokens[i].is_ident("return")
                || tokens[i].is_ident("break")
                || tokens[i].is_ident("continue")
                || tokens[i].is_ident("panic")
        });
        if escapes {
            return true;
        }
    }
    false
}

/// Statement keywords that disqualify a token run from being a bare
/// call-path prefix.
const STMT_KEYWORDS: &[&str] = &[
    "break", "continue", "else", "for", "if", "let", "loop", "match", "return", "while",
];

/// True when tokens `from..to` are a pure `a::b::` path prefix (no
/// statement keywords, only identifiers and `::`).
fn path_prefix_from(tokens: &[crate::lexer::Token], from: usize, to: usize) -> bool {
    (from..to).all(|i| {
        let t = &tokens[i];
        t.is_comment()
            || (t.kind == crate::lexer::TokenKind::Ident
                && !STMT_KEYWORDS.contains(&t.text.as_str()))
            || t.text == "::"
    })
}
