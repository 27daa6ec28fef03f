//! Lock acquisitions as the lock rules see them: a [`LockClass`] for
//! what the guard excludes, and a [`LockId`] for which lock it is.
//!
//! [`lock_class`] recognizes an acquisition (`x.lock()`, and `read()` /
//! `write()` on a receiver typed as an `RwLock`); [`lock_identity`]
//! names the lock object. C1 and C2 ([`crate::deadlock`]) judge
//! acquisitions by identity, B1 by class, and W1 recognizes a snapshot
//! publish as a write guard on a `published` field.

use crate::callgraph::resolve_recv_types;
use crate::ir::{Ctx, CtxKind, FnItem, WorkspaceIr};
use crate::lexer::{Token, TokenKind};
use std::fmt;

/// The lock classes the workspace uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockClass {
    /// `RwLock::read` — shared, not write-capable.
    RwRead,
    /// `RwLock::write` — exclusive.
    RwWrite,
    /// Any mutex (`Mutex::lock`).
    Mutex,
}

impl LockClass {
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
/// &Arc<Inner>` both yield `Inner.state`; an indexed field
/// (`pool.shards[i].lock()`) yields `Pool.shards[]` — one identity per
/// field, whatever the instance or index, which is the granularity a
/// whole-program lock-order graph needs. A lock held in a typed
/// parameter or local names nothing beyond its fn: it is `f::name`, so
/// two parameters are two locks.
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
        // itself; a typed param or local is its binding.
        if last == "self" {
            return f.impl_type.clone().map(LockId);
        }
        let name = last.trim_end_matches("[]");
        resolve_recv_types(ws, f, &[name.to_string()])?;
        return Some(LockId(format!("{}::{name}", f.qualified())));
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
