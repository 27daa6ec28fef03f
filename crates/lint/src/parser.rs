//! Item-level parser: from token streams to the [`crate::ir`] view.
//!
//! This is *not* a Rust parser — it recognizes exactly the item shapes
//! the interprocedural rules need (impl blocks, struct field lists, fn
//! signatures and bodies) and, inside bodies, the call-like contexts,
//! panic-capable constructs, and statement boundaries. Everything else
//! is skipped token by token, so arbitrary (even syntactically broken)
//! input degrades to "fewer items found", never a crash — the fuzz test
//! in `tests/interproc.rs` pins that.

use crate::ir::{Ctx, CtxKind, FileIr, FnItem, PanicKind, PanicSite, Param, Unit, WorkspaceIr};
use crate::lexer::{Token, TokenKind};
use std::collections::BTreeMap;

/// Reserved words that can precede `(` / `[` without forming a call or
/// an indexing expression.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "unsafe", "use", "where",
    "while", "yield",
];

/// True for identifiers that are Rust keywords (never call/index bases).
pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Build the workspace IR from `(path, vendor, source)` triples. Files
/// are processed in the given order; callers sort paths first so the IR
/// (and everything derived from it) is deterministic.
pub fn build_workspace(inputs: Vec<(String, bool, String)>) -> WorkspaceIr {
    build_workspace_tokens(
        inputs
            .into_iter()
            .map(|(path, vendor, src)| (path, vendor, crate::lexer::lex(&src)))
            .collect(),
    )
}

/// [`build_workspace`] over already-lexed token streams, so a driver
/// that also runs the token rules lexes each file exactly once.
pub fn build_workspace_tokens(inputs: Vec<(String, bool, Vec<Token>)>) -> WorkspaceIr {
    let mut ir = WorkspaceIr {
        files: Vec::new(),
        fns: Vec::new(),
        structs: BTreeMap::new(),
    };
    for (path, vendor, tokens) in inputs {
        let test_mask = crate::rules::test_mask(&tokens);
        let (waivers, _) = crate::rules::waivers(&tokens);
        let file_idx = ir.files.len();
        let raw = parse_items(&tokens, &test_mask);
        for s in raw.structs {
            ir.structs.entry(s.0).or_insert(s.1);
        }
        // Exclusion ranges: each fn's tokens minus any fn nested inside.
        let spans: Vec<(usize, usize)> = raw.fns.iter().map(|f| (f.fn_tok, f.item_end)).collect();
        for f in raw.fns {
            if f.item.is_test {
                continue;
            }
            let mut item = f.item;
            item.file = file_idx;
            if let Some((bs, be)) = item.body {
                let nested: Vec<(usize, usize)> = spans
                    .iter()
                    .copied()
                    .filter(|&(s, e)| s > bs && e <= be && (s, e) != (f.fn_tok, f.item_end))
                    .collect();
                let skip = |i: usize| test_mask[i] || nested.iter().any(|&(s, e)| s <= i && i <= e);
                item.ctxs = extract_ctxs(&tokens, bs, be, &skip);
                item.panics = extract_panics(&tokens, bs, be, &skip);
                item.units = compute_units(&tokens, bs, be, &skip);
            }
            ir.fns.push(item);
        }
        ir.files.push(FileIr {
            path,
            vendor,
            tokens,
            test_mask,
            waivers,
        });
    }
    crate::callgraph::annotate_locals(&mut ir);
    ir
}

/// A parsed fn plus the raw token extents needed for nesting exclusion.
struct RawFn {
    item: FnItem,
    /// Token index of the `fn` keyword.
    fn_tok: usize,
    /// Last token of the item (body `}` or the `;`).
    item_end: usize,
}

struct RawItems {
    fns: Vec<RawFn>,
    structs: Vec<(String, BTreeMap<String, Vec<String>>)>,
}

/// Index of the previous non-comment token before `i`, if any.
pub(crate) fn prev_nc(tokens: &[Token], i: usize) -> Option<usize> {
    (0..i).rev().find(|&k| !tokens[k].is_comment())
}

/// Index of the next non-comment token at or after `i`, if any.
pub(crate) fn next_nc(tokens: &[Token], i: usize) -> Option<usize> {
    (i..tokens.len()).find(|&k| !tokens[k].is_comment())
}

/// Matching close bracket for the opener at `open` (raw indices),
/// saturating to the last token when unbalanced.
pub(crate) fn close_of(tokens: &[Token], open: usize, oc: char, cc: char) -> usize {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(oc) {
            depth += 1;
        } else if t.is_punct(cc) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return k;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Skip a balanced `<…>` group opening at `open`, tolerating `->`
/// (whose `>` closes nothing). Returns the index after the final `>`.
fn skip_angles_raw(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut k = open;
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            let arrow = prev_nc(tokens, k).is_some_and(|p| tokens[p].is_punct('-'));
            if !arrow {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return k + 1;
                }
            }
        }
        k += 1;
    }
    tokens.len()
}

/// First pass: find impl/trait scopes, struct layouts, and fn items.
fn parse_items(tokens: &[Token], test_mask: &[bool]) -> RawItems {
    let mut out = RawItems {
        fns: Vec::new(),
        structs: Vec::new(),
    };
    // (type name, scope open index, scope close index)
    let mut impl_stack: Vec<(String, usize, usize)> = Vec::new();
    // Body spans of the fns the cursor is inside, innermost last.
    let mut fn_stack: Vec<(usize, usize)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_comment() {
            i += 1;
            continue;
        }
        while impl_stack.last().is_some_and(|&(_, _, close)| i > close) {
            impl_stack.pop();
        }
        while fn_stack.last().is_some_and(|&(_, end)| i > end) {
            fn_stack.pop();
        }
        if t.is_ident("impl") && is_item_position(tokens, i) {
            if let Some((ty, open)) = parse_impl_header(tokens, i) {
                let close = close_of(tokens, open, '{', '}');
                impl_stack.push((ty, open, close));
                i = open + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("trait") {
            // Treat a trait block like an impl scope named after the
            // trait, so default method bodies get a home.
            if let Some(name_i) = next_nc(tokens, i + 1) {
                if tokens[name_i].kind == TokenKind::Ident {
                    let name = tokens[name_i].text.clone();
                    let mut j = name_i + 1;
                    while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                        j += 1;
                    }
                    if j < tokens.len() && tokens[j].is_punct('{') {
                        let close = close_of(tokens, j, '{', '}');
                        impl_stack.push((name, j, close));
                        i = j + 1;
                        continue;
                    }
                }
            }
            i += 1;
            continue;
        }
        if t.is_ident("struct") {
            if let Some((name, fields, end)) = parse_struct(tokens, i) {
                out.structs.push((name, fields));
                i = end + 1;
                continue;
            }
            i += 1;
            continue;
        }
        if t.is_ident("fn") {
            // A fn whose innermost enclosing scope is a fn body is a local
            // item of that body, not a method of an impl around it.
            let impl_type = impl_stack.last().map(|&(ref ty, open, _)| (ty, open));
            let scope = fn_stack
                .last()
                .copied()
                .filter(|&(start, _)| impl_type.is_none_or(|(_, open)| open < start));
            let impl_type = impl_type.filter(|_| scope.is_none()).map(|(ty, _)| ty);
            if let Some(mut raw) = parse_fn(tokens, i, test_mask, impl_type) {
                raw.item.scope = scope;
                let resume = match raw.item.body {
                    Some((bs, be)) => {
                        fn_stack.push((bs, be));
                        bs // descend into the body: nested fns
                    }
                    None => raw.item_end + 1,
                };
                out.fns.push(raw);
                i = resume;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// `impl` in item position (not `-> impl Trait` / `&impl Trait`).
fn is_item_position(tokens: &[Token], i: usize) -> bool {
    match prev_nc(tokens, i) {
        None => true,
        Some(p) => {
            let t = &tokens[p];
            t.is_punct('}')
                || t.is_punct(';')
                || t.is_punct(']')
                || t.is_ident("unsafe")
                || t.is_ident("pub")
        }
    }
}

/// Parse `impl [<…>] Path [for Path] {` → (implementing type, `{` idx).
fn parse_impl_header(tokens: &[Token], impl_tok: usize) -> Option<(String, usize)> {
    let mut j = next_nc(tokens, impl_tok + 1)?;
    if tokens[j].is_punct('<') {
        j = skip_angles_raw(tokens, j);
    }
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut angle = 0usize;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_comment() {
            j += 1;
            continue;
        }
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = angle.saturating_sub(1);
        } else if t.is_punct('{') {
            let ty = if saw_for { after_for } else { last_ident };
            return ty.map(|ty| (ty, j));
        } else if t.is_punct(';') {
            return None;
        } else if angle == 0 && t.is_ident("for") {
            saw_for = true;
        } else if angle == 0 && t.is_ident("where") {
            // Type already collected; scan on to the `{`.
        } else if angle == 0 && t.kind == TokenKind::Ident && !is_keyword(&t.text) {
            if saw_for {
                if after_for.is_none()
                    || prev_nc(tokens, j).is_some_and(|p| tokens[p].is_punct(':'))
                {
                    after_for = Some(t.text.clone());
                }
            } else {
                last_ident = Some(t.text.clone());
            }
        }
        j += 1;
    }
    None
}

/// Parse `struct Name …` → (name, field → type idents, item end idx).
fn parse_struct(
    tokens: &[Token],
    struct_tok: usize,
) -> Option<(String, BTreeMap<String, Vec<String>>, usize)> {
    let name_i = next_nc(tokens, struct_tok + 1)?;
    if tokens[name_i].kind != TokenKind::Ident {
        return None;
    }
    let name = tokens[name_i].text.clone();
    let mut j = next_nc(tokens, name_i + 1)?;
    if tokens[j].is_punct('<') {
        j = skip_angles_raw(tokens, j);
        j = next_nc(tokens, j)?;
    }
    let mut fields = BTreeMap::new();
    if tokens[j].is_punct(';') || tokens[j].is_punct('(') {
        // Unit or tuple struct: no named fields; skip to the `;`.
        let mut k = j;
        while k < tokens.len() && !tokens[k].is_punct(';') {
            k += 1;
        }
        return Some((name, fields, k));
    }
    if tokens[j].is_ident("where") {
        while j < tokens.len() && !tokens[j].is_punct('{') {
            j += 1;
        }
    }
    if !tokens.get(j)?.is_punct('{') {
        return None;
    }
    let close = close_of(tokens, j, '{', '}');
    // Fields: `[attrs] [pub[(…)]] name : Type ,`
    let mut k = j + 1;
    while k < close {
        let t = &tokens[k];
        if t.is_comment() || t.is_punct(',') {
            k += 1;
            continue;
        }
        if t.is_punct('#') {
            if let Some(open) = next_nc(tokens, k + 1) {
                if tokens[open].is_punct('[') {
                    k = close_of(tokens, open, '[', ']') + 1;
                    continue;
                }
            }
            k += 1;
            continue;
        }
        if t.is_ident("pub") {
            k += 1;
            if let Some(p) = next_nc(tokens, k) {
                if tokens[p].is_punct('(') {
                    k = close_of(tokens, p, '(', ')') + 1;
                }
            }
            continue;
        }
        if t.kind == TokenKind::Ident {
            let field = t.text.clone();
            let colon = next_nc(tokens, k + 1);
            if colon.is_some_and(|c| tokens[c].is_punct(':')) {
                // Type tokens up to the field-separating comma.
                let mut ty = Vec::new();
                let mut d_par = 0i32;
                let mut d_ang = 0i32;
                let mut m = colon.unwrap_or(k) + 1;
                while m < close {
                    let tt = &tokens[m];
                    if tt.is_punct('(') || tt.is_punct('[') {
                        d_par += 1;
                    } else if tt.is_punct(')') || tt.is_punct(']') {
                        d_par -= 1;
                    } else if tt.is_punct('<') {
                        d_ang += 1;
                    } else if tt.is_punct('>') {
                        d_ang -= 1;
                    } else if tt.is_punct(',') && d_par == 0 && d_ang <= 0 {
                        break;
                    } else if tt.kind == TokenKind::Ident && !is_keyword(&tt.text) {
                        ty.push(tt.text.clone());
                    }
                    m += 1;
                }
                fields.insert(field, ty);
                k = m;
                continue;
            }
        }
        k += 1;
    }
    Some((name, fields, close))
}

/// Parse one fn item starting at the `fn` keyword.
fn parse_fn(
    tokens: &[Token],
    fn_tok: usize,
    test_mask: &[bool],
    impl_type: Option<&String>,
) -> Option<RawFn> {
    let name_i = next_nc(tokens, fn_tok + 1)?;
    if tokens[name_i].kind != TokenKind::Ident {
        return None; // `fn(…)` pointer type, not an item
    }
    let name = tokens[name_i].text.clone();
    let mut j = next_nc(tokens, name_i + 1)?;
    if tokens[j].is_punct('<') {
        j = skip_angles_raw(tokens, j);
        j = next_nc(tokens, j)?;
    }
    if !tokens[j].is_punct('(') {
        return None;
    }
    let params_close = close_of(tokens, j, '(', ')');
    let params = parse_params(tokens, j + 1, params_close, impl_type);

    // Return type + where clause: scan to the body `{` or decl `;`.
    let mut ret = Vec::new();
    let mut k = params_close + 1;
    let mut in_ret = false;
    let mut body = None;
    let mut item_end = tokens.len().saturating_sub(1);
    while k < tokens.len() {
        let t = &tokens[k];
        if t.is_comment() {
            k += 1;
            continue;
        }
        if t.is_punct('{') {
            let close = close_of(tokens, k, '{', '}');
            body = Some((k + 1, close.saturating_sub(1)));
            item_end = close;
            break;
        }
        if t.is_punct(';') {
            item_end = k;
            break;
        }
        if t.is_ident("where") {
            in_ret = false;
        } else if t.is_punct('>') && prev_nc(tokens, k).is_some_and(|p| tokens[p].is_punct('-')) {
            in_ret = true;
        } else if in_ret && t.kind == TokenKind::Ident && !is_keyword(&t.text) {
            ret.push(t.text.clone());
        }
        k += 1;
    }

    Some(RawFn {
        item: FnItem {
            file: 0,
            name,
            impl_type: impl_type.cloned(),
            scope: None,
            is_pub: fn_visibility_is_pub(tokens, fn_tok),
            is_test: test_mask.get(fn_tok).copied().unwrap_or(false),
            line: tokens[fn_tok].line,
            params,
            ret,
            body,
            ctxs: Vec::new(),
            panics: Vec::new(),
            units: Vec::new(),
            locals: BTreeMap::new(),
        },
        fn_tok,
        item_end,
    })
}

/// True when the `fn` item carries a `pub` qualifier (any form).
fn fn_visibility_is_pub(tokens: &[Token], fn_tok: usize) -> bool {
    let mut k = fn_tok;
    loop {
        let Some(p) = prev_nc(tokens, k) else {
            return false;
        };
        let t = &tokens[p];
        if t.is_ident("const")
            || t.is_ident("unsafe")
            || t.is_ident("async")
            || t.is_ident("extern")
            || t.kind == TokenKind::Literal
        {
            k = p;
        } else if t.is_punct(')') {
            // Possibly the close of `pub(crate)`; walk to its `(`.
            let mut depth = 0usize;
            let mut m = p;
            loop {
                if tokens[m].is_punct(')') {
                    depth += 1;
                } else if tokens[m].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if m == 0 {
                    return false;
                }
                m -= 1;
            }
            k = m;
        } else {
            return t.is_ident("pub");
        }
    }
}

/// Parse the parameter list between `(` and `)` (exclusive indices).
fn parse_params(
    tokens: &[Token],
    start: usize,
    end: usize,
    impl_type: Option<&String>,
) -> Vec<Param> {
    let mut params = Vec::new();
    let mut piece: Vec<usize> = Vec::new();
    let mut d_par = 0i32;
    let mut d_ang = 0i32;
    let mut flush = |piece: &mut Vec<usize>| {
        if piece.is_empty() {
            return;
        }
        params.push(param_from(tokens, piece, impl_type));
        piece.clear();
    };
    let mut k = start;
    while k < end {
        let t = &tokens[k];
        if t.is_comment() {
            k += 1;
            continue;
        }
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            d_par += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            d_par -= 1;
        } else if t.is_punct('<') {
            d_ang += 1;
        } else if t.is_punct('>') {
            if !prev_nc(tokens, k).is_some_and(|p| tokens[p].is_punct('-')) {
                d_ang -= 1;
            }
        } else if t.is_punct(',') && d_par == 0 && d_ang <= 0 {
            flush(&mut piece);
            k += 1;
            continue;
        }
        piece.push(k);
        k += 1;
    }
    flush(&mut piece);
    params
}

/// One parameter from its token indices.
fn param_from(tokens: &[Token], piece: &[usize], impl_type: Option<&String>) -> Param {
    // Attributes (`#[…]`) are rare on params; strip a leading group.
    let mut idx = 0usize;
    if piece.first().is_some_and(|&i| tokens[i].is_punct('#')) {
        let mut depth = 0usize;
        for (n, &i) in piece.iter().enumerate() {
            if tokens[i].is_punct('[') {
                depth += 1;
            } else if tokens[i].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    idx = n + 1;
                    break;
                }
            }
        }
    }
    let rest = &piece[idx.min(piece.len())..];
    let colon = rest.iter().position(|&i| {
        tokens[i].is_punct(':') && !tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
    });
    let (pat, ty_toks) = match colon {
        Some(c) => (&rest[..c], &rest[c + 1..]),
        None => (rest, &rest[rest.len()..]),
    };
    let is_self = pat.iter().any(|&i| tokens[i].is_ident("self"));
    let name = if is_self {
        "self".to_string()
    } else {
        pat.iter()
            .map(|&i| &tokens[i])
            .find(|t| {
                t.kind == TokenKind::Ident
                    && !t.is_ident("mut")
                    && !t.is_ident("ref")
                    && !is_keyword(&t.text)
            })
            .map(|t| t.text.clone())
            .unwrap_or_else(|| "_".to_string())
    };
    let mut ty: Vec<String> = ty_toks
        .iter()
        .map(|&i| &tokens[i])
        .filter(|t| t.kind == TokenKind::Ident && !is_keyword(&t.text))
        .map(|t| t.text.clone())
        .collect();
    if is_self {
        if let Some(t) = impl_type {
            ty.push(t.clone());
        }
    }
    Param { name, ty }
}

/// Second pass over a body: call-like contexts.
fn extract_ctxs(
    tokens: &[Token],
    start: usize,
    end: usize,
    skip: &dyn Fn(usize) -> bool,
) -> Vec<Ctx> {
    let mut out = Vec::new();
    let mut i = start;
    while i <= end && i < tokens.len() {
        if tokens[i].is_comment() || skip(i) || tokens[i].kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        let name = &tokens[i].text;
        let Some(j) = next_nc(tokens, i + 1) else {
            break;
        };
        // Macro call: `name!(…)` / `name![…]` / `name!{…}`.
        if tokens[j].is_punct('!') && name != "macro_rules" {
            if let Some(open) = next_nc(tokens, j + 1) {
                let (oc, cc) = match tokens[open].text.chars().next() {
                    Some('(') => ('(', ')'),
                    Some('[') => ('[', ']'),
                    Some('{') => ('{', '}'),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let close = close_of(tokens, open, oc, cc);
                out.push(Ctx {
                    kind: CtxKind::MacroCall,
                    callee: name.clone(),
                    path: Vec::new(),
                    recv: Vec::new(),
                    method: false,
                    line: tokens[i].line,
                    name_tok: i,
                    args_start: open + 1,
                    args_end: close,
                });
                i += 1;
                continue;
            }
        }
        // Function / method call: `name(…)`.
        if tokens[j].is_punct('(') && !is_keyword(name) {
            let is_def = prev_nc(tokens, i).is_some_and(|p| tokens[p].is_ident("fn"));
            if !is_def {
                let close = close_of(tokens, j, '(', ')');
                let (path, recv, method) = callee_context(tokens, i);
                out.push(Ctx {
                    kind: CtxKind::Call,
                    callee: name.clone(),
                    path,
                    recv,
                    method,
                    line: tokens[i].line,
                    name_tok: i,
                    args_start: j + 1,
                    args_end: close,
                });
            }
            i += 1;
            continue;
        }
        // Struct literal: `Type { … }` (uppercase head only, and not a
        // `match`/`for`/`if`/`while` scrutinee or loop body).
        if tokens[j].is_punct('{') && name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            let (path, _, _) = callee_context(tokens, i);
            let blocked = head_precedent(tokens, i, &path);
            if !blocked {
                let close = close_of(tokens, j, '{', '}');
                out.push(Ctx {
                    kind: CtxKind::StructLit,
                    callee: name.clone(),
                    path,
                    recv: Vec::new(),
                    method: false,
                    line: tokens[i].line,
                    name_tok: i,
                    args_start: j + 1,
                    args_end: close,
                });
            }
        }
        i += 1;
    }
    out
}

/// True when the path starting before name token `i` follows a keyword
/// that makes `Ident {` a block, not a struct literal.
fn head_precedent(tokens: &[Token], name_tok: usize, path: &[String]) -> bool {
    // Walk back over the `::` path to its first segment.
    let mut k = name_tok;
    for _ in 0..path.len() {
        let Some(c2) = prev_nc(tokens, k) else {
            return false;
        };
        let Some(c1) = prev_nc(tokens, c2) else {
            return false;
        };
        if !(tokens[c2].is_punct(':') && tokens[c1].is_punct(':')) {
            break;
        }
        let Some(seg) = prev_nc(tokens, c1) else {
            return false;
        };
        k = seg;
    }
    match prev_nc(tokens, k) {
        Some(p) => {
            let t = &tokens[p];
            t.is_ident("match")
                || t.is_ident("in")
                || t.is_ident("if")
                || t.is_ident("while")
                || t.is_ident("return")
                || t.is_ident("else")
        }
        None => false,
    }
}

/// Leading path segments, receiver chain, and method-ness of the call
/// whose name token is at `i`.
fn callee_context(tokens: &[Token], i: usize) -> (Vec<String>, Vec<String>, bool) {
    let mut path: Vec<String> = Vec::new();
    let mut k = i;
    // Collect `Seg::Seg::name` backwards.
    loop {
        let Some(c2) = prev_nc(tokens, k) else {
            return (path, Vec::new(), false);
        };
        if !tokens[c2].is_punct(':') {
            break;
        }
        let Some(c1) = prev_nc(tokens, c2) else {
            break;
        };
        if !tokens[c1].is_punct(':') {
            break;
        }
        let Some(seg) = prev_nc(tokens, c1) else {
            break;
        };
        if tokens[seg].kind == TokenKind::Ident {
            path.insert(0, tokens[seg].text.clone());
            k = seg;
        } else if tokens[seg].is_punct('>') {
            // `Type::<T>::name` turbofish on the path — give up on
            // segments but keep what we have.
            break;
        } else {
            break;
        }
    }
    // Method call: a `.` directly before the (path-less) name.
    if path.is_empty() {
        if let Some(p) = prev_nc(tokens, i) {
            if tokens[p].is_punct('.') {
                let mut recv: Vec<String> = Vec::new();
                let mut m = p;
                while let Some(r) = prev_nc(tokens, m) {
                    let t = &tokens[r];
                    if t.kind == TokenKind::Ident || t.kind == TokenKind::Number {
                        recv.insert(0, t.text.clone());
                        let Some(d) = prev_nc(tokens, r) else { break };
                        if tokens[d].is_punct('.') {
                            m = d;
                            continue;
                        }
                        break;
                    }
                    // `foo().bar(…)`, `x?[i].bar(…)`, … — complex base.
                    recv.insert(0, "<expr>".to_string());
                    break;
                }
                return (path, recv, true);
            }
        }
    }
    (path, Vec::new(), false)
}

/// Second pass over a body: panic-capable constructs for P3.
fn extract_panics(
    tokens: &[Token],
    start: usize,
    end: usize,
    skip: &dyn Fn(usize) -> bool,
) -> Vec<PanicSite> {
    let mut out = Vec::new();
    let mut i = start;
    while i <= end && i < tokens.len() {
        let t = &tokens[i];
        if t.is_comment() || skip(i) {
            i += 1;
            continue;
        }
        if t.kind == TokenKind::Ident && (t.text == "unwrap" || t.text == "expect") {
            let is_method = prev_nc(tokens, i).is_some_and(|p| tokens[p].is_punct('.'))
                && next_nc(tokens, i + 1).is_some_and(|n| tokens[n].is_punct('('));
            if is_method {
                out.push(PanicSite {
                    kind: if t.text == "unwrap" {
                        PanicKind::Unwrap
                    } else {
                        PanicKind::Expect
                    },
                    line: t.line,
                    tok: i,
                });
            }
        } else if t.is_punct('[') {
            if let Some(p) = prev_nc(tokens, i) {
                let prev = &tokens[p];
                let base = match prev.kind {
                    TokenKind::Ident => !is_keyword(&prev.text),
                    TokenKind::Number => true,
                    TokenKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                    _ => false,
                };
                if base && !full_range_index(tokens, i) {
                    out.push(PanicSite {
                        kind: PanicKind::Index,
                        line: t.line,
                        tok: i,
                    });
                }
            }
        }
        i += 1;
    }
    out
}

/// `x[..]` — a full-range slice never panics; skip it.
fn full_range_index(tokens: &[Token], open: usize) -> bool {
    let close = close_of(tokens, open, '[', ']');
    let inner: Vec<&Token> = tokens[open + 1..close]
        .iter()
        .filter(|t| !t.is_comment())
        .collect();
    inner.len() == 2 && inner.iter().all(|t| t.is_punct('.'))
}

/// Statement-ish segmentation of a body (see [`Unit`]).
fn compute_units(
    tokens: &[Token],
    start: usize,
    end: usize,
    skip: &dyn Fn(usize) -> bool,
) -> Vec<Unit> {
    struct Level {
        is_match: bool,
        paren: i32,
    }
    let mut units = Vec::new();
    let mut levels: Vec<Level> = vec![Level {
        is_match: false,
        paren: 0,
    }];
    let mut cur: Option<(usize, u32)> = None; // (start tok, depth)
    let mut cur_has_match = false;
    let mut i = start;
    let finish = |units: &mut Vec<Unit>, cur: &mut Option<(usize, u32)>, last: usize| {
        if let Some((s, d)) = cur.take() {
            if last >= s {
                units.push(make_unit(tokens, s, last, d));
            }
        }
    };
    while i <= end && i < tokens.len() {
        let t = &tokens[i];
        if t.is_comment() || skip(i) {
            i += 1;
            continue;
        }
        if t.is_punct('{') {
            finish(&mut units, &mut cur, i.saturating_sub(1));
            levels.push(Level {
                is_match: cur_has_match,
                paren: 0,
            });
            cur_has_match = false;
            i += 1;
            continue;
        }
        if t.is_punct('}') {
            finish(&mut units, &mut cur, i.saturating_sub(1));
            if levels.len() > 1 {
                levels.pop();
            }
            cur_has_match = false;
            i += 1;
            continue;
        }
        let top = levels.last_mut().map(|l| (l.is_match, &mut l.paren));
        if let Some((is_match, paren)) = top {
            if t.is_punct('(') || t.is_punct('[') {
                *paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                *paren -= 1;
            } else if t.is_punct(';') && *paren == 0 {
                finish(&mut units, &mut cur, i);
                cur_has_match = false;
                i += 1;
                continue;
            } else if t.is_punct(',') && *paren == 0 && is_match {
                finish(&mut units, &mut cur, i.saturating_sub(1));
                cur_has_match = false;
                i += 1;
                continue;
            } else if t.is_punct('=')
                && *paren == 0
                && tokens.get(i + 1).is_some_and(|n| n.is_punct('>'))
            {
                // Match-arm `=>`: the pattern is its own unit.
                finish(&mut units, &mut cur, i.saturating_sub(1));
                cur_has_match = false;
                i += 2;
                continue;
            }
        }
        if cur.is_none() {
            cur = Some((i, levels.len() as u32 - 1));
            cur_has_match = false;
        }
        if t.is_ident("match") {
            cur_has_match = true;
        }
        i += 1;
    }
    finish(
        &mut units,
        &mut cur,
        end.min(tokens.len().saturating_sub(1)),
    );
    units
}

/// Build one [`Unit`], detecting `let` bindings and deref-copy RHSes.
fn make_unit(tokens: &[Token], start: usize, end: usize, depth: u32) -> Unit {
    let nc: Vec<usize> = (start..=end).filter(|&i| !tokens[i].is_comment()).collect();
    let mut let_name = None;
    let mut pat_name = None;
    let mut let_ty = Vec::new();
    let mut rhs_start = None;
    let mut deref_rhs = false;
    // `let …` either opens the unit or follows a leading `if`/`while`
    // (a refutable-pattern binding: `if let Some(x) = …`).
    let mut k = 0usize;
    let refutable = nc
        .first()
        .is_some_and(|&i| tokens[i].is_ident("if") || tokens[i].is_ident("while"));
    if refutable {
        k += 1;
    }
    if nc.get(k).is_some_and(|&i| tokens[i].is_ident("let")) {
        k += 1;
        if nc.get(k).is_some_and(|&i| tokens[i].is_ident("mut")) {
            k += 1;
        }
        let name_at = |ix: usize| -> Option<String> {
            let &i = nc.get(ix)?;
            (tokens[i].kind == TokenKind::Ident && !is_keyword(&tokens[i].text))
                .then(|| tokens[i].text.clone())
        };
        // `Wrapper([mut] name)` — a one-ident refutable pattern
        // (`Some(x)`, `Ok(mut x)`); deeper patterns (`(a, b)`,
        // `Struct { .. }`) stay unnamed and are treated as temporaries.
        if nc.get(k + 1).is_some_and(|&i| tokens[i].is_punct('(')) {
            let mut m = k + 2;
            if nc.get(m).is_some_and(|&i| tokens[i].is_ident("mut")) {
                m += 1;
            }
            if nc.get(m + 1).is_some_and(|&i| tokens[i].is_punct(')')) {
                pat_name = name_at(m);
            }
        } else if let Some(name) = name_at(k) {
            if refutable {
                pat_name = Some(name);
            } else {
                let_name = Some(name);
                // Explicit `let name: Type = …` annotation (a lone `:`,
                // not a `::` path): collect idents up to the `=`.
                if nc.get(k + 1).is_some_and(|&i| {
                    tokens[i].is_punct(':')
                        && !nc.get(k + 2).is_some_and(|&n| tokens[n].is_punct(':'))
                }) {
                    for &i in &nc[k + 2..] {
                        let t = &tokens[i];
                        if t.is_punct('=') {
                            break;
                        }
                        if t.kind == TokenKind::Ident && !is_keyword(&t.text) {
                            let_ty.push(t.text.clone());
                        }
                    }
                }
            }
        }
        // First top-level `=` that is not `==`, `=>`, `<=`, `>=`, `!=`.
        let mut d = 0i32;
        for (n, &i) in nc.iter().enumerate() {
            let t = &tokens[i];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                d += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                d -= 1;
            } else if d == 0 && t.is_punct('=') {
                let prev_bad = n > 0
                    && matches!(
                        tokens[nc[n - 1]].text.chars().next(),
                        Some('=' | '!' | '<' | '>')
                    );
                let next_bad = nc
                    .get(n + 1)
                    .is_some_and(|&x| tokens[x].is_punct('=') || tokens[x].is_punct('>'));
                if !prev_bad && !next_bad {
                    if let Some(&r) = nc.get(n + 1) {
                        rhs_start = Some(r);
                        deref_rhs = tokens[r].is_punct('*');
                    }
                    break;
                }
            }
        }
    }
    Unit {
        start,
        end,
        depth,
        let_name,
        pat_name,
        let_ty,
        rhs_start,
        deref_rhs,
    }
}
