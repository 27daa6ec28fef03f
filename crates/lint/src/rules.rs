//! The seven token-level dasp lint rules, evaluated over a lexed
//! token stream.
//!
//! | Rule | What it enforces |
//! |------|------------------|
//! | S1   | secret-bearing types never derive/impl `Debug`/`Display` and never appear in format/log macro arguments |
//! | S2   | only allowlisted share-carrying DTOs may appear in a `WireWriter`/`WireReader` function signature |
//! | P1   | no `.unwrap()`/`.expect()`/`panic!`/`todo!`/`unimplemented!` in provider/transport/reconstruction code |
//! | P2   | no lossy `as` numeric casts in field/bigint arithmetic |
//! | D1   | no wall-clock reads (`Instant::now`, `SystemTime`) in deterministic codec crates |
//! | U1   | every `unsafe` carries a `// SAFETY:` comment |
//! | E1   | no silently discarded `Result` (`let _ = tx.send(…)`, bare `.ok();`) from sends/appends in net/server/storage |
//!
//! Waivers: a comment `// dasp::allow(RULE): reason` suppresses `RULE` on
//! its own line and on the next non-comment code line. `// SAFETY: …`
//! plays the same role for U1. Code under `#[cfg(test)]` / `#[test]` is
//! exempt from every rule.

use crate::lexer::{Token, TokenKind};
use crate::{Config, Finding, Rule};
use std::collections::{BTreeSet, HashMap};

/// Macros whose arguments S1 scans for secret-type identifiers.
pub(crate) const FMT_MACROS: &[&str] = &[
    "format",
    "print",
    "println",
    "eprint",
    "eprintln",
    "write",
    "writeln",
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "dbg",
    "log",
    "trace",
    "debug",
    "info",
    "warn",
    "error",
];

/// Cast targets P2 treats as lossy. Widening (`u128`/`i128`) and
/// platform-size (`usize`/`isize`) targets stay legal by design.
const LOSSY_TARGETS: &[&str] = &[
    "u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64", "f32", "f64",
];

/// Identifiers S2 always accepts in a wire-adjacent signature: generic
/// machinery and std types that carry no payload of their own.
const S2_NEUTRAL: &[&str] = &[
    "Option",
    "Vec",
    "Result",
    "Self",
    "String",
    "WireError",
    "Fn",
    "FnMut",
    "FnOnce",
    "Ok",
    "Err",
    "Box",
    "Iterator",
    "IntoIterator",
    "ExactSizeIterator",
    "Item",
    "Borrow",
];

/// Analyze one file's tokens under `cfg`. `path` uses `/` separators and
/// is only consulted for rule scoping, never opened.
pub fn check(path: &str, tokens: &[Token], cfg: &Config) -> Vec<Finding> {
    let masked = test_mask(tokens);
    let (allow, safety) = waivers(tokens);
    // Comment-free, test-free view; rules reason over adjacency here.
    let code: Vec<usize> = (0..tokens.len())
        .filter(|&i| !masked[i] && !tokens[i].is_comment())
        .collect();

    let mut findings = Vec::new();
    let mut emit = |rule: Rule, line: u32, message: String| {
        let waived = allow
            .get(&line)
            .is_some_and(|rules| rules.contains(rule.as_str()))
            || (rule == Rule::U1 && safety.contains(&line));
        findings.push(Finding {
            rule,
            file: path.to_string(),
            line,
            message,
            waived,
        });
    };

    if path.starts_with("vendor/") {
        // Relaxed vendor ruleset: SAFETY-comment hygiene only here; the
        // interprocedural pass adds P3 panic reachability.
        u1_unsafe(tokens, &code, &mut emit);
        return findings;
    }

    s1_derives_and_impls(tokens, &code, cfg, &mut emit);
    s1_macro_args(tokens, &code, cfg, &mut emit);
    if cfg.in_scope(Rule::S2, path) {
        s2_wire_signatures(tokens, &code, cfg, &mut emit);
    }
    if cfg.in_scope(Rule::P1, path) {
        p1_panics(tokens, &code, &mut emit);
    }
    if cfg.in_scope(Rule::P2, path) {
        p2_lossy_casts(tokens, &code, &mut emit);
    }
    if cfg.in_scope(Rule::D1, path) {
        d1_wall_clock(tokens, &code, &mut emit);
    }
    if cfg.in_scope(Rule::E1, path) {
        e1_discarded_results(tokens, &code, &mut emit);
    }
    u1_unsafe(tokens, &code, &mut emit);
    findings
}

/// Mark every token under a `#[cfg(test)]` or `#[test]` item.
pub(crate) fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut masked = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') || !matches!(tokens.get(i + 1), Some(t) if t.is_punct('[')) {
            i += 1;
            continue;
        }
        let Some(close) = match_bracket(tokens, i + 1, '[', ']') else {
            break;
        };
        let body: String = tokens[i + 2..close]
            .iter()
            .filter(|t| !t.is_comment())
            .map(|t| t.text.as_str())
            .collect();
        if body != "cfg(test)" && body != "test" {
            i = close + 1;
            continue;
        }
        // Gate found: mask through the guarded item — up to `;` for a
        // declaration, or through the matching `}` of its body.
        let mut j = close + 1;
        let mut end = tokens.len().saturating_sub(1);
        while j < tokens.len() {
            if tokens[j].is_punct(';') {
                end = j;
                break;
            }
            if tokens[j].is_punct('{') {
                end = match_bracket(tokens, j, '{', '}').unwrap_or(tokens.len() - 1);
                break;
            }
            j += 1;
        }
        for slot in masked.iter_mut().take(end + 1).skip(i) {
            *slot = true;
        }
        i = end + 1;
    }
    masked
}

/// Index of the token closing the bracket opened at `open` (which must
/// hold `open_c`), counting nesting; `None` when unbalanced.
pub(crate) fn match_bracket(
    tokens: &[Token],
    open: usize,
    open_c: char,
    close_c: char,
) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Build the waiver maps: line → set of waived rule names, and the set
/// of lines sanctioned by a `SAFETY:` comment. Each waiver covers the
/// comment's own line plus the next line holding non-comment code.
pub(crate) fn waivers(tokens: &[Token]) -> (HashMap<u32, BTreeSet<String>>, BTreeSet<u32>) {
    let code_lines: BTreeSet<u32> = tokens
        .iter()
        .filter(|t| !t.is_comment())
        .map(|t| t.line)
        .collect();
    let covered = |line: u32| -> Vec<u32> {
        let mut v = vec![line];
        if let Some(&next) = code_lines.iter().find(|&&l| l > line) {
            v.push(next);
        }
        v
    };

    let mut allow: HashMap<u32, BTreeSet<String>> = HashMap::new();
    let mut safety: BTreeSet<u32> = BTreeSet::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        if let Some(rest) = t.text.split("dasp::allow(").nth(1) {
            if let Some(inner) = rest.split(')').next() {
                for rule in inner.split(',').map(str::trim).filter(|r| !r.is_empty()) {
                    for line in covered(t.line) {
                        allow.entry(line).or_default().insert(rule.to_string());
                    }
                }
            }
        }
        let body = t
            .text
            .trim_start_matches('/')
            .trim_start_matches('*')
            .trim_start();
        if body.starts_with("SAFETY:") {
            for line in covered(t.line) {
                safety.insert(line);
            }
        }
    }
    (allow, safety)
}

/// S1 part one: `#[derive(Debug, …)]` on a secret type, and
/// `impl Debug/Display for SecretType`.
fn s1_derives_and_impls(
    tokens: &[Token],
    code: &[usize],
    cfg: &Config,
    emit: &mut impl FnMut(Rule, u32, String),
) {
    let tok = |k: usize| &tokens[code[k]];
    let n = code.len();
    let mut k = 0;
    while k < n {
        // #[derive(…)] — collect the derived trait names.
        if tok(k).is_punct('#')
            && k + 2 < n
            && tok(k + 1).is_punct('[')
            && tok(k + 2).is_ident("derive")
        {
            let attr_line = tok(k).line;
            let mut j = k + 3;
            let mut derives_debug = false;
            let mut depth = 0usize;
            while j < n {
                if tok(j).is_punct('[') || tok(j).is_punct('(') {
                    depth += 1;
                } else if tok(j).is_punct(']') || tok(j).is_punct(')') {
                    if tok(j).is_punct(']') && depth == 0 {
                        break;
                    }
                    depth = depth.saturating_sub(1);
                    if tok(j).is_punct(']') && depth == 0 {
                        break;
                    }
                } else if tok(j).kind == TokenKind::Ident
                    && (tok(j).text == "Debug" || tok(j).text == "Display")
                {
                    derives_debug = true;
                }
                j += 1;
            }
            if derives_debug {
                if let Some(name) = struct_name_after(tokens, code, j) {
                    if cfg.secret_types.contains(&name.as_str()) {
                        emit(
                            Rule::S1,
                            attr_line,
                            format!("secret-bearing type `{name}` derives Debug/Display; it must redact via a manual impl"),
                        );
                    }
                }
            }
            k = j + 1;
            continue;
        }
        // impl [<…>] TraitPath for TypeName
        if tok(k).is_ident("impl") {
            let impl_line = tok(k).line;
            let mut j = k + 1;
            if j < n && tok(j).is_punct('<') {
                j = skip_angles(tokens, code, j);
            }
            // Collect depth-0 path idents until `for`; bail on `{` (an
            // inherent impl has no trait).
            let mut trait_last: Option<String> = None;
            let mut angle = 0usize;
            while j < n {
                let t = tok(j);
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle = angle.saturating_sub(1);
                } else if t.is_punct('{') || t.is_punct(';') {
                    trait_last = None;
                    break;
                } else if t.is_ident("for") && angle == 0 {
                    break;
                } else if t.kind == TokenKind::Ident && angle == 0 {
                    trait_last = Some(t.text.clone());
                }
                j += 1;
            }
            if let Some(trait_name) = trait_last {
                if (trait_name == "Debug" || trait_name == "Display") && j < n {
                    // First ident after `for` is the implementing type.
                    let ty = code[j + 1..]
                        .iter()
                        .map(|&i| &tokens[i])
                        .find(|t| t.kind == TokenKind::Ident)
                        .map(|t| t.text.clone());
                    if let Some(ty) = ty {
                        if cfg.secret_types.contains(&ty.as_str()) {
                            emit(
                                Rule::S1,
                                impl_line,
                                format!("manual {trait_name} impl on secret-bearing type `{ty}` (waive with dasp::allow(S1) only if it redacts)"),
                            );
                        }
                    }
                }
            }
            k = j + 1;
            continue;
        }
        k += 1;
    }
}

/// The struct/enum name following a derive attribute, skipping further
/// attributes and visibility modifiers.
fn struct_name_after(tokens: &[Token], code: &[usize], attr_close: usize) -> Option<String> {
    let tok = |k: usize| &tokens[code[k]];
    let n = code.len();
    let mut j = attr_close + 1;
    while j < n {
        let t = tok(j);
        if t.is_punct('#') {
            // Another attribute: skip its bracket group.
            let mut depth = 0usize;
            j += 1;
            while j < n {
                if tok(j).is_punct('[') {
                    depth += 1;
                } else if tok(j).is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            j += 1;
            continue;
        }
        if t.is_ident("struct") || t.is_ident("enum") || t.is_ident("union") {
            return tokens.get(*code.get(j + 1)?).map(|t| t.text.clone());
        }
        if t.is_ident("pub")
            || t.is_ident("crate")
            || t.is_ident("super")
            || t.is_punct('(')
            || t.is_punct(')')
        {
            j += 1;
            continue;
        }
        return None; // fn/const/etc. — derives don't apply, stop.
    }
    None
}

/// Skip a balanced `<…>` group starting at `open` (filtered index),
/// tolerating `->` inside bounds. Returns the index after `>`.
fn skip_angles(tokens: &[Token], code: &[usize], open: usize) -> usize {
    let tok = |k: usize| &tokens[code[k]];
    let n = code.len();
    let mut depth = 0usize;
    let mut j = open;
    while j < n {
        let t = tok(j);
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            // `->` return arrows inside bounds don't close a bracket.
            let arrow = j > 0 && tok(j - 1).is_punct('-');
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
        }
        j += 1;
    }
    n
}

/// S1 part two: secret-type identifiers in format/log macro arguments.
fn s1_macro_args(
    tokens: &[Token],
    code: &[usize],
    cfg: &Config,
    emit: &mut impl FnMut(Rule, u32, String),
) {
    let tok = |k: usize| &tokens[code[k]];
    let n = code.len();
    for k in 0..n {
        if tok(k).kind != TokenKind::Ident || !FMT_MACROS.contains(&tok(k).text.as_str()) {
            continue;
        }
        if k + 1 >= n || !tok(k + 1).is_punct('!') {
            continue;
        }
        let Some(open) = code.get(k + 2).map(|&i| &tokens[i]) else {
            continue;
        };
        let (oc, cc) = match open.text.chars().next() {
            Some('(') => ('(', ')'),
            Some('[') => ('[', ']'),
            Some('{') => ('{', '}'),
            _ => continue,
        };
        let mut depth = 0usize;
        let mut j = k + 2;
        while j < n {
            let t = tok(j);
            if t.is_punct(oc) {
                depth += 1;
            } else if t.is_punct(cc) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokenKind::Ident && cfg.secret_types.contains(&t.text.as_str()) {
                emit(
                    Rule::S1,
                    t.line,
                    format!(
                        "secret-bearing type `{}` passed to `{}!` — secrets must not reach format/log output",
                        t.text,
                        tok(k).text
                    ),
                );
            }
            j += 1;
        }
    }
}

/// S2: any fn signature mentioning `WireWriter`/`WireReader` may name
/// only allowlisted DTOs (plus neutral std/generic machinery).
fn s2_wire_signatures(
    tokens: &[Token],
    code: &[usize],
    cfg: &Config,
    emit: &mut impl FnMut(Rule, u32, String),
) {
    let tok = |k: usize| &tokens[code[k]];
    let n = code.len();
    let mut k = 0;
    while k < n {
        if !tok(k).is_ident("fn") {
            k += 1;
            continue;
        }
        let fn_line = tok(k).line;
        let fn_name = if k + 1 < n {
            tok(k + 1).text.clone()
        } else {
            String::new()
        };
        // Signature = tokens up to the body `{` or declaration `;`.
        let mut j = k + 1;
        let mut sig: Vec<usize> = Vec::new();
        while j < n && !tok(j).is_punct('{') && !tok(j).is_punct(';') {
            sig.push(j);
            j += 1;
        }
        let touches_wire = sig
            .iter()
            .any(|&s| tok(s).is_ident("WireWriter") || tok(s).is_ident("WireReader"));
        if touches_wire {
            for &s in &sig {
                let t = tok(s);
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let name = t.text.as_str();
                let uppercase = name.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                if !uppercase || name.len() == 1 {
                    continue; // lowercase idents and single-letter generics
                }
                if name == "WireWriter" || name == "WireReader" {
                    continue;
                }
                if S2_NEUTRAL.contains(&name) || cfg.wire_allowlist.contains(&name) {
                    continue;
                }
                emit(
                    Rule::S2,
                    fn_line,
                    format!(
                        "`{name}` appears in wire-serialization fn `{fn_name}` but is not in the share-type allowlist"
                    ),
                );
            }
        }
        k = j + 1;
    }
}

/// P1: panic-capable constructs in provider/transport code.
fn p1_panics(tokens: &[Token], code: &[usize], emit: &mut impl FnMut(Rule, u32, String)) {
    let tok = |k: usize| &tokens[code[k]];
    let n = code.len();
    for k in 0..n {
        let t = tok(k);
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect" => {
                let method_call =
                    k > 0 && tok(k - 1).is_punct('.') && k + 1 < n && tok(k + 1).is_punct('(');
                if method_call {
                    emit(
                        Rule::P1,
                        t.line,
                        format!(
                            "`.{}()` can panic in provider/transport code; propagate a typed error instead",
                            t.text
                        ),
                    );
                }
            }
            "panic" | "todo" | "unimplemented" if k + 1 < n && tok(k + 1).is_punct('!') => {
                emit(
                    Rule::P1,
                    t.line,
                    format!(
                        "`{}!` aborts the provider thread; return an error instead",
                        t.text
                    ),
                );
            }
            _ => {}
        }
    }
}

/// P2: lossy `as` casts in exact-arithmetic crates.
fn p2_lossy_casts(tokens: &[Token], code: &[usize], emit: &mut impl FnMut(Rule, u32, String)) {
    let tok = |k: usize| &tokens[code[k]];
    let n = code.len();
    for k in 0..n.saturating_sub(1) {
        if !tok(k).is_ident("as") {
            continue;
        }
        let target = tok(k + 1);
        if target.kind == TokenKind::Ident && LOSSY_TARGETS.contains(&target.text.as_str()) {
            emit(
                Rule::P2,
                target.line,
                format!(
                    "lossy `as {}` cast in exact-arithmetic code; use TryFrom/From or a waived truncation helper",
                    target.text
                ),
            );
        }
    }
}

/// D1: wall-clock reads in deterministic codec crates.
fn d1_wall_clock(tokens: &[Token], code: &[usize], emit: &mut impl FnMut(Rule, u32, String)) {
    let tok = |k: usize| &tokens[code[k]];
    let n = code.len();
    for k in 0..n {
        let t = tok(k);
        if t.is_ident("SystemTime") {
            emit(
                Rule::D1,
                t.line,
                "`SystemTime` in a deterministic codec path; results must not depend on the clock"
                    .to_string(),
            );
        }
        if t.is_ident("Instant")
            && k + 3 < n
            && tok(k + 1).is_punct(':')
            && tok(k + 2).is_punct(':')
            && tok(k + 3).is_ident("now")
        {
            emit(
                Rule::D1,
                t.line,
                "`Instant::now()` in a deterministic codec path; inject time from the caller"
                    .to_string(),
            );
        }
    }
}

/// Methods whose `Result` E1 refuses to see silently dropped: a failed
/// send means a dead peer (the caller must tear down or retry) and a
/// failed append means lost durability — neither may vanish into
/// `let _ =` or a bare `.ok();`.
const E1_METHODS: &[&str] = &[
    "send",
    "send_timeout",
    "try_send",
    "append",
    "append_durable",
    "commit",
];

/// E1: silently discarded `Result` from a send/append.
///
/// Two shapes: `let _ = recv.send(…) …;` (the whole statement is
/// scanned, so `let _ = tx.send(x);` and `let _ = self.q.try_send(m);`
/// both fire) and a bare `.ok();` whose receiver is a direct
/// send/append call (`tx.send(x).ok();`). `.ok()` feeding into
/// anything other than `;` — `if tx.send(x).ok().is_some()` — is a
/// *use* of the value and stays legal.
fn e1_discarded_results(
    tokens: &[Token],
    code: &[usize],
    emit: &mut impl FnMut(Rule, u32, String),
) {
    let tok = |k: usize| &tokens[code[k]];
    let n = code.len();
    let mut k = 0;
    while k < n {
        // Shape (a): `let _ = … .M(…) … ;`
        if tok(k).is_ident("let")
            && k + 2 < n
            && tok(k + 1).is_ident("_")
            && tok(k + 2).is_punct('=')
        {
            let let_line = tok(k).line;
            let mut j = k + 3;
            let mut depth = 0usize;
            let mut dropped: Option<String> = None;
            while j < n {
                let t = tok(j);
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth = depth.saturating_sub(1);
                } else if t.is_punct(';') && depth == 0 {
                    break;
                } else if t.kind == TokenKind::Ident
                    && E1_METHODS.contains(&t.text.as_str())
                    && j > 0
                    && tok(j - 1).is_punct('.')
                    && j + 1 < n
                    && tok(j + 1).is_punct('(')
                {
                    dropped.get_or_insert(t.text.clone());
                }
                j += 1;
            }
            if let Some(m) = dropped {
                emit(
                    Rule::E1,
                    let_line,
                    format!(
                        "`let _ =` discards the Result of `.{m}(…)`; handle the error or waive with dasp::allow(E1)"
                    ),
                );
            }
            k = j + 1;
            continue;
        }
        // Shape (b): `….M(…).ok();`
        if tok(k).is_ident("ok")
            && k >= 2
            && tok(k - 1).is_punct('.')
            && k + 2 < n
            && tok(k + 1).is_punct('(')
            && tok(k + 2).is_punct(')')
            && k + 3 < n
            && tok(k + 3).is_punct(';')
        {
            // Walk back over the producing call: `) . ok` — match the
            // `(` of that call, then require `.M` right before it.
            if tok(k - 2).is_punct(')') {
                let mut depth = 0usize;
                let mut open = None;
                for b in (0..=k - 2).rev() {
                    if tok(b).is_punct(')') {
                        depth += 1;
                    } else if tok(b).is_punct('(') {
                        depth -= 1;
                        if depth == 0 {
                            open = Some(b);
                            break;
                        }
                    }
                }
                if let Some(open) = open {
                    // Only a *bare* statement discards: `let ok = x.send(1).ok();`
                    // binds the Option, `return x.send(1).ok();` passes it on.
                    // Scan back to the statement boundary looking for a binder.
                    let mut bare = true;
                    let mut bdepth = 0usize;
                    let mut b = open.saturating_sub(1);
                    while b > 0 {
                        b -= 1;
                        let t = tok(b);
                        if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                            bdepth += 1;
                        } else if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                            if bdepth == 0 {
                                break;
                            }
                            bdepth -= 1;
                        } else if bdepth == 0 && t.is_punct(';') {
                            break;
                        } else if bdepth == 0
                            && (t.is_punct('=')
                                || t.is_ident("let")
                                || t.is_ident("return")
                                || t.is_ident("match"))
                        {
                            bare = false;
                            break;
                        }
                    }
                    if bare
                        && open >= 2
                        && tok(open - 1).kind == TokenKind::Ident
                        && E1_METHODS.contains(&tok(open - 1).text.as_str())
                        && tok(open - 2).is_punct('.')
                    {
                        emit(
                            Rule::E1,
                            tok(k).line,
                            format!(
                                "bare `.ok();` discards the Result of `.{}(…)`; handle the error or waive with dasp::allow(E1)",
                                tok(open - 1).text
                            ),
                        );
                    }
                }
            }
        }
        k += 1;
    }
}

/// U1: every `unsafe` needs a `// SAFETY:` comment on or above it.
fn u1_unsafe(tokens: &[Token], code: &[usize], emit: &mut impl FnMut(Rule, u32, String)) {
    for &i in code {
        let t = &tokens[i];
        if t.is_ident("unsafe") {
            emit(
                Rule::U1,
                t.line,
                "`unsafe` without a `// SAFETY:` comment justifying the invariant".to_string(),
            );
        }
    }
}
