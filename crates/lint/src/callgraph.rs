//! Workspace call graph and rule **P3** (transitive panic reachability).
//!
//! Resolution is name-based with three precision tiers:
//!
//! 1. `Type::name(…)` / `Self::name(…)` — exact lookup in the impl
//!    block of that type.
//! 2. `self.name(…)`, `self.field.name(…)`, `param.name(…)`,
//!    `local.field.name(…)` — the receiver chain is typed through the
//!    param list, the struct field table, and a per-fn local type
//!    environment (explicit `let x: T`, RHS field chains, RHS call
//!    return types, `if let Some(x) = …` rebindings), then looked up
//!    exactly. `…).name(…)` chains type the receiver through the
//!    producing call's return type (`ret_types`). A receiver that
//!    types to something *outside* the workspace is classified
//!    `Resolution::External`: no edges, and crucially no fallback —
//!    `std::thread::Builder::new().spawn(…)` must not link to a
//!    workspace fn that happens to be called `spawn`.
//! 3. Bare `recv.name(…)` with an *untypable* receiver — linked to
//!    every workspace method of that name, except when the name
//!    collides with ubiquitous std APIs (`get`, `push`, `clone`, …),
//!    where linking to everything would drown the graph in false
//!    edges. The vendored lock API (`lock`, `read`, `write`) is the
//!    exception to the exception: those std-colliding names still link
//!    into `vendor/` fns, because the vendored rewrite *is* the
//!    implementation that actually runs.
//!
//! A bare `name(…)` call resolves to a fn declared inside a body around
//! it ([`FnItem::scope`]), innermost first, before any module-level fn;
//! no call from outside that body reaches such a local item.
//!
//! Every tier sees only the fns of the caller's crate and its transitive
//! dependencies ([`crate::manifest`]): a same-named method in a crate the
//! caller cannot name is no candidate.

use crate::ir::{Ctx, CtxKind, FnId, FnItem, PanicKind, WorkspaceIr};
use crate::lexer::{Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Method names that collide with std-library APIs: bare calls with an
/// unresolvable receiver are *not* linked to same-named workspace fns.
const STD_COLLIDING: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "default",
    "drain",
    "entry",
    "eq",
    "extend",
    "filter",
    "find",
    "first",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "max",
    "min",
    "new",
    "next",
    "or_insert",
    "parse",
    "pop",
    "position",
    "push",
    "read",
    "recv",
    "remove",
    "resize",
    "rev",
    "send",
    "shutdown",
    "sort",
    "sort_by",
    "split",
    "split_off",
    "starts_with",
    "sum",
    "take",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "with_capacity",
    "write",
    "zip",
];

/// Std-colliding names that are exactly the vendored lock API: bare
/// calls still link to `vendor/` definitions of these.
const VENDOR_API: &[&str] = &["lock", "read", "write"];

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee.
    pub to: FnId,
    /// 1-based line of the call site in the caller's file.
    pub line: u32,
}

/// The resolved workspace call graph, indexed by caller [`FnId`].
pub struct CallGraph {
    /// `edges[f]` — calls made by `f`, in source order, deduplicated
    /// per (callee, line).
    pub edges: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Resolve every `Call` context of every fn. Bare-name fallback
    /// edges back to the caller itself are dropped: `self.inner.lock()
    /// .backend.sync()` inside `Pager::sync` dispatches on the field,
    /// never recursively (exactly-resolved recursion is kept).
    pub fn build(ws: &WorkspaceIr) -> CallGraph {
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); ws.fns.len()];
        for (id, f) in ws.fns.iter().enumerate() {
            let mut seen = BTreeSet::new();
            for ctx in &f.ctxs {
                if ctx.kind != CtxKind::Call {
                    continue;
                }
                let targets = resolve_call(ws, f, ctx);
                let ambiguous = targets.len() > 1;
                for to in targets {
                    if ambiguous && to == id {
                        continue;
                    }
                    if seen.insert((to, ctx.line)) {
                        edges[id].push(Edge { to, line: ctx.line });
                    }
                }
            }
        }
        CallGraph { edges }
    }
}

/// Type identifiers for a method receiver chain, or `None` when the
/// chain cannot be typed syntactically. `self` resolves to the impl
/// type; `let`-bound locals resolve through [`FnItem::locals`]; further
/// `.field` hops go through the struct table.
pub fn resolve_recv_types(ws: &WorkspaceIr, f: &FnItem, recv: &[String]) -> Option<Vec<String>> {
    recv_types_with(ws, f, &f.locals, recv)
}

/// [`resolve_recv_types`] with an explicit local-binding environment
/// (used while the environment itself is still being built).
fn recv_types_with(
    ws: &WorkspaceIr,
    f: &FnItem,
    locals: &BTreeMap<String, Vec<String>>,
    recv: &[String],
) -> Option<Vec<String>> {
    let (head_ty, rest): (Vec<String>, &[String]) = match recv.split_first() {
        Some((h, rest)) if h == "self" => (vec![f.impl_type.clone()?], rest),
        Some((h, rest)) => {
            if let Some(p) = f.params.iter().find(|p| &p.name == h) {
                (p.ty.clone(), rest)
            } else if let Some(ty) = locals.get(h) {
                (ty.clone(), rest)
            } else {
                return None;
            }
        }
        None => return None,
    };
    let mut ty = head_ty;
    for field in rest {
        // Find the struct in the current type idents that declares the
        // field; generic wrappers (`Arc<Engine>`) scan left to right.
        let next = ty
            .iter()
            .find_map(|t| ws.structs.get(t).and_then(|fs| fs.get(field)))?;
        ty = next.clone();
    }
    Some(ty)
}

/// The three-valued outcome of call resolution. The distinction between
/// `External` and `Unknown` is what keeps the graph precise: a receiver
/// or path that *was* typed but names nothing in the workspace is
/// std/external code — linking its method name to every same-named
/// workspace fn would fabricate edges (`Wal::spawn_flusher →
/// Cluster::spawn` was exactly that).
pub(crate) enum Resolution {
    /// Resolved to these workspace fns.
    Exact(Vec<FnId>),
    /// Typed, but the callee lives outside the workspace: no edges, no
    /// bare-name fallback.
    External,
    /// Untypable: the tier-3 bare-name fallback applies.
    Unknown,
}

/// Depth bound for chained-receiver resolution (`a().b().c()` walks one
/// producing call per level; cycles cannot occur but pathological
/// nesting is cut off).
const CHAIN_DEPTH: usize = 8;

/// All plausible callees of one `Call` context.
pub(crate) fn resolve_call(ws: &WorkspaceIr, caller: &FnItem, ctx: &Ctx) -> Vec<FnId> {
    let name = ctx.callee.as_str();
    match resolve(ws, caller, &caller.locals, ctx, 0) {
        Resolution::Exact(ids) => ids,
        Resolution::External => Vec::new(),
        Resolution::Unknown => {
            // Tier 3: bare fallback, std-colliding names restricted.
            if STD_COLLIDING.contains(&name) {
                if VENDOR_API.contains(&name) {
                    return ws
                        .by_name(caller.file, name)
                        .filter(|&id| {
                            ws.files[ws.fns[id].file].vendor && ws.fns[id].impl_type.is_some()
                        })
                        .collect();
                }
                return Vec::new();
            }
            // A fallback edge back to the caller itself is dynamic
            // dispatch (`self.inner.lock().backend.page_count()`),
            // never recursion.
            ws.by_name(caller.file, name)
                .filter(|&id| ws.fns[id].impl_type.is_some() && !std::ptr::eq(&ws.fns[id], caller))
                .collect()
        }
    }
}

/// Tiers 1–2 plus chained-receiver typing.
fn resolve(
    ws: &WorkspaceIr,
    caller: &FnItem,
    locals: &BTreeMap<String, Vec<String>>,
    ctx: &Ctx,
    depth: usize,
) -> Resolution {
    let name = ctx.callee.as_str();
    // Tier 1: a `::` path ending in a type-looking segment.
    if let Some(seg) = ctx.path.last() {
        let ty = if seg == "Self" {
            caller.impl_type.clone()
        } else if seg.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            Some(seg.clone())
        } else {
            None
        };
        if let Some(ty) = ty {
            return match ws.method(caller.file, &ty, name) {
                Some(id) => Resolution::Exact(vec![id]),
                None => Resolution::External,
            };
        }
        // Module-qualified free fn: match module-level fns of that name.
        let free: Vec<FnId> = ws
            .by_name(caller.file, name)
            .filter(|&id| ws.fns[id].impl_type.is_none() && ws.fns[id].scope.is_none())
            .collect();
        return if free.is_empty() {
            Resolution::External
        } else {
            Resolution::Exact(free)
        };
    }
    if ctx.method {
        // Tier 2: typed receiver chain (params, `self`, locals).
        if let Some(ty) = recv_types_with(ws, caller, locals, &ctx.recv) {
            for t in &ty {
                if let Some(id) = ws.method(caller.file, t, name) {
                    return Resolution::Exact(vec![id]);
                }
            }
            return Resolution::External;
        }
        // Tier 2½: `…).name(…)` — type the receiver through the return
        // type of the producing call.
        if ctx.recv == ["<expr>"] && depth < CHAIN_DEPTH {
            if let Some(res) = resolve_chained(ws, caller, locals, ctx, depth) {
                return res;
            }
        }
        return Resolution::Unknown;
    }
    // Free-fn call: a fn declared in a body around the call shadows
    // module-level fns, the innermost first; a bare name never targets
    // methods.
    let local = ws
        .by_name(caller.file, name)
        .filter(|&id| {
            let f = &ws.fns[id];
            f.file == caller.file
                && f.scope
                    .is_some_and(|(start, end)| start <= ctx.name_tok && ctx.name_tok <= end)
        })
        .max_by_key(|&id| ws.fns[id].scope.map(|(start, _)| start));
    if let Some(id) = local {
        return Resolution::Exact(vec![id]);
    }
    let free: Vec<FnId> = ws
        .by_name(caller.file, name)
        .filter(|&id| ws.fns[id].impl_type.is_none() && ws.fns[id].scope.is_none())
        .collect();
    if free.is_empty() {
        Resolution::External
    } else {
        Resolution::Exact(free)
    }
}

/// Resolve a chained method call whose receiver is a producing call:
/// find the `Call` ctx whose closing `)` sits just before the `.` (a
/// `?` in between is tolerated), resolve it, and look the method up in
/// its return-type idents. An external producing chain stays external —
/// `std::thread::Builder::new().name(…).spawn(…)` resolves to nothing
/// rather than falling back to every workspace `spawn`.
fn resolve_chained(
    ws: &WorkspaceIr,
    caller: &FnItem,
    locals: &BTreeMap<String, Vec<String>>,
    ctx: &Ctx,
    depth: usize,
) -> Option<Resolution> {
    let tokens = &ws.files[caller.file].tokens;
    let dot = crate::parser::prev_nc(tokens, ctx.name_tok)?;
    if !tokens[dot].is_punct('.') {
        return None;
    }
    let mut p = crate::parser::prev_nc(tokens, dot)?;
    if tokens[p].is_punct('?') {
        p = crate::parser::prev_nc(tokens, p)?;
    }
    if !tokens[p].is_punct(')') {
        return None;
    }
    let prod = caller
        .ctxs
        .iter()
        .find(|c| c.kind == CtxKind::Call && c.args_end == p)?;
    match resolve(ws, caller, locals, prod, depth + 1) {
        Resolution::Exact(ids) => {
            let ty = ret_types(ws, &ids);
            if ty.is_empty() {
                return Some(Resolution::Unknown);
            }
            for t in &ty {
                if let Some(id) = ws.method(caller.file, t, ctx.callee.as_str()) {
                    return Some(Resolution::Exact(vec![id]));
                }
            }
            Some(Resolution::External)
        }
        Resolution::External => Some(Resolution::External),
        Resolution::Unknown => Some(Resolution::Unknown),
    }
}

/// Union of return-type idents over callees, with `Self` substituted by
/// each callee's impl type.
fn ret_types(ws: &WorkspaceIr, ids: &[FnId]) -> Vec<String> {
    let mut ty = Vec::new();
    for &id in ids {
        let callee = &ws.fns[id];
        for r in &callee.ret {
            if r == "Self" {
                if let Some(t) = &callee.impl_type {
                    ty.push(t.clone());
                }
            } else {
                ty.push(r.clone());
            }
        }
    }
    ty
}

/// Fill [`FnItem::locals`] for every fn: one forward pass over the
/// statement units, typing each `let` binding from its explicit
/// annotation, its RHS field chain, or the return type of its RHS call.
/// Runs after the whole workspace is parsed (cross-file struct and
/// return-type lookups), before the call graph is built.
pub fn annotate_locals(ws: &mut WorkspaceIr) {
    let mut all: Vec<BTreeMap<String, Vec<String>>> = Vec::with_capacity(ws.fns.len());
    for f in &ws.fns {
        let tokens = &ws.files[f.file].tokens;
        let mut env: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for u in &f.units {
            let Some(name) = u.let_name.as_ref().or(u.pat_name.as_ref()) else {
                continue;
            };
            if !u.let_ty.is_empty() {
                env.insert(name.clone(), u.let_ty.clone());
                continue;
            }
            if u.deref_rhs {
                continue;
            }
            let Some(rhs) = u.rhs_start else { continue };
            if let Some(ty) = type_of_expr(ws, f, &env, tokens, rhs, u.end) {
                env.insert(name.clone(), ty);
            }
        }
        all.push(env);
    }
    for (f, env) in ws.fns.iter_mut().zip(all) {
        f.locals = env;
    }
}

/// Type an RHS expression: a plain field chain (`&self.inline`,
/// `conn.stream`) through the struct table, or a trailing call
/// (`Wal::open(dir)?`, `self.decoder.next()`) through its return type.
/// `None` when the shape is anything else — untyped is always safe.
fn type_of_expr(
    ws: &WorkspaceIr,
    f: &FnItem,
    env: &BTreeMap<String, Vec<String>>,
    tokens: &[Token],
    rhs: usize,
    end: usize,
) -> Option<Vec<String>> {
    let last_tok = end.min(tokens.len().saturating_sub(1));
    let mut nc: Vec<usize> = (rhs..=last_tok)
        .filter(|&i| !tokens[i].is_comment())
        .collect();
    while let Some(&last) = nc.last() {
        let t = &tokens[last];
        if t.is_punct(';') || t.is_punct('?') || t.is_ident("else") {
            nc.pop();
        } else {
            break;
        }
    }
    while let Some(&first) = nc.first() {
        let t = &tokens[first];
        if t.is_punct('&') || t.is_ident("mut") {
            nc.remove(0);
        } else {
            break;
        }
    }
    let &last = nc.last()?;
    if tokens[last].kind == TokenKind::Ident {
        // A pure `a.b.c` field chain (tuple indices allowed).
        let mut chain = Vec::new();
        let mut expect_ident = true;
        for &i in &nc {
            let t = &tokens[i];
            if expect_ident {
                if t.kind != TokenKind::Ident && t.kind != TokenKind::Number {
                    return None;
                }
                chain.push(t.text.clone());
            } else if !t.is_punct('.') {
                return None;
            }
            expect_ident = !expect_ident;
        }
        if expect_ident {
            return None; // ended on a `.`
        }
        return recv_types_with(ws, f, env, &chain);
    }
    if tokens[last].is_punct(')') {
        let ctx = f
            .ctxs
            .iter()
            .find(|c| c.kind == CtxKind::Call && c.args_end == last)?;
        return match resolve(ws, f, env, ctx, 1) {
            Resolution::Exact(ids) => {
                let ty = ret_types(ws, &ids);
                (!ty.is_empty()).then_some(ty)
            }
            // `Type::ctor(…)` on an external type: the path names the
            // type (`File::create` → `File`), good enough to keep later
            // method calls on the binding external.
            Resolution::External => ctx
                .path
                .last()
                .filter(|s| s.chars().next().is_some_and(|c| c.is_ascii_uppercase()))
                .map(|s| vec![s.clone()]),
            Resolution::Unknown => None,
        };
    }
    None
}

/// The P3 entry points: `ProviderEngine::execute`, every pub method of
/// `Cluster` (whose worker-loop closures live inside `spawn_*`), and
/// every pub method of `DataSource`.
pub fn p3_roots(ws: &WorkspaceIr) -> Vec<FnId> {
    let mut roots = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if ws.files[f.file].vendor {
            continue;
        }
        let is_root = match f.impl_type.as_deref() {
            Some("ProviderEngine") => f.name == "execute",
            Some("Cluster") | Some("DataSource") => f.is_pub,
            _ => false,
        };
        if is_root {
            roots.push(id);
        }
    }
    roots
}

/// Reachability with parent pointers for path reconstruction.
pub struct Reach {
    /// `parent[f]` — predecessor on the first discovered path from a
    /// root; `usize::MAX` marks a root, absence marks unreachable.
    parent: BTreeMap<FnId, FnId>,
}

impl Reach {
    /// BFS from `roots` (processed in order, so paths are stable).
    pub fn from(graph: &CallGraph, roots: &[FnId]) -> Reach {
        let mut parent = BTreeMap::new();
        let mut queue = VecDeque::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(r) {
                e.insert(usize::MAX);
                queue.push_back(r);
            }
        }
        while let Some(f) = queue.pop_front() {
            for e in &graph.edges[f] {
                if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(e.to) {
                    v.insert(f);
                    queue.push_back(e.to);
                }
            }
        }
        Reach { parent }
    }

    /// True when `f` is reachable from any root.
    pub fn reachable(&self, f: FnId) -> bool {
        self.parent.contains_key(&f)
    }

    /// Root-to-`f` call chain as fn labels (`A::x → B::y → …`).
    pub fn path(&self, ws: &WorkspaceIr, f: FnId) -> Vec<String> {
        let mut chain = Vec::new();
        let mut cur = f;
        loop {
            chain.push(ws.label(cur));
            match self.parent.get(&cur) {
                Some(&p) if p != usize::MAX => cur = p,
                _ => break,
            }
        }
        chain.reverse();
        chain
    }
}

/// A raw P3 result, before waiver/baseline handling: one finding per
/// (reachable fn, panic kind), anchored at the first site of that kind.
pub struct P3Hit {
    /// The fn containing the panic sites.
    pub fn_id: FnId,
    /// Panic construct kind.
    pub kind: PanicKind,
    /// Lines of all unwaived sites of this kind (first anchors the
    /// finding).
    pub lines: Vec<u32>,
    /// Lines of waived sites of this kind.
    pub waived_lines: Vec<u32>,
    /// Root-to-fn call chain labels.
    pub path: Vec<String>,
}

/// Run P3 over the workspace: every panic-capable construct inside a fn
/// reachable from [`p3_roots`], grouped per (fn, kind).
pub fn run_p3(ws: &WorkspaceIr, graph: &CallGraph) -> Vec<P3Hit> {
    let roots = p3_roots(ws);
    let reach = Reach::from(graph, &roots);
    let mut hits = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if !reach.reachable(id) || f.panics.is_empty() {
            continue;
        }
        let file = &ws.files[f.file];
        let mut by_kind: BTreeMap<&'static str, (PanicKind, Vec<u32>, Vec<u32>)> = BTreeMap::new();
        for p in &f.panics {
            let waived = file
                .waivers
                .get(&p.line)
                .is_some_and(|rules| rules.contains("P3"));
            let entry =
                by_kind
                    .entry(p.kind.describe())
                    .or_insert((p.kind, Vec::new(), Vec::new()));
            if waived {
                entry.2.push(p.line);
            } else {
                entry.1.push(p.line);
            }
        }
        let path = reach.path(ws, id);
        for (_, (kind, lines, waived_lines)) in by_kind {
            hits.push(P3Hit {
                fn_id: id,
                kind,
                lines,
                waived_lines,
                path: path.clone(),
            });
        }
    }
    hits
}
