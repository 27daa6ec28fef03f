//! Intermediate representation for the workspace analyzer.
//!
//! The token-level rules (S1–U1) see one file at a time; the
//! interprocedural rules (T1, L1, P3) need a workspace-wide view: which
//! functions exist, what they call, which locks they take, where their
//! bodies start and end. [`crate::parser`] extracts that view from the
//! lexed token streams into the types here — deliberately *syntactic*
//! (names and token spans, no type inference) so the analyzer stays
//! dependency-free and never executes anything.

use crate::lexer::Token;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Index of a [`FnItem`] within [`WorkspaceIr::fns`].
pub type FnId = usize;

/// One analyzed source file: its tokens plus the per-line waiver map.
pub struct FileIr {
    /// `/`-separated path relative to the analysis root.
    pub path: String,
    /// True for files under `vendor/` (relaxed ruleset: U1 + P3 only).
    pub vendor: bool,
    /// Index into [`WorkspaceIr::closures`] of the crate owning the
    /// file; `None` outside every manifest.
    pub krate: Option<usize>,
    /// The lexed token stream (comments included; rules skip them).
    pub tokens: Vec<Token>,
    /// True for tokens under `#[cfg(test)]` / `#[test]` items.
    pub test_mask: Vec<bool>,
    /// line → rule names waived by `dasp::allow(RULE)` on/above it.
    pub waivers: HashMap<u32, BTreeSet<String>>,
}

/// One function parameter: its binding name and the identifiers
/// appearing in its type (`points: &EvalPoints` → name `points`, type
/// idents `["EvalPoints"]`).
#[derive(Debug, Clone)]
pub struct Param {
    /// Binding name; `self` for receivers, `_` for complex patterns.
    pub name: String,
    /// Identifiers in the declared type, in order.
    pub ty: Vec<String>,
}

/// What a [`Ctx`] is: a function/method call, a macro invocation, or a
/// struct-literal expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxKind {
    /// `foo(…)`, `Type::foo(…)`, `recv.foo(…)`.
    Call,
    /// `foo!(…)` (any delimiter).
    MacroCall,
    /// `Type { … }` / `Enum::Variant { … }`.
    StructLit,
}

/// A call-like context inside a function body. Spans are token indices
/// into the owning file's token stream.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Context kind.
    pub kind: CtxKind,
    /// Callee / macro / struct name (last path segment).
    pub callee: String,
    /// Leading `::` path segments (`Request::Insert` → `["Request"]`).
    pub path: Vec<String>,
    /// Receiver chain for method calls (`self.pool.get(…)` →
    /// `["self", "pool"]`); `["<expr>"]` when the receiver is not a
    /// simple field chain; empty for non-method calls.
    pub recv: Vec<String>,
    /// True for `recv.name(…)` method-call syntax.
    pub method: bool,
    /// 1-based line of the callee name token.
    pub line: u32,
    /// Token index of the callee name.
    pub name_tok: usize,
    /// Token range of the arguments, *exclusive* of the delimiters:
    /// `(args_start..args_end)` indexes the tokens between `(` and `)`.
    pub args_start: usize,
    /// End of the argument span (index of the closing delimiter).
    pub args_end: usize,
}

impl Ctx {
    /// True when token index `i` lies inside this context's argument
    /// (or struct-literal body) span.
    pub fn contains(&self, i: usize) -> bool {
        self.args_start <= i && i < self.args_end
    }
}

/// Why a token can panic (rule P3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(…)`.
    Expect,
    /// `x[i]` indexing without `get`.
    Index,
}

impl PanicKind {
    /// Human-readable construct name for messages.
    pub fn describe(self) -> &'static str {
        match self {
            PanicKind::Unwrap => ".unwrap()",
            PanicKind::Expect => ".expect(…)",
            PanicKind::Index => "indexing without get",
        }
    }
}

/// One panic-capable construct inside a function body.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Construct kind.
    pub kind: PanicKind,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the construct.
    pub tok: usize,
}

/// A statement-ish unit of a function body: split at `;`, braces, and
/// match-arm commas, so guard lifetimes and `let` bindings can be
/// reasoned about without a full expression tree.
#[derive(Debug, Clone)]
pub struct Unit {
    /// First token index (inclusive).
    pub start: usize,
    /// Last token index (inclusive).
    pub end: usize,
    /// Brace depth at `start`, relative to the body's opening brace.
    pub depth: u32,
    /// `Some(name)` for `let name = …;` / `let mut name = …;` units.
    pub let_name: Option<String>,
    /// Binding introduced by a refutable-pattern `let`: `if let
    /// Some(x) = …`, `while let Ok(x) = …`, `let Some(x) = … else`.
    /// Kept separate from [`Unit::let_name`] so the L1 guard-promotion
    /// logic (which models plain `let g = x.lock();` only) is
    /// unaffected.
    pub pat_name: Option<String>,
    /// Identifiers of an explicit `let name: Type = …` annotation.
    pub let_ty: Vec<String>,
    /// Token index just after the `=` of a `let`, when present.
    pub rhs_start: Option<usize>,
    /// True when the `let` RHS begins with `*` (a deref copy: the
    /// temporary guard dies at the end of the statement).
    pub deref_rhs: bool,
}

/// One function (or method) item.
pub struct FnItem {
    /// Index of the owning file in [`WorkspaceIr::files`].
    pub file: usize,
    /// Function name.
    pub name: String,
    /// `Some(Type)` for methods in an `impl Type` / `impl Trait for
    /// Type` block.
    pub impl_type: Option<String>,
    /// For a fn declared inside another fn's body: that body's token
    /// span, the only place its name resolves. `None` for module-level
    /// fns and methods.
    pub scope: Option<(usize, usize)>,
    /// True for `pub fn` (any visibility qualifier).
    pub is_pub: bool,
    /// True when the item sits under `#[cfg(test)]` / `#[test]`.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared parameters in order.
    pub params: Vec<Param>,
    /// Identifiers appearing in the return type.
    pub ret: Vec<String>,
    /// Body token span `(after `{`, before `}`)`; `None` for
    /// declarations without a body.
    pub body: Option<(usize, usize)>,
    /// Call-like contexts in the body, ordered by start token.
    pub ctxs: Vec<Ctx>,
    /// Panic-capable constructs in the body.
    pub panics: Vec<PanicSite>,
    /// Statement-ish units of the body.
    pub units: Vec<Unit>,
    /// Local binding name → type identifiers, from `let` statements
    /// whose RHS (or explicit annotation) could be typed syntactically.
    /// Filled by [`crate::callgraph::annotate_locals`] after the whole
    /// workspace is parsed (typing needs the struct table and other
    /// fns' return types).
    pub locals: BTreeMap<String, Vec<String>>,
}

impl FnItem {
    /// `Type::name` for methods, `name` otherwise.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The whole-workspace view: every file, function, and struct layout.
pub struct WorkspaceIr {
    /// All analyzed files.
    pub files: Vec<FileIr>,
    /// All non-test functions, in file order.
    pub fns: Vec<FnItem>,
    /// struct name → field name → type identifiers. Used to resolve
    /// `self.field.method(…)` receivers to the field's declared type.
    pub structs: BTreeMap<String, BTreeMap<String, Vec<String>>>,
    /// Per crate: itself plus its transitive dependencies
    /// ([`crate::manifest::Crates::closures`]).
    pub closures: Vec<BTreeSet<usize>>,
}

impl WorkspaceIr {
    /// The fn `name` in an `impl ty` block that code in file `from` can
    /// link to.
    pub fn method(&self, from: usize, ty: &str, name: &str) -> Option<FnId> {
        self.by_name(from, name)
            .find(|&id| self.fns[id].impl_type.as_deref() == Some(ty))
    }

    /// All fns called `name` (any impl type) that code in file `from` can
    /// link to: those in its crate's dependency closure. A file outside
    /// every manifest links, and is linked to, everywhere.
    pub fn by_name<'a>(&'a self, from: usize, name: &'a str) -> impl Iterator<Item = FnId> + 'a {
        let reach = self.files[from].krate.map(|c| &self.closures[c]);
        (0..self.fns.len()).filter(move |&id| {
            let krate = self.files[self.fns[id].file].krate;
            self.fns[id].name == name && reach.zip(krate).is_none_or(|(r, k)| r.contains(&k))
        })
    }

    /// A short `file:line`-free label for path messages: `Type::name`
    /// or `name`, stable across edits.
    pub fn label(&self, id: FnId) -> String {
        self.fns[id].qualified()
    }
}
