//! `dasp-lint` — workspace secrecy-hygiene and panic-safety analyzer.
//!
//! The paper's security model (§III) makes the client's evaluation
//! points and per-domain keys the *only* secret in the system: a
//! provider that learns X can reconstruct every value it stores. The
//! Rust type system cannot express "this value must never reach a Debug
//! formatter or a wire message", so this crate enforces it as a
//! token-level static analysis over the workspace's own source:
//!
//! * **S1** — secret-bearing types never derive or hand-implement
//!   `Debug`/`Display` (except sanctioned redacting impls) and never
//!   appear in format/log macro arguments.
//! * **S2** — only an explicit allowlist of share-carrying DTOs may
//!   appear in a `WireWriter`/`WireReader` function signature.
//! * **P1** — no `.unwrap()` / `.expect()` / `panic!` / `todo!` /
//!   `unimplemented!` in provider, transport, or reconstruction code;
//!   a malicious or flaky provider must surface as a typed error, never
//!   a client abort (§V-B liveness).
//! * **P2** — no lossy `as` casts inside the exact-arithmetic crates;
//!   a silent truncation in GF(p) or bignum limb code corrupts shares
//!   undetectably.
//! * **D1** — no wall-clock reads in deterministic codec paths;
//!   share batches must be replayable byte-for-byte.
//! * **U1** — every `unsafe` carries a `// SAFETY:` comment (the
//!   workspace denies `unsafe_code` outright; the rule keeps fixtures
//!   and future waivers honest).
//!
//! A finding is waived by `// dasp::allow(RULE): reason` on the line
//! above (or the same line as) the construct. The analyzer is
//! deliberately dependency-free — it lexes Rust with a hand-rolled
//! [`lexer`] and never executes or expands anything.

pub mod blocking;
pub mod callgraph;
pub mod deadlock;
pub mod ir;
pub mod lexer;
pub mod locks;
pub mod manifest;
pub mod ordering;
pub mod parser;
pub mod report;
pub mod rules;
pub mod taint;

use std::fmt;
use std::path::{Path, PathBuf};

/// The rule identifiers, as written in waiver comments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Secret types must not be formatted or printed.
    S1,
    /// Only allowlisted DTOs cross the wire.
    S2,
    /// No panics in provider/transport/reconstruction code.
    P1,
    /// No lossy casts in exact arithmetic.
    P2,
    /// No wall-clock in deterministic codecs.
    D1,
    /// `unsafe` requires a SAFETY comment.
    U1,
    /// Secret values may only flow into sanctioned share encoders.
    T1,
    /// Lock discipline: declared order, no sends under write guards.
    L1,
    /// Transitive panic reachability from provider/client entry points.
    P3,
    /// No blocking operations reachable from what runs inline on a
    /// connection thread.
    B1,
    /// Durability ordering: publish/ack dominated by durable WAL
    /// append; crash-point results steer control.
    W1,
    /// Lock-order cycles across the workspace (per-field identities).
    C1,
    /// Bounded-channel / join wait cycles across threads.
    C2,
    /// No silently discarded `Result` from sends/appends.
    E1,
}

impl Rule {
    /// The identifier used in waiver comments and output.
    pub fn as_str(self) -> &'static str {
        match self {
            Rule::S1 => "S1",
            Rule::S2 => "S2",
            Rule::P1 => "P1",
            Rule::P2 => "P2",
            Rule::D1 => "D1",
            Rule::U1 => "U1",
            Rule::T1 => "T1",
            Rule::L1 => "L1",
            Rule::P3 => "P3",
            Rule::B1 => "B1",
            Rule::W1 => "W1",
            Rule::C1 => "C1",
            Rule::C2 => "C2",
            Rule::E1 => "E1",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rule violation (possibly waived) at a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// `/`-separated path, relative to the analysis root.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// True when a `dasp::allow`/`SAFETY:` comment covers the line.
    pub waived: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.waived { " (waived)" } else { "" };
        write!(
            f,
            "{}:{}: {}: {}{}",
            self.file, self.line, self.rule, self.message, tag
        )
    }
}

/// Analyzer configuration: the secret-type list, the wire allowlist,
/// and per-rule path scopes.
#[derive(Debug, Clone)]
pub struct Config {
    /// Types whose contents reconstruct client secrets (S1).
    pub secret_types: &'static [&'static str],
    /// DTOs allowed in wire-serialization signatures (S2).
    pub wire_allowlist: &'static [&'static str],
}

impl Default for Config {
    fn default() -> Self {
        Config {
            secret_types: &[
                "Secret",
                "EvalPoints",
                "FieldSharing",
                "OpssParams",
                "OpSharing",
                "DomainKey",
                "ClientKeys",
                "Poly",
            ],
            wire_allowlist: &[
                "Request",
                "Response",
                "Row",
                "PredAtom",
                "AggOp",
                "GroupPartial",
                "WireRangeProof",
                "WireMerkleProof",
            ],
        }
    }
}

impl Config {
    /// Whether `rule` applies to the file at `path` (relative,
    /// `/`-separated). S1, S2 and U1 are workspace-wide; the others
    /// target the layers where their failure mode lives.
    pub fn in_scope(&self, rule: Rule, path: &str) -> bool {
        match rule {
            // The interprocedural rules manage their own scope: T1/L1
            // skip vendor/, P3 follows the call graph wherever it
            // goes, B1 starts from the inline roots, W1 from the
            // WAL/publish effect seeds, C1/C2 model every first-party
            // fn.
            Rule::S1
            | Rule::S2
            | Rule::U1
            | Rule::T1
            | Rule::L1
            | Rule::P3
            | Rule::B1
            | Rule::W1
            | Rule::C1
            | Rule::C2 => true,
            Rule::E1 => {
                path.contains("crates/net/")
                    || path.contains("crates/server/")
                    || path.contains("crates/storage/")
            }
            Rule::P1 => {
                path.contains("crates/net/")
                    || path.contains("crates/server/")
                    || path.ends_with("crates/client/src/source.rs")
            }
            Rule::P2 => path.contains("crates/field/") || path.contains("crates/bigint/"),
            Rule::D1 => {
                path.contains("crates/field/")
                    || path.contains("crates/sss/")
                    || path.contains("crates/bigint/")
                    || path.contains("crates/crypto/")
            }
        }
    }
}

/// Analyze one source string as if it lived at `path_hint` (used only
/// for rule scoping), with the default [`Config`].
pub fn analyze_source(path_hint: &str, src: &str) -> Vec<Finding> {
    analyze_source_with(path_hint, src, &Config::default())
}

/// [`analyze_source`] with an explicit config.
pub fn analyze_source_with(path_hint: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    let tokens = lexer::lex(src);
    rules::check(path_hint, &tokens, cfg)
}

/// Result of analyzing a directory tree.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files lexed.
    pub files_scanned: usize,
    /// All findings, waived ones included.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings not covered by a waiver — the ones that gate CI.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Number of findings a waiver comment covers.
    pub fn waived_count(&self) -> usize {
        self.findings.iter().filter(|f| f.waived).count()
    }
}

/// Directory names never descended into: build output, vendored stubs,
/// integration tests, benches, and lint fixtures (which contain
/// violations on purpose).
const SKIP_DIRS: &[&str] = &["target", "vendor", "tests", "benches", "fixtures", ".git"];

/// Wall-clock breakdown of a workspace run, one entry per phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timing {
    /// Reading sources + lexing (each file is lexed exactly once).
    pub lex: std::time::Duration,
    /// Per-file token rules (S1/S2/P1/P2/D1/U1/E1).
    pub token_rules: std::time::Duration,
    /// IR construction + call-graph linking.
    pub parse: std::time::Duration,
    /// All interprocedural passes (T1/L1/P3/B1/W1/C1/C2).
    pub interproc: std::time::Duration,
    /// End-to-end, including normalization.
    pub total: std::time::Duration,
}

/// Analyze the workspace under `root`: first-party `.rs` files in
/// `crates/` and `examples/` (minus [`SKIP_DIRS`]) under the full
/// ruleset, plus `vendor/*/src/` under the relaxed one (U1 + P3).
///
/// Two phases: the per-file token rules run first, then the files are
/// parsed into a [`ir::WorkspaceIr`], linked into a call graph, and the
/// interprocedural rules (T1 taint, L1 lock discipline, P3 transitive
/// panic reachability, B1 inline-path blocking, W1 durability ordering,
/// C1/C2 deadlock detection) run over the whole program. Each file is
/// lexed exactly once; the token stream is shared between the token
/// rules and the IR. Findings come back normalized: sorted by (file,
/// line, rule, message), deduplicated.
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    analyze_workspace_timed(root).map(|(report, _)| report)
}

/// [`analyze_workspace`] plus the per-phase [`Timing`] breakdown.
pub fn analyze_workspace_timed(root: &Path) -> std::io::Result<(Report, Timing)> {
    let t_start = std::time::Instant::now();
    let mut files = Vec::new();
    for sub in ["crates", "examples"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut vendor_files = Vec::new();
    let vend = root.join("vendor");
    if vend.is_dir() {
        for entry in std::fs::read_dir(&vend)? {
            let src_dir = entry?.path().join("src");
            if src_dir.is_dir() {
                collect_rs_files(&src_dir, &mut vendor_files)?;
            }
        }
    }
    vendor_files.sort();

    let mut timing = Timing::default();
    let mut report = Report::default();
    let mut inputs: Vec<(String, bool, Vec<lexer::Token>)> = Vec::new();
    let first_party = files.into_iter().map(|f| (f, false));
    let vendored = vendor_files.into_iter().map(|f| (f, true));
    for (file, vendor) in first_party.chain(vendored) {
        let t = std::time::Instant::now();
        let src = std::fs::read_to_string(&file)?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let tokens = lexer::lex(&src);
        timing.lex += t.elapsed();
        report.files_scanned += 1;
        inputs.push((rel, vendor, tokens));
    }

    let cfg = Config::default();
    let t = std::time::Instant::now();
    for (rel, _, tokens) in &inputs {
        report.findings.extend(rules::check(rel, tokens, &cfg));
    }
    timing.token_rules = t.elapsed();

    let t = std::time::Instant::now();
    let ws = parser::build_workspace_tokens(inputs, manifest::Crates::read(root));
    let graph = callgraph::CallGraph::build(&ws);
    timing.parse = t.elapsed();

    let t = std::time::Instant::now();
    report
        .findings
        .extend(interproc_findings(&ws, &graph, &cfg));
    timing.interproc = t.elapsed();

    report::normalize(&mut report.findings);
    timing.total = t_start.elapsed();
    Ok((report, timing))
}

/// Convert T1/L1/P3/B1/W1 hits into [`Finding`]s, applying waivers.
fn interproc_findings(
    ws: &ir::WorkspaceIr,
    graph: &callgraph::CallGraph,
    cfg: &Config,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let waived_at = |fn_id: ir::FnId, line: u32, rule: Rule| -> bool {
        let file = &ws.files[ws.fns[fn_id].file];
        file.waivers
            .get(&line)
            .is_some_and(|rules| rules.contains(rule.as_str()))
    };
    let file_of = |fn_id: ir::FnId| ws.files[ws.fns[fn_id].file].path.clone();

    for hit in taint::run_t1(ws, cfg.secret_types) {
        out.push(Finding {
            rule: Rule::T1,
            file: file_of(hit.fn_id),
            line: hit.line,
            message: hit.message,
            waived: waived_at(hit.fn_id, hit.line, Rule::T1),
        });
    }
    for hit in locks::run_l1(ws, graph) {
        out.push(Finding {
            rule: Rule::L1,
            file: file_of(hit.fn_id),
            line: hit.line,
            message: hit.message,
            waived: waived_at(hit.fn_id, hit.line, Rule::L1),
        });
    }
    for hit in callgraph::run_p3(ws, graph) {
        let message = format!(
            "P3 panic reachability: {} in {}, reachable via {}",
            hit.kind.describe(),
            ws.label(hit.fn_id),
            hit.path.join(" -> ")
        );
        let (line, waived) = if let Some(&l) = hit.lines.first() {
            (l, false)
        } else if let Some(&l) = hit.waived_lines.first() {
            (l, true)
        } else {
            continue;
        };
        out.push(Finding {
            rule: Rule::P3,
            file: file_of(hit.fn_id),
            line,
            message,
            waived,
        });
    }
    for hit in blocking::run_b1(ws, graph) {
        let message = format!(
            "B1 blocking on inline path: {} in {}, reachable via {}",
            hit.desc,
            ws.label(hit.fn_id),
            hit.path.join(" -> ")
        );
        let (line, waived) = if let Some(&l) = hit.lines.first() {
            (l, false)
        } else if let Some(&l) = hit.waived_lines.first() {
            (l, true)
        } else {
            continue;
        };
        out.push(Finding {
            rule: Rule::B1,
            file: file_of(hit.fn_id),
            line,
            message,
            waived,
        });
    }
    for hit in ordering::run_w1(ws, graph) {
        out.push(Finding {
            rule: Rule::W1,
            file: file_of(hit.fn_id),
            line: hit.line,
            message: hit.message,
            waived: waived_at(hit.fn_id, hit.line, Rule::W1),
        });
    }
    let dl = deadlock::run(ws);
    for (rule, hits) in [(Rule::C1, dl.c1), (Rule::C2, dl.c2)] {
        for hit in hits {
            out.push(Finding {
                rule,
                file: file_of(hit.fn_id),
                line: hit.line,
                message: hit.message,
                waived: waived_at(hit.fn_id, hit.line, rule),
            });
        }
    }
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
