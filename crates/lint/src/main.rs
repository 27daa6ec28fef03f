//! CLI entry point.
//!
//! ```text
//! dasp-lint [--root DIR] [--format text|json] [--baseline FILE]
//!           [--deny-all | --deny-new]
//!           [--write-baseline FILE] [--quiet] [--timing]
//! ```
//!
//! Text mode prints every unwaived finding as `path:line: RULE:
//! message`. JSON mode prints the full report (waived findings
//! included) to stdout and the human summary to stderr, so the report
//! can be piped or uploaded as a CI artifact. Findings are sorted by
//! (file, line, rule, message) in both modes.
//!
//! Gates: `--deny-all` exits 1 on any unwaived finding; `--deny-new`
//! exits 1 when the unwaived findings differ from the baseline file
//! (`--baseline`, default `lint-baseline.json` under the root): a new
//! finding, or a baseline entry that no longer fires. On failure it
//! prints the unified diff — new findings prefixed `+`, stale entries
//! `-` — so a red CI run explains itself.
//! `--write-baseline` records the current unwaived findings and exits.
//! `--timing` prints the per-phase wall-clock breakdown (lex, token
//! rules, parse, interprocedural, total) to stderr; CI asserts the
//! total stays under its budget.

use dasp_lint::report::Baseline;
use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut deny_all = false;
    let mut deny_new = false;
    let mut quiet = false;
    let mut timing = false;
    let mut format = Format::Text;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage_error("--root needs a directory argument"),
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                _ => return usage_error("--format needs `text` or `json`"),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage_error("--baseline needs a file argument"),
            },
            "--write-baseline" => match args.next() {
                Some(p) => write_baseline = Some(PathBuf::from(p)),
                None => return usage_error("--write-baseline needs a file argument"),
            },
            "--deny-all" => deny_all = true,
            "--deny-new" => deny_new = true,
            "--quiet" => quiet = true,
            "--timing" => timing = true,
            "--help" | "-h" => {
                println!(
                    "dasp-lint: secrecy-hygiene, lock-discipline and panic-safety analyzer\n\n\
                     USAGE: dasp-lint [--root DIR] [--format text|json] [--baseline FILE]\n\
                     \x20                [--deny-all | --deny-new] [--write-baseline FILE]\n\
                     \x20                [--quiet] [--timing]\n\n\
                     --root DIR             workspace root to scan (default: .)\n\
                     --format text|json     output format (default: text; json goes to stdout)\n\
                     --baseline FILE        known-findings file (default: <root>/lint-baseline.json)\n\
                     --deny-all             exit 1 on any unwaived finding\n\
                     --deny-new             exit 1 when unwaived findings differ from the\n\
                     \x20                      baseline (new or stale), printing the diff\n\
                     --write-baseline FILE  record current unwaived findings and exit\n\
                     --quiet                suppress the summary line\n\
                     --timing               print the per-phase wall-clock breakdown to stderr\n\n\
                     Token rules: S1 S2 P1 P2 D1 U1 E1; interprocedural: T1 P3 B1 W1 C1 C2\n\
                     (DESIGN.md §8).\n\
                     vendor/ is scanned with the relaxed set (U1 + P3).\n\
                     Waive a line with: // dasp::allow(RULE): reason"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("dasp-lint: unknown argument {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let (report, phases) = match dasp_lint::analyze_workspace_timed(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dasp-lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if timing {
        eprintln!(
            "dasp-lint timing: lex {:.1?}, token rules {:.1?}, parse {:.1?}, interproc {:.1?}, total {:.1?}",
            phases.lex, phases.token_rules, phases.parse, phases.interproc, phases.total
        );
    }

    if let Some(path) = write_baseline {
        let baseline = Baseline::from_report(&report);
        if let Err(e) = std::fs::write(&path, baseline.to_json()) {
            eprintln!("dasp-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "dasp-lint: wrote {} baseline entr{} to {}",
            baseline.len(),
            if baseline.len() == 1 { "y" } else { "ies" },
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = if deny_new {
        let path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.json"));
        match std::fs::read_to_string(&path) {
            Ok(src) => match Baseline::parse(&src) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("dasp-lint: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("dasp-lint: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };

    match format {
        Format::Text => {
            for f in report.violations() {
                println!("{f}");
            }
        }
        Format::Json => {
            print!("{}", dasp_lint::report::to_json(&report));
        }
    }

    let violations = report.violations().count();
    if !quiet {
        eprintln!(
            "dasp-lint: {} files scanned, {} violation(s), {} waived",
            report.files_scanned,
            violations,
            report.waived_count()
        );
    }

    if let Some(baseline) = &baseline {
        let drift = baseline.drift(&report);
        if !drift.is_empty() {
            eprintln!(
                "dasp-lint: findings differ from the baseline ({} known); a stale entry goes with its fix:",
                baseline.len()
            );
            eprintln!("--- baseline (committed)\n+++ findings (current, unwaived)");
            for line in &drift {
                eprintln!("{line}");
            }
            return ExitCode::FAILURE;
        }
        if !quiet {
            eprintln!(
                "dasp-lint: findings match the baseline ({} known)",
                baseline.len()
            );
        }
    }
    if deny_all && violations > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("dasp-lint: {msg}");
    ExitCode::from(2)
}
