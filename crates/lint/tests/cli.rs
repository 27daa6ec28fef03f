//! The `dasp-lint` binary's exit status and output format: what CI
//! gates on. The rules themselves are pinned by `analyzer.rs` and
//! `interproc.rs`; this runs the built binary over fixture workspaces.

use std::path::PathBuf;
use std::process::{Command, Output};

fn lint(fixture: &str, args: &[&str]) -> Output {
    let root: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests/fixtures", fixture]
        .iter()
        .collect();
    Command::new(env!("CARGO_BIN_EXE_dasp-lint"))
        .arg("--root")
        .arg(&root)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("run dasp-lint on {}: {e}", root.display()))
}

#[test]
fn deny_all_fails_on_a_seeded_violation() {
    let out = lint("p3/bad", &["--deny-all"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn json_report_names_the_rule() {
    let out = lint("p3/bad", &["--deny-all", "--format", "json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains(r#""rule": "P3""#), "{report}");
}

#[test]
fn deny_all_passes_a_clean_workspace() {
    let out = lint("p3/good", &["--deny-all"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// `--deny-new` against a baseline written to the test's scratch dir.
fn deny_new(fixture: &str, baseline: &str, entries: &str) -> (Option<i32>, String) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(baseline);
    std::fs::write(
        &path,
        format!("{{\"version\": 1, \"entries\": [{entries}]}}"),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    let out = lint(
        fixture,
        &["--deny-new", "--baseline", &path.to_string_lossy()],
    );
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn deny_new_fails_on_a_new_finding_with_a_plus_line() {
    let (code, stderr) = deny_new("p3/bad", "empty-baseline.json", "");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("+P3: crates/app/src/lib.rs: ")),
        "{stderr}"
    );
}

#[test]
fn deny_new_fails_on_a_stale_entry_with_a_minus_line() {
    let stale = r#"{"rule": "P3", "file": "crates/app/src/lib.rs", "message": "fixed"}"#;
    let (code, stderr) = deny_new("p3/good", "stale-baseline.json", stale);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l == "-P3: crates/app/src/lib.rs: fixed"),
        "{stderr}"
    );
    let new = |l: &str| l.starts_with('+') && !l.starts_with("+++");
    assert!(!stderr.lines().any(new), "{stderr}");
}
