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
