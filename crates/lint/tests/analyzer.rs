//! End-to-end analyzer tests: each rule fires exactly where the bad
//! fixture says it should, stays silent on the good fixture, and the
//! real workspace passes with zero unwaived findings.

use dasp_lint::{analyze_source, Finding, Rule};
use std::path::Path;

/// Read `tests/fixtures/<rule>/<which>`.
fn fixture(rule: &str, which: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(which);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Analyze fixture text as if it lived at `path_hint`, dropping waived
/// findings (the CI gate only sees unwaived ones).
fn violations(path_hint: &str, src: &str) -> Vec<Finding> {
    analyze_source(path_hint, src)
        .into_iter()
        .filter(|f| !f.waived)
        .collect()
}

/// Assert `found` is exactly `rule` at exactly `lines` (sorted).
fn assert_fires(found: &[Finding], rule: Rule, lines: &[u32]) {
    let mut got: Vec<u32> = found
        .iter()
        .map(|f| {
            assert_eq!(f.rule, rule, "unexpected rule in {f}");
            f.line
        })
        .collect();
    got.sort_unstable();
    assert_eq!(got, lines, "findings: {found:?}");
}

#[test]
fn s1_bad_fires_on_derive_impl_and_macro() {
    let found = violations("crates/sss/src/x.rs", &fixture("s1", "bad.rs"));
    assert_fires(&found, Rule::S1, &[4, 9, 17]);
}

#[test]
fn s1_good_is_clean_and_waiver_visible() {
    let src = fixture("s1", "good.rs");
    assert!(violations("crates/sss/src/x.rs", &src).is_empty());
    // The sanctioned impl still registers as a waived finding.
    let all = analyze_source("crates/sss/src/x.rs", &src);
    assert_eq!(all.iter().filter(|f| f.waived).count(), 1);
}

#[test]
fn s2_bad_fires_on_non_allowlisted_type() {
    let found = violations("crates/net/src/x.rs", &fixture("s2", "bad.rs"));
    assert_fires(&found, Rule::S2, &[8]);
    assert!(found[0].message.contains("ClientKeys"));
}

#[test]
fn s2_good_is_clean() {
    assert!(violations("crates/net/src/x.rs", &fixture("s2", "good.rs")).is_empty());
}

#[test]
fn p1_bad_fires_on_every_panic_construct() {
    let found = violations("crates/net/src/x.rs", &fixture("p1", "bad.rs"));
    assert_fires(&found, Rule::P1, &[4, 5, 7, 10]);
}

#[test]
fn p1_good_is_clean() {
    assert!(violations("crates/net/src/x.rs", &fixture("p1", "good.rs")).is_empty());
}

#[test]
fn p1_is_scoped_to_provider_paths() {
    // The same panicky source is fine outside net/server/client-source.
    let src = fixture("p1", "bad.rs");
    let found = violations("crates/workload/src/x.rs", &src);
    assert!(
        found.iter().all(|f| f.rule != Rule::P1),
        "P1 must not fire outside its scope: {found:?}"
    );
    // …and fires in every scoped layer.
    for hint in [
        "crates/net/src/rpc.rs",
        "crates/server/src/engine.rs",
        "crates/client/src/source.rs",
    ] {
        assert!(
            violations(hint, &src).iter().any(|f| f.rule == Rule::P1),
            "P1 must fire under {hint}"
        );
    }
}

#[test]
fn p2_bad_fires_on_lossy_casts() {
    let found = violations("crates/field/src/x.rs", &fixture("p2", "bad.rs"));
    assert_fires(&found, Rule::P2, &[4, 5, 6]);
}

#[test]
fn p2_good_allows_widening_waivers_and_usize() {
    assert!(violations("crates/field/src/x.rs", &fixture("p2", "good.rs")).is_empty());
    assert!(violations("crates/bigint/src/x.rs", &fixture("p2", "good.rs")).is_empty());
}

#[test]
fn d1_bad_fires_on_wall_clock() {
    let found = violations("crates/sss/src/x.rs", &fixture("d1", "bad.rs"));
    assert_fires(&found, Rule::D1, &[4, 6]);
}

#[test]
fn d1_good_is_clean() {
    assert!(violations("crates/sss/src/x.rs", &fixture("d1", "good.rs")).is_empty());
}

#[test]
fn u1_bad_fires_on_bare_unsafe() {
    let found = violations("crates/storage/src/x.rs", &fixture("u1", "bad.rs"));
    assert_fires(&found, Rule::U1, &[4]);
}

#[test]
fn u1_good_safety_comment_waives() {
    assert!(violations("crates/storage/src/x.rs", &fixture("u1", "good.rs")).is_empty());
}

#[test]
fn e1_bad_fires_on_let_underscore_and_bare_ok() {
    let found = violations("crates/net/src/x.rs", &fixture("e1", "bad.rs"));
    assert_fires(&found, Rule::E1, &[4, 5, 6, 7]);
}

#[test]
fn e1_good_handled_bound_and_waived_results_pass() {
    let src = fixture("e1", "good.rs");
    assert!(violations("crates/net/src/x.rs", &src).is_empty());
    let all = dasp_lint::analyze_source("crates/net/src/x.rs", &src);
    assert_eq!(
        all.iter()
            .filter(|f| f.waived && f.rule == Rule::E1)
            .count(),
        1,
        "the shutdown-drain waiver must surface: {all:?}"
    );
}

#[test]
fn e1_is_scoped_to_net_server_storage() {
    let src = fixture("e1", "bad.rs");
    for path in ["crates/lint/src/x.rs", "crates/crypto/src/x.rs"] {
        assert!(
            violations(path, &src).is_empty(),
            "E1 must not fire outside net/server/storage at {path}"
        );
    }
    for path in ["crates/server/src/x.rs", "crates/storage/src/x.rs"] {
        assert_eq!(violations(path, &src).len(), 4, "E1 in scope at {path}");
    }
}

#[test]
fn waivers_are_rule_specific() {
    let src = "fn f(v: Option<u64>) -> u64 {\n\
               // dasp::allow(S1): wrong rule — must not cover P1.\n\
               v.unwrap()\n\
               }\n";
    let found = violations("crates/net/src/x.rs", src);
    assert_fires(&found, Rule::P1, &[3]);
}

#[test]
fn strings_and_comments_never_fire() {
    let src = r#"
        pub fn doc() -> &'static str {
            // .unwrap() and panic! in a comment are fine.
            "call .unwrap() or panic!(now) — only prose"
        }
    "#;
    assert!(violations("crates/net/src/x.rs", src).is_empty());
}

#[test]
fn workspace_self_check_is_clean_modulo_baseline() {
    // CARGO_MANIFEST_DIR = crates/lint → workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = dasp_lint::analyze_workspace(&root).unwrap();
    // Known findings (the interprocedural P3 tail) live in the
    // committed baseline; a finding beyond it, or an entry that no
    // longer fires, fails this test the same way `--deny-new` fails CI.
    let baseline_path = root.join("lint-baseline.json");
    let baseline_src = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", baseline_path.display()));
    let baseline = dasp_lint::report::Baseline::parse(&baseline_src).unwrap();
    assert!(!baseline.is_empty(), "committed baseline must not be empty");
    let drift = baseline.drift(&report);
    assert!(
        drift.is_empty(),
        "workspace findings differ from lint-baseline.json:\n{}",
        drift.join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "walker should find the whole workspace, got {}",
        report.files_scanned
    );
    assert!(
        report.waived_count() >= 10,
        "sanctioned redacting impls should surface as waived findings, got {}",
        report.waived_count()
    );
}
