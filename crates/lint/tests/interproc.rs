//! Interprocedural rule tests. Each fixture under `tests/fixtures/{t1,
//! l1,p3,b1,w1}/{bad,good}/` is a miniature workspace (its own
//! `crates/` and, for P3, a `vendor/` tree) fed through the real
//! [`analyze_workspace`] pipeline: lexer → item parser → call graph →
//! T1/L1/P3/B1/W1. The bad fixtures pin the exact firing line *and* the
//! full propagation or witness chain; the good fixtures must stay
//! silent for the rule under test (waived findings excepted, which are
//! asserted explicitly).

use dasp_lint::{analyze_workspace, callgraph, parser, report, Finding, Report, Rule};
use std::path::{Path, PathBuf};

fn fixture_root(rule: &str, which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
        .join(which)
}

fn run(rule: &str, which: &str) -> Report {
    let root = fixture_root(rule, which);
    analyze_workspace(&root).unwrap_or_else(|e| panic!("analyze {}: {e}", root.display()))
}

/// Unwaived findings of one rule as `(file, line, message)` triples,
/// in report (= sorted) order.
fn of_rule(report: &Report, rule: Rule) -> Vec<(String, u32, String)> {
    report
        .violations()
        .filter(|f| f.rule == rule)
        .map(|f| (f.file.clone(), f.line, f.message.clone()))
        .collect()
}

fn waived_of_rule(report: &Report, rule: Rule) -> Vec<&Finding> {
    report
        .findings
        .iter()
        .filter(|f| f.waived && f.rule == rule)
        .collect()
}

const APP: &str = "crates/app/src/lib.rs";

#[test]
fn t1_bad_reports_direct_and_multi_hop_leaks() {
    let report = run("t1", "bad");
    let got = of_rule(&report, Rule::T1);
    let want = [
        (
            APP.to_string(),
            27,
            "T1 secret taint: value from expose() reaches println! macro in direct_leak"
                .to_string(),
        ),
        (
            APP.to_string(),
            32,
            "T1 secret taint: value from expose() reaches println! macro in chained_leak \
             via log_value"
                .to_string(),
        ),
        (
            APP.to_string(),
            33,
            "T1 secret taint: value from expose() reaches .write_u64() wire write in \
             chained_leak"
                .to_string(),
        ),
    ];
    assert_eq!(got, want, "T1 bad fixture findings");
}

#[test]
fn t1_good_sanitizers_consumers_and_waivers_stay_quiet() {
    let report = run("t1", "good");
    assert_eq!(
        of_rule(&report, Rule::T1),
        vec![],
        "unwaived T1 in good fixture"
    );
    let waived = waived_of_rule(&report, Rule::T1);
    assert_eq!(waived.len(), 1, "exactly the waived dump: {waived:?}");
    assert_eq!(waived[0].line, 28);
}

#[test]
fn l1_bad_reports_discipline_violations_with_witness_chains() {
    let report = run("l1", "bad");
    let got = of_rule(&report, Rule::L1);
    let want = [
        (
            APP.to_string(),
            15,
            "L1 double acquisition: mutex guard taken while a mutex guard is already \
             held in double_mutex"
                .to_string(),
        ),
        (
            APP.to_string(),
            22,
            "L1 lock-order inversion: RwLock read guard taken while a mutex guard is \
             held in inversion (declared order: tables-RwLock before pool-shard mutex)"
                .to_string(),
        ),
        (
            APP.to_string(),
            29,
            "L1 blocking op under guard: channel send while holding a RwLock write \
             guard in send_under_write"
                .to_string(),
        ),
        (
            APP.to_string(),
            35,
            "L1 blocking op under guard: call chain notify sends while send_via_helper \
             holds a RwLock write guard"
                .to_string(),
        ),
    ];
    assert_eq!(got, want, "L1 bad fixture findings");
}

#[test]
fn l1_good_declared_order_and_read_guards_pass() {
    let report = run("l1", "good");
    assert_eq!(of_rule(&report, Rule::L1), vec![], "L1 in good fixture");
}

#[test]
fn p3_bad_reports_cross_crate_reachability_paths() {
    let report = run("p3", "bad");
    let got = of_rule(&report, Rule::P3);
    let want = [
        (
            APP.to_string(),
            9,
            "P3 panic reachability: indexing without get in Shares::pick, reachable \
             via DataSource::select -> decode -> Shares::pick"
                .to_string(),
        ),
        (
            APP.to_string(),
            24,
            "P3 panic reachability: .unwrap() in DataSource::first, reachable via \
             DataSource::first"
                .to_string(),
        ),
        (
            APP.to_string(),
            40,
            "P3 panic reachability: indexing without get in tail, reachable via \
             DataSource::last -> tail"
                .to_string(),
        ),
        (
            "vendor/mini/src/lib.rs".to_string(),
            10,
            "P3 panic reachability: indexing without get in Rng::next_u64, reachable \
             via DataSource::sample -> Rng::next_u64"
                .to_string(),
        ),
    ];
    assert_eq!(got, want, "P3 bad fixture findings");
    // `orphan` panics but is unreachable from any entry point.
    assert!(
        report
            .findings
            .iter()
            .all(|f| !f.message.contains("orphan")),
        "unreachable fn must not be flagged"
    );
}

#[test]
fn p3_follows_a_turbofish_call() {
    let got = of_rule(&run("p3", "turbofish"), Rule::P3);
    let msg = "P3 panic reachability: indexing without get in helper, reachable via \
               DataSource::select -> helper";
    assert_eq!(got, [(APP.to_string(), 7, msg.to_string())]);
}

/// `app` depends on `dep` but not on `other`; both define `frob`, and
/// `app` calls it on an untypable receiver. Only `dep`'s can be linked.
#[test]
fn p3_links_only_along_crate_dependencies() {
    let got = of_rule(&run("p3", "closure"), Rule::P3);
    let msg = "P3 panic reachability: indexing without get in Widget::frob, reachable \
               via DataSource::poke -> Widget::frob";
    assert_eq!(
        got,
        [("crates/dep/src/lib.rs".to_string(), 5, msg.to_string())]
    );
}

#[test]
fn p3_good_checked_access_passes_waiver_surfaces() {
    let report = run("p3", "good");
    assert_eq!(
        of_rule(&report, Rule::P3),
        vec![],
        "unwaived P3 in good fixture"
    );
    let waived = waived_of_rule(&report, Rule::P3);
    assert_eq!(waived.len(), 1, "exactly the waived unwrap: {waived:?}");
    assert_eq!(waived[0].line, 16);
    // `depth` calls its local `walk`, never the panicking module-level
    // one, and the local item is not a method of `DataSource`.
    assert!(
        report.findings.iter().all(|f| !f.message.contains("walk")),
        "a local fn resolved to a module-level namesake"
    );
}

#[test]
fn vendor_gets_relaxed_ruleset_u1_plus_p3_only() {
    let report = run("p3", "bad");
    let vendor: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| f.file.starts_with("vendor/"))
        .collect();
    // The vendored stub derives Debug on a secret-named type (S1 in
    // first-party code) — only U1 and P3 may fire there.
    assert!(
        vendor.iter().all(|f| matches!(f.rule, Rule::U1 | Rule::P3)),
        "vendor findings must be U1/P3 only: {vendor:?}"
    );
    assert!(
        vendor.iter().any(|f| f.rule == Rule::U1 && f.line == 15),
        "bare unsafe in vendor must still fire U1: {vendor:?}"
    );
}

const ENGINE: &str = "crates/app/src/engine.rs";

#[test]
fn b1_bad_reports_blocking_ops_with_reachability_paths() {
    let report = run("b1", "bad");
    let got = of_rule(&report, Rule::B1);
    let hit = |file: &str, line: u32, what: &str, chain: &str| {
        (
            file.to_string(),
            line,
            format!("B1 blocking on inline path: {what}, reachable via {chain}"),
        )
    };
    let want = [
        hit(
            ENGINE,
            13,
            "fsync in spill",
            "ProviderEngine::execute_read -> spill",
        ),
        hit(
            ENGINE,
            33,
            "write-capable lock acquisition in ProviderEngine::probe",
            "ProviderEngine::execute_read -> ProviderEngine::probe",
        ),
        hit(
            ENGINE,
            38,
            "unbounded channel send in ProviderEngine::pump",
            "ProviderEngine::execute_read -> ProviderEngine::pump",
        ),
        hit(
            ENGINE,
            42,
            "thread sleep in ProviderEngine::nap",
            "ProviderEngine::execute_read -> ProviderEngine::nap",
        ),
        hit(
            ENGINE,
            46,
            "durable WAL append in ProviderEngine::log_durable",
            "ProviderEngine::execute_read -> ProviderEngine::log_durable",
        ),
        // The decoder feed is a root of its own; its constructor is not.
        hit(
            "crates/app/src/wire.rs",
            14,
            "thread sleep in FrameDecoder::extend",
            "FrameDecoder::extend",
        ),
    ];
    assert_eq!(got, want, "B1 bad fixture findings");
}

#[test]
fn b1_good_bounded_ops_and_wouldblock_io_pass_waiver_surfaces() {
    // The good fixture also holds a write path (lock + fsync) that
    // `execute_read` does not reach: B1 polices the inline path only.
    let report = run("b1", "good");
    assert_eq!(
        of_rule(&report, Rule::B1),
        vec![],
        "unwaived B1 in good fixture"
    );
    let waived = waived_of_rule(&report, Rule::B1);
    assert_eq!(waived.len(), 1, "exactly the waived backoff: {waived:?}");
    assert_eq!(waived[0].line, 41);
}

#[test]
fn w1_bad_reports_ordering_and_crash_point_violations() {
    let report = run("w1", "bad");
    let got = of_rule(&report, Rule::W1);
    let want = [
        (
            APP.to_string(),
            20,
            "W1 durability ordering: snapshot publish precedes durable WAL append in \
             ProviderEngine::execute_write"
                .to_string(),
        ),
        (
            APP.to_string(),
            26,
            "W1 durability ordering: success ack returned before durable WAL append in \
             ProviderEngine::ack_early"
                .to_string(),
        ),
        (
            APP.to_string(),
            33,
            "W1 durability ordering: snapshot publish precedes durable WAL append in \
             ProviderEngine::publish_via_helper via ProviderEngine::install -> \
             ProviderEngine::set_published"
                .to_string(),
        ),
        (
            APP.to_string(),
            46,
            "W1 crash-point discipline: crash_point_hit result discarded in \
             ProviderEngine::mutate"
                .to_string(),
        ),
        (
            APP.to_string(),
            51,
            "W1 crash-point discipline: execution continues past crash point guard in \
             ProviderEngine::guarded"
                .to_string(),
        ),
    ];
    assert_eq!(got, want, "W1 bad fixture findings");
}

#[test]
fn w1_good_append_then_publish_passes_waiver_surfaces() {
    let report = run("w1", "good");
    assert_eq!(
        of_rule(&report, Rule::W1),
        vec![],
        "unwaived W1 in good fixture"
    );
    let waived = waived_of_rule(&report, Rule::W1);
    assert_eq!(waived.len(), 1, "exactly the waived early ack: {waived:?}");
    assert_eq!(waived[0].line, 41);
}

#[test]
fn c1_bad_reports_lock_order_cycle_with_two_sided_witness() {
    let report = run("c1", "bad");
    let got = of_rule(&report, Rule::C1);
    let want = [(
        APP.to_string(),
        22,
        "C1 lock-order cycle between `Engine.pool` and `Engine.tables`: one thread \
         `Engine::evict` acquires `Engine.tables` (mutex guard) while holding \
         `Engine.pool` via Engine::flush; another thread `Engine::publish` acquires \
         `Engine.pool` (mutex guard) while holding `Engine.tables` — interleaved, \
         each waits for the lock the other holds"
            .to_string(),
    )];
    assert_eq!(got, want, "C1 bad fixture findings");
}

#[test]
fn c1_good_consistent_order_passes_waiver_surfaces() {
    let report = run("c1", "good");
    assert_eq!(
        of_rule(&report, Rule::C1),
        vec![],
        "unwaived C1 in good fixture"
    );
    let waived = waived_of_rule(&report, Rule::C1);
    assert_eq!(waived.len(), 1, "exactly the waived ring: {waived:?}");
    assert_eq!(waived[0].line, 47);
}

/// The e3a2826 regression (reconnect joining its reader thread while
/// holding the state lock the reader's loop takes) plus a two-channel
/// bounded ring. Both must fire with full witness chains.
#[test]
fn c2_bad_reports_reconnect_join_and_bounded_ring() {
    let report = run("c2", "bad");
    let got = of_rule(&report, Rule::C2);
    let want = [
        (
            APP.to_string(),
            24,
            "C2 deadlock: `Conn::reconnect` blocks on a thread join while holding \
             `Conn.state`; the awaited thread spawned in `Conn::reconnect` (entry \
             `reader_loop`) acquires `Conn.state` via reader_loop — the wait can \
             never finish"
                .to_string(),
        ),
        (
            APP.to_string(),
            38,
            "C2 bounded-channel wait cycle: the caller thread blocks in `feed` \
             sending on the bounded channel `(job_tx, job_rx)` created in `pipeline` \
             until the thread spawned in `pipeline` (entry `worker`) drains it; the \
             thread spawned in `pipeline` (entry `worker`) blocks in `worker` \
             sending on the bounded channel `(res_tx, res_rx)` created in `pipeline` \
             until the caller thread drains it — every thread in the ring waits for \
             the next, and the bounded queue can be full"
                .to_string(),
        ),
    ];
    assert_eq!(got, want, "C2 bad fixture findings");
}

/// The bounded ring of `c2/bad`, its channels built by `bounded::<u64>(…)`.
#[test]
fn c2_sees_a_turbofish_channel_constructor() {
    let got = of_rule(&run("c2", "turbofish"), Rule::C2);
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!((got[0].0.as_str(), got[0].1), (APP, 13));
    assert!(
        got[0].2.starts_with("C2 bounded-channel wait cycle"),
        "{got:?}"
    );
}

/// The fixed shapes: guard dropped before join, single-channel
/// producer/consumer (rendezvous, never a deadlock), and one waived
/// lock-held join.
#[test]
fn c2_good_fixed_shapes_pass_waiver_surfaces() {
    let report = run("c2", "good");
    assert_eq!(
        of_rule(&report, Rule::C2),
        vec![],
        "unwaived C2 in good fixture"
    );
    let waived = waived_of_rule(&report, Rule::C2);
    assert_eq!(waived.len(), 1, "exactly the waived join: {waived:?}");
    assert_eq!(waived[0].line, 57);
}

/// Regression for the call-graph precision upgrade: `Wal::spawn_flusher`
/// calls `std::thread::Builder::new().name(…).spawn(…)` — a chained
/// call on an external type. The old bare-name fallback fabricated an
/// edge to every workspace fn named `spawn`; return-type chaining must
/// classify the receiver as external and emit no edge at all.
#[test]
fn external_builder_spawn_does_not_link_to_workspace_spawn() {
    let src = r#"
pub struct Wal;

impl Wal {
    fn spawn_flusher(shared: u64) -> Option<u64> {
        std::thread::Builder::new()
            .name("dasp-wal-flusher".into())
            .spawn(move || Self::flusher_loop(shared))
            .ok()
    }

    fn flusher_loop(_shared: u64) {}
}

pub struct Cluster;

impl Cluster {
    pub fn spawn(&self, _provider: u64) -> u64 {
        42
    }
}
"#;
    let ws = parser::build_workspace(vec![(
        "crates/storage/src/wal.rs".to_string(),
        false,
        src.to_string(),
    )]);
    let graph = callgraph::CallGraph::build(&ws);
    let find = |impl_type: &str, name: &str| {
        ws.fns
            .iter()
            .position(|f| f.impl_type.as_deref() == Some(impl_type) && f.name == name)
            .unwrap_or_else(|| panic!("{impl_type}::{name} not parsed"))
    };
    let flusher = find("Wal", "spawn_flusher");
    let cluster_spawn = find("Cluster", "spawn");
    let targets: Vec<usize> = graph.edges[flusher].iter().map(|e| e.to).collect();
    assert!(
        !targets.contains(&cluster_spawn),
        "external Builder::spawn must not link to Cluster::spawn: {targets:?}"
    );
    // The closure body still links: the flusher loop is a real callee.
    assert!(
        targets.contains(&find("Wal", "flusher_loop")),
        "Self::flusher_loop edge lost: {targets:?}"
    );
}

#[test]
fn output_is_deterministic_and_sorted() {
    for (rule, which) in [
        ("t1", "bad"),
        ("l1", "bad"),
        ("p3", "bad"),
        ("b1", "bad"),
        ("w1", "bad"),
        ("c1", "bad"),
        ("c2", "bad"),
    ] {
        let a = run(rule, which);
        let b = run(rule, which);
        let render = |r: &Report| {
            r.findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        };
        assert_eq!(
            render(&a),
            render(&b),
            "{rule}/{which} must be reproducible"
        );
        assert_eq!(report::to_json(&a), report::to_json(&b));
        let keys: Vec<_> = a
            .findings
            .iter()
            .map(|f| (f.file.clone(), f.line, f.rule.as_str()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "{rule}/{which} findings must be sorted");
    }
}
