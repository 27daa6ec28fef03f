//! Kill-and-recover stress for the provider write-ahead log.
//!
//! The parent process re-executes itself as a child per crash point
//! (`DASP_CRASH_POINT` + `DASP_CRASH_AFTER`, see
//! [`dasp_storage::wal::CrashPoint`]). Each child serves a durable
//! provider through the RPC worker pool (`DASP_PROVIDER_WORKERS`
//! threads, clients to match), inserts rows with deterministic shares,
//! and prints `ACK <id>` for every acknowledged insert — until the armed
//! crash point aborts the whole process mid-append, mid-fsync, or
//! mid-checkpoint. The parent then recovers the provider directory and
//! checks the durability contract:
//!
//! 1. every acknowledged row is present after recovery (no lost write);
//! 2. every recovered row carries the deterministic share of its id
//!    (no phantom or corrupt row);
//! 3. the recovered index holds every row: an equality probe on each
//!    recovered row's share returns exactly that row, one range over all
//!    shares returns every row, and no probe falls back to a full scan;
//! 4. a Merkle commitment over the recovered table equals the commitment
//!    over a volatile engine rebuilt from the same rows.
//!
//! Exit code 0 = contract held at every crash point.

use dasp_server::{
    DurableConfig, PredAtom, ProviderEngine, ProviderService, Request, Response, Row,
};
use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS_PER_CLIENT: u64 = 120;

fn share_of(id: u64) -> i128 {
    id as i128 * 7
}

fn stress_cfg() -> DurableConfig {
    DurableConfig {
        checkpoint_every: 64, // several checkpoints per run
        ..DurableConfig::default()
    }
}

fn workers() -> usize {
    std::env::var("DASP_PROVIDER_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// Child mode: serve one durable provider, insert until killed.
fn run_child(dir: &Path) {
    let workers = workers();
    let (service, _report) =
        ProviderService::durable(dir, stress_cfg()).expect("child: provider open failed");
    let cluster = dasp_net::Cluster::spawn_concurrent(
        vec![Arc::new(service) as Arc<dyn dasp_net::SharedService>],
        Duration::from_secs(10),
        workers,
    );
    let create = Request::CreateTable {
        name: "t".into(),
        columns: vec!["v".into()],
        indexed: vec![true],
    };
    let resp = Response::decode(&cluster.call(0, create.encode()).expect("create rpc"))
        .expect("create decode");
    assert_eq!(resp, Response::Ack, "child: create failed");
    let cluster = Arc::new(cluster);
    std::thread::scope(|scope| {
        for t in 0..workers as u64 {
            let cluster = Arc::clone(&cluster);
            scope.spawn(move || {
                for i in 0..ROWS_PER_CLIENT {
                    let id = t * 1000 + i + 1;
                    let req = Request::Insert {
                        table: "t".into(),
                        rows: vec![Row {
                            id,
                            shares: vec![share_of(id)],
                        }],
                    };
                    let Ok(bytes) = cluster.call(0, req.encode()) else {
                        return; // provider died mid-call: we are crashing
                    };
                    if Response::decode(&bytes) == Ok(Response::Ack) {
                        // One line per ack; line buffering flushes it
                        // before the abort can eat it.
                        println!("ACK {id}");
                    }
                }
            });
        }
    });
    let _ = std::io::stdout().flush();
}

/// Parent mode: run the child under one crash point, then verify.
fn run_case(exe: &Path, base: &Path, point: &str, after: u64) -> Result<(), String> {
    let dir = base.join(format!("provider-{point}-{after}"));
    let _ = std::fs::remove_dir_all(&dir);
    let output = Command::new(exe)
        .arg("--child")
        .arg(&dir)
        .env("DASP_CRASH_POINT", point)
        .env("DASP_CRASH_AFTER", after.to_string())
        .output()
        .map_err(|e| format!("{point}: spawn failed: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let acked: BTreeSet<u64> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("ACK "))
        .filter_map(|v| v.parse().ok())
        .collect();
    let crashed = !output.status.success();

    let t0 = Instant::now();
    let (engine, report) =
        ProviderEngine::recover(&dir).map_err(|e| format!("{point}: recovery failed: {e}"))?;
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;

    let resp = engine.execute(&Request::Query {
        table: "t".into(),
        predicate: vec![],
        agg: None,
    });
    let Response::Rows(rows) = resp else {
        return Err(format!("{point}: post-recovery query failed: {resp:?}"));
    };
    let rows = rows.to_rows();
    let recovered: BTreeSet<u64> = rows.iter().map(|r| r.id).collect();
    // 1. No acknowledged write may be lost.
    if let Some(lost) = acked.difference(&recovered).next() {
        return Err(format!(
            "{point}: LOST acknowledged row {lost} ({} acked, {} recovered)",
            acked.len(),
            recovered.len()
        ));
    }
    // 2. No phantom or corrupt row may surface.
    for row in &rows {
        if row.shares != vec![share_of(row.id)] {
            return Err(format!("{point}: row {} has corrupt shares", row.id));
        }
    }
    // 3. The index answers for every recovered row, without a scan.
    let scans = engine.stats().full_scans;
    let probe = |atom: PredAtom| match engine.execute(&Request::Query {
        table: "t".into(),
        predicate: vec![atom],
        agg: None,
    }) {
        Response::Rows(got) => Ok(got.to_rows()),
        other => Err(format!("{point}: index probe failed: {other:?}")),
    };
    for row in &rows {
        let got = probe(PredAtom::Eq {
            col: 0,
            share: share_of(row.id),
        })?;
        if got != [row.clone()] {
            return Err(format!(
                "{point}: equality probe for row {} returned {} rows",
                row.id,
                got.len()
            ));
        }
    }
    let all = probe(PredAtom::Range {
        col: 0,
        lo: i128::MIN,
        hi: i128::MAX,
    })?;
    if all != rows {
        return Err(format!(
            "{point}: range over all shares returned {} of {} rows",
            all.len(),
            rows.len()
        ));
    }
    if engine.stats().full_scans != scans {
        return Err(format!("{point}: an index probe fell back to a full scan"));
    }
    // 4. Commitments agree with a clean rebuild.
    if !rows.is_empty() {
        let volatile = ProviderEngine::new();
        volatile.execute(&Request::CreateTable {
            name: "t".into(),
            columns: vec!["v".into()],
            indexed: vec![true],
        });
        assert_eq!(
            volatile.execute(&Request::Insert {
                table: "t".into(),
                rows: rows.clone(),
            }),
            Response::Ack
        );
        let commit = Request::Commit {
            table: "t".into(),
            col: 0,
        };
        let (Response::Committed { root: a, .. }, Response::Committed { root: b, .. }) =
            (engine.execute(&commit), volatile.execute(&commit))
        else {
            return Err(format!("{point}: commit failed after recovery"));
        };
        if a != b {
            return Err(format!(
                "{point}: recovered Merkle root diverges from rebuild"
            ));
        }
    }
    println!(
        "  {point:<18} after={after:<3} crashed={crashed:<5} acked={:<4} recovered={:<4} \
         ckpt_rows={:<4} wal_records={:<4} torn={} reset={} recovery={recovery_ms:.1}ms",
        acked.len(),
        recovered.len(),
        report.checkpoint_rows,
        report.wal_records,
        report.torn_bytes,
        report.wal_reset,
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--child") {
        run_child(Path::new(&args[2]));
        return;
    }
    let exe = std::env::current_exe().expect("current_exe");
    let base: PathBuf = std::env::temp_dir().join(format!(
        "dasp-wal-stress-{}-w{}",
        std::process::id(),
        workers()
    ));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("mkdir");
    println!(
        "wal_stress: kill-and-recover at every crash point ({} provider workers)",
        workers()
    );
    let cases: &[(&str, &[u64])] = &[
        ("mid-record", &[5, 40, 90]),
        ("before-fsync", &[2, 10, 25]),
        ("after-fsync", &[2, 10, 25]),
        ("mid-checkpoint", &[1, 2]),
        ("before-wal-switch", &[1, 2]),
    ];
    let mut failures = 0;
    for (point, afters) in cases {
        for &after in *afters {
            if let Err(e) = run_case(&exe, &base, point, after) {
                eprintln!("FAIL: {e}");
                failures += 1;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    if failures > 0 {
        eprintln!("wal_stress: {failures} case(s) violated the durability contract");
        std::process::exit(1);
    }
    println!("wal_stress: all crash points recovered the exact committed prefix");
}
