//! Large-scale soak tests. The expensive ones are `#[ignore]`d so the
//! default `cargo test` stays fast; run them with
//! `cargo test --release -p dasp-apps --test soak -- --ignored`.

use dasp_client::{ClientKeys, ColumnSpec, DataSource, Predicate, TableSchema};
use dasp_core::client::Value;
use dasp_core::{OutsourcedDatabase, QueryOutput};
use dasp_net::{Cluster, FailureMode, NetworkModel, RetryPolicy};
use dasp_server::service::provider_fleet;
use dasp_sss::ShareMode;
use dasp_workload::employees::{self, SalaryDist};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A fast smoke version of the soak path that always runs.
#[test]
fn soak_smoke_5k() {
    run_soak(5_000);
}

/// The real thing: 100k rows through the full stack.
#[test]
#[ignore = "several seconds in release; run with -- --ignored"]
fn soak_100k() {
    run_soak(100_000);
}

/// Failure-churn soak: a background thread keeps crashing and healing
/// random providers while reads and writes flow. Invariants:
///
/// * reads succeed whenever at least `k` providers are healthy (the
///   churn never takes down more than `n - k - 1` at once, so they
///   must always succeed here);
/// * every value a read returns matches ground truth — failures may
///   slow or fail queries but never silently corrupt them;
/// * writes either apply everywhere or fail loudly, and a failed write
///   never pollutes subsequent reads.
#[test]
fn soak_survives_failure_churn() {
    let (k, n) = (2usize, 5usize);
    let mut rng = StdRng::seed_from_u64(4242);
    let keys = ClientKeys::generate(k, n, &mut rng).unwrap();
    let cluster = Cluster::spawn_concurrent(provider_fleet(n), Duration::from_millis(250), 1);
    let mut ds = DataSource::with_seed(keys, cluster, 99).unwrap();
    ds.set_retry_policy(RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(10),
        per_attempt_timeout: Some(Duration::from_millis(120)),
        jitter_seed: 4242,
    });
    ds.create_table(
        TableSchema::new(
            "t",
            vec![
                ColumnSpec::numeric("k", 1 << 16, ShareMode::Deterministic),
                ColumnSpec::numeric("v", 1 << 20, ShareMode::OrderPreserving),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let base: Vec<Vec<Value>> = (0..120u64)
        .map(|i| vec![Value::Int(i % 12), Value::Int(i * 13 % (1 << 20))])
        .collect();
    ds.insert("t", &base).unwrap();

    let switches: Vec<_> = (0..n)
        .map(|p| ds.cluster().failure_switch(p).unwrap())
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(0xc0ffee);
            while !stop.load(Ordering::Relaxed) {
                // At most two providers sick at once, so k healthy
                // providers plus one cross-check share always exist.
                let a = rng.gen_range(0..switches.len());
                let b = rng.gen_range(0..switches.len());
                switches[a].set(FailureMode::Crashed);
                if b != a {
                    switches[b].set(FailureMode::Omission(0.5));
                }
                std::thread::sleep(Duration::from_millis(7));
                switches[a].set(FailureMode::Healthy);
                if b != a {
                    switches[b].set(FailureMode::Healthy);
                }
                std::thread::sleep(Duration::from_millis(3));
            }
            for s in &switches {
                s.set(FailureMode::Healthy);
            }
        })
    };

    let mut attempted: Vec<(u64, u64)> = Vec::new();
    let mut write_failures = 0usize;
    for i in 0..40u64 {
        // Writes need every provider, so under churn many fail loudly.
        // Either way the attempted row may exist on some providers; it
        // must never decode to anything but the value we sent.
        let (key, val) = (100 + i, i * 31 % (1 << 20));
        attempted.push((key, val));
        if ds
            .insert("t", &[vec![Value::Int(key), Value::Int(val)]])
            .is_err()
        {
            write_failures += 1;
        }

        // Reads ride first-k-wins + retries: with a healthy quorum
        // guaranteed alive they must succeed, and must match ground
        // truth exactly.
        let key_q = i % 12;
        let rows = ds
            .select("t", &[Predicate::eq("k", key_q)])
            .expect("a read with >= k healthy providers must succeed");
        let want: Vec<u64> = (0..120u64)
            .filter(|j| j % 12 == key_q)
            .map(|j| j * 13 % (1 << 20))
            .collect();
        assert_eq!(rows.len(), want.len(), "iteration {i}");
        for (_, vals) in &rows {
            let Value::Int(kk) = vals[0] else { panic!() };
            let Value::Int(vv) = vals[1] else { panic!() };
            assert_eq!(kk, key_q);
            assert!(want.contains(&vv), "silent corruption: k={kk} v={vv}");
        }
    }
    stop.store(true, Ordering::Relaxed);
    churn.join().unwrap();

    // After healing: any surviving churn-era row still decodes to the
    // exact value that was sent (partially-applied writes either reach
    // k providers and reconstruct correctly, or stay invisible).
    for &(key, val) in &attempted {
        if let Ok(rows) = ds.select("t", &[Predicate::eq("k", key)]) {
            for (_, vals) in rows {
                assert_eq!(vals[1], Value::Int(val), "corrupted write for key {key}");
            }
        }
    }

    // The health layer witnessed the churn.
    let snapshot = ds.health();
    let table = snapshot.to_string();
    assert!(table.contains("provider"), "{table}");
    println!("write failures under churn: {write_failures}/40\n{table}");
}

fn run_soak(n: usize) {
    let mut db = OutsourcedDatabase::deploy_seeded(2, 3, n as u64).unwrap();
    db.execute(
        "CREATE TABLE employees (name VARCHAR(8) MODE DETERMINISTIC, \
         salary INT(1048576) MODE ORDERED, ssn INT(1073741824) MODE RANDOM)",
    )
    .unwrap();
    let data = employees::generate(n, 1 << 20, SalaryDist::Zipf(1.05), 42);
    {
        let ds = db.source();
        let rows: Vec<Vec<Value>> = data
            .iter()
            .map(|e| {
                vec![
                    Value::Str(e.name.clone()),
                    Value::Int(e.salary),
                    Value::Int(e.ssn),
                ]
            })
            .collect();
        for chunk in rows.chunks(2500) {
            ds.insert("employees", chunk).unwrap();
        }
    }

    // Count.
    let out = db.execute("SELECT COUNT(*) FROM employees").unwrap();
    let QueryOutput::Aggregate(agg) = out else {
        panic!()
    };
    assert_eq!(agg.count as usize, n);

    // A spread of range queries, all checked against ground truth.
    for (lo, hi) in [(0u64, 5_000u64), (100_000, 120_000), (1_000_000, 1_048_575)] {
        let out = db
            .execute(&format!(
                "SELECT COUNT(*) FROM employees WHERE salary BETWEEN {lo} AND {hi}"
            ))
            .unwrap();
        let QueryOutput::Aggregate(agg) = out else {
            panic!()
        };
        let want = data
            .iter()
            .filter(|e| (lo..=hi).contains(&e.salary))
            .count();
        assert_eq!(agg.count as usize, want, "[{lo},{hi}]");
    }

    // SUM over everything (exercises share-sum accumulation at scale).
    let out = db.execute("SELECT SUM(salary) FROM employees").unwrap();
    let QueryOutput::Aggregate(agg) = out else {
        panic!()
    };
    let want: u64 = data.iter().map(|e| e.salary).sum();
    assert_eq!(agg.value, Some(Value::Int(want)));

    // Grouped aggregation over many distinct groups.
    let out = db
        .execute("SELECT COUNT(*) FROM employees GROUP BY name")
        .unwrap();
    let QueryOutput::Groups(groups) = out else {
        panic!()
    };
    let distinct: std::collections::HashSet<&String> = data.iter().map(|e| &e.name).collect();
    assert_eq!(groups.len(), distinct.len());
    let total: u64 = groups.iter().map(|g| g.count).sum();
    assert_eq!(total as usize, n);

    // Top-k stays cheap regardless of table size.
    let before = db.cluster().stats().snapshot();
    let out = db
        .execute("SELECT * FROM employees ORDER BY salary DESC LIMIT 10")
        .unwrap();
    let QueryOutput::Rows { rows, .. } = out else {
        panic!()
    };
    assert_eq!(rows.len(), 10);
    let delta = db.cluster().stats().snapshot().since(&before);
    assert!(
        delta.bytes_received < 8 * 1024,
        "top-k moved {} bytes at n={n}",
        delta.bytes_received
    );
    let wan = delta.modeled_time(&NetworkModel::wan());
    assert!(wan < std::time::Duration::from_secs(1));
}
