//! Medical-records analytics — the paper's "1 million medical records"
//! workload (§II-A) run through the secret-sharing stack.
//!
//! A hospital outsources patient records (patient id, diagnosis code,
//! cost) and runs the analytics a registry actually needs — per-diagnosis
//! totals, cost distribution quantiles, top spenders — all computed
//! server-side over shares. Row count defaults to 50k for a quick run;
//! pass a number to scale (the paper's 1M works, just slower).
//!
//! ```text
//! cargo run --release -p dasp-apps --bin medical [rows]
//! ```

use dasp_client::{ColumnSpec, DataSource, Predicate, TableSchema, Value};
use dasp_core::client::ClientKeys;
use dasp_net::{Cluster, NetworkModel};
use dasp_server::service::provider_fleet;
use dasp_sss::ShareMode;
use dasp_workload::medical;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(50_000);
    let mut rng = StdRng::seed_from_u64(2009);
    let keys = ClientKeys::generate(2, 3, &mut rng).expect("keys");
    let cluster = Cluster::spawn_concurrent(provider_fleet(3), Duration::from_secs(60), 1);
    let mut ds = DataSource::with_seed(keys, cluster, 2009).expect("data source");
    let model = NetworkModel::wan();

    ds.create_table(
        TableSchema::new(
            "records",
            vec![
                // Patient ids are the sensitive identifier: random mode.
                ColumnSpec::numeric("patient", 1 << 30, ShareMode::Random),
                // Diagnosis codes drive grouping: deterministic.
                ColumnSpec::numeric("code", 10_000, ShareMode::Deterministic),
                // Costs drive ranges and order statistics: ordered.
                ColumnSpec::numeric("cost", 1 << 24, ShareMode::OrderPreserving),
            ],
        )
        .expect("schema"),
    )
    .expect("create");

    println!("== Outsourcing {rows} medical records across 3 providers (k = 2) ==");
    let data = medical::generate(rows, 77);
    let start = Instant::now();
    let values: Vec<Vec<Value>> = data
        .iter()
        .map(|r| {
            vec![
                Value::Int(r.patient),
                Value::Int(r.code),
                Value::Int(r.cost),
            ]
        })
        .collect();
    for chunk in values.chunks(2000) {
        ds.insert("records", chunk).expect("insert");
    }
    println!("  loaded in {:.2?}", start.elapsed());

    println!("\n== Registry analytics, all computed over shares ==");
    let stats = ds.cluster().stats().clone();

    // Per-diagnosis cost totals for the hottest codes (GROUP BY).
    let before = stats.snapshot();
    let start = Instant::now();
    let groups = ds
        .group_by("records", "code", Some("cost"), &[])
        .expect("group by");
    let t = start.elapsed();
    let delta = stats.snapshot().since(&before);
    let mut by_total: Vec<_> = groups.iter().collect();
    by_total.sort_by_key(|g| std::cmp::Reverse(g.sum.clone()));
    println!(
        "  per-diagnosis totals: {} codes in {t:.2?} ({} bytes, modeled WAN {:.2?})",
        groups.len(),
        delta.total_bytes(),
        delta.modeled_time(&model)
    );
    for g in by_total.iter().take(3) {
        println!(
            "    code {:?}: total cost {:?} over {} records",
            g.group, g.sum, g.count
        );
    }
    // Ground truth check for the top group.
    let top = by_total[0];
    let Value::Int(top_code) = top.group else {
        panic!()
    };
    let want: u64 = data
        .iter()
        .filter(|r| r.code == top_code)
        .map(|r| r.cost)
        .sum();
    assert_eq!(top.sum, Some(Value::Int(want)), "top group total verified");

    // Cost distribution: median and extremes (order statistics).
    let start = Instant::now();
    let med = ds.median("records", "cost", &[]).expect("median");
    let max = ds.max("records", "cost", &[]).expect("max");
    println!(
        "  cost median {:?}, max {:?} ({:.2?} for both)",
        med.value,
        max.value,
        start.elapsed()
    );

    // High-cost tail (range + count).
    let tail = ds
        .count(
            "records",
            &[Predicate::between("cost", 15_000_000u64, (1 << 24) - 1)],
        )
        .expect("count");
    println!("  records costing ≥ 15M: {tail}");

    // Top 5 most expensive records (server-side top-k).
    let start = Instant::now();
    let top5 = ds
        .select_top("records", "cost", true, 5, &[])
        .expect("top-k");
    println!("  top-5 costs in {:.2?}:", start.elapsed());
    for (id, v) in &top5 {
        println!("    record {id}: cost {:?}", v[2]);
    }

    // A specific (sensitive) patient's history: random-mode filter —
    // full transfer, by design.
    let probe = data[rows / 2].patient;
    let before = stats.snapshot();
    let history = ds
        .select("records", &[Predicate::eq("patient", probe)])
        .expect("history");
    let delta = stats.snapshot().since(&before);
    println!(
        "  one patient's history: {} records — cost {} bytes because patient ids \
         are information-theoretically hidden (the privacy dial at its max)",
        history.len(),
        delta.total_bytes()
    );
}
