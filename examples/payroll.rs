//! Payroll: the paper's motivating enterprise scenario at realistic size.
//!
//! Outsources a 10,000-row Employees table across 4 providers (k = 2),
//! then runs the full §V-A query taxonomy — exact match, range,
//! aggregation over exact matches and ranges, updates — and reports
//! latency plus measured traffic with modeled WAN time.
//!
//! ```text
//! cargo run --release -p dasp-apps --bin payroll
//! ```

use dasp_client::{ColumnSpec, DataSource, Predicate, TableSchema, Value};
use dasp_core::client::ClientKeys;
use dasp_net::{Cluster, NetworkModel};
use dasp_server::service::provider_fleet;
use dasp_sss::ShareMode;
use dasp_workload::employees::{self, SalaryDist};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const N_ROWS: usize = 10_000;
const SALARY_DOMAIN: u64 = 1 << 20;

fn timed<T>(
    label: &str,
    ds: &mut DataSource,
    model: &NetworkModel,
    f: impl FnOnce(&mut DataSource) -> T,
) -> T {
    let before = ds.cluster().stats().snapshot();
    let start = Instant::now();
    let out = f(ds);
    let compute = start.elapsed();
    let delta = ds.cluster().stats().snapshot().since(&before);
    let wan = delta.modeled_time(model);
    println!(
        "  {label:<46} compute {compute:>9.2?}  bytes {:>9}  modeled WAN {wan:>9.2?}",
        delta.total_bytes()
    );
    out
}

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let keys = ClientKeys::generate(2, 4, &mut rng).expect("keys");
    let cluster = Cluster::spawn_concurrent(provider_fleet(4), Duration::from_secs(10), 1);
    let mut ds = DataSource::with_seed(keys, cluster, 7).expect("data source");
    let model = NetworkModel::wan();

    ds.create_table(
        TableSchema::new(
            "employees",
            vec![
                ColumnSpec::text("name", 8, ShareMode::Deterministic),
                ColumnSpec::numeric("salary", SALARY_DOMAIN, ShareMode::OrderPreserving),
                ColumnSpec::numeric("ssn", 1 << 30, ShareMode::Random),
            ],
        )
        .expect("schema"),
    )
    .expect("create table");

    println!("== Outsourcing {N_ROWS} employees to 4 providers (k = 2) ==");
    let data = employees::generate(N_ROWS, SALARY_DOMAIN, SalaryDist::Zipf(1.05), 99);
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
    timed("bulk insert (share + upload)", &mut ds, &model, |ds| {
        for chunk in rows.chunks(1000) {
            ds.insert("employees", chunk).expect("insert");
        }
    });

    println!("\n== §V-A query taxonomy ==");
    let probe_name = data[17].name.clone();
    let rows_found = timed(
        &format!("exact match: name = {probe_name:?}"),
        &mut ds,
        &model,
        |ds| ds.select("employees", &[Predicate::eq("name", probe_name.as_str())]),
    )
    .expect("select");
    println!("    -> {} rows", rows_found.len());

    let range_pred = [Predicate::between("salary", 10_000u64, 40_000u64)];
    let in_range = timed(
        "range: salary BETWEEN 10000 AND 40000",
        &mut ds,
        &model,
        |ds| ds.select("employees", &range_pred),
    )
    .expect("select");
    println!("    -> {} rows", in_range.len());
    let expected = data
        .iter()
        .filter(|e| (10_000..=40_000).contains(&e.salary))
        .count();
    assert_eq!(in_range.len(), expected, "range result must be exact");

    let sum = timed(
        "SUM(salary) over that range (server-side)",
        &mut ds,
        &model,
        |ds| ds.sum("employees", "salary", &range_pred),
    )
    .expect("sum");
    let expected_sum: u64 = data
        .iter()
        .filter(|e| (10_000..=40_000).contains(&e.salary))
        .map(|e| e.salary)
        .sum();
    assert_eq!(sum.value, Some(Value::Int(expected_sum)));
    println!("    -> {:?} (matches plaintext ground truth)", sum.value);

    let med = timed(
        "MEDIAN(salary) over the whole table",
        &mut ds,
        &model,
        |ds| ds.median("employees", "salary", &[]),
    )
    .expect("median");
    println!("    -> {:?} over {} rows", med.value, med.count);

    let avg = timed(
        &format!("AVG(salary) WHERE name = {probe_name:?}"),
        &mut ds,
        &model,
        |ds| {
            ds.avg(
                "employees",
                "salary",
                &[Predicate::eq("name", probe_name.as_str())],
            )
        },
    )
    .expect("avg");
    println!("    -> {:?} over {} rows", avg.value, avg.count);

    println!("\n== Updates (§V-C) ==");
    let raised = timed("eager raise: +salary for one name", &mut ds, &model, |ds| {
        ds.update_where(
            "employees",
            &[Predicate::eq("name", probe_name.as_str())],
            &[("salary", Value::Int(123_456))],
        )
    })
    .expect("update");
    println!("    -> {raised} rows re-shared and pushed");

    ds.set_lazy(true);
    let buffered = ds
        .update_where(
            "employees",
            &[Predicate::eq("salary", 123_456u64)],
            &[("salary", Value::Int(123_457))],
        )
        .expect("lazy update");
    let flushed = timed("lazy batch flush", &mut ds, &model, |ds| {
        ds.flush("employees")
    })
    .expect("flush");
    assert_eq!(buffered, flushed);
    println!("    -> {flushed} buffered updates flushed in one batch per provider");

    println!("\n== The privacy/performance dial ==");
    let before = ds.cluster().stats().snapshot();
    let ssn_hit = ds
        .select("employees", &[Predicate::eq("ssn", data[3].ssn)])
        .expect("ssn query");
    let delta = ds.cluster().stats().snapshot().since(&before);
    println!(
        "  ssn is Random-mode (information-theoretic): a predicate on it \
         transfers the whole column ({} bytes) and filters client-side -> {} row(s)",
        delta.total_bytes(),
        ssn_hit.len()
    );
    println!(
        "  the same query on a Deterministic column would have been one index probe — \
         that gap IS the paper's privacy/performance trade-off."
    );
}
