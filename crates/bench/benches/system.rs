//! System benchmarks: the §V-A query taxonomy against a live deployment
//! (E4 exact match, E5 range, E6 aggregates, E7 join, E9 updates).
//!
//! One 5000-row, 3-provider deployment is built per group; each iteration
//! then measures a full client → providers → reconstruction round trip.

use criterion::{criterion_group, criterion_main, Criterion};
use dasp_bench::deploy_employees;
use dasp_client::{ColumnSpec, Predicate, TableSchema, Value};
use dasp_core::client::{ClientKeys, DataSource};
use dasp_net::Cluster;
use dasp_server::service::provider_fleet;
use dasp_sss::ShareMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const ROWS: usize = 5000;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

fn bench_queries(c: &mut Criterion) {
    let mut g = c.benchmark_group("queries");
    let mut dep = deploy_employees(2, 3, ROWS, 0xbe);
    let probe = dep.data[ROWS / 2].name.clone();

    g.bench_function("exact_match_5k", |bench| {
        bench.iter(|| {
            dep.ds
                .select("employees", &[Predicate::eq("name", probe.as_str())])
                .unwrap()
        })
    });
    g.bench_function("range_1pct_5k", |bench| {
        bench.iter(|| {
            dep.ds
                .select(
                    "employees",
                    &[Predicate::between("salary", 100_000u64, 110_485u64)],
                )
                .unwrap()
        })
    });
    g.bench_function("sum_range_5k", |bench| {
        bench.iter(|| {
            dep.ds
                .sum(
                    "employees",
                    "salary",
                    &[Predicate::between("salary", 100_000u64, 500_000u64)],
                )
                .unwrap()
        })
    });
    g.bench_function("median_5k", |bench| {
        bench.iter(|| dep.ds.median("employees", "salary", &[]).unwrap())
    });
    g.bench_function("count_5k", |bench| {
        bench.iter(|| dep.ds.count("employees", &[]).unwrap())
    });
    g.finish();
}

fn bench_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("join");
    let mut rng = StdRng::seed_from_u64(0x70);
    let keys = ClientKeys::generate(2, 3, &mut rng).unwrap();
    let cluster = Cluster::spawn_concurrent(provider_fleet(3), Duration::from_secs(30), 1);
    let mut ds = DataSource::with_seed(keys, cluster, 0x71).unwrap();
    let eid = || ColumnSpec::numeric("eid", 1 << 20, ShareMode::Deterministic).in_domain("eid");
    ds.create_table(
        TableSchema::new(
            "emp",
            vec![
                eid(),
                ColumnSpec::numeric("x", 1 << 20, ShareMode::OrderPreserving),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    ds.create_table(TableSchema::new("mgr", vec![eid()]).unwrap())
        .unwrap();
    let emp: Vec<Vec<Value>> = (0..2000u64)
        .map(|i| vec![Value::Int(i), Value::Int(i)])
        .collect();
    let mgr: Vec<Vec<Value>> = (0..200u64).map(|i| vec![Value::Int(i * 10)]).collect();
    for chunk in emp.chunks(1000) {
        ds.insert("emp", chunk).unwrap();
    }
    ds.insert("mgr", &mgr).unwrap();
    g.bench_function("join_2000x200", |bench| {
        bench.iter(|| ds.join("emp", "eid", "mgr", "eid").unwrap())
    });
    g.finish();
}

fn bench_updates(c: &mut Criterion) {
    let mut g = c.benchmark_group("updates");
    let mut dep = deploy_employees(2, 3, ROWS, 0x90);
    let name = dep.data[3].name.clone();
    g.bench_function("eager_update_one_name", |bench| {
        bench.iter(|| {
            dep.ds
                .update_where(
                    "employees",
                    &[Predicate::eq("name", name.as_str())],
                    &[("salary", Value::Int(777))],
                )
                .unwrap()
        })
    });
    let mut dep = deploy_employees(2, 3, ROWS, 0x91);
    let name = dep.data[3].name.clone();
    dep.ds.set_lazy(true);
    g.bench_function("lazy_update_plus_flush", |bench| {
        bench.iter(|| {
            dep.ds
                .update_where(
                    "employees",
                    &[Predicate::eq("name", name.as_str())],
                    &[("salary", Value::Int(778))],
                )
                .unwrap();
            dep.ds.flush("employees").unwrap()
        })
    });
    g.finish();
}

fn bench_outsourcing(c: &mut Criterion) {
    let mut g = c.benchmark_group("outsourcing");
    g.bench_function("insert_100_rows_n3", |bench| {
        let mut dep = deploy_employees(2, 3, 10, 0xa0);
        let batch: Vec<Vec<Value>> = (0..100u64)
            .map(|i| {
                vec![
                    Value::Str("BULK".into()),
                    Value::Int(i % (1 << 20)),
                    Value::Int(i),
                ]
            })
            .collect();
        bench.iter(|| dep.ds.insert("employees", &batch).unwrap())
    });
    g.finish();
}

fn bench_extensions(c: &mut Criterion) {
    let mut g = c.benchmark_group("extensions");
    let mut dep = deploy_employees(2, 3, ROWS, 0xe5);
    g.bench_function("group_by_name_sum_salary", |bench| {
        bench.iter(|| {
            dep.ds
                .group_by("employees", "name", Some("salary"), &[])
                .unwrap()
        })
    });
    g.bench_function("top_10_by_salary", |bench| {
        bench.iter(|| {
            dep.ds
                .select_top("employees", "salary", true, 10, &[])
                .unwrap()
        })
    });
    dep.ds.commit_table("employees", "salary").unwrap();
    g.bench_function("verified_range_1pct", |bench| {
        bench.iter(|| {
            dep.ds
                .verified_range("employees", "salary", 100_000, 110_485)
                .unwrap()
        })
    });
    g.bench_function("increment_100_random_rows", |bench| {
        bench.iter(|| {
            dep.ds
                .increment_where(
                    "employees",
                    &[Predicate::between("salary", 100_000u64, 120_000u64)],
                    "ssn",
                    1,
                )
                .unwrap()
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_queries, bench_join, bench_updates, bench_outsourcing, bench_extensions
}
criterion_main!(benches);
