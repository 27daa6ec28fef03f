//! Batch-codec determinism and equivalence at the DataSource level: the
//! worker-thread fan-out must not change what providers store or what
//! queries return, for any worker count and any share mode.

use dasp_client::{
    ClientKeys, ColumnSpec, DataSource, Predicate, QueryOptions, TableSchema, Value,
};
use dasp_net::Cluster;
use dasp_server::service::provider_fleet;
use dasp_sss::ShareMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn source(k: usize, n: usize, seed: u64) -> DataSource {
    let mut rng = StdRng::seed_from_u64(0xdab);
    let keys = ClientKeys::generate(k, n, &mut rng).unwrap();
    let cluster = Cluster::spawn_concurrent(provider_fleet(n), Duration::from_millis(500), 1);
    DataSource::with_seed(keys, cluster, seed).unwrap()
}

fn mixed_schema() -> TableSchema {
    TableSchema::new(
        "mixed",
        vec![
            ColumnSpec::text("name", 8, ShareMode::Deterministic),
            ColumnSpec::numeric("salary", 1 << 20, ShareMode::OrderPreserving),
            ColumnSpec::numeric("ssn", 1 << 30, ShareMode::Random),
        ],
    )
    .unwrap()
}

fn mixed_rows(count: u64) -> Vec<Vec<Value>> {
    (0..count)
        .map(|i| {
            vec![
                Value::from(["ANA", "BOB", "CARA", "DAN"][(i % 4) as usize]),
                Value::Int((i * 37) % (1 << 20)),
                Value::Int(i * 1001),
            ]
        })
        .collect()
}

/// The stored shares and every query answer must be bit-identical for
/// workers = 1, 2, 4: rows keep their order and random-mode polynomials
/// come from per-row seeded RNG streams, not from the thread schedule.
#[test]
fn insert_and_select_identical_across_worker_counts() {
    let mut baseline = None;
    for workers in [1usize, 2, 4] {
        let mut ds = source(2, 4, 99);
        ds.set_workers(workers);
        ds.create_table(mixed_schema()).unwrap();
        ds.insert("mixed", &mixed_rows(120)).unwrap();
        let all = ds.select("mixed", &[]).unwrap();
        assert_eq!(all.len(), 120, "workers={workers}");
        let ranged = ds
            .select("mixed", &[Predicate::between("salary", 100u64, 2_000u64)])
            .unwrap();
        let named = ds
            .select("mixed", &[Predicate::eq("name", "CARA")])
            .unwrap();
        match &baseline {
            None => baseline = Some((all, ranged, named)),
            Some((a, r, n)) => {
                assert_eq!(&all, a, "full scan differs at workers={workers}");
                assert_eq!(&ranged, r, "range query differs at workers={workers}");
                assert_eq!(&named, n, "equality query differs at workers={workers}");
            }
        }
    }
}

/// The batched fast path must agree with the scalar majority-verify path
/// on an honest cluster (both reconstruct the same values).
#[test]
fn batched_decode_agrees_with_verified_decode() {
    let mut ds = source(2, 4, 7);
    ds.set_workers(4);
    ds.create_table(mixed_schema()).unwrap();
    ds.insert("mixed", &mixed_rows(64)).unwrap();
    let fast = ds.select("mixed", &[]).unwrap();
    let verified = ds
        .select_opts("mixed", &[], QueryOptions { verify: true })
        .unwrap();
    assert_eq!(fast, verified);
    assert!(ds.last_faulty.is_empty());
}

/// Updates re-share through the same batch encoder; a parallel source
/// must converge to the same state as a serial one.
#[test]
fn updates_and_aggregates_survive_worker_fanout() {
    let mut serial = source(2, 3, 1234);
    let mut parallel = source(2, 3, 1234);
    parallel.set_workers(4);
    for ds in [&mut serial, &mut parallel] {
        ds.create_table(mixed_schema()).unwrap();
        ds.insert("mixed", &mixed_rows(50)).unwrap();
        let n = ds
            .update_where(
                "mixed",
                &[Predicate::eq("name", "BOB")],
                &[("salary", Value::Int(123_456))],
            )
            .unwrap();
        assert_eq!(n, 13);
    }
    let q = [Predicate::eq("name", "BOB")];
    assert_eq!(
        serial.select("mixed", &q).unwrap(),
        parallel.select("mixed", &q).unwrap()
    );
    assert_eq!(
        serial.sum("mixed", "salary", &[]).unwrap(),
        parallel.sum("mixed", "salary", &[]).unwrap()
    );
    assert_eq!(
        serial.median("mixed", "salary", &[]).unwrap(),
        parallel.median("mixed", "salary", &[]).unwrap()
    );
}

/// Single-row statements and empty batches go through the same code path
/// without tripping the fan-out.
#[test]
fn tiny_batches_roundtrip() {
    let mut ds = source(3, 5, 5);
    ds.set_workers(8); // more workers than rows
    ds.create_table(mixed_schema()).unwrap();
    let ids = ds.insert("mixed", &mixed_rows(1)).unwrap();
    assert_eq!(ids.len(), 1);
    let empty: Vec<Vec<Value>> = Vec::new();
    assert!(ds.insert("mixed", &empty).unwrap().is_empty());
    let rows = ds.select("mixed", &[]).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1[1], Value::Int(0));
}
