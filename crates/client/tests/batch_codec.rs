//! Batch-codec determinism and equivalence at the DataSource level: what
//! providers store is a function of the keys and the session seed alone,
//! pinned by digest, and every decode path returns the same rows.

use dasp_client::{
    ClientKeys, ColumnSpec, DataSource, Predicate, QueryOptions, TableSchema, Value,
};
use dasp_crypto::sha256::{digest_hex, sha256};
use dasp_net::{Cluster, SharedService};
use dasp_server::proto::Request;
use dasp_server::service::provider_fleet;
use dasp_sss::ShareMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
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

/// A provider that logs the bytes of every `Insert` it is sent.
struct InsertLog {
    inner: Arc<dyn SharedService>,
    log: Arc<Mutex<Vec<u8>>>,
}

impl SharedService for InsertLog {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        if matches!(Request::decode(request), Ok(Request::Insert { .. })) {
            self.log.lock().unwrap().extend_from_slice(request);
        }
        self.inner.handle(request)
    }
}

/// The shares a seeded insert stores are pinned: the `Insert` bytes every
/// provider receives for 120 `mixed_schema` rows hash to the digest the
/// client produced before its encoder lost the thread fan-out, so the
/// per-row RNG seeds still draw exactly the same random-mode polynomials.
#[test]
fn seeded_insert_bytes_match_the_pinned_digest() {
    let n = 4;
    let logs: Vec<Arc<Mutex<Vec<u8>>>> = (0..n).map(|_| Arc::default()).collect();
    let services = provider_fleet(n)
        .into_iter()
        .zip(&logs)
        .map(|(inner, log)| {
            let log = Arc::clone(log);
            Arc::new(InsertLog { inner, log }) as Arc<dyn SharedService>
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0xdab);
    let keys = ClientKeys::generate(2, n, &mut rng).unwrap();
    let cluster = Cluster::spawn_concurrent(services, Duration::from_millis(500), 1);
    let mut ds = DataSource::with_seed(keys, cluster, 99).unwrap();
    ds.create_table(mixed_schema()).unwrap();
    ds.insert("mixed", &mixed_rows(120)).unwrap();
    let mut sent = Vec::new();
    for log in &logs {
        sent.extend_from_slice(&log.lock().unwrap());
    }
    assert_eq!(digest_hex(&sha256(&sent)), PINNED_INSERT_DIGEST);
}

const PINNED_INSERT_DIGEST: &str =
    "a1fc5fb62ddfe943231a700e186aa5b7649f2867f7712e782e1130d5a60b0a52";

/// Two sources on the same keys and session seed store bit-identical
/// shares and return identical answers: rows keep their order and
/// random-mode polynomials come from per-row seeded RNG streams.
#[test]
fn insert_and_select_identical_across_worker_counts() {
    let mut baseline = None;
    for run in 0..2 {
        let mut ds = source(2, 4, 99);
        ds.create_table(mixed_schema()).unwrap();
        ds.insert("mixed", &mixed_rows(120)).unwrap();
        let all = ds.select("mixed", &[]).unwrap();
        assert_eq!(all.len(), 120, "run={run}");
        let ranged = ds
            .select("mixed", &[Predicate::between("salary", 100u64, 2_000u64)])
            .unwrap();
        let named = ds
            .select("mixed", &[Predicate::eq("name", "CARA")])
            .unwrap();
        match &baseline {
            None => baseline = Some((all, ranged, named)),
            Some((a, r, n)) => {
                assert_eq!(&all, a, "full scan differs at run={run}");
                assert_eq!(&ranged, r, "range query differs at run={run}");
                assert_eq!(&named, n, "equality query differs at run={run}");
            }
        }
    }
}

/// The batched fast path must agree with the scalar majority-verify path
/// on an honest cluster (both reconstruct the same values).
#[test]
fn batched_decode_agrees_with_verified_decode() {
    let mut ds = source(2, 4, 7);
    ds.create_table(mixed_schema()).unwrap();
    ds.insert("mixed", &mixed_rows(64)).unwrap();
    let fast = ds.select("mixed", &[]).unwrap();
    let verified = ds
        .select_opts("mixed", &[], QueryOptions { verify: true })
        .unwrap();
    assert_eq!(fast, verified);
    assert!(ds.last_faulty.is_empty());
}

/// Updates re-share through the same batch encoder; two same-seed
/// sources must converge to the same state.
#[test]
fn updates_and_aggregates_survive_worker_fanout() {
    let mut serial = source(2, 3, 1234);
    let mut parallel = source(2, 3, 1234);
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

/// Single-row statements and empty batches go through the same code path.
#[test]
fn tiny_batches_roundtrip() {
    let mut ds = source(3, 5, 5);
    ds.create_table(mixed_schema()).unwrap();
    let ids = ds.insert("mixed", &mixed_rows(1)).unwrap();
    assert_eq!(ids.len(), 1);
    let empty: Vec<Vec<Value>> = Vec::new();
    assert!(ds.insert("mixed", &empty).unwrap().is_empty());
    let rows = ds.select("mixed", &[]).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1[1], Value::Int(0));
}
