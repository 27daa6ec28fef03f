//! Failure-model integration tests (paper conclusion, challenge (b)):
//! crash, omission and Byzantine providers against the full stack.
//!
//! Transport-parameterized: `DASP_TRANSPORT=tcp` runs every scenario
//! over real sockets (reactor servers + multiplexing TCP clients)
//! instead of in-process channels. Failure injection lives in the
//! cluster layer *above* the transport, so crash/omission/Byzantine
//! semantics — and these assertions — must hold identically on both.

use dasp_client::{ColumnSpec, DataSource, Predicate, QueryOptions, TableSchema, Value};
use dasp_core::client::ClientKeys;
use dasp_net::{Cluster, FailureMode, ReactorConfig, RetryPolicy, TcpServer};
use dasp_server::service::{provider_fleet, tcp_provider_fleet};
use dasp_sss::ShareMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// TCP servers must outlive their clusters (dropping one closes its
/// sockets), so tcp-mode deployments park them here for the whole
/// test process.
static TCP_SERVERS: std::sync::Mutex<Vec<TcpServer>> = std::sync::Mutex::new(Vec::new());

/// Build a k-of-n cluster on the transport selected by `DASP_TRANSPORT`
/// (`channel` default, `tcp` for real sockets).
fn spawn_cluster(n: usize, timeout: Duration) -> Cluster {
    match std::env::var("DASP_TRANSPORT").as_deref() {
        Ok("tcp") => {
            let (servers, addrs) =
                tcp_provider_fleet(n, ReactorConfig::default()).expect("bind tcp provider fleet");
            TCP_SERVERS
                .lock()
                .expect("server holder poisoned")
                .extend(servers);
            Cluster::connect_tcp(&addrs, timeout).expect("connect tcp fleet")
        }
        _ => Cluster::spawn_concurrent(provider_fleet(n), timeout, 1),
    }
}

fn deploy(k: usize, n: usize) -> DataSource {
    let mut rng = StdRng::seed_from_u64(9000 + n as u64);
    let keys = ClientKeys::generate(k, n, &mut rng).unwrap();
    let cluster = spawn_cluster(n, Duration::from_millis(300));
    let mut ds = DataSource::with_seed(keys, cluster, 17).unwrap();
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
    let rows: Vec<Vec<Value>> = (0..300u64)
        .map(|i| vec![Value::Int(i % 30), Value::Int(i * 17 % (1 << 20))])
        .collect();
    ds.insert("t", &rows).unwrap();
    ds
}

#[test]
fn tolerates_n_minus_k_crashes_exactly() {
    let (k, n) = (2usize, 5usize);
    let mut ds = deploy(k, n);
    let pred = [Predicate::eq("k", 7u64)];
    let healthy = ds.select("t", &pred).unwrap().len();
    assert_eq!(healthy, 10);
    // Crash providers one at a time.
    for dead in 0..n {
        ds.cluster().set_failure(dead, FailureMode::Crashed);
        let alive = n - dead - 1;
        let result = ds.select("t", &pred);
        if alive >= k {
            assert_eq!(result.unwrap().len(), healthy, "{alive} alive");
        } else {
            assert!(result.is_err(), "{alive} alive should fail");
        }
    }
}

#[test]
fn recovery_after_healing() {
    let mut ds = deploy(2, 3);
    ds.cluster().set_failure(0, FailureMode::Crashed);
    ds.cluster().set_failure(1, FailureMode::Crashed);
    assert!(ds.select("t", &[]).is_err());
    ds.cluster().set_failure(0, FailureMode::Healthy);
    ds.cluster().set_failure(1, FailureMode::Healthy);
    assert_eq!(ds.select("t", &[]).unwrap().len(), 300);
}

#[test]
fn omission_faults_slow_but_do_not_break_quorum() {
    let mut ds = deploy(2, 4);
    ds.cluster().set_failure(1, FailureMode::Omission(1.0));
    let rows = ds.select("t", &[Predicate::eq("k", 3u64)]).unwrap();
    assert_eq!(rows.len(), 10);
}

#[test]
fn writes_fail_loudly_when_any_provider_is_down() {
    // Inserts are all-or-nothing across providers: a down provider makes
    // the write fail rather than silently diverge.
    let mut ds = deploy(2, 3);
    ds.cluster().set_failure(2, FailureMode::Crashed);
    let err = ds.insert("t", &[vec![Value::Int(1), Value::Int(1)]]);
    assert!(err.is_err());
    // After healing, writes work again.
    ds.cluster().set_failure(2, FailureMode::Healthy);
    ds.insert("t", &[vec![Value::Int(1), Value::Int(1)]])
        .unwrap();
}

#[test]
fn byzantine_minority_is_survived_with_verification() {
    let mut ds = deploy(2, 5);
    ds.cluster().set_failure(4, FailureMode::Byzantine(1.0));
    let rows = ds
        .select_opts(
            "t",
            &[Predicate::between("v", 0u64, (1 << 20) - 1)],
            QueryOptions { verify: true },
        )
        .unwrap();
    assert_eq!(rows.len(), 300);
    // Ground truth intact for a sample.
    assert!(rows
        .iter()
        .all(|(_, v)| matches!(v[1], Value::Int(x) if x < 1 << 20)));
}

#[test]
fn unverified_reads_may_fail_or_heal_under_byzantine_but_never_wrong_silently() {
    // With probabilistic corruption, an unverified read either errors
    // (decode failure / inconsistent shares detected via OP search) or
    // returns correct data from an honest quorum — across many trials we
    // must never observe a silently wrong value.
    let mut ds = deploy(2, 4);
    ds.cluster().set_failure(0, FailureMode::Byzantine(0.5));
    let mut wrong = 0;
    for i in 0..20u64 {
        match ds.select("t", &[Predicate::eq("k", i % 30)]) {
            Err(_) => {} // detected — acceptable
            Ok(rows) => {
                for (_, v) in rows {
                    let Value::Int(k) = v[0] else { panic!() };
                    let Value::Int(val) = v[1] else { panic!() };
                    // Value must belong to the generated data set.
                    let valid = (0..300u64).any(|j| j % 30 == k && j * 17 % (1 << 20) == val);
                    if !valid {
                        wrong += 1;
                    }
                }
            }
        }
    }
    assert_eq!(wrong, 0, "silent corruption leaked into results");
}

#[test]
fn first_k_wins_returns_well_before_the_cluster_timeout() {
    // One crashed provider must not make reads wait out the full RPC
    // timeout: the first-k-wins engine returns the moment k (+1 cross
    // check) responses arrive, and the crashed provider's timeout is
    // absorbed concurrently, never serialized after the healthy ones.
    let (k, n) = (2usize, 5usize);
    let mut ds = deploy(k, n);
    ds.cluster().set_failure(0, FailureMode::Crashed);
    let timeout = Duration::from_millis(300); // deploy()'s cluster timeout
    let start = std::time::Instant::now();
    let rows = ds.select("t", &[Predicate::eq("k", 11u64)]).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(rows.len(), 10);
    assert!(
        elapsed < timeout / 2,
        "degraded read took {elapsed:?}, want < {:?}",
        timeout / 2
    );
}

#[test]
fn retries_heal_a_heavily_omitting_provider() {
    // With n = k every provider must answer, so an Omission(0.8) fault
    // can only be survived by per-provider retries with backoff.
    let mut ds = deploy(2, 2);
    ds.set_retry_policy(RetryPolicy {
        max_attempts: 30,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        per_attempt_timeout: Some(Duration::from_millis(25)),
        jitter_seed: 7,
    });
    ds.cluster().set_failure(1, FailureMode::Omission(0.8));
    let rows = ds.select("t", &[Predicate::eq("k", 5u64)]).unwrap();
    assert_eq!(rows.len(), 10);
}

#[test]
fn aggregate_queries_survive_crash_minority() {
    let mut ds = deploy(2, 4);
    ds.cluster().set_failure(3, FailureMode::Crashed);
    let sum = ds.sum("t", "v", &[Predicate::eq("k", 0u64)]).unwrap();
    let expected: u64 = (0..300u64)
        .filter(|i| i % 30 == 0)
        .map(|i| i * 17 % (1 << 20))
        .sum();
    assert_eq!(sum.value, Some(Value::Int(expected)));
}

// ---- durability fault injection (WAL + client journal) ----

/// Satellite regression: a WAL whose final record is truncated at *every*
/// possible byte offset — or corrupted at every byte — must either
/// recover the committed prefix cleanly or fail with a typed
/// `RecoveryError`. It must never panic and never resurrect a torn op.
#[test]
fn torn_or_corrupt_wal_tail_never_panics_recovery() {
    use dasp_server::{DurableConfig, ProviderEngine, Request, Response, Row};

    let base = std::env::temp_dir().join(format!("dasp-torn-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let dir = base.join("provider");
    let cfg = DurableConfig {
        checkpoint_every: 0,
        ..DurableConfig::default()
    };
    let insert = |id: u64| Request::Insert {
        table: "t".into(),
        rows: vec![Row {
            id,
            shares: vec![id as i128 * 7],
        }],
    };
    {
        let (e, _) = ProviderEngine::durable(&dir, cfg).unwrap();
        assert_eq!(
            e.execute(&Request::CreateTable {
                name: "t".into(),
                columns: vec!["v".into()],
                indexed: vec![true],
            }),
            Response::Ack
        );
        assert_eq!(e.execute(&insert(1)), Response::Ack);
        assert_eq!(e.execute(&insert(2)), Response::Ack);
    }
    let wal_path = dir.join("wal.log");
    let len_before = std::fs::metadata(&wal_path).unwrap().len();
    {
        let (e, _) = ProviderEngine::durable(&dir, cfg).unwrap();
        assert_eq!(e.execute(&insert(3)), Response::Ack);
    }
    let len_after = std::fs::metadata(&wal_path).unwrap().len();
    assert!(len_after > len_before, "final record not on disk");
    let wal_bytes = std::fs::read(&wal_path).unwrap();

    let scratch = base.join("scratch");
    let check = |tag: String, bytes: &[u8]| {
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).unwrap();
        std::fs::write(scratch.join("wal.log"), bytes).unwrap();
        match ProviderEngine::recover(&scratch) {
            Ok((e, _)) => {
                let resp = e.execute(&Request::Query {
                    table: "t".into(),
                    predicate: vec![],
                    agg: None,
                });
                let Response::Rows(rows) = resp else {
                    panic!("{tag}: {resp:?}")
                };
                let ids: Vec<u64> = rows.iter().map(|r| r.id).collect();
                assert!(
                    ids == vec![1, 2] || ids == vec![1, 2, 3],
                    "{tag}: recovered a non-prefix state {ids:?}"
                );
            }
            // A typed error is an acceptable outcome; a panic is not.
            Err(e) => {
                let _ = e.to_string();
            }
        }
    };
    for cut in len_before..len_after {
        check(format!("truncate@{cut}"), &wal_bytes[..cut as usize]);
    }
    for pos in len_before..len_after {
        let mut mutated = wal_bytes.clone();
        mutated[pos as usize] ^= 0x41;
        check(format!("flip@{pos}"), &mutated);
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn corrupt_checkpoint_is_a_typed_error_never_wrong_rows() {
    use dasp_server::{DurableConfig, ProviderEngine, Request, Response, Row};

    let base = std::env::temp_dir().join(format!("dasp-ckpt-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dir = base.join("provider");
    let cfg = DurableConfig {
        checkpoint_every: 0,
        ..DurableConfig::default()
    };
    let all = Request::Query {
        table: "t".into(),
        predicate: vec![],
        agg: None,
    };
    let before = {
        let (e, _) = ProviderEngine::durable(&dir, cfg).unwrap();
        e.execute(&Request::CreateTable {
            name: "t".into(),
            columns: vec!["v".into(), "w".into()],
            indexed: vec![true, false],
        });
        let rows = (1..=6u64)
            .map(|id| Row {
                id,
                shares: vec![id as i128 * 7, -(id as i128)],
            })
            .collect();
        let insert = Request::Insert {
            table: "t".into(),
            rows,
        };
        assert_eq!(e.execute(&insert), Response::Ack);
        e.checkpoint().unwrap();
        // One logged op on top of the image, so a recovery that skipped
        // or misread the image could not match by accident.
        let delete = Request::Delete {
            table: "t".into(),
            ids: vec![2],
        };
        assert_eq!(e.execute(&delete), Response::Ack);
        e.execute(&all)
    };
    let checkpoint = std::fs::read(dir.join("checkpoint.bin")).unwrap();
    let wal = std::fs::read(dir.join("wal.log")).unwrap();

    let scratch = base.join("scratch");
    std::fs::create_dir_all(&scratch).unwrap();
    // Whether `bytes` as the checkpoint recovered. A typed error is an
    // acceptable outcome; a panic or other rows are not.
    let check = |tag: String, bytes: &[u8]| {
        std::fs::write(scratch.join("checkpoint.bin"), bytes).unwrap();
        std::fs::write(scratch.join("wal.log"), &wal).unwrap();
        let Ok((e, _)) = ProviderEngine::recover(&scratch) else {
            return false;
        };
        assert_eq!(e.execute(&all), before, "{tag}: recovered other rows");
        true
    };
    assert!(check("intact".into(), &checkpoint));
    for cut in 0..checkpoint.len() {
        assert!(!check(format!("truncate@{cut}"), &checkpoint[..cut]));
    }
    for bit in 0..checkpoint.len() * 8 {
        let mut mutated = checkpoint.clone();
        mutated[bit / 8] ^= 1 << (bit % 8);
        check(format!("flip@{bit}"), &mutated);
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Satellite regression (§V-C): lazy updates queued by one client
/// session survive a client restart via the durable journal, overlay
/// reads immediately, and flush cleanly afterwards.
#[test]
fn lazy_update_queue_survives_client_restart() {
    let base = std::env::temp_dir().join(format!("dasp-lazy-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let path = base.join("lazy.journal");
    let pred = [Predicate::eq("k", 7u64)];
    // Session 1: queue lazy re-shares, then "crash" without flushing.
    {
        let mut ds = deploy(2, 3);
        ds.set_lazy_journal(&path).unwrap();
        let n = ds
            .update_where("t", &pred, &[("v", Value::Int(123_456))])
            .unwrap();
        assert_eq!(n, 10);
    }
    // Session 2: a fresh client re-registers the table, recovers the
    // queue from the journal, and the overlay + flush behave as if the
    // first session had never died.
    {
        let mut ds = deploy(2, 3);
        let recovered = ds.set_lazy_journal(&path).unwrap();
        assert_eq!(recovered, 10);
        let rows = ds.select("t", &pred).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(rows.iter().all(|(_, v)| v[1] == Value::Int(123_456)));
        assert_eq!(ds.flush("t").unwrap(), 10);
        // Flushed state is provider-side now (overlay queue is empty).
        let rows = ds.select("t", &pred).unwrap();
        assert!(rows.iter().all(|(_, v)| v[1] == Value::Int(123_456)));
        // A fully drained journal compacts back to a bare header.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 16);
    }
    let _ = std::fs::remove_dir_all(&base);
}
