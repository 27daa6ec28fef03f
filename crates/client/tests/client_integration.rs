//! End-to-end tests of the data source against a live simulated cluster.

use dasp_client::{
    BucketJoin, ClientError, ClientKeys, ColumnSpec, DataSource, Predicate, QueryOptions,
    TableSchema, Value,
};
use dasp_net::{Cluster, FailureMode, RetryPolicy, SharedService};
use dasp_server::proto::Request;
use dasp_server::service::provider_fleet;
use dasp_sss::ShareMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn source(k: usize, n: usize) -> DataSource {
    let mut rng = StdRng::seed_from_u64(0xdab);
    let keys = ClientKeys::generate(k, n, &mut rng).unwrap();
    let cluster = Cluster::spawn_concurrent(provider_fleet(n), Duration::from_millis(500), 1);
    DataSource::with_seed(keys, cluster, 7).unwrap()
}

fn employees_schema() -> TableSchema {
    TableSchema::new(
        "employees",
        vec![
            ColumnSpec::text("name", 8, ShareMode::Deterministic),
            ColumnSpec::numeric("salary", 1 << 20, ShareMode::OrderPreserving),
            ColumnSpec::numeric("ssn", 1 << 30, ShareMode::Random),
        ],
    )
    .unwrap()
}

fn setup_employees(ds: &mut DataSource) -> Vec<u64> {
    ds.create_table(employees_schema()).unwrap();
    let rows: Vec<Vec<Value>> = vec![
        vec!["JOHN".into(), Value::Int(10_000), Value::Int(111)],
        vec!["MARY".into(), Value::Int(20_000), Value::Int(222)],
        vec!["JOHN".into(), Value::Int(40_000), Value::Int(333)],
        vec!["ALICE".into(), Value::Int(60_000), Value::Int(444)],
        vec!["BOB".into(), Value::Int(80_000), Value::Int(555)],
    ];
    ds.insert("employees", &rows).unwrap()
}

#[test]
fn exact_match_on_deterministic_text() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    let rows = ds
        .select("employees", &[Predicate::eq("name", "JOHN")])
        .unwrap();
    assert_eq!(rows.len(), 2);
    for (_, values) in &rows {
        assert_eq!(values[0], Value::from("JOHN"));
    }
    let salaries: Vec<&Value> = rows.iter().map(|(_, v)| &v[1]).collect();
    assert_eq!(salaries, vec![&Value::Int(10_000), &Value::Int(40_000)]);
}

#[test]
fn range_on_order_preserving_salary() {
    // The paper's running example: salaries between 10K and 40K.
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    let rows = ds
        .select(
            "employees",
            &[Predicate::between("salary", 10_000u64, 40_000u64)],
        )
        .unwrap();
    let salaries: Vec<u64> = rows
        .iter()
        .map(|(_, v)| match v[1] {
            Value::Int(s) => s,
            _ => panic!(),
        })
        .collect();
    assert_eq!(salaries, vec![10_000, 20_000, 40_000]);
}

#[test]
fn random_mode_column_is_filtered_client_side() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    let before = ds.cluster().stats().snapshot();
    let rows = ds
        .select("employees", &[Predicate::eq("ssn", 333u64)])
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1[0], Value::from("JOHN"));
    // Residual filtering forces full-table transfer — the paper's
    // privacy/performance trade-off in action.
    let delta = ds.cluster().stats().snapshot().since(&before);
    assert!(delta.bytes_received > 0);
}

#[test]
fn conjunction_mixing_modes() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    let rows = ds
        .select(
            "employees",
            &[
                Predicate::eq("name", "JOHN"),
                Predicate::between("salary", 30_000u64, 90_000u64),
            ],
        )
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1[1], Value::Int(40_000));
}

#[test]
fn prefix_query_on_text_needs_op_mode() {
    // name is Deterministic → prefix falls back to residual filtering.
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    let rows = ds
        .select("employees", &[Predicate::prefix("name", "JO")])
        .unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn prefix_query_server_side_with_op_text() {
    let mut ds = source(2, 3);
    ds.create_table(
        TableSchema::new(
            "contacts",
            vec![ColumnSpec::text("name", 6, ShareMode::OrderPreserving)],
        )
        .unwrap(),
    )
    .unwrap();
    ds.insert(
        "contacts",
        &[
            vec!["ABE".into()],
            vec!["ABEL".into()],
            vec!["ADAM".into()],
            vec!["JACK".into()],
        ],
    )
    .unwrap();
    let rows = ds
        .select("contacts", &[Predicate::prefix("name", "AB")])
        .unwrap();
    assert_eq!(rows.len(), 2);
    // String BETWEEN (§V-B example: between "Albert" and "Jack").
    let rows = ds
        .select("contacts", &[Predicate::between("name", "ABEL", "JACK")])
        .unwrap();
    assert_eq!(rows.len(), 3);
}

#[test]
fn aggregates_server_side() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    // SUM over a range (the paper's §III example query).
    let pred = [Predicate::between("salary", 10_000u64, 40_000u64)];
    let sum = ds.sum("employees", "salary", &pred).unwrap();
    assert_eq!(sum.value, Some(Value::Int(70_000)));
    assert_eq!(sum.count, 3);

    let avg = ds.avg("employees", "salary", &pred).unwrap();
    assert_eq!(avg.value, Some(Value::Int(70_000 / 3)));

    assert_eq!(ds.count("employees", &pred).unwrap(), 3);

    let min = ds.min("employees", "salary", &[]).unwrap();
    assert_eq!(min.value, Some(Value::Int(10_000)));
    let max = ds.max("employees", "salary", &[]).unwrap();
    assert_eq!(max.value, Some(Value::Int(80_000)));
    let med = ds.median("employees", "salary", &[]).unwrap();
    assert_eq!(med.value, Some(Value::Int(40_000)));
}

#[test]
fn aggregate_over_exact_match() {
    // "Average of the salaries of all employees whose name is John."
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    let avg = ds
        .avg("employees", "salary", &[Predicate::eq("name", "JOHN")])
        .unwrap();
    assert_eq!(avg.value, Some(Value::Int(25_000)));
    assert_eq!(avg.count, 2);
}

#[test]
fn empty_aggregates() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    let pred = [Predicate::eq("name", "NOBODY")];
    let sum = ds.sum("employees", "salary", &pred).unwrap();
    assert_eq!(sum.value, Some(Value::Int(0)));
    assert_eq!(sum.count, 0);
    let min = ds.min("employees", "salary", &pred).unwrap();
    assert_eq!(min.value, None);
    assert_eq!(ds.count("employees", &pred).unwrap(), 0);
}

#[test]
fn sum_on_deterministic_column_via_field_shares() {
    let mut ds = source(2, 3);
    ds.create_table(
        TableSchema::new(
            "sales",
            vec![
                ColumnSpec::numeric("region", 100, ShareMode::Deterministic),
                ColumnSpec::numeric("amount", 1 << 30, ShareMode::Deterministic),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    ds.insert(
        "sales",
        &[
            vec![Value::Int(1), Value::Int(500)],
            vec![Value::Int(1), Value::Int(700)],
            vec![Value::Int(2), Value::Int(900)],
        ],
    )
    .unwrap();
    let sum = ds
        .sum("sales", "amount", &[Predicate::eq("region", 1u64)])
        .unwrap();
    assert_eq!(sum.value, Some(Value::Int(1200)));
}

#[test]
fn join_on_shared_domain() {
    // Employees ⋈ Managers on EID (§V-A join example).
    let mut ds = source(2, 3);
    ds.create_table(
        TableSchema::new(
            "employees",
            vec![
                ColumnSpec::numeric("eid", 1 << 20, ShareMode::Deterministic).in_domain("eid"),
                ColumnSpec::numeric("salary", 1 << 20, ShareMode::OrderPreserving),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    ds.create_table(
        TableSchema::new(
            "managers",
            vec![
                ColumnSpec::numeric("eid", 1 << 20, ShareMode::Deterministic).in_domain("eid"),
                ColumnSpec::numeric("level", 16, ShareMode::Random),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    ds.insert(
        "employees",
        &[
            vec![Value::Int(100), Value::Int(50_000)],
            vec![Value::Int(101), Value::Int(60_000)],
            vec![Value::Int(102), Value::Int(70_000)],
        ],
    )
    .unwrap();
    ds.insert(
        "managers",
        &[
            vec![Value::Int(101), Value::Int(3)],
            vec![Value::Int(102), Value::Int(5)],
            vec![Value::Int(999), Value::Int(1)],
        ],
    )
    .unwrap();
    let pairs = ds.join("employees", "eid", "managers", "eid").unwrap();
    assert_eq!(pairs.len(), 2);
    let mut salaries: Vec<&Value> = pairs.iter().map(|((_, l), _)| &l[1]).collect();
    salaries.sort();
    assert_eq!(salaries, vec![&Value::Int(60_000), &Value::Int(70_000)]);
    // Random-mode manager level reconstructs too.
    for ((_, _l), (_, r)) in &pairs {
        assert!(matches!(r[1], Value::Int(3) | Value::Int(5)));
    }
}

#[test]
fn join_rejects_mismatched_domains() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    ds.create_table(
        TableSchema::new(
            "other",
            vec![ColumnSpec::numeric("x", 1 << 20, ShareMode::Deterministic)],
        )
        .unwrap(),
    )
    .unwrap();
    let err = ds.join("employees", "salary", "other", "x").unwrap_err();
    assert!(matches!(err, ClientError::Unsupported(_)));
}

#[test]
fn delete_and_update() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    // Give everyone called JOHN a raise (eager update).
    let n = ds
        .update_where(
            "employees",
            &[Predicate::eq("name", "JOHN")],
            &[("salary", Value::Int(99_000))],
        )
        .unwrap();
    assert_eq!(n, 2);
    let rows = ds
        .select("employees", &[Predicate::eq("salary", 99_000u64)])
        .unwrap();
    assert_eq!(rows.len(), 2);

    // Fire BOB.
    assert_eq!(
        ds.delete_where("employees", &[Predicate::eq("name", "BOB")])
            .unwrap(),
        1
    );
    assert_eq!(ds.count("employees", &[]).unwrap(), 4);
}

#[test]
fn lazy_updates_buffer_then_flush() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    ds.set_lazy(true);
    ds.update_where(
        "employees",
        &[Predicate::eq("name", "MARY")],
        &[("salary", Value::Int(77_777))],
    )
    .unwrap();
    // Overlay: the client sees the new value...
    let rows = ds
        .select("employees", &[Predicate::eq("name", "MARY")])
        .unwrap();
    assert_eq!(rows[0].1[1], Value::Int(77_777));
    // ...while providers still hold the old shares (range query for the
    // new salary matches nothing server-side before the flush, and the
    // overlay cannot resurrect rows the providers did not return).
    let traffic_before = ds.cluster().stats().snapshot();
    let flushed = ds.flush("employees").unwrap();
    assert_eq!(flushed, 1);
    assert!(
        ds.cluster()
            .stats()
            .snapshot()
            .since(&traffic_before)
            .messages_sent
            > 0,
        "flush must talk to providers"
    );
    ds.set_lazy(false);
    let rows = ds
        .select(
            "employees",
            &[Predicate::between("salary", 77_000u64, 78_000u64)],
        )
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1[0], Value::from("MARY"));
}

#[test]
fn survives_crashed_minority() {
    let mut ds = source(2, 4);
    setup_employees(&mut ds);
    ds.cluster().set_failure(1, FailureMode::Crashed);
    ds.cluster().set_failure(3, FailureMode::Crashed);
    // k = 2 of 4 still up → queries succeed.
    let rows = ds
        .select(
            "employees",
            &[Predicate::between("salary", 10_000u64, 40_000u64)],
        )
        .unwrap();
    assert_eq!(rows.len(), 3);
    // Aggregates too.
    let sum = ds
        .sum(
            "employees",
            "salary",
            &[Predicate::between("salary", 10_000u64, 40_000u64)],
        )
        .unwrap();
    assert_eq!(sum.value, Some(Value::Int(70_000)));
}

#[test]
fn fails_cleanly_when_quorum_lost() {
    let mut ds = source(3, 4);
    setup_employees(&mut ds);
    for p in 0..2 {
        ds.cluster().set_failure(p, FailureMode::Crashed);
    }
    let err = ds.select("employees", &[]).unwrap_err();
    // The typed quorum post-mortem names the crashed providers.
    let ClientError::Quorum(q) = err else {
        panic!("expected ClientError::Quorum, got {err:?}");
    };
    assert!(q.got < q.needed, "{q:?}");
    for p in 0..2u32 {
        let (_, outcome) = q
            .per_provider
            .iter()
            .find(|(id, _)| *id == p as usize)
            .expect("crashed provider present in post-mortem");
        assert!(
            !matches!(outcome, dasp_net::ProviderOutcome::Ok),
            "crashed provider {p} reported Ok"
        );
    }
}

#[test]
fn verified_queries_identify_byzantine_provider() {
    let mut ds = source(2, 4);
    setup_employees(&mut ds);
    ds.cluster().set_failure(2, FailureMode::Byzantine(1.0));
    let rows = ds
        .select_opts(
            "employees",
            &[Predicate::between("salary", 10_000u64, 80_000u64)],
            QueryOptions { verify: true },
        )
        .unwrap();
    assert_eq!(rows.len(), 5, "majority reconstruction survives corruption");
    // The corrupted provider is identified (if its responses decoded at
    // all — a mangled frame drops it from the quorum instead, which is
    // also detection).
    if !ds.last_faulty.is_empty() {
        assert_eq!(ds.last_faulty, vec![2]);
    }
}

#[test]
fn ringers_detect_withheld_rows() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    ds.plant_ringers("employees", "salary", 8, |v| {
        vec!["RINGER".into(), Value::Int(v), Value::Int(0)]
    })
    .unwrap();
    // Honest providers: queries pass and ringers never surface.
    let rows = ds
        .select(
            "employees",
            &[Predicate::between("salary", 0u64, 1_000_000u64)],
        )
        .unwrap();
    assert_eq!(rows.len(), 5, "ringers are stripped");
    assert!(rows.iter().all(|(_, v)| v[0] != Value::from("RINGER")));
    // Aggregates exclude ringers via the client-side fallback.
    let sum = ds.sum("employees", "salary", &[]).unwrap();
    assert_eq!(sum.value, Some(Value::Int(210_000)));
}

#[test]
fn mashup_bucketed_public_join() {
    let mut ds = source(2, 3);
    // Private friends table.
    ds.create_table(
        TableSchema::new(
            "friends",
            vec![
                ColumnSpec::text("name", 8, ShareMode::Deterministic),
                ColumnSpec::numeric("location", 1 << 20, ShareMode::Random),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    ds.insert("friends", &[vec!["CAROL".into(), Value::Int(5_430)]])
        .unwrap();
    // Public restaurants table at provider 0.
    let restaurants: Vec<(u64, Vec<u64>)> = (0..200u64).map(|i| (i, vec![i * 50, i])).collect(); // locations 0, 50, ..., 9950
    BucketJoin::new(ds.cluster(), 0)
        .upload_public("restaurants", &["location", "rid"], 0, &restaurants)
        .unwrap();
    // Reconstruct Carol's location privately…
    let rows = ds
        .select("friends", &[Predicate::eq("name", "CAROL")])
        .unwrap();
    let Value::Int(loc) = rows[0].1[1] else {
        panic!()
    };
    assert_eq!(loc, 5_430);
    // …and fetch nearby restaurants through a bucket.
    let (near, stats) = BucketJoin::new(ds.cluster(), 0)
        .near("restaurants", 0, loc, 100, 1000)
        .unwrap();
    let ids: Vec<u64> = near.iter().map(|(_, v)| v[1]).collect();
    // Restaurants within [5330, 5530]: locations 5350..=5500 → ids 107..=110.
    assert_eq!(ids, vec![107, 108, 109, 110]);
    assert!(stats.rows_fetched >= near.len() as u64);
    assert_eq!(stats.leaked_interval, 1000);
    // The provider learned a 1000-wide interval, not the address.
    assert!(stats.leaked_interval > 2 * 100);
}

#[test]
fn group_by_server_side() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    // GROUP BY name, SUM(salary).
    let groups = ds
        .group_by("employees", "name", Some("salary"), &[])
        .unwrap();
    assert_eq!(groups.len(), 4); // JOHN, MARY, ALICE, BOB
    let john = groups
        .iter()
        .find(|g| g.group == Value::from("JOHN"))
        .unwrap();
    assert_eq!(john.sum, Some(Value::Int(50_000)));
    assert_eq!(john.count, 2);
    let bob = groups
        .iter()
        .find(|g| g.group == Value::from("BOB"))
        .unwrap();
    assert_eq!(bob.sum, Some(Value::Int(80_000)));
    assert_eq!(bob.count, 1);

    // COUNT-only grouping with a predicate.
    let groups = ds
        .group_by(
            "employees",
            "name",
            None,
            &[Predicate::between("salary", 0u64, 45_000u64)],
        )
        .unwrap();
    assert_eq!(groups.len(), 2); // JOHN (x2), MARY
    let john = groups
        .iter()
        .find(|g| g.group == Value::from("JOHN"))
        .unwrap();
    assert_eq!((john.count, john.sum.clone()), (2, None));
}

#[test]
fn group_by_on_op_column_and_errors() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    // Grouping by an order-preserving column works too (equality-capable).
    let groups = ds
        .group_by("employees", "salary", Some("salary"), &[])
        .unwrap();
    assert_eq!(groups.len(), 5);
    // Grouping by a Random column must fail loudly.
    let err = ds.group_by("employees", "ssn", None, &[]).unwrap_err();
    assert!(matches!(err, ClientError::Unsupported(_)));
}

#[test]
fn group_by_falls_back_with_residual_predicate() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    // ssn is Random → residual → client-side fallback still correct.
    let groups = ds
        .group_by(
            "employees",
            "name",
            Some("salary"),
            &[Predicate::between("ssn", 0u64, 400u64)],
        )
        .unwrap();
    // ssn ≤ 400: rows 1 (JOHN/10000/111), 2 (MARY/20000/222), 3 (JOHN/40000/333).
    assert_eq!(groups.len(), 2);
    let john = groups
        .iter()
        .find(|g| g.group == Value::from("JOHN"))
        .unwrap();
    assert_eq!(john.sum, Some(Value::Int(50_000)));
}

#[test]
fn top_k_server_side() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    let before = ds.cluster().stats().snapshot();
    let top = ds.select_top("employees", "salary", true, 2, &[]).unwrap();
    assert_eq!(top.len(), 2);
    assert_eq!(top[0].1[1], Value::Int(80_000));
    assert_eq!(top[1].1[1], Value::Int(60_000));
    // Only the top rows crossed the wire.
    let delta = ds.cluster().stats().snapshot().since(&before);
    assert!(
        delta.bytes_received < 1000,
        "{} bytes",
        delta.bytes_received
    );

    // Ascending bottom-3 with a predicate.
    let bottom = ds
        .select_top(
            "employees",
            "salary",
            false,
            3,
            &[Predicate::between("salary", 15_000u64, 90_000u64)],
        )
        .unwrap();
    let got: Vec<&Value> = bottom.iter().map(|(_, v)| &v[1]).collect();
    assert_eq!(
        got,
        vec![
            &Value::Int(20_000),
            &Value::Int(40_000),
            &Value::Int(60_000)
        ]
    );
}

#[test]
fn top_k_fallback_on_deterministic_column() {
    // name is Deterministic (no order support) → client-side sort path.
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    let top = ds.select_top("employees", "name", false, 2, &[]).unwrap();
    assert_eq!(top[0].1[0], Value::from("ALICE"));
    assert_eq!(top[1].1[0], Value::from("BOB"));
}

#[test]
fn incremental_update_without_retrieval() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    // Give JOHNs +1000 on their (random-mode) ssn column, repeatedly —
    // repeated increments exercise the mod-p share accumulation.
    for round in 1..=10u64 {
        let n = ds
            .increment_where("employees", &[Predicate::eq("name", "JOHN")], "ssn", 1000)
            .unwrap();
        assert_eq!(n, 2, "round {round}");
    }
    let rows = ds
        .select("employees", &[Predicate::eq("name", "JOHN")])
        .unwrap();
    let mut ssns: Vec<&Value> = rows.iter().map(|(_, v)| &v[2]).collect();
    ssns.sort();
    assert_eq!(
        ssns,
        vec![&Value::Int(111 + 10_000), &Value::Int(333 + 10_000)]
    );
    // Untouched rows unchanged.
    let rows = ds
        .select("employees", &[Predicate::eq("name", "MARY")])
        .unwrap();
    assert_eq!(rows[0].1[2], Value::Int(222));
}

#[test]
fn incremental_update_guards() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    // Structured (deterministic/OP) columns refuse increments.
    for col in ["name", "salary"] {
        let err = ds.increment_where("employees", &[], col, 1).unwrap_err();
        assert!(matches!(err, ClientError::Unsupported(_)), "{col}");
    }
    // Domain overflow is caught before any provider is touched.
    let err = ds
        .increment_where(
            "employees",
            &[Predicate::eq("name", "BOB")],
            "ssn",
            u64::MAX / 2,
        )
        .unwrap_err();
    assert!(matches!(err, ClientError::Schema(_)));
    // Empty selection is a no-op.
    assert_eq!(
        ds.increment_where("employees", &[Predicate::eq("name", "NOBODY")], "ssn", 5)
            .unwrap(),
        0
    );
}

#[test]
fn incremental_update_is_cheaper_than_eager() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    let before = ds.cluster().stats().snapshot();
    ds.increment_where("employees", &[Predicate::eq("name", "ALICE")], "ssn", 7)
        .unwrap();
    let inc = ds.cluster().stats().snapshot().since(&before);
    let before = ds.cluster().stats().snapshot();
    ds.update_where(
        "employees",
        &[Predicate::eq("name", "ALICE")],
        &[("ssn", Value::Int(999))],
    )
    .unwrap();
    let eager = ds.cluster().stats().snapshot().since(&before);
    assert!(
        inc.bytes_sent < eager.bytes_sent,
        "increment sent {} vs eager {}",
        inc.bytes_sent,
        eager.bytes_sent
    );
}

#[test]
fn rebuild_provider_restores_bit_identical_shares() {
    let mut ds = source(2, 4);
    setup_employees(&mut ds);
    // Snapshot provider 2's exact share table before the "disk loss".
    let snapshot_req = dasp_server::proto::Request::Query {
        table: "employees".into(),
        predicate: vec![],
        agg: None,
    }
    .encode();
    let before =
        dasp_server::proto::Response::decode(&ds.cluster().call(2, snapshot_req.clone()).unwrap())
            .unwrap();

    // Wipe provider 2, then rebuild it from the other three.
    ds.cluster()
        .call(2, dasp_server::proto::Request::DropAllTables.encode())
        .unwrap();
    let rebuilt = ds.rebuild_provider(2).unwrap();
    assert_eq!(rebuilt, 5);

    let after =
        dasp_server::proto::Response::decode(&ds.cluster().call(2, snapshot_req).unwrap()).unwrap();
    let (dasp_server::proto::Response::Rows(b), dasp_server::proto::Response::Rows(a)) =
        (before, after)
    else {
        panic!()
    };
    // Providers answer in id order, so equal tables are equal blocks.
    assert_eq!(a, b, "rebuilt provider must hold bit-identical shares");

    // And the fleet behaves normally, including through provider 2.
    let rows = ds
        .select(
            "employees",
            &[Predicate::between("salary", 10_000u64, 40_000u64)],
        )
        .unwrap();
    assert_eq!(rows.len(), 3);
}

#[test]
fn rebuild_provider_works_while_another_is_down() {
    let mut ds = source(2, 4);
    setup_employees(&mut ds);
    // Provider 1 is down; provider 3 lost its disk. k=2 others survive.
    ds.cluster().set_failure(1, FailureMode::Crashed);
    ds.cluster()
        .call(3, dasp_server::proto::Request::DropAllTables.encode())
        .unwrap();
    let rebuilt = ds.rebuild_provider(3).unwrap();
    assert_eq!(rebuilt, 5);
    // Now crash another one: queries still answer via {0, 3}.
    ds.cluster().set_failure(2, FailureMode::Crashed);
    let rows = ds
        .select("employees", &[Predicate::eq("name", "JOHN")])
        .unwrap();
    assert_eq!(rows.len(), 2);
}

#[test]
fn rebuild_provider_refuses_a_byzantine_peers_shares() {
    let mut ds = source(2, 4);
    setup_employees(&mut ds);
    let whole = Request::Query {
        table: "employees".into(),
        predicate: vec![],
        agg: None,
    }
    .encode();
    let before = ds.cluster().call(3, whole.clone()).unwrap();
    // Provider 3 is rebuilt from the other three, and provider 0 flips
    // one bit in each of its answers: k + 1 = 3 peers are fetched, so
    // its answer is checked against the other two.
    ds.cluster().set_failure(0, FailureMode::Byzantine(1.0));
    let err = ds.rebuild_provider(3).unwrap_err();
    assert!(
        matches!(&err, ClientError::RebuildMismatch { table, .. } if table == "employees"),
        "{err}"
    );
    // The check runs before anything is written: provider 3 is as it was.
    ds.cluster().set_failure(0, FailureMode::Healthy);
    assert_eq!(ds.cluster().call(3, whole).unwrap(), before);
    assert_eq!(ds.rebuild_provider(3).unwrap(), 5);
}

#[test]
fn rebuild_fails_without_quorum() {
    let mut ds = source(3, 4);
    setup_employees(&mut ds);
    ds.cluster().set_failure(0, FailureMode::Crashed);
    ds.cluster().set_failure(1, FailureMode::Crashed);
    // Only 2 healthy others < k=3.
    let err = ds.rebuild_provider(3).unwrap_err();
    assert!(matches!(err, ClientError::Reconstruction(_)));
}

#[test]
fn authenticated_range_happy_path() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    let n = ds.commit_table("employees", "salary").unwrap();
    assert_eq!(n, 3, "all providers committed");
    let rows = ds
        .verified_range("employees", "salary", 10_000, 40_000)
        .unwrap();
    let salaries: Vec<&Value> = rows.iter().map(|(_, v)| &v[1]).collect();
    assert_eq!(
        salaries,
        vec![
            &Value::Int(10_000),
            &Value::Int(20_000),
            &Value::Int(40_000)
        ]
    );
    // Empty and full ranges verify too.
    assert!(ds
        .verified_range("employees", "salary", 90_000, 95_000)
        .unwrap()
        .is_empty());
    assert_eq!(
        ds.verified_range("employees", "salary", 0, 1_000_000)
            .unwrap()
            .len(),
        5
    );
}

#[test]
fn authenticated_range_requires_commit_and_op_column() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    // No commitment yet.
    let err = ds
        .verified_range("employees", "salary", 0, 100)
        .unwrap_err();
    assert!(matches!(err, ClientError::Unsupported(_)));
    // Deterministic column refused.
    ds.commit_table("employees", "salary").unwrap();
    let err = ds.verified_range("employees", "name", 0, 100).unwrap_err();
    assert!(matches!(err, ClientError::Unsupported(_)));
}

#[test]
fn authenticated_range_detects_stale_commitment() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    ds.commit_table("employees", "salary").unwrap();
    // Mutate: providers drop their commitment, so verified reads must
    // fail (loudly) until the client re-commits.
    ds.insert(
        "employees",
        &[vec!["NEW".into(), Value::Int(33_333), Value::Int(9)]],
    )
    .unwrap();
    let err = ds
        .verified_range("employees", "salary", 0, 100_000)
        .unwrap_err();
    assert!(matches!(err, ClientError::Reconstruction(_)), "{err:?}");
    // Re-commit restores verified reads, now including the new row.
    ds.commit_table("employees", "salary").unwrap();
    let rows = ds
        .verified_range("employees", "salary", 33_000, 34_000)
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].1[0], Value::from("NEW"));
}

#[test]
fn commit_refused_when_provider_data_corrupt() {
    let mut ds = source(2, 4);
    setup_employees(&mut ds);
    ds.cluster().set_failure(1, FailureMode::Byzantine(1.0));
    // Either the majority check names the provider, or its mangled frames
    // drop it below full participation — both must prevent a clean commit
    // from covering provider 1.
    match ds.commit_table("employees", "salary") {
        Err(_) => {}
        Ok(n) => {
            assert!(n < 4, "corrupt provider must not be committed");
            assert!(ds.last_faulty.contains(&1), "{:?}", ds.last_faulty);
        }
    }
}

#[test]
fn commit_names_a_provider_whose_table_it_rejects() {
    let mut ds = source(2, 4);
    setup_employees(&mut ds);
    // Provider 1 lost its tables: the fetch passes it over, and the
    // commitment covers the other three.
    ds.cluster()
        .call(1, Request::DropAllTables.encode())
        .unwrap();
    assert_eq!(ds.commit_table("employees", "salary").unwrap(), 3);
    assert_eq!(ds.last_faulty, [1]);
}

#[test]
fn a_provider_error_is_final_and_charged_once() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    ds.commit_table("employees", "salary").unwrap();
    // The write drops every provider's commitment, so each answers the
    // verified range with the same error however often it is asked.
    ds.insert(
        "employees",
        &[vec!["NEW".into(), Value::Int(33_333), Value::Int(9)]],
    )
    .unwrap();
    let sent = ds.cluster().stats().snapshot().messages_sent;
    let err = ds
        .verified_range("employees", "salary", 0, 100_000)
        .unwrap_err();
    assert!(matches!(err, ClientError::Reconstruction(_)), "{err:?}");
    let sent = ds.cluster().stats().snapshot().messages_sent - sent;
    assert_eq!(sent, 3, "one request per provider");
    let health = ds.health();
    let failures: Vec<u64> = health.providers.iter().map(|p| p.total_failures).collect();
    assert_eq!(failures, [1, 1, 1], "one breaker charge per provider");
    assert_eq!(ds.last_faulty.len(), 3);
}

#[test]
fn rebuild_names_a_peer_whose_answer_is_not_rows() {
    let mut ds = source(2, 4);
    setup_employees(&mut ds);
    // Provider 0 lost its tables, so it answers the fetch with an error:
    // the rebuild passes it over, charges it, and names it.
    ds.cluster()
        .call(0, Request::DropAllTables.encode())
        .unwrap();
    assert_eq!(ds.rebuild_provider(3).unwrap(), 5);
    assert_eq!(ds.last_faulty, vec![0]);
    assert!(ds.health().providers[0].total_failures > 0);
}

#[test]
fn verified_range_hedges_past_a_byzantine_provider() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    ds.commit_table("employees", "salary").unwrap();
    ds.cluster().set_failure(0, FailureMode::Byzantine(1.0));
    for _ in 0..20 {
        let rows = ds
            .verified_range("employees", "salary", 10_000, 40_000)
            .unwrap();
        let salaries: Vec<&Value> = rows.iter().map(|(_, v)| &v[1]).collect();
        assert_eq!(
            salaries,
            vec![
                &Value::Int(10_000),
                &Value::Int(20_000),
                &Value::Int(40_000)
            ]
        );
        assert!(
            ds.last_faulty.iter().all(|&p| p == 0),
            "{:?}",
            ds.last_faulty
        );
    }
}

#[test]
fn each_authenticated_and_rebuild_step_is_one_round_trip() {
    let mut ds = source(2, 4);
    setup_employees(&mut ds);
    let round_trips = |ds: &DataSource| ds.cluster().stats().snapshot().round_trips;

    // commit_table: one fetch, one challenge.
    let before = round_trips(&ds);
    assert_eq!(ds.commit_table("employees", "salary").unwrap(), 4);
    assert_eq!(round_trips(&ds) - before, 2);

    // verified_range: every committed provider in one round.
    let before = round_trips(&ds);
    assert_eq!(
        ds.verified_range("employees", "salary", 0, 1_000_000)
            .unwrap()
            .len(),
        5
    );
    assert_eq!(round_trips(&ds) - before, 1);

    // rebuild_provider of one 5-row table: one fetch, then the wipe, the
    // create and one insert, each a write to the target.
    let before = round_trips(&ds);
    assert_eq!(ds.rebuild_provider(3).unwrap(), 5);
    assert_eq!(round_trips(&ds) - before, 1 + 3);
}

#[test]
fn dictionary_codec_handles_arbitrary_text_end_to_end() {
    // §V-B "compressed data": arbitrary-alphabet strings are interned
    // client-side; the providers only ever see shares of dense codes.
    use dasp_sss::DictionaryCodec;
    let mut ds = source(2, 3);
    ds.create_table(
        TableSchema::new(
            "notes",
            vec![ColumnSpec::numeric(
                "author",
                1 << 20,
                ShareMode::Deterministic,
            )],
        )
        .unwrap(),
    )
    .unwrap();
    let mut dict = DictionaryCodec::new();
    let authors = ["Dr. Müller", "山田 太郎", "O'Brien, Jr.", "Dr. Müller"];
    let rows: Vec<Vec<Value>> = authors
        .iter()
        .map(|a| vec![Value::Int(dict.intern(a))])
        .collect();
    ds.insert("notes", &rows).unwrap();
    // Query by arbitrary string: rewrite through the dictionary.
    let code = dict.lookup("Dr. Müller").unwrap();
    let hits = ds
        .select("notes", &[Predicate::eq("author", code)])
        .unwrap();
    assert_eq!(hits.len(), 2);
    for (_, v) in &hits {
        let Value::Int(c) = v[0] else { panic!() };
        assert_eq!(dict.resolve(c), Some("Dr. Müller"));
    }
    // Unknown strings short-circuit without touching a provider.
    assert_eq!(dict.lookup("not present"), None);
}

#[test]
fn top_k_deterministic_under_duplicate_order_keys() {
    let mut ds = source(2, 3);
    ds.create_table(
        TableSchema::new(
            "t",
            vec![ColumnSpec::numeric(
                "v",
                1 << 20,
                ShareMode::OrderPreserving,
            )],
        )
        .unwrap(),
    )
    .unwrap();
    // Many rows share the same order key: ties must break identically at
    // every provider (by row id) so zip-by-id never drops rows.
    let rows: Vec<Vec<Value>> = (0..30).map(|i| vec![Value::Int(i % 3)]).collect();
    ds.insert("t", &rows).unwrap();
    for _ in 0..5 {
        let top = ds.select_top("t", "v", true, 7, &[]).unwrap();
        assert_eq!(top.len(), 7);
        // Highest key is 2 (10 rows); the 7 returned are the lowest-id ones.
        for (_, v) in &top {
            assert_eq!(v[0], Value::Int(2));
        }
        // DESC reverses the (share, then id) ascending sort, so ties
        // break by descending row id — identically at every provider.
        let ids: Vec<u64> = top.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![30, 27, 24, 21, 18, 15, 12]);
    }
}

#[test]
fn group_by_stays_correct_across_updates_and_deletes() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    ds.update_where(
        "employees",
        &[Predicate::eq("name", "BOB")],
        &[("salary", Value::Int(5))],
    )
    .unwrap();
    ds.delete_where("employees", &[Predicate::eq("name", "MARY")])
        .unwrap();
    let groups = ds
        .group_by("employees", "name", Some("salary"), &[])
        .unwrap();
    assert_eq!(groups.len(), 3); // JOHN, ALICE, BOB
    let bob = groups
        .iter()
        .find(|g| g.group == Value::from("BOB"))
        .unwrap();
    assert_eq!(bob.sum, Some(Value::Int(5)));
    assert!(groups.iter().all(|g| g.group != Value::from("MARY")));
}

#[test]
fn increment_then_aggregate_consistency() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    // ssn is Random mode: increments then a client-side-summed aggregate
    // (residual predicate forces the fallback path) must agree.
    ds.increment_where("employees", &[Predicate::eq("name", "JOHN")], "ssn", 100)
        .unwrap();
    let sum = ds
        .sum("employees", "ssn", &[Predicate::eq("name", "JOHN")])
        .unwrap();
    // Originals 111 + 333, both +100.
    assert_eq!(sum.value, Some(Value::Int(111 + 333 + 200)));
    // Server-side SUM over the whole (random) column also reconstructs.
    let total = ds.sum("employees", "ssn", &[]).unwrap();
    assert_eq!(
        total.value,
        Some(Value::Int(111 + 222 + 333 + 444 + 555 + 200))
    );
}

#[test]
fn explain_reports_placement_without_executing() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    let before = ds.cluster().stats().snapshot();
    let plan = ds
        .explain(
            "employees",
            &[
                Predicate::eq("name", "JOHN"),
                Predicate::between("salary", 1u64, 2u64),
                Predicate::eq("ssn", 111u64),
            ],
        )
        .unwrap();
    // EXPLAIN must not talk to any provider.
    let delta = ds.cluster().stats().snapshot().since(&before);
    assert_eq!(delta.messages_sent, 0);
    assert_eq!(plan.conjuncts.len(), 3);
    assert_eq!(plan.conjuncts.iter().filter(|c| c.server_side).count(), 2);
    assert!(plan.strategy.contains("residual"));
}

#[test]
fn schema_errors_are_clean() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    assert!(ds.create_table(employees_schema()).is_err(), "duplicate");
    assert!(ds.select("nope", &[]).is_err());
    assert!(ds
        .select("employees", &[Predicate::eq("bogus", 1u64)])
        .is_err());
    assert!(
        ds.insert("employees", &[vec![Value::Int(1)]]).is_err(),
        "arity"
    );
    assert!(ds
        .insert(
            "employees",
            &[vec![
                Value::Int(1), // type mismatch: name is text
                Value::Int(1),
                Value::Int(1),
            ]]
        )
        .is_err());
}

#[test]
fn providers_never_see_plaintext() {
    // Structural leak test: scan every byte every provider received and
    // check the secret salary values never appear on the wire in the
    // clear. (Shares are huge i128s; a plaintext u64 salary would appear
    // as its little-endian encoding.)
    struct Recorder {
        inner: dasp_server::ProviderService,
        seen: std::sync::Arc<parking_lot::Mutex<Vec<u8>>>,
    }
    impl dasp_net::SharedService for Recorder {
        fn handle(&self, request: &[u8]) -> Vec<u8> {
            self.seen.lock().extend_from_slice(request);
            dasp_net::SharedService::handle(&self.inner, request)
        }
    }
    let seen: Vec<std::sync::Arc<parking_lot::Mutex<Vec<u8>>>> =
        (0..3).map(|_| Default::default()).collect();
    let services: Vec<std::sync::Arc<dyn dasp_net::SharedService>> = seen
        .iter()
        .map(|s| {
            std::sync::Arc::new(Recorder {
                inner: dasp_server::ProviderService::new(),
                seen: std::sync::Arc::clone(s),
            }) as std::sync::Arc<dyn dasp_net::SharedService>
        })
        .collect();
    let cluster = Cluster::spawn_concurrent(services, Duration::from_millis(500), 1);
    let mut rng = StdRng::seed_from_u64(99);
    let keys = ClientKeys::generate(2, 3, &mut rng).unwrap();
    let mut ds = DataSource::with_seed(keys, cluster, 3).unwrap();

    ds.create_table(
        TableSchema::new(
            "secrets",
            vec![ColumnSpec::numeric(
                "salary",
                1 << 32,
                ShareMode::OrderPreserving,
            )],
        )
        .unwrap(),
    )
    .unwrap();
    // A distinctive secret unlikely to occur in framing bytes.
    let secret: u64 = 0x1357_9BDF;
    ds.insert("secrets", &[vec![Value::Int(secret)]]).unwrap();
    ds.select(
        "secrets",
        &[Predicate::between("salary", secret - 5, secret + 5)],
    )
    .unwrap();

    let needle = secret.to_le_bytes();
    for (p, log) in seen.iter().enumerate() {
        let bytes = log.lock();
        let found = bytes.windows(8).any(|w| w == needle);
        assert!(!found, "provider {p} saw the plaintext secret on the wire");
    }
}

#[test]
fn query_many_matches_individual_selects() {
    let mut ds = source(2, 3);
    setup_employees(&mut ds);
    let batch: Vec<Vec<Predicate>> = vec![
        vec![Predicate::eq("name", "JOHN")],
        vec![Predicate::between("salary", 10_000u64, 40_000u64)],
        vec![Predicate::eq("ssn", 333u64)], // residual: filtered client-side
        vec![],                             // full scan
    ];
    let expected: Vec<_> = batch
        .iter()
        .map(|p| ds.select("employees", p).unwrap())
        .collect();
    // The batch must be position-matched and identical to per-query
    // selects.
    let got = ds.query_many("employees", &batch).unwrap();
    assert_eq!(got, expected);
    assert!(ds.query_many("employees", &[]).unwrap().is_empty());
}

/// A provider that holds each `Query` until `m` queries are inside it at
/// once, or until `limit` has passed. Once open, the gate stays open.
struct QueryGate {
    inner: Arc<dyn SharedService>,
    m: usize,
    limit: Duration,
    /// (queries inside, open)
    state: std::sync::Mutex<(usize, bool)>,
    opened: std::sync::Condvar,
}

impl SharedService for QueryGate {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        if matches!(Request::decode(request), Ok(Request::Query { .. })) {
            let mut state = self.state.lock().unwrap();
            state.0 += 1;
            if state.0 >= self.m {
                state.1 = true;
                self.opened.notify_all();
            }
            let (mut state, _) = self
                .opened
                .wait_timeout_while(state, self.limit, |(_, open)| !*open)
                .unwrap();
            state.0 -= 1;
        }
        self.inner.handle(request)
    }
}

#[test]
fn query_many_over_concurrent_provider_pool() {
    // End-to-end overlap: every provider holds each query until eight
    // are inside it at once, so the batch answers only if all eight
    // queries are in flight together. A client that sent them one at a
    // time would have each held for the gate's 5 s limit, past the 4 s
    // cluster timeout, and fail with a typed error instead of hanging.
    // Responses may return out of order (token-multiplexed); results
    // must still match serial selects exactly.
    const M: usize = 8;
    let services = provider_fleet(3)
        .into_iter()
        .map(|inner| {
            Arc::new(QueryGate {
                inner,
                m: M,
                limit: Duration::from_secs(5),
                state: Default::default(),
                opened: Default::default(),
            }) as Arc<dyn SharedService>
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0xdab);
    let keys = ClientKeys::generate(2, 3, &mut rng).unwrap();
    let cluster = Cluster::spawn_concurrent(services, Duration::from_secs(4), M);
    let mut ds = DataSource::with_seed(keys, cluster, 7).unwrap();
    ds.set_retry_policy(RetryPolicy::none());
    setup_employees(&mut ds);
    let batch: Vec<Vec<Predicate>> = (0..M as u64)
        .map(|i| {
            vec![Predicate::between(
                "salary",
                10_000 * (i % 4 + 1),
                80_000u64,
            )]
        })
        .collect();
    let got = ds.query_many("employees", &batch).unwrap();
    for (preds, rows) in batch.iter().zip(&got) {
        assert_eq!(rows, &ds.select("employees", preds).unwrap());
    }
}

#[test]
fn a_thousand_row_select_moves_under_100_kb() {
    // Shares travel at their own width: a field share is below 2⁶¹
    // (8 bytes), this order-preserving share a few bytes less, and an
    // ascending row id one byte of delta — about 30 bytes a row a
    // provider, where a fixed 16 bytes a share and 16 a row made it 80.
    let mut ds = source(2, 3);
    let schema = TableSchema::new(
        "staff",
        vec![
            ColumnSpec::text("name", 8, ShareMode::Deterministic),
            ColumnSpec::numeric("dept", 64, ShareMode::Deterministic),
            ColumnSpec::numeric("salary", 1 << 20, ShareMode::OrderPreserving),
            ColumnSpec::numeric("ssn", 1 << 30, ShareMode::Random),
        ],
    )
    .unwrap();
    ds.create_table(schema).unwrap();
    let rows: Vec<Vec<Value>> = (0..1000u64)
        .map(|i| {
            vec![
                ["ANN", "BOB", "CAROL", "DAN", "EVE"][i as usize % 5].into(),
                Value::Int(i % 64),
                Value::Int(1_000 + i * 37),
                Value::Int(i * 1_000_003 % (1 << 30)),
            ]
        })
        .collect();
    ds.insert("staff", &rows).unwrap();
    let before = ds.cluster().stats().snapshot();
    let got = ds.select("staff", &[]).unwrap();
    let moved = ds.cluster().stats().snapshot().since(&before).total_bytes();
    assert_eq!(got.len(), 1000);
    for ((_, values), row) in got.iter().zip(&rows) {
        assert_eq!(values, row);
    }
    assert!(moved <= 100_000, "1000 rows × 3 providers moved {moved} B");
}
