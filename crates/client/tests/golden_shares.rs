//! Golden shares: with fixed-seed keys, the deterministic shares the
//! client puts on the wire are pinned to exact values. A change to how
//! the client derives or evaluates its deterministic polynomials must
//! leave every byte a provider receives as it was.

use dasp_client::{ClientKeys, ColumnSpec, DataSource, Predicate, TableSchema, Value};
use dasp_net::{Cluster, SharedService};
use dasp_server::proto::{PredAtom, Request};
use dasp_server::ProviderService;
use dasp_sss::ShareMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A provider that keeps every request it decodes.
struct Recorder {
    inner: ProviderService,
    seen: Arc<Mutex<Vec<Request>>>,
}

impl SharedService for Recorder {
    fn handle(&self, request: &[u8]) -> Vec<u8> {
        if let Ok(req) = Request::decode(request) {
            self.seen.lock().unwrap().push(req);
        }
        self.inner.handle(request)
    }
}

/// Column indices of the deterministic columns in [`schema`].
const DET_COLS: [usize; 2] = [0, 1];

fn schema() -> TableSchema {
    TableSchema::new(
        "employees",
        vec![
            ColumnSpec::numeric("eid", 1 << 32, ShareMode::Deterministic),
            ColumnSpec::text("name", 8, ShareMode::Deterministic),
            ColumnSpec::numeric("salary", 1 << 20, ShareMode::OrderPreserving),
            ColumnSpec::numeric("ssn", 1 << 30, ShareMode::Random),
        ],
    )
    .unwrap()
}

/// Every request each of three recording providers saw after a 1-row
/// insert and a `select(eid = 42)`, then a second insert. That write
/// reaches every provider, whose single worker serves in order, so each
/// provider's `select` request has been handled by the time it returns.
fn recorded() -> Vec<Vec<Request>> {
    let seen: Vec<Arc<Mutex<Vec<Request>>>> = (0..3).map(|_| Default::default()).collect();
    let services = seen
        .iter()
        .map(|s| {
            Arc::new(Recorder {
                inner: ProviderService::new(),
                seen: Arc::clone(s),
            }) as Arc<dyn SharedService>
        })
        .collect();
    let cluster = Cluster::spawn_concurrent(services, Duration::from_secs(5), 1);
    let keys = ClientKeys::generate(2, 3, &mut StdRng::seed_from_u64(0x601d)).unwrap();
    let mut ds = DataSource::with_seed(keys, cluster, 11).unwrap();
    ds.create_table(schema()).unwrap();
    let row = |eid: u64| {
        vec![
            Value::Int(eid),
            "ANA".into(),
            Value::Int(5_000),
            Value::Int(7),
        ]
    };
    ds.insert("employees", &[row(42)]).unwrap();
    let found = ds
        .select("employees", &[Predicate::eq("eid", 42u64)])
        .unwrap();
    assert_eq!(found.len(), 1);
    ds.insert("employees", &[row(43)]).unwrap();
    seen.iter().map(|s| s.lock().unwrap().clone()).collect()
}

#[test]
fn deterministic_shares_on_the_wire_are_pinned() {
    let seen = recorded();
    let eq_shares: Vec<Vec<(usize, i128)>> = seen
        .iter()
        .map(|reqs| {
            reqs.iter()
                .filter_map(|r| match r {
                    Request::Query { predicate, .. } => Some(predicate),
                    _ => None,
                })
                .flatten()
                .filter_map(|atom| match *atom {
                    PredAtom::Eq { col, share } => Some((col, share)),
                    PredAtom::Range { .. } => None,
                })
                .collect()
        })
        .collect();
    let insert_shares: Vec<Vec<i128>> = seen
        .iter()
        .map(|reqs| {
            let row = reqs
                .iter()
                .find_map(|r| match r {
                    Request::Insert { rows, .. } => rows.first(),
                    _ => None,
                })
                .unwrap();
            DET_COLS.iter().map(|&c| row.shares[c]).collect()
        })
        .collect();
    // `eid = 42` at providers 0, 1, 2: the share the 1-row insert wrote.
    const EID_42: [i128; 3] = [
        1_883_830_041_252_445_771,
        1_125_277_689_747_599_137,
        1_597_779_442_752_214_170,
    ];
    // `name = "ANA"` at providers 0, 1, 2.
    const NAME_ANA: [i128; 3] = [
        1_302_311_766_011_691_765,
        75_033_440_625_557_841,
        1_278_652_901_176_394_965,
    ];
    let want_eq: Vec<Vec<(usize, i128)>> = EID_42.iter().map(|&s| vec![(0, s)]).collect();
    assert_eq!(eq_shares, want_eq, "select(eid = 42) predicate shares");
    let want_insert: Vec<Vec<i128>> = EID_42
        .iter()
        .zip(NAME_ANA)
        .map(|(&eid, name)| vec![eid, name])
        .collect();
    assert_eq!(
        insert_shares, want_insert,
        "1-row insert deterministic shares"
    );
}
