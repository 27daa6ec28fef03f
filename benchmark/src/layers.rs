//! Layer calls: each layer's public entry points timed on their own, so
//! a per-layer number exists that no other layer can move. They take
//! no workload; the sizes are fixed here.

use crate::deploy::{self, K, N, RPC_TIMEOUT, SALARY_DOMAIN};
use crate::stats::{median, percentile};
use dasp_client::ClientKeys;
use dasp_field::Fp;
use dasp_net::{
    crc32, encode_frame, BlockingConn, Cluster, FrameDecoder, FrameKind, SharedService, TcpServer,
};
use dasp_server::{DurableConfig, ProviderEngine, Request, Response, Row};
use dasp_storage::{Wal, WalConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Values per share-codec batch (a `range_scan` reply is about 1000).
const CODEC_BATCH: usize = 4096;
const REPS: usize = 5;

fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Median over `REPS` runs of `f`, in nanoseconds per item.
fn ns_per_item(items: usize, mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            ns_since(start) as f64 / items as f64
        })
        .collect();
    median(&runs).expect("REPS > 0")
}

/// Median latency of `calls` calls of `f`, in microseconds.
fn p50_us(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut ns: Vec<u64> = (0..calls)
        .map(|_| {
            let start = Instant::now();
            f();
            ns_since(start)
        })
        .collect();
    ns.sort_unstable();
    percentile(&ns, 50.0).expect("calls > 0") as f64 / 1e3
}

fn echo() -> Arc<dyn SharedService> {
    Arc::new(|request: &[u8]| request.to_vec())
}

/// dasp-sss and dasp-field: share and reconstruct one column's batch.
fn share_codec(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = ClientKeys::generate(K, N, &mut rng).expect("k=2, n=3 is a valid sharing");
    let values: Vec<u64> = (0..CODEC_BATCH)
        .map(|_| rng.gen_range(0..SALARY_DOMAIN))
        .collect();

    let op = keys
        .op_sharing("salary", SALARY_DOMAIN)
        .expect("salary domain");
    let shared = op.share_batch(&values).expect("values are in the domain");
    out.push((
        "sss.op_share_ns_per_value",
        ns_per_item(CODEC_BATCH, || {
            black_box(op.share_batch(black_box(&values)).expect("in domain"));
        }),
    ));
    let held_by_0: Vec<i128> = shared.iter().map(|row| row[0]).collect();
    let decoded = op
        .reconstruct_search_batch(0, &held_by_0)
        .expect("provider 0 exists");
    assert!(
        decoded.iter().zip(&values).all(|(d, v)| *d == Some(*v)),
        "OP shares decode to their values"
    );
    out.push((
        "sss.op_reconstruct_ns_per_value",
        ns_per_item(CODEC_BATCH, || {
            black_box(
                op.reconstruct_search_batch(0, black_box(&held_by_0))
                    .expect("provider 0 exists"),
            );
        }),
    ));

    let field = keys.field();
    let key = keys.domain_key("eid");
    let split = field.split_deterministic_batch(&values, &key);
    out.push((
        "sss.field_split_ns_per_value",
        ns_per_item(CODEC_BATCH, || {
            black_box(field.split_deterministic_batch(black_box(&values), &key));
        }),
    ));
    let providers: Vec<usize> = (0..N).collect();
    let rows: Vec<Vec<Fp>> = split
        .iter()
        .map(|shares| shares.iter().map(|s| s.y).collect())
        .collect();
    let back = field
        .reconstruct_batch(&providers, &rows)
        .expect("consistent shares");
    assert!(
        back.iter().zip(&values).all(|(b, v)| b.to_u64() == *v),
        "field shares reconstruct to their values"
    );
    out.push((
        "sss.field_reconstruct_ns_per_value",
        ns_per_item(CODEC_BATCH, || {
            black_box(
                field
                    .reconstruct_batch(&providers, black_box(&rows))
                    .expect("consistent shares"),
            );
        }),
    ));
}

/// dasp-net `rpc.rs`: a k-of-n quorum call when the services are free.
fn quorum_dispatch(out: &mut Vec<(&'static str, f64)>) {
    let cluster = Cluster::spawn_concurrent((0..N).map(|_| echo()).collect(), RPC_TIMEOUT, 1);
    let request = vec![7u8; 64];
    out.push((
        "rpc.dispatch_us_p50",
        p50_us(2000, || {
            let requests = (0..N).map(|p| (p, request.clone())).collect();
            black_box(cluster.call_quorum(requests, K).expect("echo answers"));
        }),
    ));
}

/// dasp-net transport, wire and reactor: an echo round trip over
/// loopback at the smallest and at a large message size, and the frame
/// codec and checksum on their own.
fn transport(out: &mut Vec<(&'static str, f64)>) {
    let server =
        TcpServer::serve("127.0.0.1:0", echo(), deploy::reactor_config()).expect("serve echo");
    let mut conn = BlockingConn::connect(server.local_addr(), RPC_TIMEOUT).expect("connect");
    let small = vec![7u8; 64];
    let large = vec![7u8; 64 * 1024];
    out.push((
        "net.echo_rtt_us_p50",
        p50_us(2000, || {
            black_box(conn.call(&small).expect("echo"));
        }),
    ));
    out.push((
        "net.echo_rtt_64k_us_p50",
        p50_us(300, || {
            black_box(conn.call(&large).expect("echo"));
        }),
    ));
    drop(conn);
    drop(server);

    const FRAMES: usize = 20_000;
    out.push((
        "net.frame_encode_ns",
        ns_per_item(FRAMES, || {
            for token in 0..FRAMES as u64 {
                black_box(encode_frame(token, FrameKind::Request, black_box(&small)));
            }
        }),
    ));
    let frame = encode_frame(1, FrameKind::Request, &small);
    let mut decoder = FrameDecoder::new();
    out.push((
        "net.frame_decode_ns",
        ns_per_item(FRAMES, || {
            for _ in 0..FRAMES {
                decoder.extend(black_box(&frame));
                black_box(decoder.next_frame().expect("valid frame"));
            }
        }),
    ));
    let block = vec![0xa5u8; 1 << 20];
    let ns_per_byte = ns_per_item(block.len() * 8, || {
        for _ in 0..8 {
            black_box(crc32(black_box(&block)));
        }
    });
    out.push(("net.crc32_mb_s", 1e3 / ns_per_byte));
}

fn synthetic_rows(ids: std::ops::Range<u64>, rng: &mut StdRng) -> Vec<Row> {
    ids.map(|id| Row {
        id,
        shares: (0..4).map(|_| rng.gen::<u64>() as i128).collect(),
    })
    .collect()
}

fn fill(engine: &ProviderEngine, rows: u64, rng: &mut StdRng) {
    let ack = engine.execute(&Request::CreateTable {
        name: "t".into(),
        columns: ["eid", "name", "salary", "ssn"].map(String::from).to_vec(),
        indexed: vec![true, true, true, false],
    });
    assert_eq!(ack, Response::Ack, "create table");
    let mut next = 1;
    while next <= rows {
        let end = (next + 10_000).min(rows + 1);
        let ack = engine.execute(&Request::Insert {
            table: "t".into(),
            rows: synthetic_rows(next..end, rng),
        });
        assert_eq!(ack, Response::Ack, "fill insert");
        next = end;
    }
}

/// dasp-server engine: a single-row insert into a volatile engine at
/// two table sizes. The two converge once a write no longer costs O(N).
fn engine_insert(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    for (name, rows, calls) in [
        ("server.insert_us_at_1k", 1_000u64, 200u64),
        ("server.insert_us_at_100k", 100_000, 15),
    ] {
        let mut rng = StdRng::seed_from_u64(seed);
        let engine = ProviderEngine::new();
        fill(&engine, rows, &mut rng);
        let mut next = rows + 1;
        out.push((
            name,
            p50_us(calls as usize, || {
                let request = Request::Insert {
                    table: "t".into(),
                    rows: synthetic_rows(next..next + 1, &mut rng),
                };
                next += 1;
                assert_eq!(engine.execute(&request), Response::Ack, "insert");
            }),
        ));
    }
}

/// dasp-storage: what a lone writer waits for a durable append under
/// the shipping flush policy, and a checkpoint of a 100 000-row table.
fn storage(seed: u64, scratch: &Path, out: &mut Vec<(&'static str, f64)>) {
    let dir = scratch.join(format!("layers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");

    let wal = Wal::open(&dir.join("lone.wal"), 0, WalConfig::default())
        .expect("open wal")
        .wal;
    let record = vec![7u8; 128];
    out.push((
        "storage.wal_commit_us_p50",
        p50_us(100, || {
            wal.append_durable(&record).expect("append");
        }),
    ));
    drop(wal);

    let config = DurableConfig {
        checkpoint_every: 0,
        ..deploy::durable_config()
    };
    let (engine, _) = ProviderEngine::durable(&dir.join("ckpt"), config).expect("open engine");
    fill(&engine, 100_000, &mut StdRng::seed_from_u64(seed));
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            engine.checkpoint().expect("checkpoint");
            ns_since(start) as f64 / 1e6
        })
        .collect();
    out.push(("storage.checkpoint_ms", median(&runs).expect("3 runs")));
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// dasp-sql, the control: the typed API never parses, so nothing the
/// workloads measure may follow this number.
fn sql_parse(out: &mut Vec<(&'static str, f64)>) {
    const STATEMENTS: [&str; 4] = [
        "SELECT * FROM employees WHERE eid = 4711",
        "SELECT * FROM employees WHERE salary BETWEEN 10000 AND 20485",
        "INSERT INTO employees VALUES (100001, 'JOHNA', 52000, 123456789)",
        "UPDATE employees SET salary = 61000 WHERE eid = 4711",
    ];
    let mut next = 0;
    out.push((
        "sql.parse_us_p50",
        p50_us(4000, || {
            black_box(dasp_sql::parse(black_box(STATEMENTS[next % 4])).expect("valid SQL"));
            next += 1;
        }),
    ));
}

/// Every layer call, as `(metric, value)`.
pub fn run_all(seed: u64, scratch: &Path) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    share_codec(seed, &mut out);
    quorum_dispatch(&mut out);
    transport(&mut out);
    engine_insert(seed, &mut out);
    storage(seed, scratch, &mut out);
    sql_parse(&mut out);
    out
}
