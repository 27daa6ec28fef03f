//! Micro-benchmarks of the substrates: field arithmetic, share
//! construction/reconstruction (the client's per-value costs), the
//! from-scratch crypto used by baselines, the provider's persistent
//! table map against std's `BTreeMap`, the provider engine's writes,
//! reads and recovery, and a call through a provider's worker pool.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dasp_baseline::{Aes128, OpeCipher};
use dasp_bigint::{mod_pow, mod_pow_plain, BigUint, MontgomeryCtx};
use dasp_client::ClientKeys;
use dasp_crypto::{sha256, SipHash24};
use dasp_field::{Fp, Poly};
use dasp_net::{Cluster, SharedService};
use dasp_server::pmap::PMap;
use dasp_server::{DurableConfig, PredAtom, ProviderEngine, Request, Response, Row};
use dasp_sss::{DomainKey, FieldSharing, OpSharing, OpssParams, StringCodec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
}

fn bench_field(c: &mut Criterion) {
    let mut g = c.benchmark_group("field");
    let a = Fp::from_u64(0x1234_5678_9abc);
    let b = Fp::from_u64(0x0fed_cba9_8765);
    g.bench_function("mul", |bench| bench.iter(|| black_box(a) * black_box(b)));
    g.bench_function("inv", |bench| bench.iter(|| black_box(a).inv()));
    let poly = Poly::new((0..4).map(Fp::from_u64).collect());
    g.bench_function("poly_eval_deg3", |bench| {
        bench.iter(|| poly.eval(black_box(a)))
    });
    g.finish();
}

fn bench_sss(c: &mut Criterion) {
    let mut g = c.benchmark_group("sss");
    let mut rng = StdRng::seed_from_u64(1);
    let sharing = FieldSharing::generate(2, 4, &mut rng).unwrap();
    let key = DomainKey::derive(b"master", "salary");
    g.bench_function("split_random_k2_n4", |bench| {
        bench.iter(|| sharing.split_random(Fp::from_u64(12345), &mut rng))
    });
    g.bench_function("split_deterministic_k2_n4", |bench| {
        bench.iter(|| sharing.split_deterministic(black_box(12345), &key))
    });
    // The client's rewrite of `eid = x` into the share each of three
    // providers filters on, with the column's PRFs from its plan.
    let keys = ClientKeys::generate(2, 3, &mut rng).unwrap();
    let prfs = keys.coeff_prfs("eid");
    g.bench_function("point_rewrite_n3", |bench| {
        bench.iter(|| {
            (0..3)
                .map(|p| {
                    keys.field()
                        .deterministic_share_with(black_box(42), &prfs, p)
                })
                .collect::<Result<Vec<_>, _>>()
        })
    });
    let shares = sharing.split_random(Fp::from_u64(777), &mut rng);
    g.bench_function("reconstruct_k2", |bench| {
        bench.iter(|| sharing.reconstruct(black_box(&shares[..2])))
    });

    let params = OpssParams::new(1, 12, 1 << 32, vec![2, 4, 1, 7]).unwrap();
    let op = OpSharing::new(params, key.clone());
    g.bench_function("opss_share_deg1_n4", |bench| {
        bench.iter(|| op.share(black_box(1_000_000)))
    });
    let share0 = op.share_for(1_000_000, 0).unwrap();
    g.bench_function("opss_decode_search_2^32", |bench| {
        bench.iter(|| op.reconstruct_search(0, black_box(share0)))
    });
    let pairs: Vec<(usize, i128)> = op
        .share(1_000_000)
        .unwrap()
        .into_iter()
        .enumerate()
        .collect();
    g.bench_function("opss_decode_interpolate", |bench| {
        bench.iter(|| op.reconstruct_interpolate(black_box(&pairs)))
    });

    let codec = StringCodec::uppercase(8).unwrap();
    g.bench_function("string_encode", |bench| {
        bench.iter(|| codec.encode(black_box("JOHNSON")))
    });
    g.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut g = c.benchmark_group("crypto");
    let data = vec![0xa5u8; 1024];
    g.bench_function("sha256_1k", |bench| bench.iter(|| sha256(black_box(&data))));
    let aes = Aes128::new(b"0123456789abcdef");
    g.bench_function("aes128_block", |bench| {
        bench.iter(|| aes.encrypt_u128(black_box(0xdead_beef)))
    });
    let sip = SipHash24::from_words(1, 2);
    g.bench_function("siphash_u64", |bench| {
        bench.iter(|| sip.hash_u64(black_box(42)))
    });
    let ope = OpeCipher::new(b"0123456789abcdef", 1 << 32);
    g.bench_function("ope_encrypt_2^32", |bench| {
        bench.iter(|| ope.encrypt(black_box(1_000_000)))
    });
    g.finish();
}

fn bench_bigint(c: &mut Criterion) {
    let mut g = c.benchmark_group("bigint");
    let mut rng = StdRng::seed_from_u64(2);
    let n = BigUint::random_bits(512, &mut rng);
    let a = BigUint::random_bits(510, &mut rng);
    let e = BigUint::random_bits(256, &mut rng);
    g.bench_function("mul_512", |bench| bench.iter(|| black_box(&a).mul(&a)));
    g.bench_function("modexp_512_e256", |bench| {
        bench.iter(|| mod_pow(black_box(&a), &e, &n))
    });
    // Ablation: Montgomery (used by mod_pow for odd moduli) vs the
    // division-based reference path.
    let n_odd = if n.is_even() {
        n.add(&BigUint::one())
    } else {
        n.clone()
    };
    g.bench_function("modexp_512_plain_division", |bench| {
        bench.iter(|| mod_pow_plain(black_box(&a), &e, &n_odd))
    });
    let ctx = MontgomeryCtx::new(&n_odd);
    g.bench_function("modexp_512_montgomery", |bench| {
        bench.iter(|| ctx.mod_pow(black_box(&a), &e))
    });
    g.finish();
}

/// `PMap` next to `BTreeMap` at 100 000 entries, on the engine's two map
/// shapes: rows (`id -> shares`, walked once by `get_sorted` for a read's
/// ascending candidate ids; `get` once per id is the row beside it)
/// and an index (`(share high, share low, id)` keys, walked by `range`,
/// written on every row change). Reads and unshared inserts (WAL replay, bulk load) should
/// stay near std; the `_shared` row adds what a published clone costs the
/// next writes: one copied path per touched leaf.
fn bench_pmap(c: &mut Criterion) {
    type Key = (i64, u64, u64);
    let mut g = c.benchmark_group("pmap");
    let mut rng = StdRng::seed_from_u64(3);
    let rows: Vec<(u64, Vec<i128>)> = (0..100_000u64).map(|i| (i, vec![i as i128; 4])).collect();
    let pmap_rows = PMap::from_sorted(rows.clone()).unwrap();
    let std_rows: BTreeMap<u64, Vec<i128>> = rows.into_iter().collect();
    let ids: Vec<u64> = (0..1000).map(|_| rng.gen_range(0..100_000u64)).collect();
    g.bench_function("pmap_get_rows_x1000_of_100k", |bench| {
        bench.iter(|| ids.iter().filter_map(|id| pmap_rows.get(id)).count())
    });
    let mut sorted_ids = ids.clone();
    sorted_ids.sort_unstable();
    sorted_ids.dedup();
    g.bench_function("pmap_get_sorted_rows_x1000_of_100k", |bench| {
        bench.iter(|| {
            let mut found = 0usize;
            pmap_rows.get_sorted(&sorted_ids, |_, _| found += 1);
            found
        })
    });
    g.bench_function("btreemap_get_rows_x1000_of_100k", |bench| {
        bench.iter(|| ids.iter().filter_map(|id| std_rows.get(id)).count())
    });

    let sorted: Vec<(Key, ())> = (0..100_000u64).map(|i| ((0, i * 3, i), ())).collect();
    let pmap = PMap::from_sorted(sorted.clone()).unwrap();
    let std_map: BTreeMap<Key, ()> = sorted.iter().copied().collect();
    let mut near = |offset: u64| -> Vec<Key> {
        (0..1000)
            .map(|_| {
                let i = rng.gen_range(0..100_000u64);
                (0, i * 3 + offset, i)
            })
            .collect()
    };
    let (probes, fresh) = (near(0), near(1));
    g.bench_function("pmap_get_index_x1000_of_100k", |bench| {
        bench.iter(|| probes.iter().filter_map(|k| pmap.get(k)).count())
    });
    g.bench_function("btreemap_get_index_x1000_of_100k", |bench| {
        bench.iter(|| probes.iter().filter_map(|k| std_map.get(k)).count())
    });
    let (lo, hi) = ((0, 90_000, 0), (0, 92_999, u64::MAX));
    g.bench_function("pmap_range_1000_of_100k", |bench| {
        bench.iter(|| {
            pmap.range(black_box(lo)..=hi)
                .map(|(k, _)| k.2)
                .sum::<u64>()
        })
    });
    g.bench_function("btreemap_range_1000_of_100k", |bench| {
        bench.iter(|| {
            std_map
                .range(black_box(lo)..=hi)
                .map(|(k, _)| k.2)
                .sum::<u64>()
        })
    });
    // The written maps go to `kept_*`, so freeing them is not timed.
    let mut kept_pmaps = Vec::new();
    let mut insert_all = |mut map: PMap<Key, ()>| {
        for k in &fresh {
            map.insert(*k, ());
        }
        kept_pmaps.push(map);
    };
    g.bench_function("pmap_insert_x1000_at_100k", |bench| {
        bench.iter_batched(
            || PMap::from_sorted(sorted.clone()).unwrap(),
            &mut insert_all,
            BatchSize::LargeInput,
        )
    });
    g.bench_function("pmap_insert_x1000_at_100k_shared", |bench| {
        bench.iter_batched(|| pmap.clone(), &mut insert_all, BatchSize::LargeInput)
    });
    let mut kept_std = Vec::new();
    g.bench_function("btreemap_insert_x1000_at_100k", |bench| {
        bench.iter_batched(
            || std_map.clone(),
            |mut map| {
                for k in &fresh {
                    map.insert(*k, ());
                }
                kept_std.push(map);
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// An `Insert` of the rows `ids` into the table `t`, each with four
/// random shares.
fn random_rows(rng: &mut StdRng, ids: std::ops::Range<u64>) -> Request {
    Request::Insert {
        table: "t".into(),
        rows: ids
            .map(|id| Row {
                id,
                shares: (0..4).map(|_| rng.gen::<u64>() as i128).collect(),
            })
            .collect(),
    }
}

/// Create the table `t` in `engine` on the benchmark's employee shape
/// (four columns, the first three indexed) and insert `size` random rows,
/// `step` to an `Insert`.
fn fill(engine: &ProviderEngine, rng: &mut StdRng, size: u64, step: u64) {
    let ack = engine.execute(&Request::CreateTable {
        name: "t".into(),
        columns: ["eid", "name", "salary", "ssn"].map(String::from).to_vec(),
        indexed: vec![true, true, true, false],
    });
    assert_eq!(ack, Response::Ack);
    for start in (0..size).step_by(step as usize) {
        let ack = engine.execute(&random_rows(rng, start..(start + step).min(size)));
        assert_eq!(ack, Response::Ack);
    }
}

/// A volatile engine holding the table `t` of `size` random rows.
fn filled_engine(rng: &mut StdRng, size: u64) -> ProviderEngine {
    let engine = ProviderEngine::new();
    fill(&engine, rng, size, 10_000);
    engine
}

/// Only manual checkpoints: the benchmarks decide what is in the image
/// and what is in the log.
fn manual_checkpoints() -> DurableConfig {
    DurableConfig {
        checkpoint_every: 0,
        ..DurableConfig::default()
    }
}

/// A provider directory written by `write`, run against a fresh durable
/// engine that is dropped (as a crash would) afterwards.
fn provider_dir(tag: &str, write: impl FnOnce(&ProviderEngine)) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dasp-microbench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (engine, _) = ProviderEngine::durable(&dir, manual_checkpoints()).unwrap();
    write(&engine);
    dir
}

/// One-row `Insert` through `ProviderEngine::execute` at three table
/// sizes: flat now that a write copies tree paths, not the table.
fn bench_engine_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    for (label, size) in [("1k", 1_000u64), ("100k", 100_000), ("1m", 1_000_000)] {
        let mut rng = StdRng::seed_from_u64(4);
        let engine = filled_engine(&mut rng, size);
        let mut rows = |ids| random_rows(&mut rng, ids);
        let mut next = size;
        // The first small write after the bulk fill pays the allocator's
        // one-off consolidation of everything the fill freed; keep it out.
        for _ in 0..100 {
            next += 1;
            engine.execute(&rows(next - 1..next));
        }
        g.bench_function(format!("engine_insert_1row_at_{label}"), |bench| {
            bench.iter_batched(
                || {
                    next += 1;
                    rows(next - 1..next)
                },
                |request| engine.execute(&request),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// A 1 % range on the salary column of a 100 000-row table through
/// `ProviderEngine::execute`: the index probe, the rows walk and the
/// predicate pass of a `range_scan` read, without the wire.
fn bench_engine_range(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    // Below a millisecond an iteration: enough of them to settle.
    g.sample_size(500);
    let mut rng = StdRng::seed_from_u64(5);
    let engine = filled_engine(&mut rng, 100_000);
    let width = u64::MAX / 100;
    let mut lo = 0u64;
    g.bench_function("engine_range_1pct_at_100k", |bench| {
        bench.iter(|| {
            // A new window each time, as the benchmark's reads have.
            lo = lo.wrapping_add(width / 7 * 3) % (u64::MAX - width);
            engine.execute(&Request::Query {
                table: "t".into(),
                predicate: vec![PredAtom::Range {
                    col: 2,
                    lo: lo.into(),
                    hi: (lo + width).into(),
                }],
                agg: None,
            })
        })
    });
    g.finish();
}

/// `ProviderEngine::durable` on a provider directory, at the two shapes
/// the benchmark's workloads leave behind: `bulk_load`'s, whose 200
/// logged 1 000-row inserts never reach a checkpoint, and `write_mix`'s,
/// a 100 000-row image with up to 255 one-row writes logged after it
/// (`checkpoint_every` 256).
fn bench_engine_recover(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    // Hundreds of milliseconds an iteration.
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(6);
    let wal_only = provider_dir("wal-only", |e| fill(e, &mut rng, 200_000, 1_000));
    let image = provider_dir("image", |e| {
        fill(e, &mut rng, 100_000, 10_000);
        e.checkpoint().unwrap();
        for op in 0..255u64 {
            let request = match random_rows(&mut rng, 100_000 + op..100_001 + op) {
                // Every other op rewrites an imaged row in place.
                Request::Insert { table, mut rows } if op % 2 == 1 => {
                    rows[0].id = op * 391;
                    Request::Update { table, rows }
                }
                insert => insert,
            };
            assert_eq!(e.execute(&request), Response::Ack);
        }
    });
    for (label, dir) in [
        ("recover_wal_only_200k", &wal_only),
        ("recover_image_100k_plus_255_ops", &image),
    ] {
        g.bench_function(label, |bench| {
            bench.iter(|| ProviderEngine::durable(dir, manual_checkpoints()).unwrap())
        });
    }
    g.finish();
    for dir in [wal_only, image] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `Cluster::call` to an in-process echo provider: the quorum engine,
/// the provider's request queue and the reply channel, at one and at four
/// workers sharing the queue. Each request wakes one worker either way,
/// so the two rows should agree.
fn bench_net(c: &mut Criterion) {
    let mut g = c.benchmark_group("net");
    g.sample_size(20_000);
    for workers in [1, 4] {
        let echo: Arc<dyn SharedService> = Arc::new(|req: &[u8]| req.to_vec());
        let cluster = Cluster::spawn_concurrent(vec![echo], Duration::from_secs(5), workers);
        g.bench_function(format!("pool_roundtrip_w{workers}"), |bench| {
            bench.iter(|| cluster.call(0, vec![7; 64]).unwrap())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_field, bench_sss, bench_crypto, bench_bigint, bench_pmap,
        bench_engine_insert, bench_engine_range, bench_engine_recover, bench_net
}
criterion_main!(benches);
