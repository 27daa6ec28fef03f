//! Protocol benchmarks: the paper's comparators — PIR variants (E3), the
//! commutative-encryption intersection (E2), Paillier aggregation (E6
//! baseline), and encrypted-DBSP query paths (E4/E5 baselines).

use criterion::{criterion_group, criterion_main, Criterion};
use dasp_baseline::commutative::shared_test_prime;
use dasp_baseline::encdb::{EncClient, EncServer, RangeStrategy};
use dasp_baseline::intersection::commutative_intersection;
use dasp_baseline::paillier_agg::{PaillierAggClient, PaillierAggServer};
use dasp_baseline::BaselineCost;
use dasp_pir::{BitDatabase, QrClient, QrServer, TrivialPir, TwoServerClient, TwoServerServer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
}

fn bench_pir(c: &mut Criterion) {
    let mut g = c.benchmark_group("pir");
    let n = 1 << 14;
    let db = BitDatabase::random(n, 3);

    let trivial = TrivialPir::new(db.clone());
    g.bench_function("trivial_16kbit", |bench| {
        bench.iter(|| trivial.retrieve(1234))
    });

    let s1 = TwoServerServer::new(db.clone());
    let s2 = TwoServerServer::new(db.clone());
    let client = TwoServerClient::new(n);
    let mut rng = StdRng::seed_from_u64(4);
    g.bench_function("two_server_it_16kbit", |bench| {
        bench.iter(|| client.retrieve(1234, &s1, &s2, &mut rng))
    });

    let mut rng = StdRng::seed_from_u64(5);
    let qr = QrClient::generate(n, 128, &mut rng);
    let server = QrServer::new(db, qr.modulus().clone());
    g.bench_function("qr_cpir_16kbit", |bench| {
        bench.iter(|| qr.retrieve(1234, &server, &mut rng))
    });
    g.finish();
}

fn bench_intersection(c: &mut Criterion) {
    let mut g = c.benchmark_group("intersection");
    let prime = shared_test_prime();
    let a: Vec<Vec<u8>> = (0..50u64).map(|i| i.to_le_bytes().to_vec()).collect();
    let b: Vec<Vec<u8>> = (25..75u64).map(|i| i.to_le_bytes().to_vec()).collect();
    let mut rng = StdRng::seed_from_u64(6);
    g.bench_function("commutative_50x50", |bench| {
        bench.iter(|| commutative_intersection(&prime, &a, &b, &mut rng))
    });
    g.finish();
}

fn bench_paillier(c: &mut Criterion) {
    let mut g = c.benchmark_group("paillier");
    let mut rng = StdRng::seed_from_u64(7);
    let client = PaillierAggClient::generate(256, &mut rng);
    let mut cost = BaselineCost::default();
    let rows: Vec<(u64, u64)> = (0..100).map(|i| (1, i)).collect();
    let server = PaillierAggServer::new(client.encrypt_rows(&rows, &mut rng, &mut cost));
    g.bench_function("sum_100_rows_n256", |bench| {
        let mut c2 = BaselineCost::default();
        bench.iter(|| client.sum(&server, 1, &mut c2))
    });
    g.bench_function("encrypt_row_n256", |bench| {
        let mut c2 = BaselineCost::default();
        bench.iter(|| client.encrypt_rows(&[(1, 42)], &mut rng, &mut c2))
    });
    g.finish();
}

fn bench_encdb(c: &mut Criterion) {
    let mut g = c.benchmark_group("encdb");
    let mut client = EncClient::new(b"0123456789abcdef", vec![1 << 20], 256);
    let mut server = EncServer::new();
    let mut lc = BaselineCost::default();
    let rows: Vec<_> = (0..5000u64)
        .map(|i| client.encrypt_row(&[i * 199 % (1 << 20)], &mut lc))
        .collect();
    server.insert(rows);
    g.bench_function("exact_5k", |bench| {
        let mut qc = BaselineCost::default();
        bench.iter(|| client.exact(&server, 0, 199, &mut qc))
    });
    g.bench_function("range_bucketized_5k", |bench| {
        let mut qc = BaselineCost::default();
        bench.iter(|| {
            client.range(
                &server,
                0,
                100_000,
                110_000,
                RangeStrategy::Bucketized,
                &mut qc,
            )
        })
    });
    g.bench_function("range_ope_5k", |bench| {
        let mut qc = BaselineCost::default();
        bench.iter(|| client.range(&server, 0, 100_000, 110_000, RangeStrategy::Ope, &mut qc))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_pir, bench_intersection, bench_paillier, bench_encdb
}
criterion_main!(benches);
