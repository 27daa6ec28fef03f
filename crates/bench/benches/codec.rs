//! Scalar-vs-batch share codec microbenches: the same work driven through
//! the per-value APIs and through the batch APIs, so the amortization
//! (PRF derivation, Lagrange basis, probe memoization + search
//! narrowing, interpolate-and-confirm) is visible as a direct ratio.

use criterion::{criterion_group, criterion_main, Criterion};
use dasp_field::Fp;
use dasp_sss::{DomainKey, FieldSharing, OpSharing, OpssParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

const BATCH: usize = 1024;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
}

fn bench_field_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec_field");
    let mut rng = StdRng::seed_from_u64(11);
    let sharing = FieldSharing::generate(2, 4, &mut rng).unwrap();
    let key = DomainKey::derive(b"master", "salary");
    let secrets: Vec<u64> = (0..BATCH as u64).map(|i| i * 37 + 5).collect();
    g.bench_function("split_det_scalar_1024", |b| {
        b.iter(|| {
            for &s in &secrets {
                black_box(sharing.split_deterministic(s, &key));
            }
        })
    });
    g.bench_function("split_det_batch_1024", |b| {
        b.iter(|| black_box(sharing.split_deterministic_batch(&secrets, &key)))
    });

    let rows: Vec<Vec<Fp>> = secrets
        .iter()
        .map(|&s| {
            sharing
                .split_deterministic(s, &key)
                .into_iter()
                .take(3) // k + 1 extra: the cross-checked read shape
                .map(|sh| sh.y)
                .collect()
        })
        .collect();
    let providers = [0usize, 1, 2];
    let as_shares: Vec<Vec<dasp_sss::FieldShare>> = rows
        .iter()
        .map(|ys| {
            providers
                .iter()
                .zip(ys)
                .map(|(&p, &y)| dasp_sss::FieldShare { provider: p, y })
                .collect()
        })
        .collect();
    g.bench_function("reconstruct_scalar_1024", |b| {
        b.iter(|| {
            for shares in &as_shares {
                black_box(sharing.reconstruct_checked(shares).unwrap());
            }
        })
    });
    g.bench_function("reconstruct_batch_1024", |b| {
        b.iter(|| black_box(sharing.reconstruct_batch(&providers, &rows).unwrap()))
    });
    g.finish();
}

fn bench_opss_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec_opss");
    let params = OpssParams::new(1, 12, 1 << 20, vec![2, 4, 1]).unwrap();
    let op = OpSharing::new(params, DomainKey::derive(b"master", "salary"));
    let vs: Vec<u64> = (0..BATCH as u64).map(|i| (i * 613) % (1 << 20)).collect();
    g.bench_function("share_scalar_1024", |b| {
        b.iter(|| {
            for &v in &vs {
                black_box(op.share(v).unwrap());
            }
        })
    });
    g.bench_function("share_batch_1024", |b| {
        b.iter(|| black_box(op.share_batch(&vs).unwrap()))
    });

    let shares: Vec<i128> = vs.iter().map(|&v| op.share_for(v, 0).unwrap()).collect();
    g.bench_function("decode_search_scalar_1024", |b| {
        b.iter(|| {
            for &s in &shares {
                black_box(op.reconstruct_search(0, s).unwrap());
            }
        })
    });
    g.bench_function("decode_search_batch_1024", |b| {
        b.iter(|| black_box(op.reconstruct_search_batch(0, &shares).unwrap()))
    });
    // The read path's decode: interpolate from k = 2 answers, confirm
    // against the first, search only the rows that fail.
    let providers = [0usize, 1];
    let basis = op.basis_for(&providers).unwrap();
    let cols: Vec<Vec<i128>> = providers
        .iter()
        .map(|&p| vs.iter().map(|&v| op.share_for(v, p).unwrap()).collect())
        .collect();
    g.bench_function("decode_batch_k_1024", |b| {
        b.iter(|| black_box(op.reconstruct_batch(&basis, &cols).unwrap()))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_field_codec, bench_opss_codec
}
criterion_main!(benches);
