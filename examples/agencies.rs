//! The paper's §V-D national-security scenario: correlating the FBI's
//! watch list with TSA traveler records — without either list leaving its
//! owner in the clear — plus the E2 cost comparison against the
//! commutative-encryption intersection the paper quotes.
//!
//! ```text
//! cargo run --release -p dasp-apps --bin agencies
//! ```

use dasp_baseline::intersection::{commutative_intersection, predicted_cost};
use dasp_client::{ColumnSpec, DataSource, TableSchema, Value};
use dasp_core::client::ClientKeys;
use dasp_crypto::commutative::shared_test_prime;
use dasp_net::{Cluster, NetworkModel};
use dasp_server::service::provider_fleet;
use dasp_sss::ShareMode;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn main() {
    let mut rng = StdRng::seed_from_u64(31337);
    let keys = ClientKeys::generate(2, 3, &mut rng).expect("keys");
    let cluster = Cluster::spawn_concurrent(provider_fleet(3), Duration::from_secs(10), 1);
    let mut ds = DataSource::with_seed(keys, cluster, 11).expect("data source");

    // Shared id domain so the join works provider-side (§V-A).
    let person = |name: &str| {
        ColumnSpec::numeric(name, 1 << 30, ShareMode::Deterministic).in_domain("person_id")
    };
    ds.create_table(
        TableSchema::new(
            "watchlist",
            vec![
                person("pid"),
                ColumnSpec::numeric("threat", 10, ShareMode::Random),
            ],
        )
        .expect("schema"),
    )
    .expect("create");
    ds.create_table(
        TableSchema::new(
            "travelers",
            vec![
                person("pid"),
                ColumnSpec::numeric("flight", 100_000, ShareMode::Deterministic),
            ],
        )
        .expect("schema"),
    )
    .expect("create");

    println!("== Outsourced watchlist ⋈ travelers (share-equality join) ==");
    let watch: Vec<Vec<Value>> = (0..200u64)
        .map(|i| vec![Value::Int(1000 + i * 7), Value::Int(i % 10)])
        .collect();
    let travelers: Vec<Vec<Value>> = (0..2000u64)
        .map(|i| vec![Value::Int(1000 + i), Value::Int(40_000 + i % 300)])
        .collect();
    ds.insert("watchlist", &watch).expect("insert");
    ds.insert("travelers", &travelers).expect("insert");

    let before = ds.cluster().stats().snapshot();
    let start = Instant::now();
    let hits = ds
        .join("watchlist", "pid", "travelers", "pid")
        .expect("join");
    let elapsed = start.elapsed();
    let delta = ds.cluster().stats().snapshot().since(&before);
    // Ids 1000..2999 overlap the watchlist ids 1000,1007,…,2393.
    let expected = (0..200u64).filter(|i| 1000 + i * 7 < 3000).count();
    assert_eq!(hits.len(), expected);
    println!(
        "  {} matches in {elapsed:.2?}; {} bytes moved; providers executed the \
         join on shares and never saw a person id",
        hits.len(),
        delta.total_bytes()
    );
    let wan = delta.modeled_time(&NetworkModel::wan());
    println!("  modeled WAN time: {wan:.2?}");

    println!("\n== E2: the encryption-based comparator (Agrawal et al. [26]) ==");
    // Small instance, measured.
    let p = shared_test_prime();
    let a_items: Vec<Vec<u8>> = (0..200u64)
        .map(|i| (1000 + i * 7).to_le_bytes().to_vec())
        .collect();
    let b_items: Vec<Vec<u8>> = (0..2000u64)
        .map(|i| (1000 + i).to_le_bytes().to_vec())
        .collect();
    let start = Instant::now();
    let (enc_hits, cost) = commutative_intersection(&p, &a_items, &b_items, &mut rng);
    let enc_elapsed = start.elapsed();
    assert_eq!(enc_hits.len(), expected);
    println!(
        "  same intersection by commutative encryption: {enc_elapsed:.2?}, \
         {} modexps, {} bytes",
        cost.mod_exps, cost.bytes
    );
    println!(
        "  -> the share join moved {} bytes ({} than the encrypted protocol) \
         and did zero public-key operations",
        delta.total_bytes(),
        if delta.total_bytes() < cost.bytes {
            "less"
        } else {
            "more"
        },
    );

    // The paper's quoted configurations, via the closed-form cost model.
    println!("\n  paper-quoted configurations (predicted, 1024-bit group):");
    // ~30 modexps/sec of 1024-bit on SIGMOD'03-era hardware.
    const MODEXP_PER_SEC: f64 = 30.0;
    for (label, a, b) in [
        ("10 + 100 docs × 1000 words", 10_000u64, 100_000u64),
        ("1M medical records", 1_000_000, 1_000_000),
    ] {
        let c = predicted_cost(a, b, 1024);
        let gbit = c.bytes as f64 * 8.0 / 1e9;
        let hours = c.mod_exps as f64 / MODEXP_PER_SEC / 3600.0;
        println!(
            "    {label:<28} {:>10} modexps (~{hours:.1} h at 2003 rates), {gbit:.1} Gbit",
            c.mod_exps
        );
    }
    println!(
        "  (the paper's narrative: '~2 hours … ~3 Gbit' for the documents and \
         '~4 hours … 8 Gbit' for the records — same order of magnitude; the exact \
         record figures depend on the protocol variant's round structure)"
    );
}
