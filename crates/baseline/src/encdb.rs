//! The single-server encrypted DBSP (Hacigümüş et al. model, paper refs
//! \[1\], \[2\], with OPE per ref \[3\]).
//!
//! Each row is stored as: per-column filtering metadata (deterministic
//! AES ciphertext, a bucket label, and optionally an OPE ciphertext) plus
//! an AES-CTR-encrypted tuple payload. The server filters on metadata
//! only; the client decrypts and post-filters the superset. Bucket count
//! is the privacy dial: fewer buckets leak less, return more.

use crate::{Aes128, BaselineCost, CtrMode, OpeCipher};

/// How the server evaluates range predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeStrategy {
    /// Coarse bucket labels (superset retrieval + client filtering).
    Bucketized,
    /// Order-preserving encryption (exact server filtering, order leak).
    Ope,
}

/// A stored encrypted row.
#[derive(Debug, Clone)]
pub struct EncRow {
    /// Row id (plaintext — ids are not sensitive here).
    pub id: u64,
    /// Deterministic index per column.
    pub det: Vec<u128>,
    /// Bucket label per column.
    pub bucket: Vec<u32>,
    /// OPE ciphertext per column.
    pub ope: Vec<u128>,
    /// CTR-encrypted tuple payload.
    pub payload: Vec<u8>,
}

/// The untrusted server: filters on metadata, never decrypts.
#[derive(Default)]
pub struct EncServer {
    rows: Vec<EncRow>,
}

impl EncServer {
    /// An empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store rows.
    pub fn insert(&mut self, rows: Vec<EncRow>) {
        self.rows.extend(rows);
    }

    /// Number of stored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Exact match on the deterministic index.
    pub fn exact(&self, col: usize, det: u128) -> Vec<&EncRow> {
        self.rows.iter().filter(|r| r.det[col] == det).collect()
    }

    /// All rows whose bucket label for `col` is in `buckets`.
    pub fn by_buckets(&self, col: usize, buckets: &[u32]) -> Vec<&EncRow> {
        self.rows
            .iter()
            .filter(|r| buckets.contains(&r.bucket[col]))
            .collect()
    }

    /// OPE range scan.
    pub fn by_ope_range(&self, col: usize, lo: u128, hi: u128) -> Vec<&EncRow> {
        self.rows
            .iter()
            .filter(|r| r.ope[col] >= lo && r.ope[col] <= hi)
            .collect()
    }
}

/// The trusted client: owns the keys, encrypts rows, rewrites queries,
/// decrypts and post-filters results.
pub struct EncClient {
    det: Aes128,
    payload_key: [u8; 16],
    ope: Vec<OpeCipher>,
    n_buckets: u64,
    domains: Vec<u64>,
    next_id: u64,
}

impl EncClient {
    /// A client for rows of `domains.len()` numeric columns, with
    /// `n_buckets` bucket labels per column.
    pub fn new(master: &[u8; 16], domains: Vec<u64>, n_buckets: u64) -> Self {
        assert!(n_buckets > 0, "need at least one bucket");
        let ope = domains
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let mut key = *master;
                key[0] ^= i as u8 + 1;
                OpeCipher::new(&key, d)
            })
            .collect();
        EncClient {
            det: Aes128::new(master),
            payload_key: {
                let mut k = *master;
                k[15] ^= 0xaa;
                k
            },
            ope,
            n_buckets,
            domains,
            next_id: 1,
        }
    }

    fn bucket_of(&self, col: usize, value: u64) -> u32 {
        let width = (self.domains[col] / self.n_buckets).max(1);
        (value / width) as u32
    }

    /// Deterministic index value for (col, value) — domain-separated so
    /// equal values in different columns don't collide.
    fn det_index(&self, col: usize, value: u64) -> u128 {
        self.det.encrypt_u128(((col as u128) << 64) | value as u128)
    }

    /// Encrypt one row of values; increments crypto counters.
    pub fn encrypt_row(&mut self, values: &[u64], cost: &mut BaselineCost) -> EncRow {
        assert_eq!(values.len(), self.domains.len(), "row arity");
        let id = self.next_id;
        self.next_id += 1;
        let det = values
            .iter()
            .enumerate()
            .map(|(c, &v)| {
                cost.aes_blocks += 1;
                self.det_index(c, v)
            })
            .collect();
        let bucket = values
            .iter()
            .enumerate()
            .map(|(c, &v)| self.bucket_of(c, v))
            .collect();
        let ope = values
            .iter()
            .enumerate()
            .map(|(c, &v)| {
                // OPE costs ~log(domain) PRF calls; count one AES-equivalent
                // block per level for comparability.
                cost.aes_blocks += 64 - (self.domains[c].leading_zeros() as u64).min(63);
                self.ope[c].encrypt(v)
            })
            .collect();
        let mut payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        CtrMode::new(&self.payload_key, id).apply(&mut payload);
        cost.aes_blocks += payload.len().div_ceil(16) as u64;
        EncRow {
            id,
            det,
            bucket,
            ope,
            payload,
        }
    }

    fn decrypt_payload(&self, row: &EncRow, cost: &mut BaselineCost) -> Vec<u64> {
        let mut payload = row.payload.clone();
        CtrMode::new(&self.payload_key, row.id).apply(&mut payload);
        cost.aes_blocks += payload.len().div_ceil(16) as u64;
        cost.download_bytes += (row.payload.len() + 16 * row.det.len()) as u64;
        payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect()
    }

    /// Exact-match query; returns decrypted matching rows.
    pub fn exact(
        &self,
        server: &EncServer,
        col: usize,
        value: u64,
        cost: &mut BaselineCost,
    ) -> Vec<(u64, Vec<u64>)> {
        cost.aes_blocks += 1;
        cost.upload_bytes += 16;
        let hits = server.exact(col, self.det_index(col, value));
        hits.into_iter()
            .map(|r| (r.id, self.decrypt_payload(r, cost)))
            .collect()
    }

    /// Range query; returns decrypted exact matches plus the superset
    /// factor (rows transferred / rows matching — 1.0 is optimal).
    pub fn range(
        &self,
        server: &EncServer,
        col: usize,
        lo: u64,
        hi: u64,
        strategy: RangeStrategy,
        cost: &mut BaselineCost,
    ) -> (Vec<(u64, Vec<u64>)>, f64) {
        let candidates = match strategy {
            RangeStrategy::Bucketized => {
                let b_lo = self.bucket_of(col, lo);
                let b_hi = self.bucket_of(col, hi);
                let buckets: Vec<u32> = (b_lo..=b_hi).collect();
                cost.upload_bytes += 4 * buckets.len() as u64;
                server.by_buckets(col, &buckets)
            }
            RangeStrategy::Ope => {
                cost.upload_bytes += 32;
                cost.aes_blocks += 2 * 64;
                server.by_ope_range(col, self.ope[col].encrypt(lo), self.ope[col].encrypt(hi))
            }
        };
        let fetched = candidates.len();
        let decrypted: Vec<(u64, Vec<u64>)> = candidates
            .into_iter()
            .map(|r| (r.id, self.decrypt_payload(r, cost)))
            .collect();
        let matching: Vec<(u64, Vec<u64>)> = decrypted
            .into_iter()
            .filter(|(_, vals)| vals[col] >= lo && vals[col] <= hi)
            .collect();
        let superset = if matching.is_empty() {
            fetched as f64
        } else {
            fetched as f64 / matching.len() as f64
        };
        (matching, superset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n_buckets: u64) -> (EncClient, EncServer, BaselineCost) {
        let mut client = EncClient::new(b"0123456789abcdef", vec![1 << 20, 1 << 20], n_buckets);
        let mut server = EncServer::new();
        let mut cost = BaselineCost::default();
        let rows: Vec<EncRow> = [
            (100u64, 10_000u64),
            (200, 20_000),
            (100, 40_000),
            (300, 60_000),
            (400, 80_000),
        ]
        .iter()
        .map(|&(a, b)| client.encrypt_row(&[a, b], &mut cost))
        .collect();
        server.insert(rows);
        (client, server, cost)
    }

    #[test]
    fn exact_match_roundtrip() {
        let (client, server, mut cost) = setup(16);
        let hits = client.exact(&server, 0, 100, &mut cost);
        assert_eq!(hits.len(), 2);
        for (_, vals) in &hits {
            assert_eq!(vals[0], 100);
        }
        assert!(cost.aes_blocks > 0);
    }

    #[test]
    fn exact_match_misses_cleanly() {
        let (client, server, mut cost) = setup(16);
        assert!(client.exact(&server, 0, 999, &mut cost).is_empty());
    }

    #[test]
    fn bucketized_range_returns_superset_then_filters() {
        let (client, server, mut cost) = setup(8);
        let (hits, superset) = client.range(
            &server,
            1,
            10_000,
            40_000,
            RangeStrategy::Bucketized,
            &mut cost,
        );
        let mut salaries: Vec<u64> = hits.iter().map(|(_, v)| v[1]).collect();
        salaries.sort_unstable();
        assert_eq!(salaries, vec![10_000, 20_000, 40_000]);
        assert!(superset >= 1.0);
    }

    #[test]
    fn fewer_buckets_bigger_superset() {
        // The paper's privacy/performance trade-off: coarser buckets leak
        // less but transfer more.
        let (client_few, server_few, _) = setup(2);
        let (client_many, server_many, _) = setup(256);
        let mut c1 = BaselineCost::default();
        let mut c2 = BaselineCost::default();
        let (_, s_few) = client_few.range(
            &server_few,
            1,
            10_000,
            12_000,
            RangeStrategy::Bucketized,
            &mut c1,
        );
        let (_, s_many) = client_many.range(
            &server_many,
            1,
            10_000,
            12_000,
            RangeStrategy::Bucketized,
            &mut c2,
        );
        assert!(
            s_few >= s_many,
            "2 buckets (superset {s_few}) must fetch at least as much as 256 ({s_many})"
        );
    }

    #[test]
    fn ope_range_is_exact() {
        let (client, server, mut cost) = setup(4);
        let (hits, superset) =
            client.range(&server, 1, 10_000, 40_000, RangeStrategy::Ope, &mut cost);
        assert_eq!(hits.len(), 3);
        assert_eq!(superset, 1.0, "OPE filters exactly");
    }

    #[test]
    fn same_value_same_det_index_different_columns_differ() {
        let mut client = EncClient::new(b"0123456789abcdef", vec![1000, 1000], 4);
        let mut cost = BaselineCost::default();
        let row = client.encrypt_row(&[5, 5], &mut cost);
        assert_ne!(row.det[0], row.det[1], "column separation");
        let row2 = client.encrypt_row(&[5, 9], &mut cost);
        assert_eq!(row.det[0], row2.det[0], "determinism within a column");
    }

    #[test]
    fn payloads_are_actually_encrypted() {
        let mut client = EncClient::new(b"0123456789abcdef", vec![1000], 4);
        let mut cost = BaselineCost::default();
        let secret = 777u64;
        let row = client.encrypt_row(&[secret], &mut cost);
        assert!(
            !row.payload.windows(8).any(|w| w == secret.to_le_bytes()),
            "plaintext leaked into payload"
        );
    }
}
