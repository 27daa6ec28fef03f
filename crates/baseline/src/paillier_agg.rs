//! Aggregate outsourcing under additively homomorphic encryption
//! (Ge & Zdonik, VLDB'07 — the paper's ref \[23\]).
//!
//! The server stores one Paillier ciphertext per (row, aggregate column)
//! plus a deterministic index for predicates. A SUM query multiplies the
//! matching ciphertexts server-side; the client decrypts a single number.
//! Per-row cost: one ~|n²|-bit modular multiplication at query time and
//! one full Paillier encryption at load time — the compute the paper's
//! secret-sharing approach eliminates.

use crate::paillier::{PaillierCiphertext, PaillierKeypair, PaillierPublicKey};
use crate::BaselineCost;
use rand::Rng;

/// The untrusted aggregation server.
pub struct PaillierAggServer {
    rows: Vec<(u64, PaillierCiphertext)>, // (group key, ciphertext)
}

impl PaillierAggServer {
    /// Host the encrypted column.
    pub fn new(rows: Vec<(u64, PaillierCiphertext)>) -> Self {
        PaillierAggServer { rows }
    }

    /// Homomorphically sum ciphertexts whose group key matches; returns
    /// the product ciphertext, the match count, and mod-muls spent.
    pub fn sum_group(&self, pk: &PaillierPublicKey, group: u64) -> (PaillierCiphertext, u64, u64) {
        let mut acc = pk.one_ciphertext();
        let mut count = 0;
        let mut muls = 0;
        for (g, c) in &self.rows {
            if *g == group {
                acc = pk.add(&acc, c);
                count += 1;
                muls += 1;
            }
        }
        (acc, count, muls)
    }
}

/// The trusted client.
pub struct PaillierAggClient {
    keypair: PaillierKeypair,
}

impl PaillierAggClient {
    /// Generate keys (`bits`-bit modulus).
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        PaillierAggClient {
            keypair: PaillierKeypair::generate(bits, rng),
        }
    }

    /// Encrypt `(group, value)` rows for outsourcing.
    pub fn encrypt_rows<R: Rng + ?Sized>(
        &self,
        rows: &[(u64, u64)],
        rng: &mut R,
        cost: &mut BaselineCost,
    ) -> Vec<(u64, PaillierCiphertext)> {
        rows.iter()
            .map(|&(g, v)| {
                // One Paillier encryption ≈ one modexp (r^n) plus a mul.
                cost.mod_exps += 1;
                cost.mod_muls += 1;
                cost.upload_bytes += self.keypair.public().ciphertext_bytes() as u64 + 8;
                (g, self.keypair.public().encrypt_u64(v, rng))
            })
            .collect()
    }

    /// `SELECT SUM(value) WHERE group = g` through the server.
    pub fn sum(
        &self,
        server: &PaillierAggServer,
        group: u64,
        cost: &mut BaselineCost,
    ) -> (u64, u64) {
        cost.upload_bytes += 8;
        let (ct, count, muls) = server.sum_group(self.keypair.public(), group);
        cost.mod_muls += muls;
        cost.download_bytes += self.keypair.public().ciphertext_bytes() as u64;
        // Decryption: one modexp.
        cost.mod_exps += 1;
        (self.keypair.decrypt_u64(&ct), count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn grouped_sums_match_plaintext() {
        let mut rng = StdRng::seed_from_u64(41);
        let client = PaillierAggClient::generate(128, &mut rng);
        let mut cost = BaselineCost::default();
        let rows = [(1u64, 500u64), (1, 700), (2, 900), (1, 1), (3, 42)];
        let enc = client.encrypt_rows(&rows, &mut rng, &mut cost);
        let server = PaillierAggServer::new(enc);
        let (sum1, count1) = client.sum(&server, 1, &mut cost);
        assert_eq!((sum1, count1), (1201, 3));
        let (sum2, _) = client.sum(&server, 2, &mut cost);
        assert_eq!(sum2, 900);
        let (sum9, count9) = client.sum(&server, 9, &mut cost);
        assert_eq!((sum9, count9), (0, 0));
        assert!(cost.mod_exps >= rows.len() as u64);
    }

    #[test]
    fn cost_counts_per_row_muls() {
        let mut rng = StdRng::seed_from_u64(42);
        let client = PaillierAggClient::generate(96, &mut rng);
        let mut cost = BaselineCost::default();
        let rows: Vec<(u64, u64)> = (0..20).map(|i| (1, i)).collect();
        let server = PaillierAggServer::new(client.encrypt_rows(&rows, &mut rng, &mut cost));
        let before = cost.mod_muls;
        client.sum(&server, 1, &mut cost);
        assert!(cost.mod_muls - before >= 20);
    }
}
