//! Encryption-model baselines (paper §II-A).
//!
//! The paper's whole argument is comparative: secret sharing is proposed
//! *because* the encryption-based state of the art (Hacigümüş et al.'s
//! NetDB2 model, order-preserving encryption, homomorphic aggregate
//! encryption, commutative-encryption set intersection) pays heavy
//! compute or leaks through its filtering metadata. This crate implements
//! those comparators faithfully enough to measure:
//!
//! * [`encdb`] — a single-server encrypted DBSP: deterministic AES for
//!   exact-match indexes, bucketization **or** OPE for ranges, AES-CTR
//!   payloads. Reports superset factors (the bucket privacy/performance
//!   trade-off the paper highlights) and crypto-operation counts.
//! * [`paillier_agg`] — aggregation outsourcing à la Ge & Zdonik (paper
//!   ref \[23\]): the server multiplies Paillier ciphertexts; the client
//!   decrypts one number.
//! * [`intersection`] — the Agrawal–Evfimievski–Srikant SIGMOD'03
//!   protocol whose measured costs ("~2 hours / ~3 Gbit") the paper
//!   quotes as the case against encryption (experiment E2).
//!
//! The ciphers these comparators run on live here too, since nothing on
//! the secret-shared path uses them:
//!
//! * [`aes`] — FIPS 197 AES-128 with ECB (deterministic encryption
//!   baseline) and CTR modes.
//! * [`ope`] — deterministic order-preserving encryption via recursive
//!   keyed interval splitting (a practical stand-in for Boldyreva et al.,
//!   the scheme the paper's reference \[3\] inspired).
//! * [`paillier`] — additively homomorphic encryption (the Ge–Zdonik
//!   secure-aggregation baseline, paper reference \[23\]).
//! * [`commutative`] — Pohlig–Hellman exponentiation cipher (the
//!   Agrawal–Evfimievski–Srikant intersection protocol, reference \[26\]).
//!
//! **These are benchmarking-grade reference implementations.** They are
//! functionally correct (test vectors included) but make no constant-time
//! or side-channel claims; do not deploy them against real adversaries.

pub mod aes;
pub mod commutative;
pub mod encdb;
pub mod intersection;
pub mod ope;
pub mod paillier;
pub mod paillier_agg;

pub use aes::{Aes128, CtrMode};
pub use commutative::CommutativeCipher;
pub use encdb::{EncClient, EncServer, RangeStrategy};
pub use intersection::{commutative_intersection, IntersectionCost};
pub use ope::OpeCipher;
pub use paillier::{PaillierCiphertext, PaillierKeypair, PaillierPublicKey};
pub use paillier_agg::{PaillierAggClient, PaillierAggServer};

/// Crypto-operation and traffic counters for a baseline run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BaselineCost {
    /// AES block operations (encrypt or decrypt).
    pub aes_blocks: u64,
    /// Big-number modular multiplications (Paillier, commutative enc).
    pub mod_muls: u64,
    /// Big-number modular exponentiations.
    pub mod_exps: u64,
    /// Bytes moved client → server.
    pub upload_bytes: u64,
    /// Bytes moved server → client.
    pub download_bytes: u64,
}

impl BaselineCost {
    /// Total bytes both directions.
    pub fn total_bytes(&self) -> u64 {
        self.upload_bytes + self.download_bytes
    }

    /// Accumulate another cost.
    pub fn add(&mut self, other: &BaselineCost) {
        self.aes_blocks += other.aes_blocks;
        self.mod_muls += other.mod_muls;
        self.mod_exps += other.mod_exps;
        self.upload_bytes += other.upload_bytes;
        self.download_bytes += other.download_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_accumulates() {
        let mut a = BaselineCost {
            aes_blocks: 1,
            mod_muls: 2,
            mod_exps: 3,
            upload_bytes: 4,
            download_bytes: 5,
        };
        a.add(&a.clone());
        assert_eq!(a.aes_blocks, 2);
        assert_eq!(a.total_bytes(), 18);
    }
}
