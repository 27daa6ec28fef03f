//! From-scratch hashing and checksum substrate for `dasp`.
//!
//! The offline crate set has no crypto, so everything here is implemented
//! from the primary specifications, with no dependency at all:
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 and RFC 2104 HMAC.
//! * [`siphash`] — SipHash-2-4 keyed PRF (used for order-preserving slot
//!   selection in `dasp-sss` and for cheap fingerprints).
//! * [`merkle`] — Merkle hash trees for the trust mechanisms in
//!   `dasp-verify`.
//! * [`mod@crc32`] — the CRC-32 that frames WAL records, checkpoint files
//!   and RPC frames.
//!
//! The encryption comparators the paper argues against (deterministic
//! AES, OPE, Paillier, commutative encryption) live in `dasp-baseline`.
//!
//! **These are benchmarking-grade reference implementations.** They are
//! functionally correct (test vectors included) but make no constant-time
//! or side-channel claims; do not deploy them against real adversaries.

pub mod crc32;
pub mod merkle;
pub mod sha256;
pub mod siphash;

pub use crc32::crc32;
pub use merkle::{MerkleProof, MerkleTree};
pub use sha256::{hmac_sha256, sha256, Sha256};
pub use siphash::SipHash24;
