//! Secret sharing for outsourced databases — the paper's core scheme.
//!
//! A data source D splits every attribute value into `n` shares, one per
//! database service provider (DAS), such that any `k ≤ n` shares plus the
//! client-held secret evaluation points `X = {x₁…xₙ}` reconstruct the
//! value (§III). Three share modes trade privacy against server-side
//! query capability — exactly the privacy/performance trade-off the paper
//! discusses:
//!
//! | mode | construction | provider learns | server-side ops |
//! |------|--------------|-----------------|-----------------|
//! | [`ShareMode::Random`] | fresh random polynomial per value, over GF(2⁶¹−1) | nothing (info-theoretic for < k colluders) | none — full retrieval |
//! | [`ShareMode::Deterministic`] | PRF-derived polynomial per value, over GF(2⁶¹−1) | equality pattern | exact match, equi-join, grouped aggregation |
//! | [`ShareMode::OrderPreserving`] | §IV slotted-coefficient integer polynomial | equality + order | the above plus range, MIN/MAX/MEDIAN, sort-merge join |
//!
//! All three are *additively homomorphic*: providers can sum the shares of
//! selected rows and the client reconstructs the sum — the basis of the
//! paper's server-side SUM/AVG (§V-A).

pub mod codec;
pub mod field_sharing;
pub mod opss;

pub use codec::{DictionaryCodec, StringCodec, UPPERCASE_ALPHABET};
pub use field_sharing::{CoeffPrfs, EvalPoints, FieldBasis, FieldShare, FieldSharing};
pub use opss::{AffineStrawman, OpBasis, OpSharing, OpssParams};

use dasp_crypto::hmac_sha256;
use dasp_crypto::siphash::SipHash24;
use dasp_field::Secret;

/// How a column's values are shared across providers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShareMode {
    /// Fresh random polynomial per value: information-theoretically hiding,
    /// but the provider cannot filter — every query retrieves the column.
    Random,
    /// Deterministic polynomial per value (PRF-keyed): equal values produce
    /// equal shares, enabling server-side exact match and equi-joins.
    Deterministic,
    /// Order-preserving slotted polynomial (§IV): share order equals value
    /// order at every provider, enabling server-side ranges and order
    /// statistics.
    OrderPreserving,
}

impl ShareMode {
    /// Does this mode let a provider evaluate equality predicates?
    pub fn supports_equality(self) -> bool {
        !matches!(self, ShareMode::Random)
    }

    /// Does this mode let a provider evaluate range predicates?
    pub fn supports_range(self) -> bool {
        matches!(self, ShareMode::OrderPreserving)
    }
}

/// Client-held key material for one *domain* (not one attribute — the
/// paper constructs polynomials per domain so same-domain joins work,
/// §V-A "Join Operations").
///
/// Derives the per-coefficient SipHash PRFs used by deterministic and
/// order-preserving construction.
#[derive(Clone)]
pub struct DomainKey {
    key: Secret<[u8; 32]>,
}

impl DomainKey {
    /// Wrap a 32-byte master key for a domain.
    pub fn new(key: [u8; 32]) -> Self {
        DomainKey {
            key: Secret::new(key),
        }
    }

    /// Derive from a master secret and a domain name.
    pub fn derive(master: &[u8], domain: &str) -> Self {
        DomainKey {
            key: Secret::new(hmac_sha256(master, domain.as_bytes())),
        }
    }

    /// The PRF for coefficient index `j` (j = 1 is the linear term).
    pub fn coeff_prf(&self, j: usize) -> SipHash24 {
        let d = hmac_sha256(self.key.expose(), &(j as u64).to_le_bytes());
        let mut k = [0u8; 16];
        k.iter_mut().zip(d).for_each(|(k, d)| *k = d);
        SipHash24::new(&k)
    }
}

// dasp::allow(S1): sanctioned redacting impl — never prints key material.
impl std::fmt::Debug for DomainKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DomainKey(..)")
    }
}

/// Errors from share construction and reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SssError {
    /// Fewer than `k` shares supplied.
    NotEnoughShares { needed: usize, got: usize },
    /// A provider index was out of range or repeated.
    BadProviderIndex(usize),
    /// Shares were mutually inconsistent (corruption or mixed secrets).
    InconsistentShares,
    /// A value fell outside the configured domain.
    OutOfDomain { value: u64, domain_size: u64 },
    /// Parameters were invalid (e.g. k > n, duplicate points).
    BadParameters(String),
    /// Underlying exact arithmetic overflowed.
    Arithmetic(String),
}

impl std::fmt::Display for SssError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SssError::NotEnoughShares { needed, got } => {
                write!(f, "need {needed} shares, got {got}")
            }
            SssError::BadProviderIndex(i) => write!(f, "bad provider index {i}"),
            SssError::InconsistentShares => write!(f, "shares are inconsistent"),
            SssError::OutOfDomain { value, domain_size } => {
                write!(f, "value {value} outside domain of size {domain_size}")
            }
            SssError::BadParameters(msg) => write!(f, "bad parameters: {msg}"),
            SssError::Arithmetic(msg) => write!(f, "arithmetic failure: {msg}"),
        }
    }
}

impl std::error::Error for SssError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_capabilities() {
        assert!(!ShareMode::Random.supports_equality());
        assert!(ShareMode::Deterministic.supports_equality());
        assert!(!ShareMode::Deterministic.supports_range());
        assert!(ShareMode::OrderPreserving.supports_equality());
        assert!(ShareMode::OrderPreserving.supports_range());
    }

    #[test]
    fn domain_keys_separate_domains() {
        let a = DomainKey::derive(b"master", "salary");
        let b = DomainKey::derive(b"master", "age");
        assert_ne!(a.coeff_prf(1).hash_u64(5), b.coeff_prf(1).hash_u64(5));
    }

    #[test]
    fn coeff_prfs_separate_indices() {
        let k = DomainKey::derive(b"master", "salary");
        assert_ne!(k.coeff_prf(1).hash_u64(5), k.coeff_prf(2).hash_u64(5));
    }

    #[test]
    fn same_domain_same_prf() {
        let a = DomainKey::derive(b"master", "salary");
        let b = DomainKey::derive(b"master", "salary");
        assert_eq!(a.coeff_prf(3).hash_u64(9), b.coeff_prf(3).hash_u64(9));
    }

    #[test]
    fn debug_does_not_leak_key() {
        let k = DomainKey::new([7u8; 32]);
        assert_eq!(format!("{k:?}"), "DomainKey(..)");
    }
}
