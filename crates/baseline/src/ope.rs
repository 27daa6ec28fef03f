//! Deterministic order-preserving encryption (OPE).
//!
//! The encryption-model baseline for range queries (paper reference \[3\],
//! Agrawal et al. SIGMOD'04). This implementation uses recursive keyed
//! interval splitting: the domain is halved at fixed midpoints while the
//! ciphertext range is split at a keyed-PRF-chosen point that always
//! leaves each side enough room. The result is a strictly increasing,
//! deterministic mapping from `u64` plaintexts into a `u128` range.
//!
//! Like all OPE, ciphertexts leak order (and approximate magnitude) — the
//! very weakness the paper's §IV discussion echoes ("order preservation
//! may weaken data security"). That leakage is part of experiment E5.

use dasp_crypto::siphash::SipHash24;

/// Extra low-order bits of ciphertext space per plaintext, which is what
/// hides exact plaintext distances.
const EXPANSION_BITS: u32 = 32;

/// A keyed order-preserving cipher over the domain `[0, domain_size)`.
#[derive(Clone, Debug)]
pub struct OpeCipher {
    prf: SipHash24,
    domain_size: u64,
    range_size: u128,
}

impl OpeCipher {
    /// Create a cipher for plaintexts in `[0, domain_size)`.
    ///
    /// # Panics
    ///
    /// Panics if `domain_size` is zero.
    pub fn new(key: &[u8; 16], domain_size: u64) -> Self {
        assert!(domain_size > 0, "OPE domain must be non-empty");
        OpeCipher {
            prf: SipHash24::new(key),
            domain_size,
            range_size: (domain_size as u128) << EXPANSION_BITS,
        }
    }

    /// The exclusive upper bound of the ciphertext range.
    pub fn range_size(&self) -> u128 {
        self.range_size
    }

    /// Encrypt `v`. Strictly monotone: `a < b ⇒ encrypt(a) < encrypt(b)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the domain.
    pub fn encrypt(&self, v: u64) -> u128 {
        assert!(v < self.domain_size, "plaintext {v} outside OPE domain");
        let (mut dlo, mut dn) = (0u64, self.domain_size);
        let (mut rlo, mut rn) = (0u128, self.range_size);
        while dn > 1 {
            let left_n = dn / 2;
            let right_n = dn - left_n;
            // Range split leaving ≥ left_n on the left, ≥ right_n on the right.
            let min_left = left_n as u128;
            let max_left = rn - right_n as u128;
            let span = max_left - min_left + 1;
            let tag = self
                .prf
                .hash_u128(((dlo as u128) << 64) | (dn as u128) ^ (rlo << 1));
            let split = min_left + (tag as u128) % span;
            if v < dlo + left_n {
                dn = left_n;
                rn = split;
            } else {
                dlo += left_n;
                dn = right_n;
                rlo += split;
                rn -= split;
            }
        }
        // Single plaintext left: pick a deterministic point in its interval.
        let tag = self.prf.hash_u128(0xa5a5_0000_0000_0000_0000 ^ dlo as u128);
        rlo + (tag as u128) % rn
    }

    /// Decrypt by binary search over the (monotone, deterministic) map.
    ///
    /// Returns `None` if `c` is not a valid ciphertext of any plaintext.
    pub fn decrypt(&self, c: u128) -> Option<u64> {
        let (mut lo, mut hi) = (0u64, self.domain_size - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.encrypt(mid) < c {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if self.encrypt(lo) == c {
            Some(lo)
        } else {
            None
        }
    }

    /// Smallest ciphertext ≥ every ciphertext of plaintexts < `v`; used to
    /// translate plaintext range bounds into ciphertext range bounds.
    pub fn encrypt_lower_bound(&self, v: u64) -> u128 {
        if v == 0 {
            0
        } else if v >= self.domain_size {
            self.range_size
        } else {
            self.encrypt(v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cipher() -> OpeCipher {
        OpeCipher::new(b"0123456789abcdef", 100_000)
    }

    #[test]
    fn strictly_monotone_dense_prefix() {
        let c = cipher();
        let mut prev = None;
        for v in 0..2000u64 {
            let e = c.encrypt(v);
            if let Some(p) = prev {
                assert!(e > p, "v={v}");
            }
            prev = Some(e);
        }
    }

    #[test]
    fn deterministic() {
        let c = cipher();
        assert_eq!(c.encrypt(12345), c.encrypt(12345));
    }

    #[test]
    fn different_keys_differ() {
        let a = OpeCipher::new(b"0123456789abcdef", 1000);
        let b = OpeCipher::new(b"fedcba9876543210", 1000);
        let diffs = (0..100).filter(|&v| a.encrypt(v) != b.encrypt(v)).count();
        assert!(diffs > 90, "keys should give different mappings");
    }

    #[test]
    fn decrypt_roundtrip() {
        let c = cipher();
        for v in [0u64, 1, 17, 999, 54321, 99_999] {
            assert_eq!(c.decrypt(c.encrypt(v)), Some(v));
        }
    }

    #[test]
    fn decrypt_rejects_non_ciphertexts() {
        let c = OpeCipher::new(b"0123456789abcdef", 10);
        let e5 = c.encrypt(5);
        let e6 = c.encrypt(6);
        // Gap between consecutive ciphertexts is huge; a midpoint is invalid.
        let mid = (e5 + e6) / 2;
        if mid != e5 && mid != e6 {
            assert_eq!(c.decrypt(mid), None);
        }
    }

    #[test]
    fn domain_boundaries() {
        let c = OpeCipher::new(b"0123456789abcdef", 2);
        let e0 = c.encrypt(0);
        let e1 = c.encrypt(1);
        assert!(e0 < e1);
        assert!(e1 < c.range_size());
        assert_eq!(c.encrypt_lower_bound(0), 0);
        assert_eq!(c.encrypt_lower_bound(2), c.range_size());
    }

    #[test]
    #[should_panic(expected = "outside OPE domain")]
    fn out_of_domain_panics() {
        cipher().encrypt(100_000);
    }

    proptest! {
        #[test]
        fn prop_order_preserved(a in 0u64..100_000, b in 0u64..100_000) {
            let c = cipher();
            prop_assert_eq!(a.cmp(&b), c.encrypt(a).cmp(&c.encrypt(b)));
        }

        #[test]
        fn prop_roundtrip(v in 0u64..100_000) {
            let c = cipher();
            prop_assert_eq!(c.decrypt(c.encrypt(v)), Some(v));
        }
    }
}
