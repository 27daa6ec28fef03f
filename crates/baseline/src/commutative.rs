//! Pohlig–Hellman commutative encryption over a safe prime.
//!
//! This is the primitive behind the Agrawal–Evfimievski–Srikant private
//! set intersection protocol (paper reference \[26\], SIGMOD'03) whose cost
//! — "2 hours of computation and ~3 Gbit of transfer" for a modest
//! document workload — motivates the paper's move away from encryption.
//! [`crate::intersection`] uses it to reproduce that experiment (E2).
//!
//! E_k(m) = m^k mod p over a safe prime p = 2q + 1, with k odd and
//! invertible mod p − 1. Commutativity: E_a(E_b(m)) = E_b(E_a(m)).

use dasp_bigint::{gcd, mod_inv, mod_pow, BigUint};
use dasp_crypto::sha256::sha256;
use rand::Rng;

/// A commutative cipher: a key `k` over a shared safe-prime group.
#[derive(Clone, Debug)]
pub struct CommutativeCipher {
    p: BigUint,
    key: BigUint,
    key_inv: BigUint,
}

impl CommutativeCipher {
    /// Generate a fresh key for the shared prime `p` (must be a safe
    /// prime so that invertible exponents are plentiful).
    pub fn generate<R: Rng + ?Sized>(p: &BigUint, rng: &mut R) -> Self {
        let p_minus_1 = p.checked_sub(&BigUint::one()).expect("p >= 2");
        loop {
            let key = BigUint::random_below(&p_minus_1, rng);
            if key.is_zero() || key.is_one() || !gcd(&key, &p_minus_1).is_one() {
                continue;
            }
            let key_inv = mod_inv(&key, &p_minus_1).expect("gcd checked");
            return CommutativeCipher {
                p: p.clone(),
                key,
                key_inv,
            };
        }
    }

    /// The shared prime modulus.
    pub fn prime(&self) -> &BigUint {
        &self.p
    }

    /// Hash an arbitrary byte string into the group (quadratic residues
    /// avoided for simplicity; collision-resistance comes from SHA-256).
    pub fn hash_to_group(&self, data: &[u8]) -> BigUint {
        let digest = sha256(data);
        let h = BigUint::from_be_bytes(&digest);
        // Map into [2, p): rejection would be cleaner; modular reduction
        // suffices for benchmarking purposes.
        let two = BigUint::from_u64(2);
        let span = self.p.checked_sub(&two).expect("p > 2");
        h.rem(&span).add(&two)
    }

    /// Encrypt a group element: `m^k mod p`.
    pub fn encrypt(&self, m: &BigUint) -> BigUint {
        mod_pow(m, &self.key, &self.p)
    }

    /// Remove this key's layer: `c^(k⁻¹) mod p`.
    pub fn decrypt(&self, c: &BigUint) -> BigUint {
        mod_pow(c, &self.key_inv, &self.p)
    }

    /// Ciphertext size in bytes (for communication accounting).
    pub fn ciphertext_bytes(&self) -> usize {
        self.p.bits().div_ceil(8)
    }
}

/// A shared 128-bit safe prime for tests and benchmarks, generated once
/// per process from a fixed seed (safe-prime generation is too slow to
/// repeat per experiment; its cost is excluded from measurements anyway).
pub fn shared_test_prime() -> BigUint {
    use std::sync::OnceLock;
    static PRIME: OnceLock<BigUint> = OnceLock::new();
    PRIME
        .get_or_init(|| {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(0xc0ffee);
            dasp_bigint::gen_safe_prime(128, &mut rng)
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (BigUint, StdRng) {
        (shared_test_prime(), StdRng::seed_from_u64(5))
    }

    #[test]
    fn shared_prime_is_safe() {
        let (p, mut rng) = setup();
        assert!(dasp_bigint::is_probable_prime(&p, 24, &mut rng));
        let q = p.checked_sub(&BigUint::one()).unwrap().shr(1);
        assert!(dasp_bigint::is_probable_prime(&q, 24, &mut rng));
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (p, mut rng) = setup();
        let cipher = CommutativeCipher::generate(&p, &mut rng);
        let m = cipher.hash_to_group(b"alice@example.com");
        assert_eq!(cipher.decrypt(&cipher.encrypt(&m)), m);
    }

    #[test]
    fn commutativity() {
        let (p, mut rng) = setup();
        let a = CommutativeCipher::generate(&p, &mut rng);
        let b = CommutativeCipher::generate(&p, &mut rng);
        let m = a.hash_to_group(b"record-17");
        let ab = a.encrypt(&b.encrypt(&m));
        let ba = b.encrypt(&a.encrypt(&m));
        assert_eq!(ab, ba, "E_a(E_b(m)) must equal E_b(E_a(m))");
    }

    #[test]
    fn intersection_protocol_core() {
        // Equal plaintexts collide under double encryption; unequal don't.
        let (p, mut rng) = setup();
        let alice = CommutativeCipher::generate(&p, &mut rng);
        let bob = CommutativeCipher::generate(&p, &mut rng);
        let shared = alice.hash_to_group(b"common-item");
        let only_a = alice.hash_to_group(b"alice-only");
        let only_b = alice.hash_to_group(b"bob-only");

        let a_items = [shared.clone(), only_a];
        let b_items = [shared, only_b];
        let a_double: Vec<_> = a_items
            .iter()
            .map(|m| bob.encrypt(&alice.encrypt(m)))
            .collect();
        let b_double: Vec<_> = b_items
            .iter()
            .map(|m| alice.encrypt(&bob.encrypt(m)))
            .collect();
        let matches = a_double.iter().filter(|c| b_double.contains(c)).count();
        assert_eq!(matches, 1);
    }

    #[test]
    fn different_keys_encrypt_differently() {
        let (p, mut rng) = setup();
        let a = CommutativeCipher::generate(&p, &mut rng);
        let b = CommutativeCipher::generate(&p, &mut rng);
        let m = a.hash_to_group(b"x");
        assert_ne!(a.encrypt(&m), b.encrypt(&m));
    }

    #[test]
    fn hash_to_group_in_range() {
        let (p, mut rng) = setup();
        let c = CommutativeCipher::generate(&p, &mut rng);
        for s in [&b"a"[..], b"b", b"a longer input string"] {
            let h = c.hash_to_group(s);
            assert!(h >= BigUint::from_u64(2) && h < p);
        }
    }
}
