//! Paillier additively homomorphic encryption.
//!
//! The paper's reference \[23\] (Ge & Zdonik, VLDB'07) outsources aggregates
//! under an additively homomorphic scheme; [`crate::paillier_agg`] uses this
//! implementation for the encryption-model aggregation comparator in E6.
//!
//! Standard scheme with g = n + 1: Enc(m, r) = (1 + m·n) · rⁿ mod n²,
//! Dec(c) = L(c^λ mod n²) · λ⁻¹ mod n where L(x) = (x − 1)/n.

use dasp_bigint::{gcd, lcm, mod_inv, mod_mul, mod_pow, BigUint};
use rand::Rng;

/// Public encryption key (n, n²).
#[derive(Clone, Debug)]
pub struct PaillierPublicKey {
    n: BigUint,
    n_squared: BigUint,
}

/// Full keypair with the private λ and μ = λ⁻¹ mod n.
#[derive(Clone, Debug)]
pub struct PaillierKeypair {
    public: PaillierPublicKey,
    lambda: BigUint,
    mu: BigUint,
}

/// A Paillier ciphertext (element of Z*_{n²}).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaillierCiphertext(pub BigUint);

impl PaillierPublicKey {
    /// The modulus n.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// Encrypt `m` (must be < n) with fresh randomness from `rng`.
    pub fn encrypt<R: Rng + ?Sized>(&self, m: &BigUint, rng: &mut R) -> PaillierCiphertext {
        assert!(m < &self.n, "plaintext must be < n");
        // r uniform in [1, n) with gcd(r, n) = 1 (overwhelmingly likely).
        let r = loop {
            let r = BigUint::random_below(&self.n, rng);
            if !r.is_zero() && gcd(&r, &self.n).is_one() {
                break r;
            }
        };
        // (1 + m·n) mod n²
        let g_m = BigUint::one().add(&m.mul(&self.n)).rem(&self.n_squared);
        let r_n = mod_pow(&r, &self.n, &self.n_squared);
        PaillierCiphertext(mod_mul(&g_m, &r_n, &self.n_squared))
    }

    /// Encrypt a `u64` convenience wrapper.
    pub fn encrypt_u64<R: Rng + ?Sized>(&self, m: u64, rng: &mut R) -> PaillierCiphertext {
        self.encrypt(&BigUint::from_u64(m), rng)
    }

    /// Homomorphic addition: Dec(a ⊞ b) = Dec(a) + Dec(b) mod n.
    pub fn add(&self, a: &PaillierCiphertext, b: &PaillierCiphertext) -> PaillierCiphertext {
        PaillierCiphertext(mod_mul(&a.0, &b.0, &self.n_squared))
    }

    /// Homomorphic scalar multiplication: Dec(a ⊠ k) = k·Dec(a) mod n.
    pub fn mul_scalar(&self, a: &PaillierCiphertext, k: &BigUint) -> PaillierCiphertext {
        PaillierCiphertext(mod_pow(&a.0, k, &self.n_squared))
    }

    /// The ciphertext of zero with trivial randomness (identity for ⊞).
    pub fn one_ciphertext(&self) -> PaillierCiphertext {
        PaillierCiphertext(BigUint::one())
    }

    /// Ciphertext size in bytes (for communication accounting).
    pub fn ciphertext_bytes(&self) -> usize {
        self.n_squared.bits().div_ceil(8)
    }
}

impl PaillierKeypair {
    /// Generate a keypair with an `n` of roughly `bits` bits.
    ///
    /// Benchmark configurations use 512–1024-bit n; key generation cost is
    /// excluded from query-time measurements.
    pub fn generate<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> Self {
        assert!(bits >= 16, "modulus too small");
        loop {
            let p = dasp_bigint::gen_prime(bits / 2, rng);
            let q = dasp_bigint::gen_prime(bits - bits / 2, rng);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let p1 = p.checked_sub(&BigUint::one()).expect("p > 1");
            let q1 = q.checked_sub(&BigUint::one()).expect("q > 1");
            let lambda = lcm(&p1, &q1);
            // μ = λ⁻¹ mod n exists iff gcd(λ, n) = 1.
            let Some(mu) = mod_inv(&lambda, &n) else {
                continue;
            };
            let n_squared = n.mul(&n);
            return PaillierKeypair {
                public: PaillierPublicKey { n, n_squared },
                lambda,
                mu,
            };
        }
    }

    /// The public half.
    pub fn public(&self) -> &PaillierPublicKey {
        &self.public
    }

    /// Decrypt a ciphertext to its plaintext in `[0, n)`.
    pub fn decrypt(&self, c: &PaillierCiphertext) -> BigUint {
        let pk = &self.public;
        let x = mod_pow(&c.0, &self.lambda, &pk.n_squared);
        // L(x) = (x - 1) / n
        let l = x
            .checked_sub(&BigUint::one())
            .expect("x >= 1 in Z*_{n^2}")
            .div_rem(&pk.n)
            .0;
        mod_mul(&l, &self.mu, &pk.n)
    }

    /// Decrypt to `u64` (panics if the plaintext exceeds 64 bits).
    pub fn decrypt_u64(&self, c: &PaillierCiphertext) -> u64 {
        let m = self.decrypt(c);
        assert!(m.bits() <= 64, "plaintext exceeds u64");
        m.low_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> (PaillierKeypair, StdRng) {
        let mut rng = StdRng::seed_from_u64(99);
        let kp = PaillierKeypair::generate(128, &mut rng);
        (kp, rng)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (kp, mut rng) = keypair();
        for m in [0u64, 1, 42, 1_000_000, u32::MAX as u64] {
            let c = kp.public().encrypt_u64(m, &mut rng);
            assert_eq!(kp.decrypt_u64(&c), m);
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let (kp, mut rng) = keypair();
        let a = kp.public().encrypt_u64(7, &mut rng);
        let b = kp.public().encrypt_u64(7, &mut rng);
        assert_ne!(a, b, "same plaintext must yield different ciphertexts");
        assert_eq!(kp.decrypt_u64(&a), kp.decrypt_u64(&b));
    }

    #[test]
    fn homomorphic_addition() {
        let (kp, mut rng) = keypair();
        let a = kp.public().encrypt_u64(100, &mut rng);
        let b = kp.public().encrypt_u64(230, &mut rng);
        let sum = kp.public().add(&a, &b);
        assert_eq!(kp.decrypt_u64(&sum), 330);
    }

    #[test]
    fn homomorphic_sum_of_many() {
        let (kp, mut rng) = keypair();
        let values = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let mut acc = kp.public().one_ciphertext();
        for &v in &values {
            let c = kp.public().encrypt_u64(v, &mut rng);
            acc = kp.public().add(&acc, &c);
        }
        assert_eq!(kp.decrypt_u64(&acc), values.iter().sum::<u64>());
    }

    #[test]
    fn homomorphic_scalar_multiplication() {
        let (kp, mut rng) = keypair();
        let c = kp.public().encrypt_u64(12, &mut rng);
        let scaled = kp.public().mul_scalar(&c, &BigUint::from_u64(5));
        assert_eq!(kp.decrypt_u64(&scaled), 60);
    }

    #[test]
    fn ciphertext_bytes_reasonable() {
        let (kp, _) = keypair();
        // n ~128 bits ⇒ n² ~256 bits ⇒ 32-ish bytes.
        let b = kp.public().ciphertext_bytes();
        assert!((28..=36).contains(&b), "got {b}");
    }
}
