//! Arbitrary-precision unsigned integer arithmetic.
//!
//! The paper's comparators (Paillier aggregate encryption, Agrawal et al.
//! commutative-encryption intersection, Kushilevitz–Ostrovsky computational
//! PIR) all need multi-precision modular arithmetic, and the offline crate
//! set ships no big-integer library — so this crate builds one from
//! scratch: little-endian `u64` limbs, schoolbook multiplication, Knuth
//! Algorithm D division, square-and-multiply modular exponentiation, and
//! Miller–Rabin primality with random prime generation.
//!
//! This is a *benchmarking-grade* implementation: correct and reasonably
//! fast, but with no constant-time guarantees. Do not use it to protect
//! real secrets.

mod div;
mod modular;
pub mod montgomery;
mod prime;

pub use modular::{gcd, lcm, mod_inv, mod_mul, mod_pow, mod_pow_plain};
pub use montgomery::MontgomeryCtx;
pub use prime::{gen_prime, gen_safe_prime, is_probable_prime};

use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// Truncate a `u128` to its low 64 bits — one limb.
///
/// The sanctioned narrowing conversion for limb arithmetic: every caller
/// propagates the discarded high bits through an explicit carry.
#[inline]
pub(crate) fn lo64(v: u128) -> u64 {
    // dasp::allow(P2): deliberate limb truncation — callers carry the high bits.
    v as u64
}

/// Reinterpret the low 64 bits of an `i128` as a limb (two's complement).
///
/// Knuth's Algorithm D mixes signed subtraction windows with unsigned
/// limbs; the wrap-around is the algorithm's intended semantics.
#[inline]
pub(crate) fn wrap64(v: i128) -> u64 {
    // dasp::allow(P2): two's-complement wrap is Algorithm D's step-D4 semantics.
    v as u64
}

/// An arbitrary-precision unsigned integer, little-endian `u64` limbs,
/// normalized so the most significant limb is non-zero (zero = no limbs).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    pub(crate) limbs: Vec<u64>,
}

impl BigUint {
    /// The integer zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The integer one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Construct from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Construct from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = lo64(v);
        let hi = lo64(v >> 64);
        let mut n = BigUint {
            limbs: vec![lo, hi],
        };
        n.normalize();
        n
    }

    /// Construct from little-endian limbs (normalizing).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Construct from big-endian bytes.
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | u64::from(b);
            }
            limbs.push(limb);
        }
        Self::from_limbs(limbs)
    }

    /// Serialize to minimal big-endian bytes (empty for zero).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // strip leading zeros of the top limb
                let first = bytes.iter().position(|&b| b != 0).unwrap_or(7);
                out.extend(bytes.iter().skip(first).copied());
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Parse a hexadecimal string (no `0x` prefix required, case-insensitive).
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim_start_matches("0x");
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut limbs = Vec::with_capacity(s.len() / 16 + 1);
        let bytes = s.as_bytes();
        let mut end = bytes.len();
        while end > 0 {
            let start = end.saturating_sub(16);
            let chunk = std::str::from_utf8(&bytes[start..end]).ok()?;
            limbs.push(u64::from_str_radix(chunk, 16).ok()?);
            end = start;
        }
        Some(Self::from_limbs(limbs))
    }

    /// Hexadecimal rendering (lowercase, no prefix).
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = format!("{:x}", self.limbs.last().unwrap());
        for &limb in self.limbs.iter().rev().skip(1) {
            s.push_str(&format!("{limb:016x}"));
        }
        s
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True iff even (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|&l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Value of bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|&l| (l >> off) & 1 == 1)
    }

    /// The low 64 bits (0 for zero).
    pub fn low_u64(&self) -> u64 {
        self.limbs.first().copied().unwrap_or(0)
    }

    pub(crate) fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (big, small) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Vec::with_capacity(big.limbs.len() + 1);
        let mut carry = 0u64;
        for i in 0..big.limbs.len() {
            let a = big.limbs[i];
            let b = small.limbs.get(i).copied().unwrap_or(0);
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self - other`, or `None` if the result would be negative.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i];
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        Some(BigUint::from_limbs(out))
    }

    /// `self * other` (schoolbook, O(n·m)).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = lo64(cur);
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = lo64(cur);
                carry = cur >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// `(self / other, self % other)`. Panics if `other` is zero — callers
    /// in this workspace always divide by fixed non-zero moduli.
    pub fn div_rem(&self, other: &BigUint) -> (BigUint, BigUint) {
        div::div_rem(self, other)
    }

    /// `self % other`.
    pub fn rem(&self, other: &BigUint) -> BigUint {
        self.div_rem(other).1
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> BigUint {
        let limb_shift = n / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 64;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = src.get(i + 1).map_or(0, |&l| l << (64 - bit_shift));
                out.push(lo | hi);
            }
        }
        BigUint::from_limbs(out)
    }

    /// A uniformly random integer with exactly `bits` bits (top bit set).
    pub fn random_bits<R: Rng + ?Sized>(bits: usize, rng: &mut R) -> BigUint {
        assert!(bits > 0, "random_bits needs at least 1 bit");
        let limbs_needed = bits.div_ceil(64);
        let mut limbs: Vec<u64> = (0..limbs_needed).map(|_| rng.gen()).collect();
        let top_bits = bits - (limbs_needed - 1) * 64;
        let top = &mut limbs[limbs_needed - 1];
        if top_bits < 64 {
            *top &= (1u64 << top_bits) - 1;
        }
        *top |= 1u64 << (top_bits - 1); // force exact bit length
        BigUint::from_limbs(limbs)
    }

    /// A uniformly random integer in `[0, bound)`. Panics on zero bound.
    pub fn random_below<R: Rng + ?Sized>(bound: &BigUint, rng: &mut R) -> BigUint {
        assert!(!bound.is_zero(), "random_below: zero bound");
        let bits = bound.bits();
        loop {
            let limbs_needed = bits.div_ceil(64);
            let mut limbs: Vec<u64> = (0..limbs_needed).map(|_| rng.gen()).collect();
            let top_bits = bits - (limbs_needed - 1) * 64;
            if top_bits < 64 {
                limbs[limbs_needed - 1] &= (1u64 << top_bits) - 1;
            }
            let candidate = BigUint::from_limbs(limbs);
            if &candidate < bound {
                return candidate;
            }
        }
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
    }

    #[test]
    fn hex_roundtrip() {
        for c in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ] {
            let n = BigUint::from_hex(c).unwrap();
            assert_eq!(n.to_hex(), c);
        }
        assert_eq!(BigUint::from_hex("0x00ff").unwrap().to_hex(), "ff");
        assert!(BigUint::from_hex("").is_none());
        assert!(BigUint::from_hex("xyz").is_none());
    }

    #[test]
    fn be_bytes_roundtrip() {
        let n = BigUint::from_hex("0123456789abcdef00112233445566778899aabb").unwrap();
        let bytes = n.to_be_bytes();
        assert_eq!(BigUint::from_be_bytes(&bytes), n);
        assert!(BigUint::from_be_bytes(&[]).is_zero());
    }

    #[test]
    fn add_with_carry_chain() {
        let a = BigUint::from_limbs(vec![u64::MAX, u64::MAX]);
        let b = BigUint::one();
        let s = a.add(&b);
        assert_eq!(s.limbs, vec![0, 0, 1]);
    }

    #[test]
    fn checked_sub_underflow() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u64(7);
        assert_eq!(a.checked_sub(&b), None);
        assert_eq!(b.checked_sub(&a).unwrap(), BigUint::from_u64(2));
    }

    #[test]
    fn mul_matches_u128() {
        let a = BigUint::from_u64(0xffff_ffff_ffff_fff1);
        let b = BigUint::from_u64(0xffff_ffff_ffff_fff3);
        let expect = 0xffff_ffff_ffff_fff1u128 * 0xffff_ffff_ffff_fff3u128;
        assert_eq!(a.mul(&b), BigUint::from_u128(expect));
    }

    #[test]
    fn shifts() {
        let n = BigUint::from_u64(1);
        assert_eq!(n.shl(64).limbs, vec![0, 1]);
        assert_eq!(n.shl(64).shr(64), n);
        assert_eq!(n.shl(65).shr(1).limbs, vec![0, 1]);
        assert!(n.shr(1).is_zero());
    }

    #[test]
    fn bit_access() {
        let n = BigUint::from_hex("8000000000000001").unwrap();
        assert!(n.bit(0));
        assert!(n.bit(63));
        assert!(!n.bit(1));
        assert!(!n.bit(64));
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut rng = rand::rngs::mock::StepRng::new(0x1234_5678, 0x9999);
        for bits in [1usize, 5, 64, 65, 127, 256] {
            let n = BigUint::random_bits(bits, &mut rng);
            assert_eq!(n.bits(), bits, "bits={bits}");
        }
    }

    #[test]
    fn random_below_stays_below() {
        let mut rng = rand::thread_rng();
        let bound = BigUint::from_hex("1000000000000000000000001").unwrap();
        for _ in 0..100 {
            assert!(BigUint::random_below(&bound, &mut rng) < bound);
        }
    }

    proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in any::<u128>(), b in any::<u128>()) {
            let x = BigUint::from_u128(a);
            let y = BigUint::from_u128(b);
            prop_assert_eq!(x.add(&y).checked_sub(&y).unwrap(), x);
        }

        #[test]
        fn prop_mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let got = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
            prop_assert_eq!(got, BigUint::from_u128(a as u128 * b as u128));
        }

        #[test]
        fn prop_cmp_matches_u128(a in any::<u128>(), b in any::<u128>()) {
            let x = BigUint::from_u128(a);
            let y = BigUint::from_u128(b);
            prop_assert_eq!(x.cmp(&y), a.cmp(&b));
        }

        #[test]
        fn prop_shl_is_mul_by_power_of_two(a in any::<u64>(), s in 0usize..64) {
            let got = BigUint::from_u64(a).shl(s);
            prop_assert_eq!(got, BigUint::from_u128((a as u128) << s));
        }

        #[test]
        fn prop_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let n = BigUint::from_be_bytes(&bytes);
            prop_assert_eq!(BigUint::from_be_bytes(&n.to_be_bytes()), n);
        }
    }
}
