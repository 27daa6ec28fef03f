//! SipHash-2-4 (Aumasson & Bernstein) — a fast 128-bit-keyed 64-bit PRF.
//!
//! `dasp-sss` uses it as the keyed hash `h_a`, `h_b`, `h_c` that maps a
//! secret value into its coefficient slot for order-preserving polynomial
//! construction (paper §IV): cheap, deterministic, and keyed so providers
//! cannot recompute it.

/// A SipHash-2-4 instance with a fixed 128-bit key.
#[derive(Clone, Copy, Debug)]
pub struct SipHash24 {
    k0: u64,
    k1: u64,
}

impl SipHash24 {
    /// Create from a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        let [a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p] = *key;
        SipHash24 {
            k0: u64::from_le_bytes([a, b, c, d, e, f, g, h]),
            k1: u64::from_le_bytes([i, j, k, l, m, n, o, p]),
        }
    }

    /// Create from two 64-bit key words.
    pub fn from_words(k0: u64, k1: u64) -> Self {
        SipHash24 { k0, k1 }
    }

    /// Hash a byte string to 64 bits.
    pub fn hash(&self, data: &[u8]) -> u64 {
        let mut v0 = self.k0 ^ 0x736f6d6570736575;
        let mut v1 = self.k1 ^ 0x646f72616e646f6d;
        let mut v2 = self.k0 ^ 0x6c7967656e657261;
        let mut v3 = self.k1 ^ 0x7465646279746573;

        let mut chunks = data.chunks_exact(8);
        for chunk in &mut chunks {
            let m = le_u64(chunk);
            v3 ^= m;
            for _ in 0..2 {
                sipround(&mut v0, &mut v1, &mut v2, &mut v3);
            }
            v0 ^= m;
        }

        // Final block: remaining bytes plus the length in the top byte.
        let last = (data.len() as u64 & 0xff) << 56 | le_u64(chunks.remainder());
        v3 ^= last;
        for _ in 0..2 {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        v0 ^= last;

        v2 ^= 0xff;
        for _ in 0..4 {
            sipround(&mut v0, &mut v1, &mut v2, &mut v3);
        }
        v0 ^ v1 ^ v2 ^ v3
    }

    /// Hash a `u64` (little-endian encoding).
    pub fn hash_u64(&self, v: u64) -> u64 {
        self.hash(&v.to_le_bytes())
    }

    /// Hash a `u128` (little-endian encoding).
    pub fn hash_u128(&self, v: u128) -> u64 {
        self.hash(&v.to_le_bytes())
    }
}

/// Up to 8 bytes as a little-endian integer.
#[inline]
fn le_u64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .rev()
        .fold(0, |acc, &b| acc << 8 | u64::from(b))
}

#[inline]
fn sipround(v0: &mut u64, v1: &mut u64, v2: &mut u64, v3: &mut u64) {
    *v0 = v0.wrapping_add(*v1);
    *v1 = v1.rotate_left(13);
    *v1 ^= *v0;
    *v0 = v0.rotate_left(32);
    *v2 = v2.wrapping_add(*v3);
    *v3 = v3.rotate_left(16);
    *v3 ^= *v2;
    *v0 = v0.wrapping_add(*v3);
    *v3 = v3.rotate_left(21);
    *v3 ^= *v0;
    *v2 = v2.wrapping_add(*v1);
    *v1 = v1.rotate_left(17);
    *v1 ^= *v2;
    *v2 = v2.rotate_left(32);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors from the SipHash paper's appendix: key
    /// 000102…0f, messages 00, 0001, 000102, … of increasing length.
    #[test]
    fn reference_vectors() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let sip = SipHash24::new(&key);
        let expected: [u64; 8] = [
            0x726fdb47dd0e0e31, // len 0
            0x74f839c593dc67fd, // len 1
            0x0d6c8009d9a94f5a, // len 2
            0x85676696d7fb7e2d,
            0xcf2794e0277187b7,
            0x18765564cd99a68d,
            0xcbc9466e58fee3ce,
            0xab0200f58b01d137,
        ];
        let msg: Vec<u8> = (0..8u8).collect();
        for (len, &want) in expected.iter().enumerate() {
            assert_eq!(sip.hash(&msg[..len]), want, "len={len}");
        }
    }

    #[test]
    fn longer_than_eight_bytes() {
        // len 15 crosses a block boundary; vector from the same table.
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let sip = SipHash24::new(&key);
        let msg: Vec<u8> = (0..15u8).collect();
        assert_eq!(sip.hash(&msg), 0xa129ca6149be45e5);
    }

    #[test]
    fn keyed_hashes_differ() {
        let a = SipHash24::from_words(1, 2);
        let b = SipHash24::from_words(1, 3);
        assert_ne!(a.hash_u64(42), b.hash_u64(42));
    }

    #[test]
    fn deterministic() {
        let sip = SipHash24::from_words(0xdead, 0xbeef);
        assert_eq!(sip.hash_u64(7), sip.hash_u64(7));
        assert_eq!(sip.hash_u128(7), sip.hash_u128(7));
        assert_ne!(sip.hash_u64(7), sip.hash_u64(8));
    }
}
