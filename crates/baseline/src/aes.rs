//! AES-128 (FIPS 197) with ECB-style single-block access and CTR mode.
//!
//! The encrypted DBSP baseline ([`crate::encdb`]) uses:
//! * single-block deterministic encryption (ECB over fixed-width encoded
//!   values) for exact-match indexes — the Hacigümüş et al. model, and
//! * CTR for bulk tuple payloads.
//!
//! Table-based implementation; no constant-time claims.

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Inverse S-box.
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// S-box lookup. A `u8` index can never reach past a 256-entry table,
/// so the `unwrap_or` arm is unreachable; `get` keeps the whole cipher
/// free of panic-capable indexing (P3).
#[inline]
fn sbox_at(b: u8) -> u8 {
    SBOX.get(usize::from(b)).copied().unwrap_or(0)
}

/// Inverse S-box lookup (same bounds argument as [`sbox_at`]).
#[inline]
fn inv_sbox_at(b: u8) -> u8 {
    INV_SBOX.get(usize::from(b)).copied().unwrap_or(0)
}

/// An AES-128 key schedule (11 round keys).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

#[inline]
fn gmul(a: u8, b: u8) -> u8 {
    let mut a = a;
    let mut b = b;
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 == 1 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

impl Aes128 {
    /// Expand a 16-byte key. Round key *r+1* depends only on round key
    /// *r*, so the schedule is derived key-by-key with destructuring —
    /// no 44-word scratch array, no panic-capable indexing.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut round_keys = [[0u8; 16]; 11];
        let mut prev = *key;
        let mut rcon = RCON.iter();
        for rk in round_keys.iter_mut() {
            *rk = prev;
            if let Some(&r) = rcon.next() {
                prev = expand_round(&prev, r);
            }
        }
        Aes128 { round_keys }
    }

    /// Encrypt one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let Some((first, rest)) = self.round_keys.split_first() else {
            return;
        };
        let Some((last, middle)) = rest.split_last() else {
            return;
        };
        add_round_key(block, first);
        for rk in middle {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, rk);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, last);
    }

    /// Decrypt one 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; 16]) {
        let Some((first, rest)) = self.round_keys.split_first() else {
            return;
        };
        let Some((last, middle)) = rest.split_last() else {
            return;
        };
        add_round_key(block, last);
        inv_shift_rows(block);
        inv_sub_bytes(block);
        for rk in middle.iter().rev() {
            add_round_key(block, rk);
            inv_mix_columns(block);
            inv_shift_rows(block);
            inv_sub_bytes(block);
        }
        add_round_key(block, first);
    }

    /// Deterministically encrypt a `u128` value (one block). Used by the
    /// det-enc exact-match baseline: equality of plaintexts ⇒ equality of
    /// ciphertexts, so the provider can filter without learning values.
    pub fn encrypt_u128(&self, v: u128) -> u128 {
        let mut b = v.to_be_bytes();
        self.encrypt_block(&mut b);
        u128::from_be_bytes(b)
    }

    /// Inverse of [`Aes128::encrypt_u128`].
    pub fn decrypt_u128(&self, c: u128) -> u128 {
        let mut b = c.to_be_bytes();
        self.decrypt_block(&mut b);
        u128::from_be_bytes(b)
    }
}

/// One AES-128 key-schedule step: derive round key *r+1* from round key
/// *r* (FIPS 197 §5.2, specialised to Nk=4 so every word it needs lives
/// in `prev`).
fn expand_round(prev: &[u8; 16], rcon: u8) -> [u8; 16] {
    let [p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10, p11, p12, p13, p14, p15] = *prev;
    // temp = SubWord(RotWord(w3)) ^ [rcon, 0, 0, 0]
    let (t0, t1, t2, t3) = (
        sbox_at(p13) ^ rcon,
        sbox_at(p14),
        sbox_at(p15),
        sbox_at(p12),
    );
    let (a0, a1, a2, a3) = (p0 ^ t0, p1 ^ t1, p2 ^ t2, p3 ^ t3);
    let (b0, b1, b2, b3) = (p4 ^ a0, p5 ^ a1, p6 ^ a2, p7 ^ a3);
    let (c0, c1, c2, c3) = (p8 ^ b0, p9 ^ b1, p10 ^ b2, p11 ^ b3);
    let (d0, d1, d2, d3) = (p12 ^ c0, p13 ^ c1, p14 ^ c2, p15 ^ c3);
    [
        a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3,
    ]
}

fn add_round_key(state: &mut [u8; 16], key: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(key) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = sbox_at(*b);
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = inv_sbox_at(*b);
    }
}

// State layout: state[4*c + r] = byte at row r, column c (FIPS column-major).
// Row r rotates left by r columns; written as one explicit permutation so
// the transform stays index-free.
fn shift_rows(state: &mut [u8; 16]) {
    let [s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15] = *state;
    *state = [
        s0, s5, s10, s15, s4, s9, s14, s3, s8, s13, s2, s7, s12, s1, s6, s11,
    ];
}

fn inv_shift_rows(state: &mut [u8; 16]) {
    let [s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15] = *state;
    *state = [
        s0, s13, s10, s7, s4, s1, s14, s11, s8, s5, s2, s15, s12, s9, s6, s3,
    ];
}

fn mix_columns(state: &mut [u8; 16]) {
    for col in state.chunks_exact_mut(4) {
        if let [a, b, c, d] = *col {
            col.copy_from_slice(&[
                gmul(a, 2) ^ gmul(b, 3) ^ c ^ d,
                a ^ gmul(b, 2) ^ gmul(c, 3) ^ d,
                a ^ b ^ gmul(c, 2) ^ gmul(d, 3),
                gmul(a, 3) ^ b ^ c ^ gmul(d, 2),
            ]);
        }
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for col in state.chunks_exact_mut(4) {
        if let [a, b, c, d] = *col {
            col.copy_from_slice(&[
                gmul(a, 14) ^ gmul(b, 11) ^ gmul(c, 13) ^ gmul(d, 9),
                gmul(a, 9) ^ gmul(b, 14) ^ gmul(c, 11) ^ gmul(d, 13),
                gmul(a, 13) ^ gmul(b, 9) ^ gmul(c, 14) ^ gmul(d, 11),
                gmul(a, 11) ^ gmul(b, 13) ^ gmul(c, 9) ^ gmul(d, 14),
            ]);
        }
    }
}

/// AES-128-CTR streaming encryption/decryption (symmetric).
pub struct CtrMode {
    cipher: Aes128,
    nonce: u64,
}

impl CtrMode {
    /// Create with a key and a per-message nonce.
    pub fn new(key: &[u8; 16], nonce: u64) -> Self {
        CtrMode {
            cipher: Aes128::new(key),
            nonce,
        }
    }

    /// XOR `data` with the keystream in place. Applying twice decrypts.
    pub fn apply(&self, data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(16).enumerate() {
            let mut block = [0u8; 16];
            let (hi, lo) = block.split_at_mut(8);
            hi.copy_from_slice(&self.nonce.to_be_bytes());
            lo.copy_from_slice(&(i as u64).to_be_bytes());
            self.cipher.encrypt_block(&mut block);
            for (b, k) in chunk.iter_mut().zip(block.iter()) {
                *b ^= k;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 197 Appendix C.1 known-answer test.
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let mut block: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        let expect: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(block, expect);
        aes.decrypt_block(&mut block);
        let plain: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        assert_eq!(block, plain);
    }

    /// NIST SP 800-38A F.1.1 ECB-AES128 first block.
    #[test]
    fn nist_ecb_vector() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block: [u8; 16] = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        Aes128::new(&key).encrypt_block(&mut block);
        let expect: [u8; 16] = [
            0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
            0xef, 0x97,
        ];
        assert_eq!(block, expect);
    }

    #[test]
    fn u128_roundtrip_and_determinism() {
        let aes = Aes128::new(b"0123456789abcdef");
        for v in [0u128, 1, 42, u128::MAX, 0xdead_beef] {
            let c = aes.encrypt_u128(v);
            assert_eq!(aes.decrypt_u128(c), v);
            assert_eq!(aes.encrypt_u128(v), c, "deterministic");
        }
        assert_ne!(aes.encrypt_u128(1), aes.encrypt_u128(2));
    }

    #[test]
    fn ctr_roundtrip_various_lengths() {
        let key = b"fedcba9876543210";
        for len in [0usize, 1, 15, 16, 17, 100, 1000] {
            let mut data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let orig = data.clone();
            let ctr = CtrMode::new(key, 7);
            ctr.apply(&mut data);
            if len > 0 {
                assert_ne!(data, orig, "len={len} should change");
            }
            ctr.apply(&mut data);
            assert_eq!(data, orig, "len={len} roundtrip");
        }
    }

    #[test]
    fn ctr_nonce_separates_streams() {
        let key = b"fedcba9876543210";
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        CtrMode::new(key, 1).apply(&mut a);
        CtrMode::new(key, 2).apply(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn gmul_known_values() {
        assert_eq!(gmul(0x57, 0x83), 0xc1); // FIPS 197 §4.2 example
        assert_eq!(gmul(0x57, 0x13), 0xfe);
    }
}
