//! Non-numeric attribute encoding (paper §V-B).
//!
//! Bounded-length strings are padded with `*` (blank) and read as numbers
//! in base |alphabet|+1, so lexicographic order on padded strings equals
//! numeric order on codes. Exact-match, prefix, and string-range queries
//! thereby become numeric exact-match/range queries that the
//! order-preserving sharing of [`crate::opss`] executes server-side.
//!
//! The paper's example alphabet is `* A B … Z` (base 27); a general
//! constructor accepts any ordered alphabet.

use crate::SssError;

/// The paper's alphabet: blank + uppercase A–Z (base 27).
pub const UPPERCASE_ALPHABET: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// A fixed-width string-to-number codec over an ordered alphabet.
#[derive(Debug, Clone)]
pub struct StringCodec {
    alphabet: Vec<char>,
    width: usize,
    /// `base^width`, the exclusive upper bound of the code space.
    domain_size: u64,
}

impl StringCodec {
    /// Build a codec for strings of up to `width` characters over
    /// `alphabet` (blank/pad is implicit digit 0 and must not appear in
    /// the alphabet).
    pub fn new(alphabet: &str, width: usize) -> Result<Self, SssError> {
        let chars: Vec<char> = alphabet.chars().collect();
        if chars.is_empty() {
            return Err(SssError::BadParameters("empty alphabet".into()));
        }
        if width == 0 {
            return Err(SssError::BadParameters("width must be positive".into()));
        }
        // The code space, base^width, must fit u64.
        let base = chars.len() as u128 + 1;
        let domain_size = (0..width)
            .try_fold(1u128, |n, _| n.checked_mul(base))
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| {
                SssError::BadParameters(format!(
                    "alphabet size {} with width {width} overflows u64",
                    chars.len()
                ))
            })?;
        for (i, c) in chars.iter().enumerate() {
            if chars.iter().take(i).any(|a| a == c) {
                return Err(SssError::BadParameters(format!("duplicate char {c:?}")));
            }
        }
        Ok(StringCodec {
            alphabet: chars,
            width,
            domain_size,
        })
    }

    /// The paper's VARCHAR(w) codec: base 27 over `* A–Z`.
    pub fn uppercase(width: usize) -> Result<Self, SssError> {
        Self::new(UPPERCASE_ALPHABET, width)
    }

    /// Numeric base (alphabet size + 1 for the pad digit).
    pub fn base(&self) -> u64 {
        self.alphabet.len() as u64 + 1
    }

    /// Maximum encodable width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Exclusive upper bound of the code space (`base^width`).
    pub fn domain_size(&self) -> u64 {
        self.domain_size
    }

    fn digit(&self, c: char) -> Option<u64> {
        self.alphabet
            .iter()
            .position(|&a| a == c)
            .map(|i| i as u64 + 1)
    }

    /// Encode `s` (length ≤ width), padding on the right with the implicit
    /// blank. `"ABC"` with width 5 encodes as the digits `A B C * *`.
    pub fn encode(&self, s: &str) -> Result<u64, SssError> {
        if s.chars().count() > self.width {
            return Err(SssError::BadParameters(format!(
                "string {s:?} longer than width {}",
                self.width
            )));
        }
        let mut chars = s.chars();
        let mut code = 0u64;
        for _ in 0..self.width {
            let d = match chars.next() {
                Some(c) => self.digit(c).ok_or_else(|| {
                    SssError::BadParameters(format!("char {c:?} not in alphabet"))
                })?,
                None => 0,
            };
            code = code * self.base() + d;
        }
        Ok(code)
    }

    /// Decode a code back to a (right-trimmed) string. Returns `None` for
    /// codes containing a pad digit before a non-pad digit (not produced
    /// by [`StringCodec::encode`]).
    pub fn decode(&self, code: u64) -> Option<String> {
        if code >= self.domain_size {
            return None;
        }
        let base = self.base();
        let mut out = String::with_capacity(self.width);
        let mut seen_pad = false;
        // Most significant digit first: `place` is base^(width - 1 - pos).
        let mut place = self.domain_size / base;
        while place > 0 {
            let d = code / place % base;
            place /= base;
            if d == 0 {
                seen_pad = true;
            } else if seen_pad {
                return None; // pad in the middle: not a valid encoding
            } else {
                out.push(*self.alphabet.get(d as usize - 1)?);
            }
        }
        Some(out)
    }

    /// The inclusive code range covering every string with prefix
    /// `prefix` — turns `name LIKE 'AB%'` into a numeric range (§V-B).
    pub fn prefix_range(&self, prefix: &str) -> Result<(u64, u64), SssError> {
        let chars: Vec<char> = prefix.chars().collect();
        if chars.len() > self.width {
            return Err(SssError::BadParameters("prefix longer than width".into()));
        }
        let lo = self.encode(prefix)?;
        // hi: prefix followed by the maximal digit everywhere.
        let mut hi = 0u64;
        for pos in 0..self.width {
            let d = match chars.get(pos) {
                Some(&c) => self.digit(c).ok_or_else(|| {
                    SssError::BadParameters(format!("char {c:?} not in alphabet"))
                })?,
                None => self.base() - 1,
            };
            hi = hi * self.base() + d;
        }
        Ok((lo, hi))
    }

    /// The inclusive code range for the string interval `[lo, hi]` — turns
    /// `name BETWEEN 'ALBERT' AND 'JACK'` into a numeric range.
    pub fn string_range(&self, lo: &str, hi: &str) -> Result<(u64, u64), SssError> {
        let lo_code = self.encode(lo)?;
        // hi bound covers all strings that start with `hi` too.
        let (_, hi_code) = self.prefix_range(hi)?;
        if lo_code > hi_code {
            return Err(SssError::BadParameters("empty string range".into()));
        }
        Ok((lo_code, hi_code))
    }
}

/// A client-side dictionary codec for *arbitrary* strings (any alphabet,
/// any length) — the paper's §V-B nod to "potentially compressed data".
///
/// Values are mapped to dense integer codes in insertion order. The
/// dictionary lives at the client (it is part of the secret state, like
/// the evaluation points): the provider sees only shares of opaque codes.
/// Because codes carry no order, dictionary columns pair with
/// [`crate::ShareMode::Random`] or [`crate::ShareMode::Deterministic`] —
/// equality and joins work; ranges do not (use [`StringCodec`] for
/// order-dependent text).
#[derive(Debug, Clone, Default)]
pub struct DictionaryCodec {
    forward: std::collections::HashMap<String, u64>,
    reverse: Vec<String>,
}

impl DictionaryCodec {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.reverse.len()
    }

    /// True iff nothing interned yet.
    pub fn is_empty(&self) -> bool {
        self.reverse.is_empty()
    }

    /// Intern `s` (idempotent), returning its code. Codes start at 0 and
    /// are dense, so a `Numeric {{ domain_size }}` column sized to the
    /// expected cardinality holds them.
    pub fn intern(&mut self, s: &str) -> u64 {
        if let Some(&code) = self.forward.get(s) {
            return code;
        }
        let code = self.reverse.len() as u64;
        self.forward.insert(s.to_string(), code);
        self.reverse.push(s.to_string());
        code
    }

    /// Code of an already-interned string — for query rewriting. `None`
    /// means the value cannot exist in the outsourced data (the query can
    /// short-circuit to an empty result without touching a provider).
    pub fn lookup(&self, s: &str) -> Option<u64> {
        self.forward.get(s).copied()
    }

    /// The string behind a code.
    pub fn resolve(&self, code: u64) -> Option<&str> {
        self.reverse.get(code as usize).map(|s| s.as_str())
    }

    /// Serialize for escrow alongside the client keys (strings are
    /// length-prefixed; order encodes the codes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.reverse.len() as u64).to_le_bytes());
        for s in &self.reverse {
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        out
    }

    /// Inverse of [`DictionaryCodec::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut dict = Self::new();
        let mut at = 0usize;
        let take8 = |at: &mut usize| -> Option<u64> {
            let v = u64::from_le_bytes(bytes.get(*at..*at + 8)?.try_into().ok()?);
            *at += 8;
            Some(v)
        };
        let n = take8(&mut at)?;
        for _ in 0..n {
            let len = take8(&mut at)? as usize;
            let s = std::str::from_utf8(bytes.get(at..at + len)?).ok()?;
            at += len;
            dict.intern(s);
        }
        if at == bytes.len() {
            Some(dict)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn codec() -> StringCodec {
        StringCodec::uppercase(5).unwrap()
    }

    #[test]
    fn paper_example_abc() {
        // "ABC**" reads as digits (1,2,3,0,0) in base 27.
        let c = codec();
        let expect = ((27 + 2) * 27 + 3) * 27 * 27;
        assert_eq!(c.encode("ABC").unwrap(), expect);
    }

    #[test]
    fn paper_example_fatih() {
        // "FATIH" uses all five positions: F=6, A=1, T=20, I=9, H=8.
        let c = codec();
        let expect = (((6u64 * 27 + 1) * 27 + 20) * 27 + 9) * 27 + 8;
        assert_eq!(c.encode("FATIH").unwrap(), expect);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let c = codec();
        for s in ["", "A", "Z", "AB", "HELLO", "JOHN"] {
            assert_eq!(c.decode(c.encode(s).unwrap()).as_deref(), Some(s));
        }
    }

    #[test]
    fn order_matches_lexicographic_on_padded_strings() {
        let c = codec();
        let names = ["ALBERT", "JACK"]; // too long for width 5? ALBERT is 6.
        assert!(c.encode(names[0]).is_err(), "width guard works");
        let names = ["ABE", "AL", "ALF", "BOB", "JACK", "JOHN", "ZZ"];
        let codes: Vec<u64> = names.iter().map(|n| c.encode(n).unwrap()).collect();
        for w in codes.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn prefix_range_covers_exactly_prefixed_strings() {
        let c = codec();
        let (lo, hi) = c.prefix_range("AB").unwrap();
        for s in ["AB", "ABA", "ABZ", "ABZZZ", "ABC"] {
            let code = c.encode(s).unwrap();
            assert!(code >= lo && code <= hi, "{s} should be in range");
        }
        for s in ["AA", "AC", "B", "A", ""] {
            let code = c.encode(s).unwrap();
            assert!(code < lo || code > hi, "{s} should be outside");
        }
    }

    #[test]
    fn string_range_inclusive_semantics() {
        let c = codec();
        let (lo, hi) = c.string_range("AL", "JACK").unwrap();
        for s in ["AL", "ALF", "BOB", "JACK", "JACKZ"] {
            let code = c.encode(s).unwrap();
            assert!(code >= lo && code <= hi, "{s}");
        }
        for s in ["AK", "JAD", "Z"] {
            let code = c.encode(s).unwrap();
            assert!(code < lo || code > hi, "{s}");
        }
        assert!(c.string_range("Z", "A").is_err());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let c = codec();
        assert!(c.encode("toolongname").is_err());
        assert!(c.encode("abc").is_err(), "lowercase not in alphabet");
        assert!(StringCodec::new("", 5).is_err());
        assert!(StringCodec::new("AB", 0).is_err());
        assert!(StringCodec::new("AA", 3).is_err(), "duplicate char");
        assert!(StringCodec::uppercase(14).is_err(), "27^14 > u64::MAX");
        assert!(
            StringCodec::new("A", 64).is_err(),
            "2^64 codes do not fit u64"
        );
    }

    #[test]
    fn decode_rejects_interior_pads_and_out_of_range() {
        let c = codec();
        // Code with digits (1, 0, 1, 0, 0): pad before a non-pad.
        let bad = (27 * 27 + 1) * 27 * 27;
        assert_eq!(c.decode(bad), None);
        assert_eq!(c.decode(c.domain_size()), None);
    }

    #[test]
    fn domain_size_is_base_pow_width() {
        assert_eq!(
            StringCodec::uppercase(3).unwrap().domain_size(),
            27 * 27 * 27
        );
        assert_eq!(StringCodec::new("A", 63).unwrap().domain_size(), 1 << 63);
    }

    #[test]
    fn dictionary_intern_lookup_resolve() {
        let mut d = DictionaryCodec::new();
        let a = d.intern("müller, 株式会社");
        let b = d.intern("plain ascii");
        assert_eq!(d.intern("müller, 株式会社"), a, "idempotent");
        assert_ne!(a, b);
        assert_eq!(d.lookup("plain ascii"), Some(b));
        assert_eq!(d.lookup("never seen"), None);
        assert_eq!(d.resolve(a), Some("müller, 株式会社"));
        assert_eq!(d.resolve(99), None);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn dictionary_codes_are_dense_from_zero() {
        let mut d = DictionaryCodec::new();
        for i in 0..100u64 {
            assert_eq!(d.intern(&format!("s{i}")), i);
        }
    }

    #[test]
    fn dictionary_escrow_roundtrip() {
        let mut d = DictionaryCodec::new();
        for s in ["alpha", "", "β", "alpha again"] {
            d.intern(s);
        }
        let bytes = d.to_bytes();
        let back = DictionaryCodec::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), d.len());
        for s in ["alpha", "", "β", "alpha again"] {
            assert_eq!(back.lookup(s), d.lookup(s), "{s:?}");
        }
        // Truncated and padded inputs are rejected.
        assert!(DictionaryCodec::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(DictionaryCodec::from_bytes(&padded).is_none());
    }

    proptest! {
        #[test]
        fn prop_dictionary_roundtrip(strings in proptest::collection::vec(".{0,20}", 0..30)) {
            let mut d = DictionaryCodec::new();
            for s in &strings {
                d.intern(s);
            }
            let back = DictionaryCodec::from_bytes(&d.to_bytes()).unwrap();
            for s in &strings {
                prop_assert_eq!(back.lookup(s), d.lookup(s));
            }
        }

        #[test]
        fn prop_roundtrip(s in "[A-Z]{0,5}") {
            let c = codec();
            let decoded = c.decode(c.encode(&s).unwrap());
            prop_assert_eq!(decoded.as_deref(), Some(s.as_str()));
        }

        #[test]
        fn prop_order_preserved(a in "[A-Z]{0,5}", b in "[A-Z]{0,5}") {
            let c = codec();
            let ca = c.encode(&a).unwrap();
            let cb = c.encode(&b).unwrap();
            // Padded-string lexicographic order == code order. Right-pad
            // comparison: shorter string padded with a char below 'A'.
            let pad = |s: &str| {
                let mut v: Vec<u8> = s.bytes().collect();
                v.resize(5, 0);
                v
            };
            prop_assert_eq!(pad(&a).cmp(&pad(&b)), ca.cmp(&cb));
        }
    }
}
