//! Order-preserving polynomial secret sharing — the paper's §IV scheme.
//!
//! For a domain `DOM = [0, N)` each coefficient domain `DOM_j` is divided
//! into `N` equal slots; the coefficient for value `v` is drawn from slot
//! `v` by a keyed hash:
//!
//! ```text
//! coeff_j(v) = v · W + 1 + (h_j(v) mod W)        (W = slot width)
//! p_v(x)     = coeff_d(v)·x^d + … + coeff_1(v)·x + v
//! ```
//!
//! Because every `coeff_j` is strictly increasing in `v` and the secret
//! evaluation points are positive, `v₁ < v₂ ⇒ p_{v₁}(xᵢ) < p_{v₂}(xᵢ)` at
//! every provider — so providers can evaluate range predicates on shares
//! without learning values. Per the paper's security analysis, a provider
//! observes only the order (plus a loose upper bound on the sum of domain
//! sizes); the keyed jitter `h_j(v) mod W` breaks the affine relation that
//! sinks the straw-man monotone-function construction.
//!
//! Arithmetic is exact (`i128`); parameter bounds below guarantee no
//! overflow for shares or for provider-side sums of up to 2³⁰ shares.

use crate::{DomainKey, SssError};
use dasp_crypto::siphash::SipHash24;
use dasp_field::{rational_basis_at_zero, rational_interpolate_at_zero, Secret};

/// Parameters of an order-preserving sharing.
///
/// Default bounds keep every share below 2⁶⁴ so i128 sums of a billion
/// shares cannot overflow: `domain_size ≤ 2³²`, `slot_bits ≤ 12`,
/// `x points ≤ 64`, `degree ≤ 3`.
#[derive(Clone)]
pub struct OpssParams {
    /// Polynomial degree d; threshold k = d + 1.
    pub degree: usize,
    /// log₂ of the slot width W.
    pub slot_bits: u32,
    /// Exclusive upper bound of the value domain.
    pub domain_size: u64,
    /// Secret evaluation points, one per provider (distinct, in [1, 64]).
    /// Client-secret exactly like field-mode X (§III): a provider that
    /// learns its point can binary-search the slotted construction.
    points: Secret<Vec<u32>>,
}

// dasp::allow(S1): sanctioned redacting impl — the points X stay hidden.
impl std::fmt::Debug for OpssParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "OpssParams(degree={}, slot_bits={}, domain_size={}, n={}, X=<redacted>)",
            self.degree,
            self.slot_bits,
            self.domain_size,
            self.n()
        )
    }
}

impl OpssParams {
    /// Validate and build. See type docs for the bounds.
    pub fn new(
        degree: usize,
        slot_bits: u32,
        domain_size: u64,
        points: Vec<u32>,
    ) -> Result<Self, SssError> {
        if degree == 0 || degree > 3 {
            return Err(SssError::BadParameters("degree must be 1..=3".into()));
        }
        if slot_bits == 0 || slot_bits > 12 {
            return Err(SssError::BadParameters("slot_bits must be 1..=12".into()));
        }
        if domain_size == 0 || domain_size > 1 << 32 {
            return Err(SssError::BadParameters(
                "domain_size must be in 1..=2^32".into(),
            ));
        }
        if points.len() <= degree {
            return Err(SssError::BadParameters(format!(
                "need at least k = {} providers for degree {degree}",
                degree + 1
            )));
        }
        for (i, &x) in points.iter().enumerate() {
            if x == 0 || x > 64 {
                return Err(SssError::BadParameters("x points must be in 1..=64".into()));
            }
            if points[..i].contains(&x) {
                return Err(SssError::BadParameters("duplicate x point".into()));
            }
        }
        Ok(OpssParams {
            degree,
            slot_bits,
            domain_size,
            points: Secret::new(points),
        })
    }

    /// Convenience: degree-1 (k=2) sharing for `n` providers with points
    /// 1, 2, …, n and a 2³² domain.
    pub fn simple(n: usize) -> Result<Self, SssError> {
        Self::new(1, 12, 1 << 32, (1..=n as u32).collect())
    }

    /// Threshold k = degree + 1.
    pub fn k(&self) -> usize {
        self.degree + 1
    }

    /// Number of providers.
    pub fn n(&self) -> usize {
        self.points.expose().len()
    }

    /// The secret evaluation point of provider `i`, if in range.
    pub fn point(&self, i: usize) -> Option<u32> {
        self.points.expose().get(i).copied()
    }

    /// Borrow the raw evaluation points. Client-side use only: the result
    /// must never be logged or serialized onto the wire.
    pub fn expose_points(&self) -> &[u32] {
        self.points.expose()
    }
}

/// An order-preserving sharer for one value domain.
#[derive(Clone)]
pub struct OpSharing {
    params: OpssParams,
    /// The per-coefficient jitter PRFs, derived once at construction.
    /// Each derivation costs an HMAC-SHA256; deriving them lazily made a
    /// single share evaluation — and hence every binary-search probe —
    /// pay `degree` HMACs. Key-derived, so wrapped like the key itself.
    prfs: Secret<Vec<SipHash24>>,
}

// dasp::allow(S1): sanctioned redacting impl — PRF state never prints.
impl std::fmt::Debug for OpSharing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OpSharing(params={:?}, prfs=<redacted>)", self.params)
    }
}

impl OpSharing {
    /// Bind parameters to a domain key.
    pub fn new(params: OpssParams, key: DomainKey) -> Self {
        let prfs = Secret::new((1..=params.degree).map(|j| key.coeff_prf(j)).collect());
        OpSharing { params, prfs }
    }

    /// The parameters.
    pub fn params(&self) -> &OpssParams {
        &self.params
    }

    /// Coefficient of the degree-`j` term for value `v` (slotted + jittered).
    fn coeff(&self, j: usize, v: u64) -> i128 {
        let w = 1u64 << self.params.slot_bits;
        let jitter = self.prfs.expose()[j - 1].hash_u64(v) & (w - 1);
        (v as i128) * (w as i128) + 1 + jitter as i128
    }

    /// The share provider `i` holds for value `v`: p_v(xᵢ).
    pub fn share_for(&self, v: u64, provider: usize) -> Result<i128, SssError> {
        if v >= self.params.domain_size {
            return Err(SssError::OutOfDomain {
                value: v,
                domain_size: self.params.domain_size,
            });
        }
        let x = self
            .params
            .point(provider)
            .ok_or(SssError::BadProviderIndex(provider))?;
        let x = x as i128;
        // Horner over coefficients coeff_d … coeff_1, constant term v.
        let mut acc = 0i128;
        for j in (1..=self.params.degree).rev() {
            acc = (acc + self.coeff(j, v)) * x;
        }
        Ok(acc + v as i128)
    }

    /// All n shares of `v`.
    pub fn share(&self, v: u64) -> Result<Vec<i128>, SssError> {
        (0..self.params.n()).map(|i| self.share_for(v, i)).collect()
    }

    /// Reconstruct `v` from a single share by binary search over the
    /// deterministic monotone construction (requires the domain key — this
    /// is the client's fast path, O(log N) share evaluations).
    pub fn reconstruct_search(
        &self,
        provider: usize,
        share: i128,
    ) -> Result<Option<u64>, SssError> {
        if provider >= self.params.n() {
            return Err(SssError::BadProviderIndex(provider));
        }
        let (mut lo, mut hi) = (0u64, self.params.domain_size - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.share_for(mid, provider)? < share {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(if self.share_for(lo, provider)? == share {
            Some(lo)
        } else {
            None
        })
    }

    /// Reconstruct from ≥ k shares by exact rational interpolation at 0
    /// (no domain key needed — also the path for reconstructing *sums* of
    /// shares, which have no slot structure). Returns `Ok(None)` when the
    /// interpolated constant term is not an integer, which signals share
    /// corruption.
    pub fn reconstruct_interpolate(
        &self,
        shares: &[(usize, i128)],
    ) -> Result<Option<i128>, SssError> {
        let k = self.params.k();
        if shares.len() < k {
            return Err(SssError::NotEnoughShares {
                needed: k,
                got: shares.len(),
            });
        }
        let mut pts = Vec::with_capacity(k);
        for &(provider, y) in &shares[..k] {
            let x = self
                .params
                .point(provider)
                .ok_or(SssError::BadProviderIndex(provider))?;
            if pts.iter().any(|&(px, _)| px == x as i128) {
                return Err(SssError::BadProviderIndex(provider));
            }
            pts.push((x as i128, y));
        }
        rational_interpolate_at_zero(&pts).map_err(|e| SssError::Arithmetic(e.to_string()))
    }

    /// Translate a client-side value range `[lo, hi]` into the share-space
    /// range provider `i` should scan — the §V-A range-query rewriting.
    pub fn range_for(&self, lo: u64, hi: u64, provider: usize) -> Result<(i128, i128), SssError> {
        if lo > hi {
            return Err(SssError::BadParameters("empty range".into()));
        }
        Ok((self.share_for(lo, provider)?, self.share_for(hi, provider)?))
    }

    // ---- batch codec ----

    /// All n shares for each value in a batch: `out[r] == self.share(vs[r])`,
    /// bit-identical. The coefficients of each value's polynomial are
    /// computed once and reused across providers; the scalar path
    /// recomputes every coefficient (one keyed hash each) per provider.
    pub fn share_batch(&self, vs: &[u64]) -> Result<Vec<Vec<i128>>, SssError> {
        let d = self.params.degree;
        let mut out = Vec::with_capacity(vs.len());
        let mut coeffs = vec![0i128; d];
        for &v in vs {
            if v >= self.params.domain_size {
                return Err(SssError::OutOfDomain {
                    value: v,
                    domain_size: self.params.domain_size,
                });
            }
            for j in 1..=d {
                coeffs[j - 1] = self.coeff(j, v);
            }
            let row: Vec<i128> = self
                .params
                .expose_points()
                .iter()
                .map(|&x| {
                    let x = x as i128;
                    let mut acc = 0i128;
                    for j in (1..=d).rev() {
                        acc = (acc + coeffs[j - 1]) * x;
                    }
                    acc + v as i128
                })
                .collect();
            out.push(row);
        }
        Ok(out)
    }

    /// Decode a batch of shares all held by the same provider. Equivalent
    /// to calling [`OpSharing::reconstruct_search`] per share, with two
    /// batch-only savings: shares are visited in sorted order so each
    /// binary search starts at the previous hit (order preservation makes
    /// the decoded values monotone in share order, so the search space
    /// only ever narrows), and exact duplicate shares are answered
    /// without searching at all. Probes are recomputed rather than
    /// memoized: a probe is one keyed hash plus a Horner step, cheaper
    /// than a hash-map round trip.
    pub fn reconstruct_search_batch(
        &self,
        provider: usize,
        shares: &[i128],
    ) -> Result<Vec<Option<u64>>, SssError> {
        if provider >= self.params.n() {
            return Err(SssError::BadProviderIndex(provider));
        }
        let mut order: Vec<usize> = (0..shares.len()).collect();
        order.sort_by_key(|&i| shares[i]);
        let mut out = vec![None; shares.len()];
        let probe = |v: u64| self.share_for(v, provider);
        let mut floor = 0u64;
        let mut last: Option<(i128, Option<u64>)> = None;
        for &i in &order {
            let target = shares[i];
            if let Some((s, hit)) = last {
                if s == target {
                    out[i] = hit; // duplicate share in the batch
                    continue;
                }
            }
            // Invariant: every value below `floor` has a share below any
            // share processed so far, so the search window shrinks as the
            // sorted batch advances.
            let (mut lo, mut hi) = (floor, self.params.domain_size - 1);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if probe(mid)? < target {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let hit = (probe(lo)? == target).then_some(lo);
            out[i] = hit;
            floor = lo;
            last = Some((target, hit));
        }
        Ok(out)
    }

    /// Precompute the integer interpolation weights for the first k of
    /// `providers` (distinct, in answer order). Weights depend only on the
    /// points X, so one basis serves every column and every batch answered
    /// by the same subset.
    pub fn basis_for(&self, providers: &[usize]) -> Result<OpBasis, SssError> {
        let k = self.params.k();
        let chosen = providers.get(..k).ok_or(SssError::NotEnoughShares {
            needed: k,
            got: providers.len(),
        })?;
        let mut xs = Vec::with_capacity(k);
        for &p in chosen {
            let x = self.params.point(p).ok_or(SssError::BadProviderIndex(p))? as i128;
            if xs.contains(&x) {
                return Err(SssError::BadProviderIndex(p));
            }
            xs.push(x);
        }
        let arithmetic = |e: dasp_field::FieldError| SssError::Arithmetic(e.to_string());
        let overflow = || SssError::Arithmetic("basis denominator overflows i128".into());
        let rational = rational_basis_at_zero(&xs).map_err(arithmetic)?;
        let den = rational
            .iter()
            .try_fold(1i128, |den, w| lcm(den, w.den()))
            .ok_or_else(overflow)?;
        let weights = rational
            .iter()
            .map(|w| w.num().checked_mul(den / w.den()))
            .collect::<Option<Vec<i128>>>()
            .ok_or_else(overflow)?;
        Ok(OpBasis {
            providers: chosen.to_vec(),
            weights,
            den,
        })
    }

    /// Decode a batch of rows answered by the providers `basis` was built
    /// for: `cols[i][r]` is the share the basis's provider `i` holds for
    /// row `r`. The result is, for every input, exactly
    /// [`OpSharing::reconstruct_search`] on the first provider's share.
    ///
    /// Each row interpolates a candidate `v` at zero (k integer
    /// multiply-adds and one exact division) and keeps it only if `v` is
    /// in the domain and `share_for(v, first provider)` equals that
    /// provider's share. Shares are strictly increasing in `v`, so a
    /// confirmed candidate is the unique value the search would find.
    /// Every other row — a corrupt or off-polynomial share, an overflow,
    /// an inexact division — is decoded by
    /// [`OpSharing::reconstruct_search_batch`] on the first share, so
    /// Byzantine shares change the cost, never the answer.
    pub fn reconstruct_batch(
        &self,
        basis: &OpBasis,
        cols: &[Vec<i128>],
    ) -> Result<Vec<Option<u64>>, SssError> {
        let needed = basis.weights.len();
        let first = cols.first().filter(|_| cols.len() >= needed);
        let (Some(&first_provider), Some(first)) = (basis.providers.first(), first) else {
            return Err(SssError::NotEnoughShares {
                needed,
                got: cols.len(),
            });
        };
        if cols.iter().any(|col| col.len() != first.len()) {
            return Err(SssError::BadParameters(
                "share columns differ in length".into(),
            ));
        }
        // Σ wᵢ·yᵢ per row, one column at a time; None once a row overflows.
        let mut sums = vec![Some(0i128); first.len()];
        for (&w, col) in basis.weights.iter().zip(cols) {
            for (sum, &y) in sums.iter_mut().zip(col) {
                *sum = sum.and_then(|s| s.checked_add(y.checked_mul(w)?));
            }
        }
        let mut out = Vec::with_capacity(first.len());
        let (mut missed_rows, mut missed_shares) = (Vec::new(), Vec::new());
        for (r, (sum, &y0)) in sums.into_iter().zip(first).enumerate() {
            let confirmed = sum
                .filter(|s| s % basis.den == 0)
                .and_then(|s| u64::try_from(s / basis.den).ok())
                .filter(|&v| self.share_for(v, first_provider).is_ok_and(|y| y == y0));
            if confirmed.is_none() {
                missed_rows.push(r);
                missed_shares.push(y0);
            }
            out.push(confirmed);
        }
        if !missed_rows.is_empty() {
            let searched = self.reconstruct_search_batch(first_provider, &missed_shares)?;
            for (r, hit) in missed_rows.into_iter().zip(searched) {
                if let Some(slot) = out.get_mut(r) {
                    *slot = hit;
                }
            }
        }
        Ok(out)
    }
}

/// Integer Lagrange-at-zero weights for one ordered set of k providers
/// over a common denominator: `p(0) = Σ weights[i]·yᵢ / den`. Built by
/// [`OpSharing::basis_for`]; the first provider confirms each candidate
/// in [`OpSharing::reconstruct_batch`]. Derived from the secret points X,
/// so it has no `Debug`.
#[derive(Clone)]
pub struct OpBasis {
    providers: Vec<usize>,
    weights: Vec<i128>,
    /// Positive: the least common multiple of the rational weights'
    /// denominators.
    den: i128,
}

/// Least common multiple of two positive integers; `None` on overflow.
fn lcm(a: i128, b: i128) -> Option<i128> {
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    (a / x).checked_mul(b)
}

/// The straw-man *monotone affine* construction the paper shows to be
/// insecure (coefficients are fixed affine functions of the secret, so one
/// cracked value reveals all). Kept for the E13 leakage ablation.
#[derive(Debug, Clone)]
pub struct AffineStrawman {
    /// Multipliers of the affine coefficient functions.
    pub slopes: [i128; 3],
    /// Offsets of the affine coefficient functions.
    pub offsets: [i128; 3],
}

impl AffineStrawman {
    /// The paper's example: f_a(v)=3v+10, f_b(v)=v+27, f_c(v)=5v+1.
    pub fn paper_example() -> Self {
        AffineStrawman {
            slopes: [5, 1, 3],
            offsets: [1, 27, 10],
        }
    }

    /// Share of value `v` at point `x` — reduces to `A·v + B` with
    /// constants A, B shared by *all* values, the paper's break.
    pub fn share_for(&self, v: u64, x: u32) -> i128 {
        let x = x as i128;
        let v = v as i128;
        let ([a1, a2, a3], [b1, b2, b3]) = (self.slopes, self.offsets);
        let (c1, c2, c3) = (a1 * v + b1, a2 * v + b2, a3 * v + b3);
        c3 * x * x * x + c2 * x * x + c1 * x + v
    }

    /// The affine break: recover v₂ from one known (v₁, share₁) pair and
    /// share₂, using share = A·v + B.
    pub fn break_with_known_pair(&self, x: u32, v1: u64, share2: i128) -> i128 {
        let x = x as i128;
        let a = self.slopes[2] * x * x * x + self.slopes[1] * x * x + self.slopes[0] * x + 1;
        let b = self.offsets[2] * x * x * x + self.offsets[1] * x * x + self.offsets[0] * x;
        let _ = v1; // the pair is only needed to *confirm* A and B
        (share2 - b) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sharing(degree: usize) -> OpSharing {
        let params = OpssParams::new(degree, 12, 1 << 20, vec![2, 4, 1, 7, 11]).unwrap();
        OpSharing::new(params, DomainKey::derive(b"master", "salary"))
    }

    #[test]
    fn params_validation() {
        assert!(OpssParams::new(0, 12, 100, vec![1, 2]).is_err());
        assert!(OpssParams::new(4, 12, 100, vec![1, 2, 3, 4, 5]).is_err());
        assert!(OpssParams::new(1, 0, 100, vec![1, 2]).is_err());
        assert!(OpssParams::new(1, 13, 100, vec![1, 2]).is_err());
        assert!(OpssParams::new(1, 12, 0, vec![1, 2]).is_err());
        assert!(OpssParams::new(1, 12, 100, vec![1]).is_err(), "k > n");
        assert!(OpssParams::new(1, 12, 100, vec![1, 1]).is_err(), "dup x");
        assert!(OpssParams::new(1, 12, 100, vec![0, 1]).is_err(), "x = 0");
        assert!(OpssParams::new(1, 12, 100, vec![65, 1]).is_err(), "x > 64");
    }

    #[test]
    fn order_preserved_at_every_provider() {
        let s = sharing(3);
        for provider in 0..5 {
            let mut prev = None;
            for v in (0..5000u64).step_by(7) {
                let share = s.share_for(v, provider).unwrap();
                if let Some(p) = prev {
                    assert!(share > p, "provider={provider} v={v}");
                }
                prev = Some(share);
            }
        }
    }

    #[test]
    fn equal_values_equal_shares() {
        let s = sharing(2);
        assert_eq!(s.share(777).unwrap(), s.share(777).unwrap());
    }

    #[test]
    fn out_of_domain_rejected() {
        let s = sharing(1);
        assert!(matches!(
            s.share_for(1 << 20, 0),
            Err(SssError::OutOfDomain { .. })
        ));
    }

    #[test]
    fn search_reconstruction_roundtrip() {
        let s = sharing(3);
        for v in [0u64, 1, 531, 99_999, (1 << 20) - 1] {
            for provider in 0..5 {
                let share = s.share_for(v, provider).unwrap();
                assert_eq!(s.reconstruct_search(provider, share).unwrap(), Some(v));
            }
        }
    }

    #[test]
    fn search_rejects_non_shares() {
        let s = sharing(2);
        let share = s.share_for(1000, 0).unwrap();
        assert_eq!(s.reconstruct_search(0, share + 1).unwrap(), None);
    }

    #[test]
    fn interpolation_reconstruction_roundtrip() {
        let s = sharing(3); // k = 4
        for v in [0u64, 42, 123_456] {
            let shares = s.share(v).unwrap();
            let pairs: Vec<(usize, i128)> =
                shares.iter().enumerate().map(|(i, &y)| (i, y)).collect();
            assert_eq!(s.reconstruct_interpolate(&pairs).unwrap(), Some(v as i128));
            // A different k-subset also works.
            let subset = [pairs[4], pairs[2], pairs[1], pairs[3]];
            assert_eq!(s.reconstruct_interpolate(&subset).unwrap(), Some(v as i128));
        }
    }

    #[test]
    fn interpolation_needs_k_shares() {
        let s = sharing(2); // k = 3
        let shares = s.share(5).unwrap();
        let pairs: Vec<(usize, i128)> = shares.iter().enumerate().map(|(i, &y)| (i, y)).collect();
        assert!(matches!(
            s.reconstruct_interpolate(&pairs[..2]),
            Err(SssError::NotEnoughShares { needed: 3, got: 2 })
        ));
    }

    #[test]
    fn corrupted_share_detected_as_non_integer_or_wrong() {
        let s = sharing(3);
        let mut shares = s.share(9999).unwrap();
        shares[0] += 1;
        let pairs: Vec<(usize, i128)> = shares.iter().enumerate().map(|(i, &y)| (i, y)).collect();
        let got = s.reconstruct_interpolate(&pairs).unwrap();
        assert_ne!(got, Some(9999), "corruption must not reconstruct cleanly");
    }

    #[test]
    fn additive_homomorphism_for_sums() {
        // Server-side SUM (§V-A): sum shares per provider, interpolate once.
        let s = sharing(3);
        let values = [10u64, 20, 40, 60, 80, 123, 999_983];
        let mut sums = vec![0i128; s.params().n()];
        for &v in &values {
            for (i, y) in s.share(v).unwrap().into_iter().enumerate() {
                sums[i] += y;
            }
        }
        let pairs: Vec<(usize, i128)> = sums.iter().enumerate().map(|(i, &y)| (i, y)).collect();
        let total: u64 = values.iter().sum();
        assert_eq!(
            s.reconstruct_interpolate(&pairs).unwrap(),
            Some(total as i128)
        );
    }

    #[test]
    fn range_rewriting_bounds_are_shares() {
        let s = sharing(1);
        let (lo, hi) = s.range_for(100, 500, 2).unwrap();
        assert_eq!(lo, s.share_for(100, 2).unwrap());
        assert_eq!(hi, s.share_for(500, 2).unwrap());
        assert!(s.range_for(500, 100, 2).is_err());
        // Every in-range value's share falls inside the rewritten bounds.
        for v in [100u64, 101, 250, 499, 500] {
            let y = s.share_for(v, 2).unwrap();
            assert!(y >= lo && y <= hi);
        }
        // And out-of-range values fall outside.
        for v in [0u64, 99, 501, 10_000] {
            let y = s.share_for(v, 2).unwrap();
            assert!(y < lo || y > hi);
        }
    }

    #[test]
    fn different_keys_give_unrelated_jitter() {
        let params = OpssParams::new(1, 12, 1 << 20, vec![3, 5]).unwrap();
        let a = OpSharing::new(params.clone(), DomainKey::derive(b"m", "a"));
        let b = OpSharing::new(params, DomainKey::derive(b"m", "b"));
        let diff = (0..200u64)
            .filter(|&v| a.share_for(v, 0).unwrap() != b.share_for(v, 0).unwrap())
            .count();
        assert!(diff > 150, "only {diff} of 200 differ");
    }

    #[test]
    fn strawman_break_recovers_all_secrets() {
        // The paper's §IV negative result: with affine coefficient
        // functions, cracking one (value, share) pair reveals every value.
        let straw = AffineStrawman::paper_example();
        let x = 9;
        let known_v = 1234u64;
        for target in [0u64, 7, 500, 99_999] {
            let share = straw.share_for(target, x);
            let recovered = straw.break_with_known_pair(x, known_v, share);
            assert_eq!(recovered, target as i128);
        }
    }

    #[test]
    fn slotted_scheme_resists_the_affine_break() {
        // Applying the same affine inversion to the slotted scheme fails:
        // shares are not an affine function of v.
        let s = sharing(3);
        let xs: Vec<i128> = (0..4).map(|v| s.share_for(v, 0).unwrap()).collect();
        let d1 = xs[1] - xs[0];
        let d2 = xs[2] - xs[1];
        let d3 = xs[3] - xs[2];
        assert!(
            !(d1 == d2 && d2 == d3),
            "consecutive share gaps must not be constant"
        );
    }

    #[test]
    fn share_batch_matches_scalar() {
        let s = sharing(2);
        let vs = [0u64, 1, 531, 531, 99_999, (1 << 20) - 1];
        let batch = s.share_batch(&vs).unwrap();
        for (r, &v) in vs.iter().enumerate() {
            assert_eq!(batch[r], s.share(v).unwrap(), "row {r}");
        }
        assert!(matches!(
            s.share_batch(&[5, 1 << 20]),
            Err(SssError::OutOfDomain { .. })
        ));
        assert!(s.share_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn search_batch_handles_boundaries_duplicates_and_non_shares() {
        let s = sharing(3);
        let max = (1 << 20) - 1;
        // Domain boundaries, duplicates in one batch, and out-of-order input.
        let vs = [max, 0u64, 777, 0, max, 777];
        for provider in 0..5 {
            let shares: Vec<i128> = vs
                .iter()
                .map(|&v| s.share_for(v, provider).unwrap())
                .collect();
            let got = s.reconstruct_search_batch(provider, &shares).unwrap();
            let want: Vec<Option<u64>> = vs.iter().map(|&v| Some(v)).collect();
            assert_eq!(got, want, "provider {provider}");
        }
        // Non-share inputs decode to None without disturbing neighbours,
        // exactly like the scalar search.
        let good = s.share_for(1000, 0).unwrap();
        let mixed = [good + 1, good, good - 1, i128::MAX / 2, 0];
        let got = s.reconstruct_search_batch(0, &mixed).unwrap();
        for (i, (&share, &hit)) in mixed.iter().zip(&got).enumerate() {
            assert_eq!(
                hit,
                s.reconstruct_search(0, share).unwrap(),
                "index {i} diverges from scalar search"
            );
        }
        assert_eq!(got[1], Some(1000));
        // Bad provider and empty batch.
        assert!(matches!(
            s.reconstruct_search_batch(9, &[0]),
            Err(SssError::BadProviderIndex(9))
        ));
        assert!(s.reconstruct_search_batch(0, &[]).unwrap().is_empty());
    }

    #[test]
    fn basis_for_validates_subsets() {
        let s = sharing(2); // k = 3
        assert!(matches!(
            s.basis_for(&[0, 1]),
            Err(SssError::NotEnoughShares { needed: 3, got: 2 })
        ));
        assert!(matches!(
            s.basis_for(&[0, 1, 9]),
            Err(SssError::BadProviderIndex(9))
        ));
        assert!(matches!(
            s.basis_for(&[0, 1, 1]),
            Err(SssError::BadProviderIndex(1))
        ));
        // Providers beyond k are not part of the basis.
        assert_eq!(s.basis_for(&[0, 1, 2, 9]).unwrap().weights.len(), 3);
    }

    /// `cols[i][r]`: the share `providers[i]` holds for `vs[r]`.
    fn share_cols(s: &OpSharing, providers: &[usize], vs: &[u64]) -> Vec<Vec<i128>> {
        providers
            .iter()
            .map(|&p| vs.iter().map(|&v| s.share_for(v, p).unwrap()).collect())
            .collect()
    }

    /// What the batch decode must return: the search on the first share.
    fn searched(s: &OpSharing, provider: usize, first: &[i128]) -> Vec<Option<u64>> {
        first
            .iter()
            .map(|&y| s.reconstruct_search(provider, y).unwrap())
            .collect()
    }

    #[test]
    fn batch_decode_matches_search_and_flags_corruption() {
        let s = sharing(2); // k = 3
        let providers = [4usize, 1, 3];
        let max = (1 << 20) - 1;
        let vs = [0u64, 42, 123_456, max, 42, 777];
        let basis = s.basis_for(&providers).unwrap();
        let mut cols = share_cols(&s, &providers, &vs);
        cols[0][2] += 1; // the confirming share: the search finds nothing
        cols[1][4] -= 1; // a later share: interpolation misses, search recovers
        cols[0][5] = i128::MAX; // forces the overflow fallback
        cols[1][5] = i128::MAX;
        let got = s.reconstruct_batch(&basis, &cols).unwrap();
        assert_eq!(got, searched(&s, providers[0], &cols[0]));
        assert_eq!(got, [Some(0), Some(42), None, Some(max), Some(42), None]);
        // Short or ragged input is an error, never a silent misdecode.
        assert!(matches!(
            s.reconstruct_batch(&basis, &cols[..2]),
            Err(SssError::NotEnoughShares { needed: 3, got: 2 })
        ));
        cols[2].pop();
        assert!(matches!(
            s.reconstruct_batch(&basis, &cols),
            Err(SssError::BadParameters(_))
        ));
        assert!(s
            .reconstruct_batch(&basis, &[vec![], vec![], vec![]])
            .unwrap()
            .is_empty());
    }

    proptest! {
        #[test]
        fn prop_share_batch_bit_identical_to_scalar(
            vs in proptest::collection::vec(0u64..1 << 20, 0..40),
            degree in 1usize..=3,
        ) {
            let s = sharing(degree);
            let batch = s.share_batch(&vs).unwrap();
            for (row, &v) in batch.iter().zip(&vs) {
                prop_assert_eq!(row, &s.share(v).unwrap());
            }
        }

        #[test]
        fn prop_search_batch_matches_scalar_search(
            vs in proptest::collection::vec(0u64..1 << 20, 1..40),
            noise in proptest::collection::vec(-3i128..=3, 1..40),
            provider in 0usize..5,
        ) {
            let s = sharing(2);
            // Mix genuine shares with near-miss perturbations.
            let shares: Vec<i128> = vs
                .iter()
                .zip(noise.iter().cycle())
                .map(|(&v, &d)| s.share_for(v, provider).unwrap() + d)
                .collect();
            let batch = s.reconstruct_search_batch(provider, &shares).unwrap();
            for (&share, &hit) in shares.iter().zip(&batch) {
                prop_assert_eq!(hit, s.reconstruct_search(provider, share).unwrap());
            }
        }

        /// The batch decode equals the per-row search on the first share
        /// for every degree, every provider order, and honest, perturbed,
        /// off-polynomial and overflowing rows alike.
        #[test]
        fn prop_batch_decode_matches_search(
            degree in 1usize..=3,
            seed in any::<u64>(),
            rows in proptest::collection::vec(
                (0u8..4, 0u64..1 << 20, 0u8..4, 0usize..4, -5i128..=5),
                1..40,
            ),
        ) {
            use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
            let s = sharing(degree);
            let k = degree + 1;
            let mut providers = vec![0usize, 1, 2, 3, 4];
            providers.shuffle(&mut StdRng::seed_from_u64(seed));
            providers.truncate(k);
            // Domain ends and a repeated value, besides uniform draws.
            let vs: Vec<u64> = rows
                .iter()
                .map(|&(pick, v, ..)| [0, (1 << 20) - 1, 531, v][pick as usize])
                .collect();
            let mut cols = share_cols(&s, &providers, &vs);
            for (r, &(_, _, kind, slot, delta)) in rows.iter().enumerate() {
                let delta = if delta == 0 { 1 } else { delta };
                match kind {
                    // Any one share perturbed, the confirming one included.
                    1 => cols[slot % k][r] += delta,
                    // Off-polynomial: every share moved by a different amount.
                    2 => {
                        for (i, col) in cols.iter_mut().enumerate() {
                            col[r] += delta * (i as i128 + 1) * (i as i128 + 2);
                        }
                    }
                    // Near i128::MAX: the weighted sum overflows.
                    3 => {
                        for (i, col) in cols.iter_mut().enumerate() {
                            col[r] = i128::MAX - delta.abs() * i as i128;
                        }
                    }
                    _ => {}
                }
            }
            let basis = s.basis_for(&providers).unwrap();
            let got = s.reconstruct_batch(&basis, &cols).unwrap();
            prop_assert_eq!(got, searched(&s, providers[0], &cols[0]));
        }
    }

    proptest! {
        #[test]
        fn prop_order_preservation(a in 0u64..1 << 20, b in 0u64..1 << 20) {
            let s = sharing(2);
            for provider in 0..3 {
                let sa = s.share_for(a, provider).unwrap();
                let sb = s.share_for(b, provider).unwrap();
                prop_assert_eq!(a.cmp(&b), sa.cmp(&sb));
            }
        }

        #[test]
        fn prop_search_and_interpolation_agree(v in 0u64..1 << 20) {
            let s = sharing(1); // k = 2
            let shares = s.share(v).unwrap();
            let by_search = s.reconstruct_search(0, shares[0]).unwrap();
            let pairs: Vec<(usize, i128)> =
                shares.iter().enumerate().map(|(i, &y)| (i, y)).collect();
            let by_interp = s.reconstruct_interpolate(&pairs).unwrap();
            prop_assert_eq!(by_search, Some(v));
            prop_assert_eq!(by_interp, Some(v as i128));
        }

        #[test]
        fn prop_shares_fit_u64_bound(v in 0u64..(1u64 << 32) - 1) {
            // The documented no-overflow bound: shares stay below 2^64.
            let params = OpssParams::new(3, 12, 1 << 32, vec![64, 63, 62, 61]).unwrap();
            let s = OpSharing::new(params, DomainKey::derive(b"m", "d"));
            for provider in 0..4 {
                let y = s.share_for(v, provider).unwrap();
                prop_assert!(y >= 0);
                prop_assert!(y < 1i128 << 64, "share {y} too large");
            }
        }
    }
}
