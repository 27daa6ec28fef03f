//! Shamir sharing over GF(2⁶¹−1): random and deterministic modes.
//!
//! The sharing polynomial has degree k−1 and the secret as constant term
//! (§III). Evaluation points X = {x₁…xₙ} are part of the client's secret:
//! providers never learn at which x their share was evaluated, which is
//! what makes even k colluding providers unable to interpolate without X.

use crate::{DomainKey, SssError};
use dasp_crypto::siphash::SipHash24;
use dasp_field::{lagrange_apply, lagrange_at_zero, lagrange_basis_at_zero, Fp, Poly, Secret};
use rand::Rng;

/// The client-secret evaluation points X = {x₁…xₙ} (§III), one per
/// provider.
///
/// X is the linchpin of the scheme's secrecy: providers never learn at
/// which x their share was evaluated, so even k colluding providers cannot
/// interpolate without it. The vector is therefore held behind [`Secret`]
/// — it cannot leak through `Debug`, `Display`, or a log line, and the few
/// client-side sites that need raw coordinates go through the explicit,
/// greppable [`EvalPoints::expose`].
#[derive(Clone)]
pub struct EvalPoints(Secret<Vec<Fp>>);

impl EvalPoints {
    /// Wrap a point vector (validation is the caller's job —
    /// [`FieldSharing::new`] checks distinctness and non-zeroness).
    pub fn new(points: Vec<Fp>) -> Self {
        EvalPoints(Secret::new(points))
    }

    /// Number of providers n.
    pub fn len(&self) -> usize {
        self.0.expose().len()
    }

    /// True iff no points are held.
    pub fn is_empty(&self) -> bool {
        self.0.expose().is_empty()
    }

    /// The evaluation point of provider `i`, if in range.
    pub fn get(&self, i: usize) -> Option<Fp> {
        self.0.expose().get(i).copied()
    }

    /// Borrow the raw coordinates. Client-side use only: the result must
    /// never be logged or serialized onto the wire.
    pub fn expose(&self) -> &[Fp] {
        self.0.expose()
    }
}

// dasp::allow(S1): sanctioned redacting impl — only the count is shown.
impl std::fmt::Debug for EvalPoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EvalPoints(n={}, X=<redacted>)", self.len())
    }
}

/// One provider's share of a field-mode value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldShare {
    /// Index of the provider (position in the client's X vector).
    pub provider: usize,
    /// The share value q(xᵢ).
    pub y: Fp,
}

/// The coefficient PRFs of one domain's deterministic polynomials,
/// derived once by [`FieldSharing::coeff_prfs`] for the configuration
/// that evaluates them. Key-derived, so held like the key itself.
#[derive(Clone)]
pub struct CoeffPrfs(Secret<Vec<SipHash24>>);

// dasp::allow(S1): sanctioned redacting impl — PRF state never prints.
impl std::fmt::Debug for CoeffPrfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CoeffPrfs(..)")
    }
}

/// A (k, n) Shamir configuration over GF(p) with client-secret points X.
#[derive(Clone)]
pub struct FieldSharing {
    k: usize,
    points: EvalPoints,
}

// dasp::allow(S1): sanctioned redacting impl — the points X stay hidden.
impl std::fmt::Debug for FieldSharing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FieldSharing(k={}, n={}, X=<redacted>)",
            self.k,
            self.n()
        )
    }
}

impl FieldSharing {
    /// Create a configuration with threshold `k` and the given evaluation
    /// points (one per provider, all distinct and non-zero).
    pub fn new(k: usize, points: Vec<Fp>) -> Result<Self, SssError> {
        let n = points.len();
        if k == 0 || k > n {
            return Err(SssError::BadParameters(format!("k={k} must be in 1..={n}")));
        }
        for (i, a) in points.iter().enumerate() {
            if a.is_zero() {
                return Err(SssError::BadParameters("x point must be non-zero".into()));
            }
            if points[..i].contains(a) {
                return Err(SssError::BadParameters("duplicate x point".into()));
            }
        }
        Ok(FieldSharing {
            k,
            points: EvalPoints::new(points),
        })
    }

    /// Sample `n` fresh random distinct points and build a configuration.
    pub fn generate<R: Rng + ?Sized>(k: usize, n: usize, rng: &mut R) -> Result<Self, SssError> {
        let mut points = Vec::with_capacity(n);
        while points.len() < n {
            let x = Fp::random_nonzero(rng);
            if !points.contains(&x) {
                points.push(x);
            }
        }
        Self::new(k, points)
    }

    /// Threshold k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of providers n.
    pub fn n(&self) -> usize {
        self.points.len()
    }

    /// The secret evaluation point of provider `i`.
    pub fn point(&self, i: usize) -> Result<Fp, SssError> {
        self.points.get(i).ok_or(SssError::BadProviderIndex(i))
    }

    /// Split `secret` with a *fresh random* polynomial ([`crate::ShareMode::Random`]).
    pub fn split_random<R: Rng + ?Sized>(&self, secret: Fp, rng: &mut R) -> Vec<FieldShare> {
        let poly = Poly::random_with_secret(secret, self.k - 1, rng);
        self.eval_all(&poly)
    }

    /// The coefficient PRFs of `key`'s deterministic polynomials, one per
    /// coefficient above the constant term. Each is an HMAC-SHA256
    /// derivation, which costs more than evaluating a polynomial, so a
    /// caller that shares or rewrites in one domain many times derives
    /// them once here and passes them to the `_with` entry points.
    pub fn coeff_prfs(&self, key: &DomainKey) -> CoeffPrfs {
        CoeffPrfs(Secret::new((1..self.k).map(|j| key.coeff_prf(j)).collect()))
    }

    /// Split `secret` with the *deterministic* PRF-derived polynomial for
    /// its domain ([`crate::ShareMode::Deterministic`]): the same (key,
    /// value) pair always produces the same shares, so the client can
    /// recompute a share to rewrite an exact-match query (§V-A).
    pub fn split_deterministic(&self, secret: u64, key: &DomainKey) -> Vec<FieldShare> {
        self.split_deterministic_with(secret, &self.coeff_prfs(key))
    }

    /// [`split_deterministic`](Self::split_deterministic) with the
    /// domain's PRFs already derived by [`coeff_prfs`](Self::coeff_prfs).
    pub fn split_deterministic_with(&self, secret: u64, prfs: &CoeffPrfs) -> Vec<FieldShare> {
        self.eval_all(&self.deterministic_poly_with(secret, prfs))
    }

    /// The share provider `i` would hold for `secret` under deterministic
    /// mode — used for query rewriting without touching stored data.
    pub fn deterministic_share(
        &self,
        secret: u64,
        key: &DomainKey,
        provider: usize,
    ) -> Result<Fp, SssError> {
        self.deterministic_share_with(secret, &self.coeff_prfs(key), provider)
    }

    /// [`deterministic_share`](Self::deterministic_share) with the
    /// domain's PRFs already derived by [`coeff_prfs`](Self::coeff_prfs).
    pub fn deterministic_share_with(
        &self,
        secret: u64,
        prfs: &CoeffPrfs,
        provider: usize,
    ) -> Result<Fp, SssError> {
        let x = self.point(provider)?;
        Ok(self.deterministic_poly_with(secret, prfs).eval(x))
    }

    fn deterministic_poly_with(&self, secret: u64, prfs: &CoeffPrfs) -> Poly {
        let mut coeffs = Vec::with_capacity(self.k);
        coeffs.push(Fp::from_u64(secret));
        for (j, prf) in prfs.0.expose().iter().enumerate() {
            // Two PRF outputs folded to cover the 61-bit field closely; the
            // tiny bias is irrelevant for a deterministic index.
            let raw = prf.hash_u64(secret);
            let mut c = Fp::from_u64(raw);
            if j + 1 == self.k - 1 && c.is_zero() {
                c = Fp::ONE; // keep the polynomial at full degree
            }
            coeffs.push(c);
        }
        Poly::new(coeffs)
    }

    fn eval_all(&self, poly: &Poly) -> Vec<FieldShare> {
        self.points
            .expose()
            .iter()
            .enumerate()
            .map(|(provider, &x)| FieldShare {
                provider,
                y: poly.eval(x),
            })
            .collect()
    }

    /// Reconstruct the secret from at least `k` shares.
    pub fn reconstruct(&self, shares: &[FieldShare]) -> Result<Fp, SssError> {
        if shares.len() < self.k {
            return Err(SssError::NotEnoughShares {
                needed: self.k,
                got: shares.len(),
            });
        }
        let mut pts = Vec::with_capacity(self.k);
        for s in &shares[..self.k] {
            let x = self.point(s.provider)?;
            if pts.iter().any(|&(px, _)| px == x) {
                return Err(SssError::BadProviderIndex(s.provider));
            }
            pts.push((x, s.y));
        }
        lagrange_at_zero(&pts).map_err(|e| SssError::Arithmetic(e.to_string()))
    }

    /// Reconstruct and cross-check: uses *all* provided shares, verifying
    /// every k-subset agrees. Detects a corrupted share (Byzantine
    /// provider) whenever at least k honest shares are present.
    pub fn reconstruct_checked(&self, shares: &[FieldShare]) -> Result<Fp, SssError> {
        let first = self.reconstruct(shares)?;
        // Verify each extra share lies on the interpolated polynomial by
        // re-reconstructing with it swapped in.
        for i in self.k..shares.len() {
            let mut subset: Vec<FieldShare> = shares[..self.k - 1].to_vec();
            subset.push(shares[i]);
            if self.reconstruct(&subset)? != first {
                return Err(SssError::InconsistentShares);
            }
        }
        Ok(first)
    }

    // ---- batch codec ----

    /// Split a batch of secrets with fresh random polynomials
    /// ([`crate::ShareMode::Random`]). Consumes the RNG in the same order
    /// as the scalar loop, so the output is bit-identical to calling
    /// [`FieldSharing::split_random`] per secret.
    pub fn split_random_batch<R: Rng + ?Sized>(
        &self,
        secrets: &[Fp],
        rng: &mut R,
    ) -> Vec<Vec<FieldShare>> {
        secrets.iter().map(|&s| self.split_random(s, rng)).collect()
    }

    /// Split a batch of secrets in deterministic mode: bit-identical to
    /// calling [`FieldSharing::split_deterministic`] per secret, with the
    /// PRFs derived once for the whole batch.
    pub fn split_deterministic_batch(
        &self,
        secrets: &[u64],
        key: &DomainKey,
    ) -> Vec<Vec<FieldShare>> {
        self.split_deterministic_batch_with(secrets, &self.coeff_prfs(key))
    }

    /// [`split_deterministic_batch`](Self::split_deterministic_batch)
    /// with the domain's PRFs already derived by
    /// [`coeff_prfs`](Self::coeff_prfs).
    pub fn split_deterministic_batch_with(
        &self,
        secrets: &[u64],
        prfs: &CoeffPrfs,
    ) -> Vec<Vec<FieldShare>> {
        secrets
            .iter()
            .map(|&s| self.split_deterministic_with(s, prfs))
            .collect()
    }

    /// Precompute reconstruction weights for a fixed provider subset.
    ///
    /// `providers` must hold at least k distinct indices; providers beyond
    /// the first k become cross-checks, exactly as in
    /// [`FieldSharing::reconstruct_checked`].
    pub fn basis_for(&self, providers: &[usize]) -> Result<FieldBasis, SssError> {
        if providers.len() < self.k {
            return Err(SssError::NotEnoughShares {
                needed: self.k,
                got: providers.len(),
            });
        }
        let mut xs = Vec::with_capacity(providers.len());
        for &p in providers {
            let x = self.point(p)?;
            if xs.contains(&x) {
                return Err(SssError::BadProviderIndex(p));
            }
            xs.push(x);
        }
        let primary = lagrange_basis_at_zero(&xs[..self.k])
            .map_err(|e| SssError::Arithmetic(e.to_string()))?;
        let mut swaps = Vec::with_capacity(providers.len() - self.k);
        for extra in &xs[self.k..] {
            let mut sub: Vec<Fp> = xs[..self.k - 1].to_vec();
            sub.push(*extra);
            swaps.push(
                lagrange_basis_at_zero(&sub).map_err(|e| SssError::Arithmetic(e.to_string()))?,
            );
        }
        Ok(FieldBasis {
            k: self.k,
            primary,
            swaps,
        })
    }

    /// Reconstruct a batch of rows all shared by the same provider subset:
    /// one basis solve plus one dot product per row, with any shares
    /// beyond k cross-checked per row. Semantically equivalent to calling
    /// [`FieldSharing::reconstruct_checked`] on each row with the shares
    /// ordered like `providers`.
    ///
    /// `rows[r][i]` is the share provider `providers[i]` holds for row `r`.
    pub fn reconstruct_batch(
        &self,
        providers: &[usize],
        rows: &[Vec<Fp>],
    ) -> Result<Vec<Fp>, SssError> {
        let basis = self.basis_for(providers)?;
        rows.iter().map(|ys| basis.reconstruct_row(ys)).collect()
    }
}

/// Precomputed Lagrange-at-zero weights for one provider subset (built by
/// [`FieldSharing::basis_for`]), including swap bases for cross-checking
/// shares beyond the threshold. Reusing one basis across a whole batch —
/// or across queries hitting the same provider subset — replaces the
/// per-row O(k²) interpolation with a k-term dot product.
#[derive(Debug, Clone)]
pub struct FieldBasis {
    k: usize,
    /// Weights for the first k providers of the subset.
    primary: Vec<Fp>,
    /// For each extra provider `i` (subset position k+j): weights for the
    /// subset {first k−1 providers, provider i}, used to verify the extra
    /// share lies on the same polynomial.
    swaps: Vec<Vec<Fp>>,
}

impl FieldBasis {
    /// Number of providers this basis covers (k + extras).
    pub fn len(&self) -> usize {
        self.k + self.swaps.len()
    }

    /// A basis always covers at least one provider.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Reconstruct one row from shares ordered like the subset the basis
    /// was built from. Shares beyond k are cross-checked; a disagreement
    /// is [`SssError::InconsistentShares`].
    pub fn reconstruct_row(&self, ys: &[Fp]) -> Result<Fp, SssError> {
        if ys.len() < self.len() {
            return Err(SssError::NotEnoughShares {
                needed: self.len(),
                got: ys.len(),
            });
        }
        let first = lagrange_apply(&self.primary, &ys[..self.k]);
        for (swap, &extra) in self.swaps.iter().zip(&ys[self.k..]) {
            let head = lagrange_apply(&swap[..self.k - 1], &ys[..self.k - 1]);
            if head + extra * swap[self.k - 1] != first {
                return Err(SssError::InconsistentShares);
            }
        }
        Ok(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn fig1_sharing() -> FieldSharing {
        // Figure 1: n = 3, k = 2, X = {2, 4, 1}.
        FieldSharing::new(2, vec![Fp::from_u64(2), Fp::from_u64(4), Fp::from_u64(1)]).unwrap()
    }

    /// Reproduces the paper's Figure 1 exactly: salaries {10,20,40,60,80}
    /// shared with q10(x)=100x+10 … q80(x)=4x+80 yield the share columns
    /// shown in the figure, and any 2 providers reconstruct.
    #[test]
    fn figure1_share_table() {
        let sharing = fig1_sharing();
        // The paper fixes the random coefficients; we emulate by evaluating
        // the same polynomials directly.
        let polys: &[(u64, u64)] = &[(10, 100), (20, 5), (40, 1), (60, 2), (80, 4)];
        let expected_das1 = [210u64, 30, 42, 64, 88]; // x = 2
        let expected_das2 = [410u64, 40, 44, 68, 96]; // x = 4
        let expected_das3 = [110u64, 25, 41, 62, 84]; // x = 1
        for (row, &(salary, slope)) in polys.iter().enumerate() {
            let poly = dasp_field::Poly::new(vec![Fp::from_u64(salary), Fp::from_u64(slope)]);
            let s1 = poly.eval(Fp::from_u64(2)).to_u64();
            let s2 = poly.eval(Fp::from_u64(4)).to_u64();
            let s3 = poly.eval(Fp::from_u64(1)).to_u64();
            assert_eq!(s1, expected_das1[row]);
            assert_eq!(s2, expected_das2[row]);
            assert_eq!(s3, expected_das3[row]);
            // Any 2 of 3 shares reconstruct the salary.
            for pair in [(0usize, 1usize), (0, 2), (1, 2)] {
                let shares = [
                    FieldShare {
                        provider: pair.0,
                        y: Fp::from_u64([s1, s2, s3][pair.0]),
                    },
                    FieldShare {
                        provider: pair.1,
                        y: Fp::from_u64([s1, s2, s3][pair.1]),
                    },
                ];
                assert_eq!(sharing.reconstruct(&shares).unwrap(), Fp::from_u64(salary));
            }
        }
    }

    #[test]
    fn bad_parameters_rejected() {
        assert!(FieldSharing::new(0, vec![Fp::from_u64(1)]).is_err());
        assert!(FieldSharing::new(2, vec![Fp::from_u64(1)]).is_err());
        assert!(FieldSharing::new(1, vec![Fp::ZERO]).is_err());
        assert!(
            FieldSharing::new(1, vec![Fp::from_u64(3), Fp::from_u64(3)]).is_err(),
            "duplicate points"
        );
    }

    #[test]
    fn random_split_reconstructs_with_any_k_subset() {
        let mut rng = StdRng::seed_from_u64(11);
        let sharing = FieldSharing::generate(3, 5, &mut rng).unwrap();
        let secret = Fp::from_u64(123_456);
        let shares = sharing.split_random(secret, &mut rng);
        for a in 0..5 {
            for b in (a + 1)..5 {
                for c in (b + 1)..5 {
                    let subset = [shares[a], shares[b], shares[c]];
                    assert_eq!(sharing.reconstruct(&subset).unwrap(), secret);
                }
            }
        }
    }

    #[test]
    fn too_few_shares_fail() {
        let mut rng = StdRng::seed_from_u64(12);
        let sharing = FieldSharing::generate(3, 5, &mut rng).unwrap();
        let shares = sharing.split_random(Fp::from_u64(9), &mut rng);
        assert!(matches!(
            sharing.reconstruct(&shares[..2]),
            Err(SssError::NotEnoughShares { needed: 3, got: 2 })
        ));
    }

    #[test]
    fn duplicate_provider_rejected() {
        let mut rng = StdRng::seed_from_u64(13);
        let sharing = FieldSharing::generate(2, 3, &mut rng).unwrap();
        let shares = sharing.split_random(Fp::from_u64(9), &mut rng);
        let dup = [shares[0], shares[0]];
        assert!(sharing.reconstruct(&dup).is_err());
    }

    #[test]
    fn deterministic_shares_are_stable_and_equality_preserving() {
        let mut rng = StdRng::seed_from_u64(14);
        let sharing = FieldSharing::generate(2, 3, &mut rng).unwrap();
        let key = DomainKey::derive(b"master", "salary");
        let a = sharing.split_deterministic(20, &key);
        let b = sharing.split_deterministic(20, &key);
        let c = sharing.split_deterministic(30, &key);
        assert_eq!(a, b, "same value, same shares");
        for (i, (sa, sc)) in a.iter().zip(&c).enumerate() {
            assert_ne!(sa.y, sc.y, "different values differ at provider {i}");
        }
        // Query rewriting path matches stored shares.
        for (i, share) in a.iter().enumerate() {
            assert_eq!(sharing.deterministic_share(20, &key, i).unwrap(), share.y);
        }
        // And it reconstructs.
        assert_eq!(sharing.reconstruct(&a).unwrap(), Fp::from_u64(20));
    }

    #[test]
    fn reconstruct_checked_detects_corruption() {
        let mut rng = StdRng::seed_from_u64(15);
        let sharing = FieldSharing::generate(2, 4, &mut rng).unwrap();
        let mut shares = sharing.split_random(Fp::from_u64(555), &mut rng);
        assert_eq!(
            sharing.reconstruct_checked(&shares).unwrap(),
            Fp::from_u64(555)
        );
        shares[3].y += Fp::ONE; // corrupt one share
        assert_eq!(
            sharing.reconstruct_checked(&shares),
            Err(SssError::InconsistentShares)
        );
    }

    #[test]
    fn additive_homomorphism_of_shares() {
        // Provider-side SUM: add shares componentwise, reconstruct the sum.
        let mut rng = StdRng::seed_from_u64(16);
        let sharing = FieldSharing::generate(2, 3, &mut rng).unwrap();
        let key = DomainKey::derive(b"master", "salary");
        let values = [10u64, 20, 40, 60, 80];
        let mut sums = [Fp::ZERO; 3];
        for &v in &values {
            for s in sharing.split_deterministic(v, &key) {
                sums[s.provider] += s.y;
            }
        }
        let shares: Vec<FieldShare> = sums
            .iter()
            .enumerate()
            .map(|(provider, &y)| FieldShare { provider, y })
            .collect();
        assert_eq!(
            sharing.reconstruct(&shares).unwrap(),
            Fp::from_u64(values.iter().sum())
        );
    }

    /// Provider `x`'s deterministic share of `secret`, every coefficient
    /// PRF derived afresh from `key`: the reference the prepared forms
    /// must match bit for bit.
    fn fresh_share(k: usize, secret: u64, key: &DomainKey, x: Fp) -> Fp {
        let mut coeffs = vec![Fp::from_u64(secret)];
        for j in 1..k {
            let mut c = Fp::from_u64(key.coeff_prf(j).hash_u64(secret));
            if j == k - 1 && c.is_zero() {
                c = Fp::ONE;
            }
            coeffs.push(c);
        }
        Poly::new(coeffs).eval(x)
    }

    #[test]
    fn prepared_prfs_are_bit_identical_to_fresh_derivation() {
        let mut rng = StdRng::seed_from_u64(23);
        let key = DomainKey::derive(b"master", "eid");
        let secrets = [0, 1, 42, 1 << 32, (1 << 60) - 1];
        for k in 2..=6 {
            let sharing = FieldSharing::generate(k, 7, &mut rng).unwrap();
            let prfs = sharing.coeff_prfs(&key);
            let fresh: Vec<Vec<Fp>> = secrets
                .iter()
                .map(|&s| {
                    let xs = sharing.points.expose();
                    xs.iter().map(|&x| fresh_share(k, s, &key, x)).collect()
                })
                .collect();
            let ys = |split: Vec<FieldShare>| split.iter().map(|s| s.y).collect::<Vec<_>>();
            for (&s, want) in secrets.iter().zip(&fresh) {
                assert_eq!(&ys(sharing.split_deterministic_with(s, &prfs)), want);
                assert_eq!(&ys(sharing.split_deterministic(s, &key)), want);
                for (p, &y) in want.iter().enumerate() {
                    assert_eq!(sharing.deterministic_share_with(s, &prfs, p), Ok(y));
                    assert_eq!(sharing.deterministic_share(s, &key, p), Ok(y));
                }
            }
            let batch = |split: Vec<Vec<FieldShare>>| split.into_iter().map(ys).collect::<Vec<_>>();
            assert_eq!(
                batch(sharing.split_deterministic_batch_with(&secrets, &prfs)),
                fresh
            );
            assert_eq!(
                batch(sharing.split_deterministic_batch(&secrets, &key)),
                fresh
            );
        }
    }

    #[test]
    fn coeff_prfs_debug_redacts() {
        let prfs = fig1_sharing().coeff_prfs(&DomainKey::new([7u8; 32]));
        assert_eq!(format!("{prfs:?}"), "CoeffPrfs(..)");
    }

    #[test]
    fn basis_for_validates_subsets() {
        let mut rng = StdRng::seed_from_u64(21);
        let sharing = FieldSharing::generate(3, 5, &mut rng).unwrap();
        assert!(matches!(
            sharing.basis_for(&[0, 1]),
            Err(SssError::NotEnoughShares { needed: 3, got: 2 })
        ));
        assert!(matches!(
            sharing.basis_for(&[0, 1, 1]),
            Err(SssError::BadProviderIndex(1))
        ));
        assert!(matches!(
            sharing.basis_for(&[0, 1, 9]),
            Err(SssError::BadProviderIndex(9))
        ));
        let basis = sharing.basis_for(&[4, 2, 0, 1]).unwrap();
        assert_eq!(basis.len(), 4);
    }

    #[test]
    fn reconstruct_batch_detects_corruption_like_scalar() {
        let mut rng = StdRng::seed_from_u64(22);
        let sharing = FieldSharing::generate(2, 4, &mut rng).unwrap();
        let shares = sharing.split_random(Fp::from_u64(9999), &mut rng);
        let providers = [0usize, 2, 3];
        let good: Vec<Fp> = providers.iter().map(|&p| shares[p].y).collect();
        assert_eq!(
            sharing
                .reconstruct_batch(&providers, std::slice::from_ref(&good))
                .unwrap(),
            vec![Fp::from_u64(9999)]
        );
        let mut bad = good;
        bad[2] += Fp::ONE; // corrupt the cross-check share
        assert_eq!(
            sharing.reconstruct_batch(&providers, &[bad]),
            Err(SssError::InconsistentShares)
        );
    }

    proptest! {
        #[test]
        fn prop_split_batch_bit_identical_to_scalar(
            secrets in proptest::collection::vec(0u64..1 << 60, 1..40),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let sharing = FieldSharing::generate(2, 4, &mut rng).unwrap();
            // Random mode: batch must consume the RNG exactly like the
            // scalar loop (clone the stream to compare).
            let fps: Vec<Fp> = secrets.iter().map(|&s| Fp::from_u64(s)).collect();
            let mut rng_scalar = rng.clone();
            let batch = sharing.split_random_batch(&fps, &mut rng);
            let scalar: Vec<Vec<FieldShare>> = fps
                .iter()
                .map(|&s| sharing.split_random(s, &mut rng_scalar))
                .collect();
            prop_assert_eq!(batch, scalar);
            // Deterministic mode: pure function of (key, value).
            let key = DomainKey::derive(b"master", "salary");
            let det_batch = sharing.split_deterministic_batch(&secrets, &key);
            let det_scalar: Vec<Vec<FieldShare>> = secrets
                .iter()
                .map(|&s| sharing.split_deterministic(s, &key))
                .collect();
            prop_assert_eq!(det_batch, det_scalar);
        }

        #[test]
        fn prop_reconstruct_batch_matches_checked_on_any_subset(
            secrets in proptest::collection::vec(0u64..1 << 60, 1..20),
            seed in any::<u64>(),
            subset_seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let sharing = FieldSharing::generate(3, 6, &mut rng).unwrap();
            // Pick a random ordered subset of 3..=6 providers.
            let mut subset_rng = StdRng::seed_from_u64(subset_seed);
            let mut providers: Vec<usize> = (0..6).collect();
            providers.shuffle(&mut subset_rng);
            let m = 3 + (subset_seed % 4) as usize;
            providers.truncate(m);
            let rows: Vec<Vec<FieldShare>> = secrets
                .iter()
                .map(|&s| sharing.split_random(Fp::from_u64(s), &mut rng))
                .collect();
            let ys: Vec<Vec<Fp>> = rows
                .iter()
                .map(|shares| providers.iter().map(|&p| shares[p].y).collect())
                .collect();
            let batch = sharing.reconstruct_batch(&providers, &ys).unwrap();
            for (row, (got, shares)) in batch.iter().zip(&rows).enumerate() {
                let subset: Vec<FieldShare> =
                    providers.iter().map(|&p| shares[p]).collect();
                prop_assert_eq!(
                    *got,
                    sharing.reconstruct_checked(&subset).unwrap(),
                    "row {}", row
                );
            }
        }

        #[test]
        fn prop_random_roundtrip(secret in 0u64..1 << 60, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let sharing = FieldSharing::generate(2, 3, &mut rng).unwrap();
            let shares = sharing.split_random(Fp::from_u64(secret), &mut rng);
            prop_assert_eq!(sharing.reconstruct(&shares).unwrap(), Fp::from_u64(secret));
        }

        #[test]
        fn prop_k_minus_1_shares_insufficient_by_construction(
            secret in 0u64..1000, seed in any::<u64>(),
        ) {
            // With k-1 shares, every candidate secret is consistent with
            // SOME polynomial — verify by constructing one explicitly for a
            // different secret (perfect secrecy witness).
            let mut rng = StdRng::seed_from_u64(seed);
            let sharing = FieldSharing::generate(2, 2, &mut rng).unwrap();
            let shares = sharing.split_random(Fp::from_u64(secret), &mut rng);
            // One share (x1, y1): for any other secret s', the line through
            // (0, s') and (x1, y1) is a valid sharing polynomial.
            let x1 = sharing.point(shares[0].provider).unwrap();
            let y1 = shares[0].y;
            let other = Fp::from_u64(secret + 1);
            let slope = (y1 - other) * x1.inv().unwrap();
            let poly = dasp_field::Poly::new(vec![other, slope]);
            prop_assert_eq!(poly.eval(x1), y1);
        }
    }
}
