//! The client's secret key material.
//!
//! Everything a provider must never learn lives here: the master secret
//! (from which per-domain keys derive), the GF(p) evaluation points for
//! random/deterministic shares, and the small integer points for
//! order-preserving shares. Loss of this state means loss of the data
//! (by design — that *is* the security property), so real deployments
//! would escrow it; the struct is cheap to clone for that purpose.

use crate::{ClientError, Result};
use dasp_field::{Fp, Secret};
use dasp_sss::{CoeffPrfs, DomainKey, FieldSharing, OpSharing, OpssParams};
use rand::seq::SliceRandom;
use rand::Rng;

/// All client-side secrets for one outsourced database.
#[derive(Clone)]
pub struct ClientKeys {
    master: Secret<[u8; 32]>,
    field: FieldSharing,
    op_points: Secret<Vec<u32>>,
    op_degree: usize,
    op_slot_bits: u32,
}

impl ClientKeys {
    /// Generate keys for `n` providers with reconstruction threshold `k`.
    ///
    /// `k` is also the order-preserving polynomial threshold, so it must
    /// be ≤ 4 (OP degree ≤ 3, see [`OpssParams`]).
    pub fn generate<R: Rng + ?Sized>(k: usize, n: usize, rng: &mut R) -> Result<Self> {
        if !(2..=4).contains(&k) || k > n {
            return Err(ClientError::Schema(format!(
                "threshold k={k} must be in 2..=4 and ≤ n={n}"
            )));
        }
        if n > 64 {
            return Err(ClientError::Schema("at most 64 providers".into()));
        }
        let mut master = [0u8; 32];
        rng.fill(&mut master);
        let field = FieldSharing::generate(k, n, rng)?;
        // Distinct small points in [1, 64], shuffled so provider order
        // leaks nothing about point magnitude.
        let mut candidates: Vec<u32> = (1..=64).collect();
        candidates.shuffle(rng);
        let op_points: Vec<u32> = candidates.into_iter().take(n).collect();
        Ok(ClientKeys {
            master: Secret::new(master),
            field,
            op_points: Secret::new(op_points),
            op_degree: k - 1,
            op_slot_bits: 12,
        })
    }

    /// Reconstruction threshold k.
    pub fn k(&self) -> usize {
        self.field.k()
    }

    /// Number of providers n.
    pub fn n(&self) -> usize {
        self.field.n()
    }

    /// The field-sharing configuration (random/deterministic modes).
    pub fn field(&self) -> &FieldSharing {
        &self.field
    }

    /// Provider `i`'s secret GF(p) evaluation point.
    pub fn field_point(&self, provider: usize) -> Result<Fp> {
        Ok(self.field.point(provider)?)
    }

    /// The domain key for a named value domain.
    pub fn domain_key(&self, domain: &str) -> DomainKey {
        DomainKey::derive(self.master.expose(), domain)
    }

    /// The coefficient PRFs of `domain`'s deterministic polynomials under
    /// this configuration's threshold.
    pub fn coeff_prfs(&self, domain: &str) -> CoeffPrfs {
        self.field.coeff_prfs(&self.domain_key(domain))
    }

    /// An order-preserving sharer for `domain` over values `< domain_size`.
    pub fn op_sharing(&self, domain: &str, domain_size: u64) -> Result<OpSharing> {
        let params = OpssParams::new(
            self.op_degree,
            self.op_slot_bits,
            domain_size,
            self.op_points.expose().clone(),
        )?;
        Ok(OpSharing::new(params, self.domain_key(domain)))
    }
}

// dasp::allow(S1): sanctioned redacting impl — never prints secrets.
impl std::fmt::Debug for ClientKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ClientKeys(k={}, n={})", self.k(), self.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generate_validates_parameters() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(ClientKeys::generate(1, 3, &mut rng).is_err(), "k too small");
        assert!(
            ClientKeys::generate(5, 8, &mut rng).is_err(),
            "k too big for OP"
        );
        assert!(ClientKeys::generate(3, 2, &mut rng).is_err(), "k > n");
        assert!(
            ClientKeys::generate(2, 100, &mut rng).is_err(),
            "too many n"
        );
        let keys = ClientKeys::generate(2, 3, &mut rng).unwrap();
        assert_eq!((keys.k(), keys.n()), (2, 3));
    }

    #[test]
    fn op_points_distinct() {
        let mut rng = StdRng::seed_from_u64(2);
        let keys = ClientKeys::generate(3, 8, &mut rng).unwrap();
        let mut pts = keys.op_points.expose().clone();
        pts.sort_unstable();
        pts.dedup();
        assert_eq!(pts.len(), 8);
        assert!(pts.iter().all(|&p| (1..=64).contains(&p)));
    }

    #[test]
    fn op_sharing_roundtrip_through_keys() {
        let mut rng = StdRng::seed_from_u64(3);
        let keys = ClientKeys::generate(2, 3, &mut rng).unwrap();
        let s = keys.op_sharing("salary", 1 << 20).unwrap();
        let shares = s.share(4242).unwrap();
        assert_eq!(s.reconstruct_search(1, shares[1]).unwrap(), Some(4242));
    }

    #[test]
    fn different_masters_different_shares() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = ClientKeys::generate(2, 3, &mut rng).unwrap();
        let b = ClientKeys::generate(2, 3, &mut rng).unwrap();
        let sa = a.op_sharing("salary", 1 << 20).unwrap();
        let sb = b.op_sharing("salary", 1 << 20).unwrap();
        // Same value, different key material ⇒ (almost surely) different shares.
        assert_ne!(sa.share(777).unwrap(), sb.share(777).unwrap());
    }

    #[test]
    fn debug_leaks_no_secrets() {
        let mut rng = StdRng::seed_from_u64(5);
        let keys = ClientKeys::generate(2, 3, &mut rng).unwrap();
        assert_eq!(format!("{keys:?}"), "ClientKeys(k=2, n=3)");
    }
}
