//! Deterministic workload generators for the experiments.
//!
//! Every experiment in EXPERIMENTS.md names its dataset; this crate
//! produces them reproducibly (seeded) and without depending on the rest
//! of the stack, so benches can generate data once and feed any system
//! under test:
//!
//! * [`employees`] — the paper's running Employees(name, salary, …)
//!   table with uniform or Zipf salary distributions.
//! * [`documents`] — the SIGMOD'03 intersection workload the paper quotes
//!   ("10 documents at one site and 100 at another, each with 1000
//!   words").
//! * [`medical`] — the "1 million medical records" configuration.
//! * [`places`] — friends + restaurants for the §V-D mash-up.
//! * [`queries`] — exact-match keys and ranges with target selectivity.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Zipf(θ) sampler over ranks 1..=n (precomputed CDF, O(log n) sample).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build for `n` ranks with exponent `theta` (0 = uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(theta);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Sample a rank in `0..n` (0 is the hottest).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The Employees workload.
pub mod employees {
    use super::*;

    /// One plaintext employee row.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Employee {
        /// Uppercase name, ≤ 8 chars.
        pub name: String,
        /// Salary in `[0, salary_domain)`.
        pub salary: u64,
        /// A random identifier (the "sensitive, never-filtered" column).
        pub ssn: u64,
    }

    /// Salary distribution shape.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum SalaryDist {
        /// Uniform over the domain.
        Uniform,
        /// Zipf-distributed over 1000 distinct salary levels.
        Zipf(f64),
    }

    const FIRST: [&str; 16] = [
        "JOHN", "MARY", "ALICE", "BOB", "CAROL", "DAVE", "ERIN", "FRANK", "GRACE", "HEIDI", "IVAN",
        "JUDY", "KARL", "LINDA", "MIKE", "NINA",
    ];

    /// Generate `n` employees, deterministically from `seed`.
    pub fn generate(n: usize, salary_domain: u64, dist: SalaryDist, seed: u64) -> Vec<Employee> {
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = match dist {
            SalaryDist::Zipf(theta) => Some(Zipf::new(1000, theta)),
            SalaryDist::Uniform => None,
        };
        (0..n)
            .map(|i| {
                let name = format!(
                    "{}{}",
                    FIRST[rng.gen_range(0..FIRST.len())],
                    // Suffix letters keep names within VARCHAR(8).
                    char::from(b'A' + (i % 26) as u8)
                );
                let salary = match &zipf {
                    None => rng.gen_range(0..salary_domain),
                    Some(z) => {
                        let level = z.sample(&mut rng) as u64;
                        (level * salary_domain / 1000).min(salary_domain - 1)
                    }
                };
                Employee {
                    name,
                    salary,
                    ssn: rng.gen_range(0..1 << 30),
                }
            })
            .collect()
    }
}

/// The SIGMOD'03 document-intersection workload.
pub mod documents {
    use super::*;

    /// Generate `n_docs` documents of `words_each` words from a shared
    /// vocabulary, so cross-site overlaps exist. Words are short
    /// uppercase tokens.
    pub fn generate(n_docs: usize, words_each: usize, seed: u64) -> Vec<Vec<String>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let vocab_size = (n_docs * words_each / 2).max(100);
        (0..n_docs)
            .map(|_| {
                (0..words_each)
                    .map(|_| format!("W{}", rng.gen_range(0..vocab_size)))
                    .collect()
            })
            .collect()
    }

    /// Flatten a site's documents into its word multiset (deduplicated),
    /// as the intersection protocol consumes it.
    pub fn word_set(docs: &[Vec<String>]) -> Vec<Vec<u8>> {
        let mut words: Vec<&String> = docs.iter().flatten().collect();
        words.sort_unstable();
        words.dedup();
        words.into_iter().map(|w| w.as_bytes().to_vec()).collect()
    }
}

/// The 1M-medical-records configuration the paper quotes.
pub mod medical {
    use super::*;

    /// One synthetic medical record.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Record {
        /// Patient identifier.
        pub patient: u64,
        /// Diagnosis code in `[0, 10_000)`.
        pub code: u64,
        /// Cost in cents, `[0, 2^24)`.
        pub cost: u64,
    }

    /// Generate `n` records.
    pub fn generate(n: usize, seed: u64) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(seed);
        let code_dist = Zipf::new(10_000, 1.1);
        (0..n)
            .map(|i| Record {
                patient: i as u64 / 4, // ~4 records per patient
                code: code_dist.sample(&mut rng) as u64,
                cost: rng.gen_range(0..1 << 24),
            })
            .collect()
    }
}

/// Friends + restaurants for the §V-D mash-up.
pub mod places {
    use super::*;

    /// Generate `n` public places as `(id, [location, category])` with
    /// locations uniform in `[0, domain)`.
    pub fn restaurants(n: usize, domain: u64, seed: u64) -> Vec<(u64, Vec<u64>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|id| (id, vec![rng.gen_range(0..domain), rng.gen_range(0..8)]))
            .collect()
    }

    /// Generate `n` private friends as `(name, location)`.
    pub fn friends(n: usize, domain: u64, seed: u64) -> Vec<(String, u64)> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf00d);
        (0..n)
            .map(|i| {
                (
                    format!("FRIEND{}", char::from(b'A' + (i % 26) as u8)),
                    rng.gen_range(0..domain),
                )
            })
            .collect()
    }
}

/// Query generators.
pub mod queries {
    use super::*;

    /// `count` ranges of width `selectivity * universe` (inclusive bounds).
    pub fn ranges(universe: u64, selectivity: f64, count: usize, seed: u64) -> Vec<(u64, u64)> {
        assert!((0.0..=1.0).contains(&selectivity));
        let mut rng = StdRng::seed_from_u64(seed);
        let width = ((universe as f64 * selectivity) as u64).max(1);
        (0..count)
            .map(|_| {
                let lo = rng.gen_range(0..universe.saturating_sub(width).max(1));
                (lo, (lo + width - 1).min(universe - 1))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_uniform_at_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let z = Zipf::new(100, 1.2);
        let mut counts = vec![0u32; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[50] * 3, "rank 0 should dominate");

        let u = Zipf::new(10, 0.0);
        let mut counts = vec![0u32; 10];
        for _ in 0..10_000 {
            counts[u.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "uniform-ish, got {c}");
        }
    }

    #[test]
    fn employees_deterministic_and_in_domain() {
        let a = employees::generate(100, 1 << 20, employees::SalaryDist::Uniform, 7);
        let b = employees::generate(100, 1 << 20, employees::SalaryDist::Uniform, 7);
        assert_eq!(a, b);
        for e in &a {
            assert!(e.salary < 1 << 20);
            assert!(e.name.len() <= 8);
            assert!(e.name.chars().all(|c| c.is_ascii_uppercase()));
        }
        let c = employees::generate(100, 1 << 20, employees::SalaryDist::Uniform, 8);
        assert_ne!(a, c, "different seed, different data");
    }

    #[test]
    fn zipf_salaries_cluster() {
        let rows = employees::generate(1000, 1 << 20, employees::SalaryDist::Zipf(1.2), 9);
        let low = rows.iter().filter(|e| e.salary < 1 << 15).count();
        assert!(low > 500, "Zipf mass at low salaries, got {low}");
    }

    #[test]
    fn documents_shape_and_overlap() {
        let a = documents::generate(10, 1000, 11);
        let b = documents::generate(100, 1000, 12);
        assert_eq!(a.len(), 10);
        assert_eq!(a[0].len(), 1000);
        let wa = documents::word_set(&a);
        let wb = documents::word_set(&b);
        let overlap = wa.iter().filter(|w| wb.contains(w)).count();
        assert!(overlap > 0, "sites must share vocabulary");
        // Dedup happened.
        let mut sorted = wa.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), wa.len());
    }

    #[test]
    fn medical_records_scale() {
        let rs = medical::generate(10_000, 13);
        assert_eq!(rs.len(), 10_000);
        assert!(rs.iter().all(|r| r.code < 10_000 && r.cost < 1 << 24));
        assert_eq!(rs[0].patient, 0);
        assert_eq!(rs[9999].patient, 2499);
    }

    #[test]
    fn ranges_have_requested_width() {
        let rs = queries::ranges(1_000_000, 0.01, 50, 14);
        for (lo, hi) in rs {
            assert!(hi >= lo);
            let width = hi - lo + 1;
            assert!((9_000..=10_000).contains(&width), "width {width}");
        }
    }

    #[test]
    fn places_generators() {
        let r = places::restaurants(50, 10_000, 15);
        assert_eq!(r.len(), 50);
        assert!(r.iter().all(|(_, v)| v[0] < 10_000 && v[1] < 8));
        let f = places::friends(3, 10_000, 15);
        assert_eq!(f.len(), 3);
        assert!(f[0].0.starts_with("FRIEND"));
    }
}
