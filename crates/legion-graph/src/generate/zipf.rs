//! Discrete Zipf distribution sampler.
//!
//! Implemented from scratch (the offline crate set has no `rand_distr`)
//! using inverse-transform sampling over a precomputed CDF. At our
//! simulation scales (`n` up to a few million) the O(n) table and O(log n)
//! sample are perfectly adequate.

use rand::Rng;

/// Zipf distribution over `{0, 1, ..., n-1}` with exponent `s`:
/// `P(k) ∝ 1 / (k + 1)^s`.
///
/// # Examples
///
/// ```
/// use legion_graph::generate::Zipf;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let z = Zipf::new(100, 1.2);
/// let mut rng = StdRng::seed_from_u64(7);
/// let k = z.sample(&mut rng);
/// assert!(k < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` outcomes with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one outcome");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against floating point drift on the last entry.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Probability of outcome `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Draws one outcome.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(50, 1.1);
        let total: f64 = (0..50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(10, 0.9);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 10);
        }
    }

    #[test]
    fn head_is_heavier_than_tail() {
        let z = Zipf::new(1000, 1.2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut head = 0usize;
        let trials = 20_000;
        for _ in 0..trials {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With s = 1.2 the top-10 outcomes carry well over a third of mass.
        assert!(head as f64 / trials as f64 > 0.3, "head mass {head}");
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn single_outcome_always_zero() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "at least one outcome")]
    fn zero_outcomes_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
