//! Catalog popularity: Zipf-distributed movie selection.
//!
//! The paper's techniques apply only to *popular* movies (§2: "batching
//! for non-popular movies will incur unnecessary latencies"); a server
//! must therefore split its catalog by popularity. VOD request skew is
//! conventionally modelled as Zipf-like, which this module provides for
//! the server crate's admission experiments.

use vod_dist::rng::{u01, SeededRng};

/// Zipf(θ) popularity over `n` ranked items: `P[rank i] ∝ 1/i^θ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    /// Cumulative probabilities per rank (ascending).
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Construct for `items ≥ 1` ranks with exponent `theta ≥ 0`
    /// (`theta = 0` is uniform; classic video-store fits use ≈ 0.271…1).
    pub fn new(items: usize, theta: f64) -> Self {
        assert!(items >= 1, "need at least one item");
        assert!(theta.is_finite() && theta >= 0.0, "theta must be >= 0");
        let mut cumulative = Vec::with_capacity(items);
        let mut acc = 0.0;
        for i in 1..=items {
            acc += (i as f64).powf(-theta);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        Self { cumulative }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Always false (constructor requires ≥ 1 item).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Probability of rank `i` (0-based).
    pub fn pmf(&self, i: usize) -> f64 {
        assert!(i < self.len());
        if i == 0 {
            self.cumulative[0]
        } else {
            self.cumulative[i] - self.cumulative[i - 1]
        }
    }

    /// Sample a 0-based rank.
    pub fn sample(&self, rng: &mut SeededRng) -> usize {
        let u = u01(rng);
        match self.cumulative.binary_search_by(|c| c.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_dist::rng::seeded;

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(10, 0.0);
        for i in 0..10 {
            assert!((z.pmf(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_sums_to_one_and_decreases() {
        let z = Zipf::new(50, 0.8);
        let total: f64 = (0..50).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        for i in 1..50 {
            assert!(z.pmf(i) <= z.pmf(i - 1) + 1e-15);
        }
    }

    #[test]
    fn sampling_matches_pmf() {
        let z = Zipf::new(5, 1.0);
        let mut rng = seeded(17);
        let mut counts = [0usize; 5];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let f = c as f64 / n as f64;
            assert!(
                (f - z.pmf(i)).abs() < 0.005,
                "rank {i}: {f} vs {}",
                z.pmf(i)
            );
        }
    }
}
