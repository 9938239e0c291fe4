//! Lognormal distribution — a right-skewed duration model often fitted to
//! human "dwell time" measurements; included to exercise the model's
//! generality claim with a distribution the paper never tried.

use crate::duration::{require_positive, DurationDist};
use crate::rng::{std_normal, SeededRng};
use crate::special::std_normal_cdf;
use crate::DistError;

/// Lognormal distribution: `ln X ~ N(mu, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Construct from the log-space location `mu` (any finite value) and
    /// log-space scale `sigma > 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        if !mu.is_finite() {
            return Err(DistError::InvalidParameter {
                name: "mu".into(),
                value: mu,
                requirement: "finite",
            });
        }
        Ok(Self {
            mu,
            sigma: require_positive("sigma", sigma)?,
        })
    }

    /// Construct from the *real-space* mean and coefficient of variation
    /// (`cv = σ_X / mean_X`), the parameterization workload configs use.
    pub fn with_mean_cv(mean: f64, cv: f64) -> Result<Self, DistError> {
        let mean = require_positive("mean", mean)?;
        let cv = require_positive("cv", cv)?;
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Self::new(mu, sigma2.sqrt())
    }

    /// Log-space location `mu`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-space scale `sigma`.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl DurationDist for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-(z * z) / 2.0).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    fn survival_integral(&self, y: f64) -> f64 {
        if y <= 0.0 {
            return 0.0;
        }
        // y·S(y) + M₁(y) with z = (ln y − μ)/σ, S = Φ(−z) and the partial
        // expectation M₁(y) = e^{μ+σ²/2} Φ(z − σ).
        let z = (y.ln() - self.mu) / self.sigma;
        y * std_normal_cdf(-z)
            + (self.mu + self.sigma * self.sigma / 2.0).exp() * std_normal_cdf(z - self.sigma)
    }

    fn survival_integral2(&self, y: f64) -> f64 {
        if y <= 0.0 {
            return 0.0;
        }
        // ½[y²S(y) + 2y·M₁(y) − M₂(y)], M_r(y) = e^{rμ + r²σ²/2} Φ(z − rσ).
        let (mu, s) = (self.mu, self.sigma);
        let z = (y.ln() - mu) / s;
        let m1 = (mu + s * s / 2.0).exp() * std_normal_cdf(z - s);
        let m2 = (2.0 * mu + 2.0 * s * s).exp() * std_normal_cdf(z - 2.0 * s);
        0.5 * (y * y * std_normal_cdf(-z) + 2.0 * y * m1 - m2)
    }

    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        ((s2).exp_m1()) * (2.0 * self.mu + s2).exp()
    }

    fn sample(&self, rng: &mut SeededRng) -> f64 {
        (self.mu + self.sigma * std_normal(rng)).exp()
    }

    fn support_hint(&self) -> (f64, f64) {
        (0.0, (self.mu + 12.0 * self.sigma).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duration::{assert_integrals_consistent, numeric_cdf_integral};
    use crate::rng::seeded;

    #[test]
    fn mean_cv_parameterization_round_trips() {
        let d = LogNormal::with_mean_cv(8.0, 0.5).unwrap();
        assert!((d.mean() - 8.0).abs() < 1e-10);
        let cv = d.variance().sqrt() / d.mean();
        assert!((cv - 0.5).abs() < 1e-10);
    }

    #[test]
    fn median_is_exp_mu() {
        let d = LogNormal::new(1.2, 0.7).unwrap();
        assert!((d.cdf(1.2f64.exp()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_integral_matches_numeric() {
        let d = LogNormal::with_mean_cv(8.0, 0.8).unwrap();
        for &y in &[0.5, 3.0, 8.0, 30.0, 120.0] {
            let analytic = d.cdf_integral(y);
            let numeric = numeric_cdf_integral(&d, y);
            assert!(
                (analytic - numeric).abs() < 1e-6,
                "y={y}: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn cdf_integral2_matches_numeric() {
        let d = LogNormal::with_mean_cv(8.0, 0.8).unwrap();
        // e^{μ+12σ} ≈ 3e4 is the support hint; 1e5 lies beyond it.
        assert_integrals_consistent(&d, &[0.5, 3.0, 8.0, 120.0, 1e5]);
    }

    #[test]
    fn sample_mean() {
        let d = LogNormal::with_mean_cv(5.0, 0.4).unwrap();
        let mut rng = seeded(77);
        let n = 200_000;
        let s: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        assert!((s / n as f64 - 5.0).abs() < 0.05);
    }
}
