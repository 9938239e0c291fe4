//! Lognormal distribution — a right-skewed duration model often fitted to
//! human "dwell time" measurements; included to exercise the model's
//! generality claim with a distribution the paper never tried.

use crate::duration::{require_finite_constants, require_positive, DurationDist};
use crate::rng::{std_normal, SeededRng};
use crate::special::std_normal_cdf;
use crate::DistError;

/// Lognormal distribution: `ln X ~ N(mu, sigma²)`.
#[derive(Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
    /// The raw moments `E[X] = e^{μ+σ²/2}` and `E[X²] = e^{2μ+2σ²}`, the
    /// coefficients of the partial moments in `A` and `AA`. Derived from
    /// the parameters, so `Debug` and `PartialEq` leave them out.
    moments: [f64; 2],
}

impl std::fmt::Debug for LogNormal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogNormal")
            .field("mu", &self.mu)
            .field("sigma", &self.sigma)
            .finish()
    }
}

impl PartialEq for LogNormal {
    fn eq(&self, other: &Self) -> bool {
        (self.mu, self.sigma) == (other.mu, other.sigma)
    }
}

impl LogNormal {
    /// Construct from the log-space location `mu` (any finite value) and
    /// log-space scale `sigma > 0`. Parameters whose second moment
    /// `e^{2μ+2σ²}` overflows are refused.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        if !mu.is_finite() {
            return Err(DistError::InvalidParameter {
                name: "mu".into(),
                value: mu,
                requirement: "finite",
            });
        }
        let sigma = require_positive("sigma", sigma)?;
        let moments = [
            (mu + sigma * sigma / 2.0).exp(),
            (2.0 * mu + 2.0 * sigma * sigma).exp(),
        ];
        // Blame mu where e^{2μ} alone overflows, sigma otherwise.
        let (name, value) = if (2.0 * mu).exp().is_finite() {
            ("sigma", sigma)
        } else {
            ("mu", mu)
        };
        require_finite_constants(
            name,
            value,
            &moments,
            "such that E[X²] = exp(2·mu + 2·sigma²) is finite",
        )?;
        Ok(Self { mu, sigma, moments })
    }

    /// Construct from the *real-space* mean and coefficient of variation
    /// (`cv = σ_X / mean_X`), the parameterization workload configs use.
    /// A `cv` whose `ln(1 + cv²)` is 0 or infinite, or a `mean` such that
    /// `E[X²] = mean²·(1 + cv²)` overflows, is refused under the name the
    /// caller typed, not as the derived `mu` or `sigma`.
    pub fn with_mean_cv(mean: f64, cv: f64) -> Result<Self, DistError> {
        let mean = require_positive("mean", mean)?;
        let cv = require_positive("cv", cv)?;
        let sigma2 = (1.0 + cv * cv).ln();
        if !(sigma2.is_finite() && sigma2 > 0.0) {
            return Err(DistError::InvalidParameter {
                name: "cv".into(),
                value: cv,
                requirement: "such that ln(1 + cv²) is finite and > 0",
            });
        }
        let mu = mean.ln() - sigma2 / 2.0;
        // mu and sigma are finite and sigma > 0 here, so the only refusal
        // left is the overflow of E[X²].
        Self::new(mu, sigma2.sqrt()).map_err(|_| DistError::InvalidParameter {
            name: "mean".into(),
            value: mean,
            requirement: "such that E[X²] = mean²·(1 + cv²) is finite",
        })
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
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            std_normal_cdf((x.ln() - self.mu) / self.sigma)
        }
    }

    /// With `z = (ln y − μ)/σ`: `F(y) = Φ(z)`, `S(y) = Φ(−z)`, and the
    /// partial moments `M_r(y) = e^{rμ + r²σ²/2} Φ(z − rσ)` give
    /// `A(y) = y·S(y) + M₁(y)` and `AA(y) = ½[y²S(y) + 2y·M₁(y) − M₂(y)]`:
    /// one `ln y` and four `Φ` values.
    fn cdf_and_survival_integrals(&self, y: f64) -> (f64, f64, f64) {
        if y <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        if y.is_infinite() {
            return (1.0, self.mean(), f64::INFINITY);
        }
        let s = self.sigma;
        let z = (y.ln() - self.mu) / s;
        let survival = std_normal_cdf(-z);
        let m1 = self.moments[0] * std_normal_cdf(z - s);
        let m2 = self.moments[1] * std_normal_cdf(z - 2.0 * s);
        (
            std_normal_cdf(z),
            y * survival + m1,
            0.5 * (y * y * survival + 2.0 * y * m1 - m2),
        )
    }

    fn mean(&self) -> f64 {
        self.moments[0]
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
    use crate::duration::assert_integrals_consistent;
    use crate::rng::seeded;

    #[test]
    fn mean_cv_parameterization_round_trips() {
        let d = LogNormal::with_mean_cv(8.0, 0.5).unwrap();
        assert!((d.mean() - 8.0).abs() < 1e-10);
        let cv = d.variance().sqrt() / d.mean();
        assert!((cv - 0.5).abs() < 1e-10);
    }

    #[test]
    fn an_overflowing_second_moment_names_the_parameter_typed() {
        let named = |r: Result<LogNormal, DistError>| match r {
            Err(DistError::InvalidParameter { name, .. }) => name,
            other => panic!("expected a refusal, got {other:?}"),
        };
        // 2·mu alone overflows e^x; sigma is modest.
        assert_eq!(named(LogNormal::new(400.0, 0.5)), "mu");
        // 2·sigma² does; mu is 0.
        assert_eq!(named(LogNormal::new(0.0, 19.0)), "sigma");
        // Through the spec parameterization: the mean, not the derived sigma.
        assert_eq!(named(LogNormal::with_mean_cv(1e200, 0.7)), "mean");
        // ln(1 + cv²) is 0 (cv² below an ulp of 1) or infinite.
        assert_eq!(named(LogNormal::with_mean_cv(4.0, 1e-9)), "cv");
        assert_eq!(named(LogNormal::with_mean_cv(4.0, 1e200)), "cv");
    }

    #[test]
    fn median_is_exp_mu() {
        let d = LogNormal::new(1.2, 0.7).unwrap();
        assert!((d.cdf(1.2f64.exp()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_integral_matches_numeric() {
        // A heavy tail: σ = 1.5 puts a tenth of the mass past 7.
        let d = LogNormal::new(0.0, 1.5).unwrap();
        assert_integrals_consistent(&d, &[0.5, 3.0, 8.0, 30.0, 120.0]);
    }

    #[test]
    fn cdf_integral2_matches_numeric() {
        let d = LogNormal::with_mean_cv(8.0, 0.8).unwrap();
        // e^{μ+12σ} ≈ 3e4 is the support hint; 1e5 lies beyond it.
        assert_integrals_consistent(&d, &[0.5, 3.0, 8.0, 30.0, 120.0, 1e5]);
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
