//! Exponential distribution — used by the paper (§4, §5 Example 1) for VCR
//! durations of movies 2 and 3 (means 5 and 2 minutes).

use crate::duration::{require_finite_constants, require_positive, DurationDist};
use crate::rng::{exponential, SeededRng};
use crate::DistError;

/// Exponential distribution with the given mean (`rate = 1/mean`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
    rate: f64,
}

impl Exponential {
    /// Construct from the mean duration in movie minutes (refused where
    /// the rate `1/mean` overflows).
    pub fn with_mean(mean: f64) -> Result<Self, DistError> {
        let mean = require_positive("mean", mean)?;
        let rate = 1.0 / mean;
        require_finite_constants("mean", mean, &[rate], "such that 1/mean is finite")?;
        Ok(Self { mean, rate })
    }

    /// Construct from the rate `λ` (events per minute; refused where the
    /// mean `1/λ` overflows).
    pub fn with_rate(rate: f64) -> Result<Self, DistError> {
        let rate = require_positive("rate", rate)?;
        let mean = 1.0 / rate;
        require_finite_constants("rate", rate, &[mean], "such that 1/rate is finite")?;
        Ok(Self { mean, rate })
    }

    /// The rate parameter `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl DurationDist for Exponential {
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            // expm1 avoids cancellation for small rate*x.
            -(-self.rate * x).exp_m1()
        }
    }

    /// `F(y) = 1 − e^{−λy}`, `A(y) = ∫₀^y e^{−λu} du = F(y)/λ` and
    /// `AA(y) = ∫₀^y (1 − e^{−λu})/λ du = (y − A(y))/λ`: one `exp_m1`.
    fn cdf_and_survival_integrals(&self, y: f64) -> (f64, f64, f64) {
        if y <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let f = self.cdf(y);
        let a = f / self.rate;
        (f, a, (y - a) / self.rate)
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.mean * self.mean
    }

    fn sample(&self, rng: &mut SeededRng) -> f64 {
        exponential(rng, self.mean)
    }

    fn support_hint(&self) -> (f64, f64) {
        // 50 means cover 1 − e^{−50} ≈ 1 − 2e-22 of the mass.
        (0.0, 50.0 * self.mean)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile domain: p in [0,1]");
        if p >= 1.0 {
            f64::INFINITY
        } else {
            -self.mean * (1.0 - p).ln()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duration::assert_integrals_consistent;
    use crate::rng::seeded;

    #[test]
    fn rejects_bad_mean() {
        assert!(Exponential::with_mean(0.0).is_err());
        assert!(Exponential::with_mean(-1.0).is_err());
        assert!(Exponential::with_mean(f64::NAN).is_err());
        // Subnormal: the cached reciprocal would be infinite.
        assert!(Exponential::with_mean(1e-320).is_err());
        assert!(Exponential::with_rate(1e-320).is_err());
    }

    #[test]
    fn cdf_basic_shape() {
        let d = Exponential::with_mean(5.0).unwrap();
        assert_eq!(d.cdf(-1.0), 0.0);
        assert_eq!(d.cdf(0.0), 0.0);
        assert!((d.cdf(5.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-14);
        assert!(d.cdf(1e6) > 1.0 - 1e-12);
    }

    #[test]
    fn cdf_integral_matches_numeric() {
        // A short mean: every point but the first lies past the bulk.
        let d = Exponential::with_rate(2.0).unwrap();
        assert_integrals_consistent(&d, &[0.5, 1.0, 7.7, 30.0, 120.0]);
    }

    #[test]
    fn cdf_integral2_matches_numeric() {
        let d = Exponential::with_mean(8.0).unwrap();
        // 500 lies beyond the 50-mean support hint.
        assert_integrals_consistent(&d, &[0.5, 1.0, 7.7, 30.0, 120.0, 500.0]);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Exponential::with_mean(2.0).unwrap();
        for &p in &[0.01, 0.25, 0.5, 0.9, 0.999] {
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn sample_mean_and_variance() {
        let d = Exponential::with_mean(5.0).unwrap();
        let mut rng = seeded(99);
        let n = 100_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!(x >= 0.0);
            s += x;
            s2 += x * x;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 25.0).abs() < 1.0, "var {var}");
    }
}
