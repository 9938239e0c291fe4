//! Weibull distribution — a flexible alternative duration model whose
//! shape parameter interpolates between heavy-tailed (`k < 1`) and
//! near-deterministic (`k ≫ 1`) VCR behavior.

use crate::duration::{require_positive, DurationDist};
use crate::rng::{u01_open, SeededRng};
use crate::special::{gamma_p, ln_gamma};
use crate::DistError;

/// Weibull distribution with shape `k` and scale `λ`:
/// `F(x) = 1 − exp(−(x/λ)^k)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Construct from shape `k > 0` and scale `λ > 0`.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistError> {
        Ok(Self {
            shape: require_positive("shape", shape)?,
            scale: require_positive("scale", scale)?,
        })
    }

    /// Shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale parameter `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl DurationDist for Weibull {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let k = self.shape;
        let t = x / self.scale;
        (k / self.scale) * t.powf(k - 1.0) * (-t.powf(k)).exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-(x / self.scale).powf(self.shape)).exp_m1()
        }
    }

    fn survival_integral(&self, y: f64) -> f64 {
        if y <= 0.0 {
            return 0.0;
        }
        // ∫₀^y exp(−(u/λ)^k) du; substituting t = (u/λ)^k gives
        // (λ/k) γ(1/k, (y/λ)^k) = (λ/k) Γ(1/k) P(1/k, (y/λ)^k).
        let k = self.shape;
        let t = (y / self.scale).powf(k);
        (self.scale / k) * ln_gamma(1.0 / k).exp() * gamma_p(1.0 / k, t)
    }

    fn survival_integral2(&self, y: f64) -> f64 {
        if y <= 0.0 {
            return 0.0;
        }
        // ½[y²S(y) + 2y·M₁(y) − M₂(y)]; substituting t = (u/λ)^k in
        // ∫₀^y u^r dF(u) gives M_r(y) = λ^r Γ(1 + r/k) P(1 + r/k, (y/λ)^k).
        let k = self.shape;
        let t = (y / self.scale).powf(k);
        let moment = |r: f64| {
            let a = 1.0 + r / k;
            self.scale.powf(r) * ln_gamma(a).exp() * gamma_p(a, t)
        };
        0.5 * (y * y * (-t).exp() + 2.0 * y * moment(1.0) - moment(2.0))
    }

    fn mean(&self) -> f64 {
        self.scale * ln_gamma(1.0 + 1.0 / self.shape).exp()
    }

    fn variance(&self) -> f64 {
        let g1 = ln_gamma(1.0 + 1.0 / self.shape).exp();
        let g2 = ln_gamma(1.0 + 2.0 / self.shape).exp();
        self.scale * self.scale * (g2 - g1 * g1)
    }

    fn sample(&self, rng: &mut SeededRng) -> f64 {
        self.scale * (-u01_open(rng).ln()).powf(1.0 / self.shape)
    }

    fn support_hint(&self) -> (f64, f64) {
        (0.0, self.scale * 60.0f64.powf(1.0 / self.shape))
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile domain: p in [0,1]");
        if p >= 1.0 {
            f64::INFINITY
        } else {
            self.scale * (-(1.0 - p).ln()).powf(1.0 / self.shape)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duration::{assert_integrals_consistent, numeric_cdf_integral};
    use crate::rng::seeded;

    #[test]
    fn shape_one_is_exponential() {
        let w = Weibull::new(1.0, 5.0).unwrap();
        let e = crate::kinds::Exponential::with_mean(5.0).unwrap();
        for &x in &[0.5, 2.0, 5.0, 20.0] {
            assert!((w.cdf(x) - e.cdf(x)).abs() < 1e-12, "x={x}");
            assert!(
                (w.cdf_integral(x) - e.cdf_integral(x)).abs() < 1e-9,
                "H at x={x}"
            );
        }
        assert!((w.mean() - 5.0).abs() < 1e-10);
    }

    #[test]
    fn cdf_integral_matches_numeric() {
        for dist in [
            Weibull::new(0.8, 4.0).unwrap(),
            Weibull::new(2.5, 6.0).unwrap(),
        ] {
            for &y in &[0.5, 3.0, 10.0, 40.0] {
                let analytic = dist.cdf_integral(y);
                let numeric = numeric_cdf_integral(&dist, y);
                assert!(
                    (analytic - numeric).abs() < 1e-6,
                    "{dist:?} y={y}: {analytic} vs {numeric}"
                );
            }
        }
    }

    #[test]
    fn cdf_integral2_matches_numeric() {
        for dist in [
            Weibull::new(1.0, 5.0).unwrap(),
            Weibull::new(0.6, 3.0).unwrap(),
            Weibull::new(2.5, 9.0).unwrap(),
        ] {
            // 4000 lies beyond every support hint above.
            assert_integrals_consistent(&dist, &[0.5, 2.0, 8.0, 120.0, 4000.0]);
        }
    }

    #[test]
    fn sample_mean() {
        let d = Weibull::new(2.0, 8.0).unwrap();
        let mut rng = seeded(13);
        let n = 100_000;
        let s: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = s / n as f64;
        assert!((mean - d.mean()).abs() < 0.05 * d.mean(), "mean {mean}");
    }

    #[test]
    fn quantile_inverts() {
        let d = Weibull::new(1.7, 3.0).unwrap();
        for &p in &[0.1, 0.5, 0.99] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-12);
        }
    }
}
