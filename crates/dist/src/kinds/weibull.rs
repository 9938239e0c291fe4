//! Weibull distribution — a flexible alternative duration model whose
//! shape parameter interpolates between heavy-tailed (`k < 1`) and
//! near-deterministic (`k ≫ 1`) VCR behavior.

use crate::duration::{require_finite_constants, require_positive, DurationDist};
use crate::rng::{u01_open, SeededRng};
use crate::special::{gamma_pq, ln_gamma};
use crate::DistError;

/// Weibull distribution with shape `k` and scale `λ`:
/// `F(x) = 1 − exp(−(x/λ)^k)`.
#[derive(Clone, Copy)]
pub struct Weibull {
    shape: f64,
    scale: f64,
    /// The shapes `a = 1/k, 1 + 1/k, 1 + 2/k` of the three incomplete
    /// gammas in `(F, A, AA)`, with `ln Γ(a)` and the coefficients
    /// `λ/k·Γ(1/k)`, `λ·Γ(1 + 1/k)` (the mean), `λ²·Γ(1 + 2/k)` they are
    /// multiplied by. Derived from the parameters, so `Debug` and
    /// `PartialEq` leave them out.
    a: [f64; 3],
    ln_gamma_a: [f64; 3],
    coef: [f64; 3],
}

impl std::fmt::Debug for Weibull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Weibull")
            .field("shape", &self.shape)
            .field("scale", &self.scale)
            .finish()
    }
}

impl PartialEq for Weibull {
    fn eq(&self, other: &Self) -> bool {
        (self.shape, self.scale) == (other.shape, other.scale)
    }
}

impl Weibull {
    /// Construct from shape `k > 0` and scale `λ > 0`. A shape so small
    /// that `Γ(1 + 2/k)` overflows (`k` below about 0.0117), or a scale so
    /// large that `λ²·Γ(1 + 2/k)` does, is refused: the second moment the
    /// model needs would not be a number.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistError> {
        let shape = require_positive("shape", shape)?;
        let scale = require_positive("scale", scale)?;
        let a = [1.0 / shape, 1.0 + 1.0 / shape, 1.0 + 2.0 / shape];
        // `ln_gamma` wants a finite argument; 1/k is infinite for a
        // subnormal k.
        let ln_gamma_a = a.map(|a| if a.is_finite() { ln_gamma(a) } else { a });
        let gamma_a = ln_gamma_a.map(f64::exp);
        require_finite_constants(
            "shape",
            shape,
            &gamma_a,
            "such that Γ(1/shape) and Γ(1 + 2/shape) are finite",
        )?;
        let coef = [
            scale / shape * gamma_a[0],
            scale * gamma_a[1],
            scale * scale * gamma_a[2],
        ];
        require_finite_constants(
            "scale",
            scale,
            &coef,
            "such that scale² · Γ(1 + 2/shape) is finite",
        )?;
        Ok(Self {
            shape,
            scale,
            a,
            ln_gamma_a,
            coef,
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
        self.cdf_and_survival_integrals(y).1
    }

    fn survival_integral2(&self, y: f64) -> f64 {
        self.cdf_and_survival_integrals(y).2
    }

    /// With `t = (y/λ)^k`: `F(y) = 1 − e^{−t}`; `A(y) = ∫₀^y e^{−(u/λ)^k}
    /// du`, which the substitution `t = (u/λ)^k` turns into
    /// `(λ/k) Γ(1/k) P(1/k, t)`; and `AA(y) = ½[y²S(y) + 2y·M₁(y) −
    /// M₂(y)]` with `M_r(y) = ∫₀^y u^r dF(u) = λ^r Γ(1 + r/k) P(1 + r/k,
    /// t)`. One `t`, one `ln t`, one expansion per shape.
    fn cdf_and_survival_integrals(&self, y: f64) -> (f64, f64, f64) {
        if y <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        let t = (y / self.scale).powf(self.shape);
        let ln_t = t.ln();
        let term = |i: usize| self.coef[i] * gamma_pq(self.a[i], t, ln_t, self.ln_gamma_a[i]).0;
        let (a, m1, m2) = (term(0), term(1), term(2));
        (
            -(-t).exp_m1(),
            a,
            0.5 * (y * y * (-t).exp() + 2.0 * y * m1 - m2),
        )
    }

    fn mean(&self) -> f64 {
        self.coef[1]
    }

    fn variance(&self) -> f64 {
        let g1 = self.ln_gamma_a[1].exp();
        let g2 = self.ln_gamma_a[2].exp();
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
