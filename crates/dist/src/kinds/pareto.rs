//! Pareto (Lomax-style, shifted to start at 0) distribution — a
//! heavy-tailed VCR-duration model. Long-tailed pauses ("went to bed with
//! the player running") are the stress case for the wrap rule of §2.1 and
//! for reserve sizing; a power tail exercises both far harder than the
//! paper's exponential/gamma choices.

use crate::duration::{require_positive, DurationDist};
use crate::rng::{u01_open, SeededRng};
use crate::DistError;

/// Lomax distribution (Pareto type II anchored at 0):
/// `F(x) = 1 − (1 + x/σ)^{−α}` with shape `α > 0`, scale `σ > 0`.
///
/// Mean exists for `α > 1` (`σ/(α−1)`), variance for `α > 2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    shape: f64,
    scale: f64,
}

impl Pareto {
    /// Construct from shape `α > 0` and scale `σ > 0`.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistError> {
        Ok(Self {
            shape: require_positive("shape", shape)?,
            scale: require_positive("scale", scale)?,
        })
    }

    /// Construct from a target mean (requires `shape > 1`).
    pub fn with_shape_mean(shape: f64, mean: f64) -> Result<Self, DistError> {
        let shape = require_positive("shape", shape)?;
        if shape <= 1.0 {
            return Err(DistError::InvalidParameter {
                name: "shape".into(),
                value: shape,
                requirement: "> 1 for a finite mean",
            });
        }
        let mean = require_positive("mean", mean)?;
        Self::new(shape, mean * (shape - 1.0))
    }

    /// Shape `α`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// Scale `σ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl DurationDist for Pareto {
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (1.0 + x / self.scale).powf(-self.shape)
        }
    }

    /// With `r = 1 + y/σ`: `F(y) = 1 − r^{−α}`,
    /// `A(y) = ∫₀^y (1+u/σ)^{−α} du` and `AA(y) = ∫₀^y A(u) du`:
    ///
    /// | α | `A(y)` | `AA(y)` |
    /// |---|---|---|
    /// | 1 | `σ ln r` | `σ[(σ+y) ln r − y]` |
    /// | 2 | `σ/(1−α) (r^{1−α} − 1)` | `σ[y − σ ln r]` |
    /// | other | `σ/(1−α) (r^{1−α} − 1)` | `σ/(1−α) [σ/(2−α)(r^{2−α} − 1) − y]` |
    fn cdf_and_survival_integrals(&self, y: f64) -> (f64, f64, f64) {
        if y <= 0.0 {
            return (0.0, 0.0, 0.0);
        }
        if y.is_infinite() {
            return (1.0, self.mean(), f64::INFINITY);
        }
        let (a, s) = (self.shape, self.scale);
        let r = 1.0 + y / s;
        let f = 1.0 - r.powf(-a);
        if (a - 1.0).abs() < 1e-12 {
            (f, s * r.ln(), s * (s * r * r.ln() - y))
        } else {
            let a_y = s / (1.0 - a) * (r.powf(1.0 - a) - 1.0);
            let aa = if (a - 2.0).abs() < 1e-12 {
                s * (y - s * r.ln())
            } else {
                s / (1.0 - a) * (s / (2.0 - a) * (r.powf(2.0 - a) - 1.0) - y)
            };
            (f, a_y, aa)
        }
    }

    fn mean(&self) -> f64 {
        if self.shape > 1.0 {
            self.scale / (self.shape - 1.0)
        } else {
            f64::INFINITY
        }
    }

    fn variance(&self) -> f64 {
        let a = self.shape;
        if a > 2.0 {
            let s = self.scale;
            s * s * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        } else {
            f64::INFINITY
        }
    }

    fn sample(&self, rng: &mut SeededRng) -> f64 {
        // Inverse transform: x = σ [(1−u)^{−1/α} − 1].
        self.scale * (u01_open(rng).powf(-1.0 / self.shape) - 1.0)
    }

    fn support_hint(&self) -> (f64, f64) {
        // Quantile 1 − 1e-12: σ[(1e-12)^{−1/α} − 1].
        (0.0, self.scale * (1e-12f64.powf(-1.0 / self.shape) - 1.0))
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile domain: p in [0,1]");
        if p >= 1.0 {
            f64::INFINITY
        } else {
            self.scale * ((1.0 - p).powf(-1.0 / self.shape) - 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duration::assert_integrals_consistent;
    use crate::rng::seeded;

    #[test]
    fn construction() {
        assert!(Pareto::new(0.0, 1.0).is_err());
        assert!(Pareto::with_shape_mean(0.9, 5.0).is_err());
        let d = Pareto::with_shape_mean(2.5, 8.0).unwrap();
        assert!((d.mean() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_integral_matches_numeric_including_alpha_one() {
        for d in [
            Pareto::new(1.0, 4.0).unwrap(),
            Pareto::new(2.5, 12.0).unwrap(),
            Pareto::new(0.7, 3.0).unwrap(),
        ] {
            assert_integrals_consistent(&d, &[0.5, 3.0, 20.0, 150.0]);
        }
    }

    #[test]
    fn cdf_integral2_matches_numeric_including_alpha_one_and_two() {
        for &a in &[0.7, 1.0, 1.5, 2.0, 3.5] {
            let d = Pareto::new(a, 6.0).unwrap();
            // The support is unbounded; 400 is far past the bulk.
            assert_integrals_consistent(&d, &[0.5, 4.0, 20.0, 120.0, 400.0]);
        }
    }

    #[test]
    fn heavy_tail_is_heavy() {
        // P[X > 10·mean] for Lomax(1.5) vs exponential of the same mean.
        let p = Pareto::with_shape_mean(1.5, 8.0).unwrap();
        let e = crate::kinds::Exponential::with_mean(8.0).unwrap();
        let x = 80.0;
        assert!(
            1.0 - p.cdf(x) > 10.0 * (1.0 - e.cdf(x)),
            "Pareto tail {} vs exp tail {}",
            1.0 - p.cdf(x),
            1.0 - e.cdf(x)
        );
    }

    #[test]
    fn sample_mean_converges_when_finite() {
        let d = Pareto::with_shape_mean(3.0, 5.0).unwrap();
        let mut rng = seeded(15);
        let n = 400_000;
        let s: f64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = s / n as f64;
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn quantile_round_trip() {
        let d = Pareto::new(2.0, 6.0).unwrap();
        for &p in &[0.1, 0.5, 0.95, 0.999] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn infinite_moments_signalled() {
        let d = Pareto::new(0.8, 1.0).unwrap();
        assert!(d.mean().is_infinite());
        let d2 = Pareto::new(1.5, 1.0).unwrap();
        assert!(d2.mean().is_finite());
        assert!(d2.variance().is_infinite());
    }
}
