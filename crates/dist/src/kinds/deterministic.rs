//! Deterministic (point-mass) distribution: every VCR operation sweeps the
//! same distance. Valuable as an analytic edge case — the hit probability
//! becomes a piecewise-linear function of the system geometry, so model
//! results can be verified by hand.

use crate::duration::{require_non_negative, DurationDist};
use crate::rng::SeededRng;
use crate::DistError;

/// Point mass at `value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Construct a point mass at `value ≥ 0`.
    pub fn new(value: f64) -> Result<Self, DistError> {
        Ok(Self {
            value: require_non_negative("value", value)?,
        })
    }

    /// The constant value.
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl DurationDist for Deterministic {
    fn cdf(&self, x: f64) -> f64 {
        if x >= self.value {
            1.0
        } else {
            0.0
        }
    }

    /// `A(y) = min(y, v)` and `AA(y) = ∫₀^y min(u, v) du` (both 0 below 0).
    /// The point mass at 0 has `AA ≡ 0`, `+∞` included, where `v·(y − v)`
    /// would read `0·∞`.
    fn cdf_and_survival_integrals(&self, y: f64) -> (f64, f64, f64) {
        let inside = y.clamp(0.0, self.value);
        let beyond = if self.value > 0.0 {
            self.value * (y - self.value).max(0.0)
        } else {
            0.0
        };
        (self.cdf(y), inside, 0.5 * inside * inside + beyond)
    }

    fn mean(&self) -> f64 {
        self.value
    }

    fn variance(&self) -> f64 {
        0.0
    }

    fn sample(&self, _rng: &mut SeededRng) -> f64 {
        self.value
    }

    fn support_hint(&self) -> (f64, f64) {
        (0.0, self.value)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile domain: p in [0,1]");
        if crate::approx::exact_zero(p) {
            0.0
        } else {
            self.value
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duration::assert_integrals_consistent;
    use crate::rng::seeded;

    #[test]
    fn step_cdf() {
        let d = Deterministic::new(3.0).unwrap();
        assert_eq!(d.cdf(2.999), 0.0);
        assert_eq!(d.cdf(3.0), 1.0);
        assert_eq!(d.cdf(4.0), 1.0);
    }

    #[test]
    fn ramp_cdf_integral() {
        let d = Deterministic::new(3.0).unwrap();
        assert_eq!(d.cdf_integral(2.0), 0.0);
        assert_eq!(d.cdf_integral(3.0), 0.0);
        assert_eq!(d.cdf_integral(5.0), 2.0);
    }

    #[test]
    fn cdf_integral2_matches_numeric() {
        let d = Deterministic::new(4.0).unwrap();
        assert_eq!(d.cdf_integral2(10.0), 18.0);
        assert_integrals_consistent(&d, &[2.0, 4.0, 5.0, 10.0, 30.0]);
    }

    #[test]
    fn sampling_is_constant() {
        let d = Deterministic::new(1.5).unwrap();
        let mut rng = seeded(0);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 1.5);
        }
    }

    #[test]
    fn zero_point_mass_is_valid() {
        let d = Deterministic::new(0.0).unwrap();
        assert_eq!(d.cdf(0.0), 1.0);
        assert_eq!(d.cdf_integral(4.0), 4.0);
    }
}
