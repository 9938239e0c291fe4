//! Uniform distribution on an interval `[a, b]` — useful as a bounded,
//! maximally "spread" VCR-duration model and in tests where the closed
//! forms are trivial to check by hand.

use crate::duration::DurationDist;
use crate::rng::{u01, SeededRng};
use crate::DistError;

/// Uniform distribution on `[lo, hi]`, `0 ≤ lo < hi`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Construct a uniform distribution on `[lo, hi]`.
    pub fn new(lo: f64, hi: f64) -> Result<Self, DistError> {
        if !lo.is_finite() || lo < 0.0 {
            return Err(DistError::InvalidParameter {
                name: "lo".into(),
                value: lo,
                requirement: "finite and >= 0",
            });
        }
        if !hi.is_finite() || hi <= lo {
            return Err(DistError::InvalidParameter {
                name: "hi".into(),
                value: hi,
                requirement: "finite and > lo",
            });
        }
        Ok(Self { lo, hi })
    }

    /// Lower bound of the support.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound of the support.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

impl DurationDist for Uniform {
    fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (x - self.lo) / self.width()
        }
    }

    /// Before `lo` the survival function is 1 (`A = y`, `AA = y²/2`); on
    /// the support it falls linearly, so with `d = y − lo` `A` loses
    /// `d²/2w` and `AA` loses `d³/6w`; beyond `hi`, `A` is the mean and
    /// `AA` grows from `AA(hi) = hi²/2 − w²/6` at that slope.
    fn cdf_and_survival_integrals(&self, y: f64) -> (f64, f64, f64) {
        let w = self.width();
        if y <= 0.0 {
            (0.0, 0.0, 0.0)
        } else if y <= self.lo {
            (0.0, y, 0.5 * y * y)
        } else if y <= self.hi {
            let d = y - self.lo;
            (
                d / w,
                y - d * d / (2.0 * w),
                0.5 * y * y - d * d * d / (6.0 * w),
            )
        } else {
            let mean = self.mean();
            (
                1.0,
                mean,
                0.5 * self.hi * self.hi - w * w / 6.0 + mean * (y - self.hi),
            )
        }
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn variance(&self) -> f64 {
        let w = self.width();
        w * w / 12.0
    }

    fn sample(&self, rng: &mut SeededRng) -> f64 {
        self.lo + self.width() * u01(rng)
    }

    fn support_hint(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile domain: p in [0,1]");
        self.lo + p * self.width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duration::assert_integrals_consistent;
    use crate::rng::seeded;

    #[test]
    fn rejects_bad_bounds() {
        assert!(Uniform::new(-1.0, 2.0).is_err());
        assert!(Uniform::new(2.0, 2.0).is_err());
        assert!(Uniform::new(3.0, 2.0).is_err());
    }

    #[test]
    fn cdf_piecewise() {
        let d = Uniform::new(2.0, 6.0).unwrap();
        assert_eq!(d.cdf(1.0), 0.0);
        assert_eq!(d.cdf(2.0), 0.0);
        assert_eq!(d.cdf(4.0), 0.5);
        assert_eq!(d.cdf(6.0), 1.0);
        assert_eq!(d.cdf(9.0), 1.0);
    }

    #[test]
    fn cdf_integral_all_pieces() {
        let d = Uniform::new(2.0, 6.0).unwrap();
        assert_integrals_consistent(&d, &[0.0, 1.0, 2.0, 3.5, 6.0, 9.0]);
    }

    #[test]
    fn cdf_integral2_matches_numeric() {
        let d = Uniform::new(2.0, 10.0).unwrap();
        assert_integrals_consistent(&d, &[1.0, 2.5, 6.0, 10.0, 25.0]);
    }

    #[test]
    fn samples_in_range_with_right_mean() {
        let d = Uniform::new(1.0, 3.0).unwrap();
        let mut rng = seeded(5);
        let n = 100_000;
        let mut s = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!((1.0..=3.0).contains(&x));
            s += x;
        }
        assert!((s / n as f64 - 2.0).abs() < 0.01);
    }
}
