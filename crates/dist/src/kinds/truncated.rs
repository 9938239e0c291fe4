//! Truncation adapter: restrict any duration distribution to `[lo, hi]`
//! and renormalize.
//!
//! The paper defines the VCR-duration pdf on `[0, l]` (a FF can sweep at
//! most the whole movie); `Truncated` makes that restriction explicit for
//! base distributions with unbounded support.

use crate::duration::DurationDist;
use crate::rng::{u01, SeededRng};
use crate::DistError;

/// `base` conditioned on the event `lo ≤ X ≤ hi`.
#[derive(Debug)]
pub struct Truncated<D> {
    base: D,
    lo: f64,
    hi: f64,
    /// The base's `(F, A, AA)` at `lo`.
    f_lo: f64,
    a_lo: f64,
    aa_lo: f64,
    /// 1 − F_base(hi)
    s_hi: f64,
    /// Mass retained: F_base(hi) − F_base(lo).
    mass: f64,
    mean: f64,
    variance: f64,
}

impl<D: DurationDist> Truncated<D> {
    /// Truncate `base` to `[lo, hi]`. Fails when the bounds are inverted,
    /// non-finite, negative, or capture (numerically) no mass.
    pub fn new(base: D, lo: f64, hi: f64) -> Result<Self, DistError> {
        if !(lo.is_finite() && hi.is_finite() && lo >= 0.0 && hi > lo) {
            return Err(DistError::BadTruncation { lo, hi });
        }
        let (f_lo, a_lo, aa_lo) = base.cdf_and_survival_integrals(lo);
        let f_hi = base.cdf(hi);
        let mass = f_hi - f_lo;
        if mass <= 1e-12 {
            return Err(DistError::BadTruncation { lo, hi });
        }
        let mut t = Self {
            base,
            lo,
            hi,
            f_lo,
            a_lo,
            aa_lo,
            s_hi: 1.0 - f_hi,
            mass,
            mean: 0.0,
            variance: 0.0,
        };
        // Both moments from the survival integrals, which at `hi` read only
        // the window fields set above: E[X] = ∫₀^hi S_T = A_T(hi), and by
        // parts E[X²] = 2 ∫₀^hi u·S_T(u) du = 2·(hi·A_T(hi) − AA_T(hi)).
        let (_, mean, aa_hi) = t.cdf_and_survival_integrals(hi);
        t.mean = mean;
        let ex2 = 2.0 * (hi * t.mean - aa_hi);
        t.variance = (ex2 - t.mean * t.mean).max(0.0);
        if !(t.mean.is_finite() && ex2.is_finite()) {
            return Err(DistError::BadTruncation { lo, hi });
        }
        Ok(t)
    }

    /// Borrow the base distribution.
    pub fn base(&self) -> &D {
        &self.base
    }
}

impl<D: DurationDist> DurationDist for Truncated<D> {
    fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            ((self.base.cdf(x) - self.f_lo) / self.mass).clamp(0.0, 1.0)
        }
    }

    /// Before `lo` the survival function is 1, on `[lo, hi]` it is
    /// `(S_base(u) − S_base(hi))/mass` and beyond `hi` it is 0. So `A_T`
    /// is `lo` plus the base's `A` over the window less the mass above
    /// `hi`; `AA_T` is the quadratic up to `lo`, then the base's `AA` minus
    /// the quadratic that removes the base's own `A(lo)` and the mass above
    /// `hi`; beyond `hi`, `A_T` stays at the mean. With `d = min(y, hi) − lo`,
    /// `A_T` reads the base at `lo + d`, which can differ from `min(y, hi)`
    /// in the last bit (`lo = 0.1`, `y = 0.41`), so it asks the base twice.
    fn cdf_and_survival_integrals(&self, y: f64) -> (f64, f64, f64) {
        if y <= self.lo {
            let y = y.max(0.0);
            return (0.0, y, 0.5 * y * y);
        }
        let y_in = y.min(self.hi);
        let d = y_in - self.lo;
        let (f_in, _, aa_in) = self.base.cdf_and_survival_integrals(y_in);
        let f = if y >= self.hi {
            1.0
        } else {
            ((f_in - self.f_lo) / self.mass).clamp(0.0, 1.0)
        };
        let a = self.lo
            + (self.base.survival_integral(self.lo + d) - self.a_lo - d * self.s_hi) / self.mass;
        let aa = 0.5 * self.lo * self.lo
            + self.lo * d
            + (aa_in - self.aa_lo - d * self.a_lo - 0.5 * d * d * self.s_hi) / self.mass
            + (y - y_in) * self.mean;
        (f, a, aa)
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.variance
    }

    fn sample(&self, rng: &mut SeededRng) -> f64 {
        // Inverse transform through the base quantile: exact, no rejection
        // loop even for narrow windows.
        let u = self.f_lo + u01(rng) * self.mass;
        self.base.quantile(u.min(1.0)).clamp(self.lo, self.hi)
    }

    fn support_hint(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duration::assert_integrals_consistent;
    use crate::kinds::{Exponential, Gamma, LogNormal, Weibull};
    use crate::quad::adaptive_simpson;
    use crate::rng::seeded;

    #[test]
    fn rejects_bad_windows() {
        let base = Exponential::with_mean(5.0).unwrap();
        assert!(Truncated::new(base, 3.0, 3.0).is_err());
        let base = Exponential::with_mean(5.0).unwrap();
        assert!(Truncated::new(base, -1.0, 3.0).is_err());
        let base = Exponential::with_mean(5.0).unwrap();
        // Window far in the tail holds no numerically measurable mass.
        assert!(Truncated::new(base, 400.0, 500.0).is_err());
        // A window so wide that the cached second moment overflows.
        let base = crate::kinds::Uniform::new(0.0, 1e300).unwrap();
        assert!(Truncated::new(base, 0.0, 1e300).is_err());
    }

    /// The closed-form moments against the quadrature they replaced, kept
    /// here as the oracle: `E[X] = lo + ∫ S_T`, `E[X²] = lo² + 2 ∫ u·S_T`
    /// over `[lo, hi]`.
    #[test]
    fn moments_match_quadrature() {
        fn check<D: DurationDist>(name: &str, make: impl Fn() -> D) {
            for lo in [0.0, 2.0, 10.0] {
                for hi in [12.0, 40.0, 120.0] {
                    let t = Truncated::new(make(), lo, hi).unwrap();
                    let s = |u: f64| 1.0 - t.cdf(u);
                    let mean = lo + adaptive_simpson(s, lo, hi, 1e-12);
                    let ex2 = lo * lo + 2.0 * adaptive_simpson(|u| u * s(u), lo, hi, 1e-12);
                    assert!(
                        (t.mean() - mean).abs() < 1e-9,
                        "{name} [{lo}, {hi}]: mean {} vs {mean}",
                        t.mean()
                    );
                    let variance = ex2 - mean * mean;
                    assert!(
                        (t.variance() - variance).abs() < 1e-9,
                        "{name} [{lo}, {hi}]: variance {} vs {variance}",
                        t.variance()
                    );
                }
            }
        }
        check("exponential", || Exponential::with_mean(5.0).unwrap());
        check("gamma(2,4)", Gamma::paper_fig7);
        check("lognormal", || LogNormal::new(1.5, 0.6).unwrap());
        // Its [10, 12] window keeps under 1 % of the base's mass.
        let weibull = || Weibull::new(2.0, 4.0).unwrap();
        assert!(Truncated::new(weibull(), 10.0, 12.0).unwrap().mass < 0.01);
        check("weibull", weibull);
    }

    #[test]
    fn cdf_spans_zero_to_one() {
        let t = Truncated::new(Gamma::paper_fig7(), 0.0, 120.0).unwrap();
        assert_eq!(t.cdf(0.0), 0.0);
        assert_eq!(t.cdf(120.0), 1.0);
        assert!(t.cdf(8.0) > 0.0 && t.cdf(8.0) < 1.0);
    }

    #[test]
    fn truncation_to_support_is_nearly_identity() {
        // Gamma(2,4) has mass ~1 − 3e-12 below 120; truncating changes
        // nothing measurable.
        let g = Gamma::paper_fig7();
        let t = Truncated::new(Gamma::paper_fig7(), 0.0, 120.0).unwrap();
        for &x in &[1.0, 8.0, 30.0, 100.0] {
            assert!((t.cdf(x) - g.cdf(x)).abs() < 1e-8, "x={x}");
            assert!((t.cdf_integral(x) - g.cdf_integral(x)).abs() < 1e-6);
        }
        assert!((t.mean() - 8.0).abs() < 1e-4);
    }

    #[test]
    fn cdf_integral_matches_numeric() {
        let t = Truncated::new(Exponential::with_mean(6.0).unwrap(), 2.0, 20.0).unwrap();
        assert_integrals_consistent(&t, &[1.0, 2.5, 10.0, 20.0, 35.0]);
    }

    #[test]
    fn cdf_integral2_matches_numeric() {
        // Below, inside and beyond a window that starts off the dyadics.
        let t = Truncated::new(Gamma::paper_fig7(), 0.1, 30.0).unwrap();
        assert_integrals_consistent(&t, &[0.05, 0.41, 3.0, 30.0, 40.0]);
    }

    #[test]
    fn samples_respect_window_and_law() {
        let t = Truncated::new(Exponential::with_mean(4.0).unwrap(), 1.0, 9.0).unwrap();
        let mut rng = seeded(21);
        let n = 100_000;
        let mut s = 0.0;
        let mut below4 = 0usize;
        for _ in 0..n {
            let x = t.sample(&mut rng);
            assert!((1.0..=9.0).contains(&x), "sample {x} out of window");
            s += x;
            if x <= 4.0 {
                below4 += 1;
            }
        }
        assert!((s / n as f64 - t.mean()).abs() < 0.03 * t.mean());
        assert!((below4 as f64 / n as f64 - t.cdf(4.0)).abs() < 0.01);
    }
}
