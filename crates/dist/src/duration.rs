//! The [`DurationDist`] trait: what the analytic model needs to know about
//! the distribution of VCR-operation durations.
//!
//! The paper (§3.1) deliberately keeps the VCR-duration distribution
//! general: "we assume that the VCR behavior has a general distribution and
//! construct a model which is able to handle a general probability
//! distribution". Every probability in the model reduces to evaluations of
//! the cdf `F`, its running integral `H(y) = ∫₀^y F(u) du` and the second
//! running integral `HH(y) = ∫₀^y H(u) du` (the model's outer integral
//! over the viewer position `V_c` is then exact, see DESIGN.md §3).
//!
//! The trait's primitives are the *survival* integrals
//! `A(y) = ∫₀^y (1 − F) = y − H(y)` and `AA(y) = ∫₀^y A = y²/2 − HH(y)`:
//! they stay of order `mean` and `mean·y` where `H` and `HH` grow like `y`
//! and `y²/2`, and the model differences them over windows much shorter
//! than `y`. `H` and `HH` are provided from them. Sampling (for the
//! simulator) and moments (for workload construction and tests) complete
//! the trait.

use crate::quad::adaptive_simpson;
use crate::rng::SeededRng;
use crate::root::brent;

/// A probability distribution over non-negative VCR-operation durations,
/// measured in movie minutes (see DESIGN.md §3 for the unit convention).
///
/// Implementations must satisfy, for all `x ≤ y`:
/// * `0 ≤ cdf(x) ≤ cdf(y) ≤ 1`, with `cdf(x) = 0` for `x ≤ 0`;
/// * `survival_integral(y) − survival_integral(x) ∈ [0, y − x]` (it
///   integrates `1 − F ∈ [0, 1]`), with value 0 for `y ≤ 0`; hence
///   `cdf_integral(y) − cdf_integral(x) ∈ [0, y − x]` too;
/// * `survival_integral2(y) = 0` for `y ≤ 0` and
///   `survival_integral2(y) − survival_integral2(x) ∈
///   [(y − x)·survival_integral(x), (y − x)·survival_integral(y)]` (it
///   integrates the non-decreasing `survival_integral`); hence
///   `cdf_integral2(y) = 0` for `y ≤ 0`, it is convex, and
///   `cdf_integral2(y) − cdf_integral2(x) ∈ [0, (y − x)·cdf_integral(y)]`;
/// * `sample` draws from the same law as `cdf` describes.
///
/// The trait is object-safe: the model and the simulator both work with
/// `&dyn DurationDist`.
pub trait DurationDist: std::fmt::Debug + Send + Sync {
    /// Probability density at `x` (0 for `x < 0`). Distributions with atoms
    /// (e.g. [`crate::kinds::Deterministic`]) return 0 everywhere and are
    /// described entirely by their cdf.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function `F(x) = P[X ≤ x]`.
    fn cdf(&self, x: f64) -> f64;

    /// `A(y) = ∫₀^y (1 − F(u)) du = E[min(X, y)]`, the running integral of
    /// the survival function (the limited expected value).
    ///
    /// For `y ≤ 0` this is 0. In terms of the partial moment
    /// `M₁(y) = E[X; X ≤ y]` it reads `y·(1 − F(y)) + M₁(y)`, a sum of
    /// non-negative terms, which is how the built-in distributions evaluate
    /// it in closed form.
    fn survival_integral(&self, y: f64) -> f64;

    /// `AA(y) = ∫₀^y A(u) du = y²/2 − ½·E[(y − X)₊²]`, the second running
    /// integral of the survival function.
    ///
    /// For `y ≤ 0` this is 0. With the partial moments
    /// `M_r(y) = E[X^r; X ≤ y]` it reads
    /// `½[y²(1 − F(y)) + 2y·M₁(y) − M₂(y)]`; `M₂ ≤ y·M₁` keeps the one
    /// subtraction benign.
    fn survival_integral2(&self, y: f64) -> f64;

    /// `(F(y), A(y), AA(y))` at one point: what the model asks at every
    /// point it evaluates. The default is the three calls above. A kind
    /// whose three share their special functions (one `ln y`, one
    /// incomplete gamma per shape, one set of `Φ` values) overrides it, and
    /// then its [`DurationDist::survival_integral`] and
    /// [`DurationDist::survival_integral2`] are projections of it, so each
    /// formula is written once (a projection without the override would
    /// recurse). Either way the triple is bitwise the three calls.
    fn cdf_and_survival_integrals(&self, y: f64) -> (f64, f64, f64) {
        (
            self.cdf(y),
            self.survival_integral(y),
            self.survival_integral2(y),
        )
    }

    /// `H(y) = ∫₀^y F(u) du = y − A(y)`, the running integral of the cdf.
    /// For `y ≤ 0` this is 0.
    fn cdf_integral(&self, y: f64) -> f64 {
        if y <= 0.0 {
            0.0
        } else {
            y - self.survival_integral(y)
        }
    }

    /// `HH(y) = ∫₀^y H(u) du = ½·E[(y − X)₊²] = y²/2 − AA(y)`, the second
    /// running integral of the cdf. For `y ≤ 0` this is 0.
    fn cdf_integral2(&self, y: f64) -> f64 {
        if y <= 0.0 {
            0.0
        } else {
            0.5 * y * y - self.survival_integral2(y)
        }
    }

    /// Mean of the distribution.
    fn mean(&self) -> f64;

    /// Variance of the distribution.
    fn variance(&self) -> f64;

    /// Draw one variate from the workspace's one generator. It is named
    /// concretely, not as a type parameter, so the trait stays object-safe
    /// and every `next_u64` inside a sampler is a direct call.
    fn sample(&self, rng: &mut SeededRng) -> f64;

    /// An interval `[lo, hi]` outside of which the distribution has
    /// (essentially) no mass; used to bracket quantile searches and to
    /// bound numeric integration. The default covers heavy-tailed
    /// distributions via the mean.
    fn support_hint(&self) -> (f64, f64) {
        (0.0, f64::INFINITY)
    }

    /// `p`-quantile (generalized inverse cdf). The default implementation
    /// brackets using [`DurationDist::support_hint`] and solves with
    /// Brent's method; distributions with a closed-form inverse override
    /// this.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`.
    fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile domain: p in [0,1]");
        if crate::approx::exact_zero(p) {
            return 0.0;
        }
        let (lo, hint_hi) = self.support_hint();
        // Expand the upper bracket geometrically until it covers p.
        let mut hi = if hint_hi.is_finite() {
            hint_hi
        } else {
            (self.mean() + 4.0 * self.variance().sqrt()).max(1.0)
        };
        let mut guard = 0;
        while self.cdf(hi) < p {
            hi *= 2.0;
            guard += 1;
            if guard > 200 {
                return hi; // p is (numerically) 1; return the far tail.
            }
        }
        brent(|x| self.cdf(x) - p, lo, hi, 1e-12 * (1.0 + hi)).unwrap_or(0.5 * (lo + hi))
    }
}

/// Numeric reference for [`DurationDist::cdf_integral`]: adaptive Simpson on
/// the cdf. Cost is a few hundred cdf evaluations at `tol = 1e-10`; fine
/// for one-off use and for tests of a closed form.
pub fn numeric_cdf_integral(dist: &dyn DurationDist, y: f64) -> f64 {
    if y <= 0.0 {
        return 0.0;
    }
    adaptive_simpson(|u| dist.cdf(u), 0.0, y, 1e-10)
}

/// Numeric reference for [`DurationDist::cdf_integral2`]: adaptive Simpson
/// on `(y − u)·F(u)`, which equals `∫₀^y H` after exchanging the order of
/// integration and needs only the cdf.
pub fn numeric_cdf_integral2(dist: &dyn DurationDist, y: f64) -> f64 {
    if y <= 0.0 {
        return 0.0;
    }
    adaptive_simpson(|u| (y - u) * dist.cdf(u), 0.0, y, 1e-10)
}

/// Test helper shared by every kind: at each `y` the four integrals agree
/// with the numeric references to `1e-6`, and central differences
/// reproduce `HH' = H` and `AA' = A`.
#[cfg(test)]
pub(crate) fn assert_integrals_consistent(dist: &dyn DurationDist, ys: &[f64]) {
    use crate::approx::exact_zero;
    for y in [0.0, -1.0] {
        assert!(
            exact_zero(dist.survival_integral(y))
                && exact_zero(dist.survival_integral2(y))
                && exact_zero(dist.cdf_integral(y))
                && exact_zero(dist.cdf_integral2(y)),
            "{dist:?}: the integrals must vanish at y = {y}"
        );
    }
    for &y in ys {
        let (h, hh) = (
            numeric_cdf_integral(dist, y),
            numeric_cdf_integral2(dist, y),
        );
        for (name, analytic, numeric) in [
            ("H", dist.cdf_integral(y), h),
            ("HH", dist.cdf_integral2(y), hh),
            ("A", dist.survival_integral(y), y - h),
            ("AA", dist.survival_integral2(y), 0.5 * y * y - hh),
        ] {
            // 1e-6, plus the f64 resolution of the O(y²) values far out.
            assert!(
                (analytic - numeric).abs() <= 1e-6 + 4.0 * f64::EPSILON * y * y,
                "{dist:?} y={y}: {name} analytic {analytic} vs numeric {numeric}"
            );
        }
        // Central differences of C¹ functions with 1-Lipschitz derivative:
        // error ≤ e, plus rounding ≈ eps·value/e.
        let e = 1e-4 * (1.0 + y);
        let hh_slope = (dist.cdf_integral2(y + e) - dist.cdf_integral2(y - e)) / (2.0 * e);
        let aa_slope =
            (dist.survival_integral2(y + e) - dist.survival_integral2(y - e)) / (2.0 * e);
        assert!(
            (hh_slope - dist.cdf_integral(y)).abs() <= 2.0 * e,
            "{dist:?} y={y}: HH' {hh_slope} vs H {}",
            dist.cdf_integral(y)
        );
        assert!(
            (aa_slope - dist.survival_integral(y)).abs() <= 2.0 * e,
            "{dist:?} y={y}: AA' {aa_slope} vs A {}",
            dist.survival_integral(y)
        );
    }
}

/// Shared validation helper: check that a would-be parameter is finite and
/// strictly positive, returning a uniform error message.
pub(crate) fn require_positive(name: &str, v: f64) -> Result<f64, crate::DistError> {
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(crate::DistError::InvalidParameter {
            name: name.to_string(),
            value: v,
            requirement: "finite and > 0",
        })
    }
}

/// Shared validation helper for non-negative parameters.
pub(crate) fn require_non_negative(name: &str, v: f64) -> Result<f64, crate::DistError> {
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(crate::DistError::InvalidParameter {
            name: name.to_string(),
            value: v,
            requirement: "finite and >= 0",
        })
    }
}

/// Shared validation helper for a kind that caches constants derived from
/// its parameters: every cached constant must be finite, or the parameter
/// `name` (= `value`) is refused with `requirement`. A constant that
/// overflowed would otherwise surface as a NaN far from its cause.
pub(crate) fn require_finite_constants(
    name: &str,
    value: f64,
    constants: &[f64],
    requirement: &'static str,
) -> Result<(), crate::DistError> {
    if constants.iter().all(|c| c.is_finite()) {
        Ok(())
    } else {
        Err(crate::DistError::InvalidParameter {
            name: name.to_string(),
            value,
            requirement,
        })
    }
}
