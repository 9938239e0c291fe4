//! Numerical quadrature.
//!
//! The analytic hit model reduces every probability to one-dimensional
//! integrals of smooth (piecewise-C¹) integrands built from a distribution's
//! cdf. Two integrators are provided:
//!
//! * [`adaptive_simpson`] — recursive adaptive Simpson with error control;
//!   the workhorse for model evaluation (integrands may have a few kinks
//!   from `min`/`max` clamping, which adaptivity handles well).
//! * [`gauss_legendre`] — fixed-order Gauss–Legendre panels; used where a
//!   predictable, allocation-free cost matters (benchmarks, inner loops).

/// Default relative/absolute tolerance used by the model.
pub const DEFAULT_TOL: f64 = 1e-10;

/// Default maximum recursion depth for adaptive Simpson. 2^40 subdivisions
/// is unreachable in practice; the depth cap guards against adversarial
/// integrands rather than normal use.
pub const DEFAULT_MAX_DEPTH: u32 = 40;

/// Minimum forced recursion depth. Piecewise-linear integrands (empirical
/// cdfs, clamped model integrands) can alias: the 5-point Richardson test
/// sees collinear samples around a kink and accepts a wrong panel. Forcing
/// the first levels to always subdivide bounds any single kink's error by
/// the width of a 1/2^MIN_DEPTH panel.
const MIN_DEPTH: u32 = 6;

/// Adaptive Simpson quadrature of `f` over `[a, b]`.
///
/// `tol` is an absolute error target for the whole interval; each recursion
/// halves the interval and splits the budget. Returns 0 for empty or
/// inverted intervals (`b <= a`), which is the convention the model relies
/// on when integration ranges are clamped empty.
pub fn adaptive_simpson<F: FnMut(f64) -> f64>(f: F, a: f64, b: f64, tol: f64) -> f64 {
    adaptive_simpson_with_depth(f, a, b, tol, DEFAULT_MAX_DEPTH)
}

/// [`adaptive_simpson`] with an explicit recursion-depth cap.
///
/// The forced-subdivision guard (see [`MIN_DEPTH`](self)) counts levels
/// *elapsed from this entry point*, so it behaves identically at any
/// `max_depth` — including caps below [`DEFAULT_MAX_DEPTH`] (cheap bounded
/// integration) and above it.
pub fn adaptive_simpson_with_depth<F: FnMut(f64) -> f64>(
    mut f: F,
    a: f64,
    b: f64,
    tol: f64,
    max_depth: u32,
) -> f64 {
    if !interval_is_forward(a, b) {
        return 0.0;
    }
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let whole = simpson_rule(a, b, fa, fm, fb);
    adaptive_step(
        &mut f,
        a,
        b,
        fa,
        fm,
        fb,
        whole,
        tol.max(f64::EPSILON),
        0,
        max_depth,
    )
}

/// True iff `[a, b]` is a non-empty forward interval (NaN endpoints and
/// empty/inverted ranges integrate to 0 by convention).
#[inline]
fn interval_is_forward(a: f64, b: f64) -> bool {
    matches!(b.partial_cmp(&a), Some(std::cmp::Ordering::Greater))
}

/// One Simpson's-rule panel over `[a, b]` given endpoint and midpoint values.
#[inline]
fn simpson_rule(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn adaptive_step<F: FnMut(f64) -> f64>(
    f: &mut F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    elapsed: u32,
    remaining: u32,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson_rule(a, m, fa, flm, fm);
    let right = simpson_rule(m, b, fm, frm, fb);
    let delta = left + right - whole;
    // Richardson criterion: Simpson error shrinks ~15x per halving. The
    // MIN_DEPTH guard forces early levels to subdivide regardless, so a
    // kink cannot masquerade as convergence (see MIN_DEPTH docs). Forcing
    // is keyed on levels elapsed since the entry call, not on distance
    // from DEFAULT_MAX_DEPTH, so custom depth caps keep the guard.
    let forced = elapsed < MIN_DEPTH;
    if remaining == 0 || (!forced && delta.abs() <= 15.0 * tol) {
        left + right + delta / 15.0
    } else {
        let half_tol = 0.5 * tol;
        adaptive_step(
            f,
            a,
            m,
            fa,
            flm,
            fm,
            left,
            half_tol,
            elapsed + 1,
            remaining - 1,
        ) + adaptive_step(
            f,
            m,
            b,
            fm,
            frm,
            fb,
            right,
            half_tol,
            elapsed + 1,
            remaining - 1,
        )
    }
}

/// 16-point Gauss–Legendre: the 8 nodes below 1/2 on `[0, 1]` and their
/// weights (the other 8 nodes are the mirror images `1 − x` with the same
/// weights). Mapped from the standard symmetric nodes on `[-1, 1]` via
/// `x₀₁ = (1 + x)/2`, `w₀₁ = w/2`; the 16 weights sum to 1.
const GL16_X: [f64; 8] = [
    0.005_299_532_504_175_03,
    0.027_712_488_463_383_7,
    0.067_184_398_806_084_1,
    0.122_297_795_822_498_5,
    0.191_061_877_798_678_1,
    0.270_991_611_171_386_3,
    0.359_198_224_610_370_55,
    0.452_493_745_081_181_3,
];
const GL16_W: [f64; 8] = [
    0.013_576_229_705_877_05,
    0.031_126_761_969_323_95,
    0.047_579_255_841_246_4,
    0.062_314_485_627_766_95,
    0.074_797_994_408_288_35,
    0.084_578_259_697_501_25,
    0.091_301_707_522_461_8,
    0.094_725_305_227_534_25,
];

/// Fixed 16-point Gauss–Legendre quadrature of `f` over `[a, b]`.
///
/// Exact for polynomials of degree ≤ 31; for smooth integrands it reaches
/// near machine precision on moderate intervals. For integrands with kinks
/// use [`gauss_legendre_panels`] or [`adaptive_simpson`].
pub fn gauss_legendre<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64) -> f64 {
    if !interval_is_forward(a, b) {
        return 0.0;
    }
    let h = b - a;
    let mut acc = 0.0;
    // Symmetric nodes: x and 1-x share a weight.
    for i in 0..8 {
        let x = GL16_X[i];
        let w = GL16_W[i];
        acc += w * (f(a + h * x) + f(a + h * (1.0 - x)));
    }
    acc * h
}

/// Composite Gauss–Legendre over `panels` equal sub-intervals of `[a, b]`.
///
/// Useful when the integrand has a bounded number of kinks: with enough
/// panels each kink affects only one panel and convergence is restored.
pub fn gauss_legendre_panels<F: FnMut(f64) -> f64>(mut f: F, a: f64, b: f64, panels: usize) -> f64 {
    if !interval_is_forward(a, b) || panels == 0 {
        return 0.0;
    }
    let h = (b - a) / panels as f64;
    let mut acc = 0.0;
    for k in 0..panels {
        let lo = a + k as f64 * h;
        acc += gauss_legendre(&mut f, lo, lo + h);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simpson_polynomial_exact() {
        // Simpson is exact for cubics even without adaptivity.
        let got = adaptive_simpson(|x| 3.0 * x * x, 0.0, 2.0, 1e-12);
        assert!((got - 8.0).abs() < 1e-12, "got {got}");
        let got = adaptive_simpson(|x| x * x * x - x, -1.0, 3.0, 1e-12);
        // ∫ x^3 - x over [-1,3] = [x^4/4 - x^2/2] = (81/4 - 9/2) - (1/4 - 1/2)
        let want = (81.0 / 4.0 - 4.5) - (0.25 - 0.5);
        assert!((got - want).abs() < 1e-10, "got {got} want {want}");
    }

    #[test]
    fn simpson_transcendental() {
        let got = adaptive_simpson(|x| x.exp(), 0.0, 1.0, 1e-12);
        assert!((got - (std::f64::consts::E - 1.0)).abs() < 1e-10);
        let got = adaptive_simpson(|x| x.sin(), 0.0, std::f64::consts::PI, 1e-12);
        assert!((got - 2.0).abs() < 1e-10);
    }

    #[test]
    fn simpson_empty_interval_is_zero() {
        assert_eq!(adaptive_simpson(|x| x, 1.0, 1.0, 1e-9), 0.0);
        assert_eq!(adaptive_simpson(|x| x, 2.0, 1.0, 1e-9), 0.0);
    }

    #[test]
    fn simpson_handles_kink() {
        // ∫₀² |x-1| dx = 1
        let got = adaptive_simpson(|x| (x - 1.0f64).abs(), 0.0, 2.0, 1e-11);
        assert!((got - 1.0).abs() < 1e-9, "got {got}");
    }

    #[test]
    fn forced_subdivision_works_at_non_default_depth() {
        // A narrow spike (support [0.27, 0.33]) that every top-level
        // Simpson sample point misses: the Richardson test sees zeros
        // everywhere and would accept 0 unless the first MIN_DEPTH levels
        // are forced to subdivide. Keying forcing on
        // `DEFAULT_MAX_DEPTH - depth` would disable the guard
        // entirely for any entry depth ≤ DEFAULT_MAX_DEPTH − MIN_DEPTH.
        let spike = |x: f64| (1.0 - (x - 0.3f64).abs() / 0.03).max(0.0);
        let want = 0.03; // triangle area: ½ · 0.06 · 1
        for max_depth in [12u32, DEFAULT_MAX_DEPTH, 48] {
            let got = adaptive_simpson_with_depth(spike, 0.0, 1.0, 1e-10, max_depth);
            assert!(
                (got - want).abs() < 1e-6,
                "max_depth {max_depth}: got {got} want {want}"
            );
        }
    }

    #[test]
    fn depth_cap_bounds_work() {
        // With the cap below MIN_DEPTH the integrator still terminates and
        // degrades gracefully (coarse but finite answer).
        let got = adaptive_simpson_with_depth(|x: f64| x.exp(), 0.0, 1.0, 1e-12, 2);
        assert!(
            (got - (std::f64::consts::E - 1.0)).abs() < 1e-4,
            "got {got}"
        );
        // Depth 0: single Richardson-corrected panel, no recursion.
        let got = adaptive_simpson_with_depth(|x| 3.0 * x * x, 0.0, 2.0, 1e-12, 0);
        assert!((got - 8.0).abs() < 1e-12, "got {got}");
    }

    #[test]
    fn gauss_legendre_polynomial_exact() {
        // Degree-8 polynomial: 16-point GL is exact to machine precision.
        let got = gauss_legendre(|x| x.powi(8), 0.0, 1.0);
        assert!((got - 1.0 / 9.0).abs() < 1e-14, "got {got}");
    }

    #[test]
    fn gauss_legendre_matches_simpson_on_smooth() {
        let f = |x: f64| (1.0 + x * x).recip();
        let gl = gauss_legendre(f, 0.0, 1.0);
        let si = adaptive_simpson(f, 0.0, 1.0, 1e-12);
        let want = std::f64::consts::FRAC_PI_4; // arctan(1)
        assert!((gl - want).abs() < 1e-12);
        assert!((si - want).abs() < 1e-10);
    }

    #[test]
    fn panels_beat_single_on_kinky_integrand() {
        let f = |x: f64| (x - 0.37f64).abs();
        let want = 0.37f64.powi(2) / 2.0 + 0.63f64.powi(2) / 2.0;
        let many = gauss_legendre_panels(f, 0.0, 1.0, 64);
        assert!((many - want).abs() < 1e-6);
    }
}
