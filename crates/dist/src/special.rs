//! Special functions needed by the analytic model: log-gamma, the
//! regularized incomplete gamma functions, and the error function family.
//!
//! All routines are implemented from scratch. `ln Γ` is a Lanczos
//! approximation and the incomplete gamma functions are a power series and
//! a modified Lentz continued fraction, with absolute accuracy around
//! `1e-13` on the parameter ranges the model exercises (shape parameters
//! well below 1e3, arguments below 1e6). `erf` / `erfc` — and through them
//! the standard normal cdf every lognormal evaluation calls — are W. J.
//! Cody's rational Chebyshev approximations (Math. Comp. 23, 1969): three
//! fixed-degree rational functions, each within a few ulp, about ten times
//! cheaper than the incomplete-gamma identity `erf(x) = sgn(x)·P(½, x²)`,
//! which the tests keep as the independent oracle.

/// Machine-level floor used to keep continued-fraction denominators away
/// from zero (modified Lentz algorithm).
const TINY: f64 = 1e-300;

/// Relative tolerance for the incomplete-gamma series / continued fraction.
const EPS: f64 = 1e-15;

/// Maximum iterations for iterative expansions. The expansions converge in
/// tens of iterations for all sane inputs; hitting this cap indicates a
/// pathological argument and the best current estimate is returned.
const MAX_ITER: usize = 500;

/// Natural logarithm of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation with `g = 7` and 9 coefficients, giving
/// close to machine precision over the positive real axis.
///
/// # Panics
/// Panics in debug builds if `x` is not finite and positive.
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x > 0.0, "ln_gamma domain: x > 0, got {x}");
    // Lanczos (g = 7, n = 9) coefficients.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function
/// `P(a, x) = γ(a, x) / Γ(a)` for `a > 0`, `x ≥ 0`.
///
/// `P(a, ·)` is the cdf of a Gamma(shape `a`, scale 1) random variable.
/// The first component of [`gamma_pq`].
pub fn gamma_p(a: f64, x: f64) -> f64 {
    gamma_pq(a, x, x.ln(), ln_gamma(a)).0
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
/// The second component of [`gamma_pq`].
pub fn gamma_q(a: f64, x: f64) -> f64 {
    gamma_pq(a, x, x.ln(), ln_gamma(a)).1
}

/// `(P(a, x), Q(a, x))` from one expansion, for `a > 0`, `x ≥ 0`, given
/// `ln_x = x.ln()` and `ln_gamma_a = ln_gamma(a)`. A caller that needs
/// several shapes at one `x` (the partial moments of a Gamma or Weibull)
/// takes the logarithm once and caches `ln Γ(a)`; with those two arguments
/// as [`gamma_p`] and [`gamma_q`] compute them, the pair is bitwise theirs.
///
/// Below `x = a + 1` the power series gives `P` and `Q = 1 − P`; from
/// there on the continued fraction gives `Q` and `P = 1 − Q`.
pub fn gamma_pq(a: f64, x: f64, ln_x: f64, ln_gamma_a: f64) -> (f64, f64) {
    debug_assert!(a > 0.0, "gamma_pq domain: a > 0, got {a}");
    debug_assert!(x >= 0.0, "gamma_pq domain: x >= 0, got {x}");
    if x <= 0.0 {
        return (0.0, 1.0);
    }
    if x.is_infinite() {
        return (1.0, 0.0);
    }
    // ln(x^a e^{−x} / Γ(a)), the prefactor both expansions share.
    let log_prefix = a * ln_x - x - ln_gamma_a;
    if x < a + 1.0 {
        let p = gamma_p_series(a, x, log_prefix);
        (p, 1.0 - p)
    } else {
        let q = gamma_q_contfrac(a, x, log_prefix);
        (1.0 - q, q)
    }
}

/// Series expansion of P(a, x): `γ(a,x) = x^a e^{-x} Σ_{n≥0} x^n Γ(a)/Γ(a+1+n)`.
fn gamma_p_series(a: f64, x: f64, log_prefix: f64) -> f64 {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            break;
        }
    }
    (sum * log_prefix.exp()).clamp(0.0, 1.0)
}

/// Continued fraction for Q(a, x) via the modified Lentz algorithm.
fn gamma_q_contfrac(a: f64, x: f64, log_prefix: f64) -> f64 {
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b.max(TINY);
    let mut h = d;
    for i in 1..MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    (h * log_prefix.exp()).clamp(0.0, 1.0)
}

/// Error function `erf(x)`, within a few ulp: `x·R(x²)` for
/// `|x| ≤ 0.46875`, `1 − erfc(|x|)` with the sign of `x` beyond. Odd to
/// the bit; `±1` at `±∞`, `2x/√π` for subnormal `x`.
pub fn erf(x: f64) -> f64 {
    let y = x.abs();
    if y <= ERF_SMALL {
        erf_small(x)
    } else {
        (1.0 - erfc_positive(y)).copysign(x)
    }
}

/// Complementary error function `erfc(x) = 1 − erf(x)`, computed without
/// cancellation for large positive `x` (relative accuracy holds until it
/// underflows to 0 at `x ≥ 26.543`); `0` at `+∞`, `2` at `−∞`.
pub fn erfc(x: f64) -> f64 {
    let y = x.abs();
    if y <= ERF_SMALL {
        1.0 - erf_small(x)
    } else if x > 0.0 {
        erfc_positive(y)
    } else {
        2.0 - erfc_positive(y)
    }
}

/// Upper end of the range where `erf` is approximated directly.
const ERF_SMALL: f64 = 0.46875;

/// Cody's evaluation scheme for a rational function with monic
/// denominator, both sides by Horner:
/// `(lead·xᵐ + Σ num[i]·xᵐ⁻¹⁻ⁱ) / (xᵐ + Σ den[i]·xᵐ⁻¹⁻ⁱ)`.
fn cody_ratio<const M: usize>(x: f64, lead: f64, num: &[f64; M], den: &[f64; M]) -> f64 {
    let (mut n, mut d) = (lead, 1.0);
    for (a, b) in num.iter().zip(den) {
        n = n * x + a;
        d = d * x + b;
    }
    n / d
}

/// `erf(x)` for `|x| ≤ 0.46875`: `x·R(x²)` with `R` of degree 4/4.
fn erf_small(x: f64) -> f64 {
    const LEAD: f64 = 0.185_777_706_184_603_15;
    const NUM: [f64; 4] = [
        3.161_123_743_870_565_5,
        113.864_154_151_050_16,
        377.485_237_685_302,
        3_209.377_589_138_469_4,
    ];
    const DEN: [f64; 4] = [
        23.601_290_952_344_122,
        244.024_637_934_444_17,
        1_282.616_526_077_372_3,
        2_844.236_833_439_171,
    ];
    x * cody_ratio(x * x, LEAD, &NUM, &DEN)
}

/// `erfc(y)` for `y > 0.46875`: `exp(−y²)·R(y)` with `R` of degree 8/8 on
/// `(0.46875, 4]`, and `exp(−y²)/y·(1/√π − R(1/y²)/y²)` with `R` of degree
/// 5/5 beyond.
fn erfc_positive(y: f64) -> f64 {
    const MID_LEAD: f64 = 2.153_115_354_744_038_3e-8;
    const MID_NUM: [f64; 8] = [
        0.564_188_496_988_670_1,
        8.883_149_794_388_377,
        66.119_190_637_141_63,
        298.635_138_197_400_1,
        881.952_221_241_769,
        1_712.047_612_634_070_7,
        2_051.078_377_826_071_6,
        1_230.339_354_797_997_2,
    ];
    const MID_DEN: [f64; 8] = [
        15.744_926_110_709_835,
        117.693_950_891_312_5,
        537.181_101_862_009_9,
        1_621.389_574_566_690_3,
        3_290.799_235_733_459_7,
        4_362.619_090_143_247,
        3_439.367_674_143_721_6,
        1_230.339_354_803_749_5,
    ];
    const FAR_LEAD: f64 = 0.016_315_387_137_302_097;
    const FAR_NUM: [f64; 5] = [
        0.305_326_634_961_232_36,
        0.360_344_899_949_804_45,
        0.125_781_726_111_229_26,
        0.016_083_785_148_742_275,
        0.000_658_749_161_529_837_8,
    ];
    const FAR_DEN: [f64; 5] = [
        2.568_520_192_289_822,
        1.872_952_849_923_460_4,
        0.527_905_102_951_428_5,
        0.060_518_341_312_441_32,
        0.002_335_204_976_268_691_8,
    ];
    // Past this, erfc underflows to 0 in f64.
    if y >= 26.543 {
        return 0.0;
    }
    let rational = if y <= 4.0 {
        cody_ratio(y, MID_LEAD, &MID_NUM, &MID_DEN)
    } else {
        let z = 1.0 / (y * y);
        let r = z * cody_ratio(z, FAR_LEAD, &FAR_NUM, &FAR_DEN);
        (std::f64::consts::FRAC_2_SQRT_PI / 2.0 - r) / y
    };
    // exp(−y²) with y split at 1/16 so that the leading square is exact and
    // the rounding error of y² is not amplified by the exponential.
    // On [0, 26.543) the cast is `trunc`, minus its software call on x86-64.
    let head = (y * 16.0) as u32 as f64 / 16.0;
    let tail = (y - head) * (y + head);
    (-head * head).exp() * (-tail).exp() * rational
}

/// Standard normal cumulative distribution function `Φ(x)`.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn ln_gamma_integers_match_factorials() {
        // Γ(n) = (n-1)!
        let mut fact = 1.0f64;
        for n in 1..=20u32 {
            assert!(
                close(ln_gamma(n as f64), fact.ln(), 1e-12),
                "ln_gamma({n}) = {} want {}",
                ln_gamma(n as f64),
                fact.ln()
            );
            fact *= n as f64;
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π
        assert!(close(
            ln_gamma(0.5),
            std::f64::consts::PI.sqrt().ln(),
            1e-13
        ));
        // Γ(3/2) = √π / 2
        assert!(close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-13
        ));
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x Γ(x)
        for &x in &[0.1, 0.7, 1.3, 2.9, 7.5, 33.3, 101.25] {
            assert!(
                close(ln_gamma(x + 1.0), x.ln() + ln_gamma(x), 1e-12),
                "recurrence failed at x={x}"
            );
        }
    }

    #[test]
    fn gamma_p_known_values() {
        // P(1, x) = 1 - e^{-x} (exponential cdf).
        for &x in &[0.0f64, 0.1, 1.0, 2.5, 10.0, 50.0] {
            let want = 1.0 - (-x).exp();
            assert!(close(gamma_p(1.0, x), want, 1e-13), "P(1,{x})");
        }
        // P(2, x) = 1 - (1+x) e^{-x} (Erlang-2 cdf).
        for &x in &[0.5f64, 1.0, 4.0, 12.0] {
            let want = 1.0 - (1.0 + x) * (-x).exp();
            assert!(close(gamma_p(2.0, x), want, 1e-12), "P(2,{x})");
        }
    }

    #[test]
    fn gamma_p_q_complementary() {
        for &a in &[0.3, 1.0, 2.0, 5.5, 40.0] {
            for &x in &[0.01, 0.5, 1.0, 3.0, 10.0, 80.0] {
                let s = gamma_p(a, x) + gamma_q(a, x);
                assert!(close(s, 1.0, 1e-12), "P+Q != 1 at a={a}, x={x}: {s}");
            }
        }
    }

    #[test]
    fn gamma_p_monotone_in_x() {
        for &a in &[0.5, 2.0, 8.0] {
            let mut prev = 0.0;
            for i in 0..200 {
                let x = i as f64 * 0.25;
                let p = gamma_p(a, x);
                assert!(p >= prev - 1e-14, "P({a},·) not monotone at x={x}");
                assert!((0.0..=1.0).contains(&p));
                prev = p;
            }
        }
    }

    /// Independent reference for `erf`/`erfc`: the incomplete-gamma
    /// identities `erf(x) = sgn(x)·P(½, x²)` and `erfc(x) = Q(½, x²)` for
    /// `x ≥ 0` (`1 + P(½, x²)` below), evaluated by the series and the
    /// Lentz continued fraction — no code shared with Cody's rational
    /// functions.
    mod incomplete_gamma {
        use super::super::{gamma_p, gamma_q};

        /// `erf(x)` through `P(½, x²)`.
        pub(super) fn erf(x: f64) -> f64 {
            if crate::approx::exact_zero(x) {
                0.0
            } else {
                gamma_p(0.5, x * x).copysign(x)
            }
        }

        /// `erfc(x)` through `Q(½, x²)`.
        pub(super) fn erfc(x: f64) -> f64 {
            if x >= 0.0 {
                gamma_q(0.5, x * x)
            } else {
                1.0 + gamma_p(0.5, x * x)
            }
        }
    }

    /// Production (Cody) against the incomplete-gamma oracle.
    #[test]
    fn erf_erfc_match_cody_reference() {
        let mut worst = 0.0f64;
        for i in -8000..=8000 {
            let x = i as f64 * 1e-3;
            worst = worst.max((incomplete_gamma::erfc(x) - erfc(x)).abs());
            worst = worst.max((incomplete_gamma::erf(x) - erf(x)).abs());
        }
        assert!(worst <= 2e-15, "worst |Δ| on [-8, 8] = {worst:e}");
    }

    #[test]
    fn erfc_keeps_relative_accuracy_in_the_tail() {
        // erfc(5) = 1.5374597944280348502e-12, erfc(10) = 2.0884875837625447570e-45.
        for f in [erfc, incomplete_gamma::erfc] {
            assert!(close(f(5.0) / 1.537_459_794_428_035e-12, 1.0, 1e-12));
            assert!(close(f(10.0) / 2.088_487_583_762_545e-45, 1.0, 1e-12));
            assert_eq!(f(30.0), 0.0);
            assert_eq!(f(-30.0), 2.0);
        }
    }

    #[test]
    fn gamma_p_is_one_at_infinity() {
        for a in [0.5, 1.0, 2.0, 7.5] {
            assert_eq!(gamma_p(a, f64::INFINITY), 1.0, "P({a}, ∞)");
        }
    }

    #[test]
    fn gamma_q_is_zero_at_infinity() {
        for a in [0.5, 1.0, 2.0, 7.5] {
            assert_eq!(gamma_q(a, f64::INFINITY), 0.0, "Q({a}, ∞)");
        }
    }

    #[test]
    fn erf_is_plus_or_minus_one_at_infinity() {
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
    }

    #[test]
    fn erfc_is_zero_or_two_at_infinity() {
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
    }

    #[test]
    fn std_normal_cdf_is_one_or_zero_at_infinity() {
        assert_eq!(std_normal_cdf(f64::INFINITY), 1.0);
        assert_eq!(std_normal_cdf(f64::NEG_INFINITY), 0.0);
    }

    #[test]
    fn erf_of_a_subnormal_is_two_x_over_root_pi() {
        // x² underflows to 0 here; erf must still be the first Taylor term.
        let tiny = f64::from_bits(1);
        for x in [1e-320, -1e-320, 3.0e-310, f64::MIN_POSITIVE / 2.0] {
            let want = std::f64::consts::FRAC_2_SQRT_PI * x;
            assert!(
                erf(x) != 0.0 && (erf(x) - want).abs() <= tiny,
                "erf({x:e}) = {:e}",
                erf(x)
            );
        }
    }

    /// The distance between `v` and the next double away from zero.
    fn ulp(v: f64) -> f64 {
        let v = v.abs();
        f64::from_bits(v.to_bits() + 1) - v
    }

    #[test]
    fn the_rational_pieces_join_monotonically() {
        // Φ(x) = erfc(−x/√2)/2 changes piece where |x|/√2 crosses 0.46875,
        // 4 and the underflow cut 26.543. Lognormal quantiles (Brent) and
        // the sizing bisection assume a monotone Φ: on grids of 1e-12 and
        // 1e-9 across each join it never decreases. One double apart, the
        // true increment is below one ulp of Φ and no Φ short of correctly
        // rounded is monotone (the incomplete-gamma route wobbles too); the
        // wobble stays within 2 ulp.
        for join in [ERF_SMALL, 4.0, 26.543] {
            for side in [1.0, -1.0] {
                let centre = side * join * std::f64::consts::SQRT_2;
                for (step, slack) in [(ulp(centre), 2.0), (1e-12, 0.0), (1e-9, 0.0)] {
                    let mut prev = std_normal_cdf(centre - 2_001.0 * step);
                    for i in -2_000..=2_000 {
                        let x = centre + f64::from(i) * step;
                        let p = std_normal_cdf(x);
                        assert!(
                            p >= prev - slack * ulp(prev),
                            "Φ decreases at {x:e} (step {step:e}): {prev:e} → {p:e}"
                        );
                        prev = p;
                    }
                }
            }
        }
    }

    #[test]
    fn erf_is_odd_and_erfc_reflects() {
        for i in 0..=30_000 {
            let x = f64::from(i) * 1e-3;
            assert_eq!(
                erf(-x).to_bits(),
                (-erf(x)).to_bits(),
                "erf(−{x}) ≠ −erf({x})"
            );
            let (lo, hi) = (erfc(-x), 2.0 - erfc(x));
            assert!(
                (lo - hi).abs() <= 2.0 * ulp(hi),
                "erfc(−{x}) = {lo} vs {hi}"
            );
            let sum = erf(x) + erfc(x);
            assert!(
                (sum - 1.0).abs() <= 2.0 * ulp(1.0),
                "erf + erfc at {x} = {sum}"
            );
            let sum = erf(-x) + erfc(-x);
            assert!(
                (sum - 1.0).abs() <= 2.0 * ulp(1.0),
                "erf + erfc at −{x} = {sum}"
            );
        }
    }

    #[test]
    fn erf_known_values() {
        // Abramowitz & Stegun reference values.
        assert!(close(erf(0.5), 0.520_499_877_813_046_5, 1e-10));
        assert!(close(erf(1.0), 0.842_700_792_949_714_9, 1e-10));
        assert!(close(erf(2.0), 0.995_322_265_018_952_7, 1e-10));
        assert!(close(erf(-1.0), -0.842_700_792_949_714_9, 1e-10));
    }

    #[test]
    fn normal_cdf_symmetry_and_tails() {
        assert!(close(std_normal_cdf(0.0), 0.5, 1e-14));
        for &x in &[0.5, 1.0, 2.0, 5.0] {
            let s = std_normal_cdf(x) + std_normal_cdf(-x);
            assert!(close(s, 1.0, 1e-12));
        }
        assert!(std_normal_cdf(-10.0) < 1e-20);
        // 1 − Φ(10) ≈ 7.6e-24 underflows against 1.0 in f64; equality with
        // 1.0 (not an approach to it) is the correct double-precision
        // answer here.
        assert_eq!(std_normal_cdf(10.0), 1.0);
        // Φ(1.96) ≈ 0.975 (the classic 95% two-sided z).
        assert!((std_normal_cdf(1.959_963_984_540_054) - 0.975).abs() < 1e-9);
    }
}
