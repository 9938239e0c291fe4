//! # vod-dist — numerics and duration distributions
//!
//! Substrate crate for the VOD resource pre-allocation reproduction
//! (Leung, Lui & Golubchik, ICDE 1997). It provides everything the
//! analytic hit-probability model and the simulator need from
//! probability/numerics, implemented from scratch:
//!
//! * **Special functions** — [`special`]: `ln Γ`, regularized incomplete
//!   gamma `P(a,x)`/`Q(a,x)` (as one pair from one expansion), Cody's
//!   rational `erf`/`erfc`, the standard normal cdf.
//! * **Quadrature** — [`quad`]: adaptive Simpson and Gauss–Legendre.
//! * **Root finding** — [`root`]: Brent's method.
//! * **Randomness** — [`rng`]: seeded reproducible RNG, uniform/normal/
//!   exponential primitives over `&mut SeededRng`, the workspace's one
//!   generator.
//! * **Duration distributions** — [`DurationDist`] and the implementations
//!   in [`kinds`]: Exponential, Gamma, Uniform, Deterministic, Weibull,
//!   LogNormal, Mixture, Empirical (trace-fitted), and a Truncated
//!   adapter. Each exposes the cdf `F` **and** its first two running
//!   integrals `H(y) = ∫₀^y F(u) du`, `HH(y) = ∫₀^y H(u) du` in closed form
//!   — the three quantities the ICDE'97 model is built from. A kind
//!   writes them once, in [`DurationDist::cdf_and_survival_integrals`],
//!   which hands them over in one call (as `F` and the survival integrals
//!   `A = y − H`, `AA = y²/2 − HH`).
//! * **Specs** — [`spec`]: compact textual descriptions
//!   (`"gamma:shape=2,scale=4"`) used by experiment configs.
//!
//! ## Quick example
//!
//! ```
//! use vod_dist::{parse_spec, DurationDist};
//!
//! // The paper's Figure-7 VCR-duration law: skewed gamma, mean 8 minutes.
//! let d = parse_spec("gamma:shape=2,scale=4").unwrap();
//! assert!((d.mean() - 8.0).abs() < 1e-12);
//! // Probability a fast-forward sweeps at most 10 movie minutes:
//! let p = d.cdf(10.0);
//! assert!(p > 0.7 && p < 0.8);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

pub mod approx;
mod duration;
mod error;
pub mod fit;
pub mod kinds;
pub mod quad;
pub mod rng;
pub mod root;
pub mod spec;
pub mod special;

pub use approx::{approx_eq, approx_zero, exact_eq, exact_zero};
pub use duration::{numeric_cdf_integral, numeric_cdf_integral2, DurationDist};
pub use error::DistError;
pub use spec::{parse_spec, DistSpec};

#[cfg(test)]
mod trait_tests {
    //! Cross-cutting checks applied uniformly to every built-in kind.
    use super::*;
    use crate::rng::seeded;

    fn all_kinds() -> Vec<Box<dyn DurationDist>> {
        vec![
            Box::new(kinds::Exponential::with_mean(5.0).unwrap()),
            Box::new(kinds::Gamma::paper_fig7()),
            Box::new(kinds::Uniform::new(1.0, 9.0).unwrap()),
            Box::new(kinds::Deterministic::new(4.0).unwrap()),
            Box::new(kinds::Weibull::new(1.8, 6.0).unwrap()),
            Box::new(kinds::LogNormal::with_mean_cv(8.0, 0.6).unwrap()),
            Box::new(kinds::Truncated::new(kinds::Gamma::paper_fig7(), 0.0, 120.0).unwrap()),
            Box::new(
                kinds::Mixture::new(vec![
                    (
                        0.5,
                        Box::new(kinds::Exponential::with_mean(2.0).unwrap())
                            as Box<dyn DurationDist>,
                    ),
                    (0.5, Box::new(kinds::Gamma::new(4.0, 3.0).unwrap())),
                ])
                .unwrap(),
            ),
            Box::new(kinds::Empirical::from_samples(&[1.0, 2.0, 2.5, 4.0, 8.0, 16.0]).unwrap()),
        ]
    }

    #[test]
    fn cdf_monotone_in_unit_interval_everywhere() {
        for d in all_kinds() {
            let mut prev = 0.0;
            for i in 0..=600 {
                let x = i as f64 * 0.25;
                let f = d.cdf(x);
                assert!((0.0..=1.0).contains(&f), "{d:?} cdf({x}) = {f}");
                assert!(f + 1e-12 >= prev, "{d:?} cdf not monotone at {x}");
                prev = f;
            }
        }
    }

    #[test]
    fn cdf_integral_is_nondecreasing_and_lipschitz() {
        // H' = F ∈ [0,1] so H(y+δ) − H(y) ∈ [0, δ].
        for d in all_kinds() {
            let mut prev = 0.0;
            for i in 1..=400 {
                let y = i as f64 * 0.5;
                let h = d.cdf_integral(y);
                let dh = h - prev;
                assert!(
                    (-1e-9..=0.5 + 1e-9).contains(&dh),
                    "{d:?} H increment {dh} at y={y}"
                );
                prev = h;
            }
        }
    }

    #[test]
    fn cdf_integral_consistent_with_numeric_everywhere() {
        for d in all_kinds() {
            for &y in &[0.5, 2.0, 7.0, 30.0, 150.0] {
                let a = d.cdf_integral(y);
                let n = numeric_cdf_integral(d.as_ref(), y);
                assert!(
                    (a - n).abs() < 1e-5 * (1.0 + n.abs()),
                    "{d:?} y={y}: analytic {a} vs numeric {n}"
                );
            }
        }
    }

    #[test]
    fn cdf_integral2_is_convex_with_slope_below_cdf_integral() {
        // HH' = H is non-decreasing, so on a grid the increments of HH are
        // non-decreasing and bounded by step·H at the right end. (Agreement
        // with the numeric integral is checked per kind.)
        for d in all_kinds() {
            let (mut prev, mut prev_inc) = (0.0, 0.0);
            for i in 1..=400 {
                let y = i as f64 * 0.5;
                let hh = d.cdf_integral2(y);
                let inc = hh - prev;
                assert!(
                    inc >= prev_inc - 1e-9 && inc <= 0.5 * d.cdf_integral(y) + 1e-9,
                    "{d:?} HH increment {inc} (previous {prev_inc}) at y={y}"
                );
                prev = hh;
                prev_inc = inc;
            }
        }
    }

    #[test]
    fn samples_nonnegative_and_mean_consistent() {
        for d in all_kinds() {
            let mut rng = seeded(3);
            let n = 60_000;
            let mut s = 0.0;
            for _ in 0..n {
                let x = d.sample(&mut rng);
                assert!(x >= 0.0, "{d:?} sampled negative {x}");
                s += x;
            }
            let mean = s / n as f64;
            let want = d.mean();
            assert!(
                (mean - want).abs() < 0.05 * want.max(1.0),
                "{d:?}: sample mean {mean} vs analytic {want}"
            );
        }
    }

    #[test]
    fn at_infinity_the_triple_is_one_the_mean_and_infinity() {
        // Pareto's AA has its own forms at α = 1 and 2; below 1 the mean
        // is infinite. A zero-weight component must not add its 0·∞.
        let paretos = [0.7, 1.0, 1.5, 2.0, 3.0]
            .map(|a| Box::new(kinds::Pareto::new(a, 10.0).unwrap()) as Box<dyn DurationDist>);
        let idle = kinds::Mixture::new(vec![
            (
                1.0,
                Box::new(kinds::Exponential::with_mean(2.0).unwrap()) as Box<dyn DurationDist>,
            ),
            (0.0, Box::new(kinds::Gamma::new(4.0, 3.0).unwrap())),
        ])
        .unwrap();
        for d in all_kinds()
            .into_iter()
            .chain(paretos)
            .chain([Box::new(idle) as _])
        {
            let (f, a, aa) = d.cdf_and_survival_integrals(f64::INFINITY);
            let mean = d.mean();
            assert!(
                f == 1.0 && aa == f64::INFINITY && (a == mean || (a - mean).abs() <= 1e-12 * mean),
                "{d:?}: (F, A, AA)(+∞) = ({f}, {a}, {aa}), mean {mean}"
            );
        }
        // The point mass at 0 never sweeps: AA ≡ 0.
        let zero = kinds::Deterministic::new(0.0).unwrap();
        assert_eq!(
            zero.cdf_and_survival_integrals(f64::INFINITY),
            (1.0, 0.0, 0.0)
        );
    }

    #[test]
    fn quantile_median_consistent() {
        for d in all_kinds() {
            let m = d.quantile(0.5);
            let f = d.cdf(m);
            // Atomic laws can overshoot; allow cdf(median) >= 0.5 only.
            assert!(f >= 0.5 - 1e-9, "{d:?}: cdf(quantile(0.5)) = {f} < 0.5");
        }
    }
}
