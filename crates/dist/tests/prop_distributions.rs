//! Property-based tests of the distribution substrate: every kind must
//! satisfy the `DurationDist` contract for arbitrary valid parameters.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use proptest::prelude::*;

use vod_dist::kinds::{Deterministic, Exponential, Gamma, LogNormal, Truncated, Uniform, Weibull};
use vod_dist::rng::seeded;
use vod_dist::{numeric_cdf_integral, numeric_cdf_integral2, DurationDist};

/// Strategy producing an arbitrary valid distribution (boxed).
fn any_dist() -> impl Strategy<Value = Box<dyn DurationDist>> {
    prop_oneof![
        (0.1f64..50.0)
            .prop_map(|m| Box::new(Exponential::with_mean(m).unwrap()) as Box<dyn DurationDist>),
        ((0.2f64..10.0), (0.2f64..20.0))
            .prop_map(|(k, s)| Box::new(Gamma::new(k, s).unwrap()) as Box<dyn DurationDist>),
        ((0.0f64..20.0), (0.1f64..30.0)).prop_map(|(lo, w)| Box::new(
            Uniform::new(lo, lo + w).unwrap()
        ) as Box<dyn DurationDist>),
        (0.0f64..40.0)
            .prop_map(|v| Box::new(Deterministic::new(v).unwrap()) as Box<dyn DurationDist>),
        ((0.3f64..5.0), (0.5f64..20.0))
            .prop_map(|(k, s)| Box::new(Weibull::new(k, s).unwrap()) as Box<dyn DurationDist>),
        ((0.5f64..30.0), (0.1f64..1.5))
            .prop_map(|(m, cv)| Box::new(LogNormal::with_mean_cv(m, cv).unwrap())
                as Box<dyn DurationDist>),
        ((0.2f64..10.0), (0.5f64..40.0), (5.0f64..200.0)).prop_map(|(k, s, hi)| {
            Box::new(Truncated::new(Gamma::new(k, s).unwrap(), 0.0, hi).unwrap())
                as Box<dyn DurationDist>
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cdf_is_a_cdf(d in any_dist(), xs in proptest::collection::vec(0.0f64..300.0, 8)) {
        let mut xs = xs;
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &xs {
            let f = d.cdf(x);
            prop_assert!((0.0..=1.0).contains(&f), "{d:?} cdf({x}) = {f}");
            prop_assert!(f >= prev - 1e-12, "{d:?} cdf not monotone at {x}");
            prev = f;
        }
        prop_assert_eq!(d.cdf(-1.0), 0.0);
    }

    #[test]
    fn cdf_integral_is_lipschitz_primitive(d in any_dist(), y in 0.0f64..200.0, dy in 0.0f64..20.0) {
        // H' = F ∈ [0, 1]: increments bounded by interval length.
        let a = d.cdf_integral(y);
        let b = d.cdf_integral(y + dy);
        prop_assert!(a >= -1e-12);
        prop_assert!(b - a >= -1e-9, "{d:?}: H decreasing");
        prop_assert!(b - a <= dy + 1e-9, "{d:?}: H slope above 1");
    }

    #[test]
    fn cdf_integral_matches_numeric(d in any_dist(), y in 0.1f64..150.0) {
        let analytic = d.cdf_integral(y);
        let numeric = numeric_cdf_integral(d.as_ref(), y);
        prop_assert!(
            (analytic - numeric).abs() < 2e-5 * (1.0 + numeric.abs()),
            "{d:?} y={y}: analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn cdf_integral2_is_primitive_of_cdf_integral(d in any_dist(), y in 0.1f64..150.0, dy in 0.0f64..20.0) {
        // HH' = H, and H is non-decreasing: increments of HH lie in
        // [dy·H(y), dy·H(y + dy)].
        let a = d.cdf_integral2(y);
        let b = d.cdf_integral2(y + dy);
        let slack = 1e-9 * (1.0 + b.abs());
        prop_assert!(a >= -1e-12);
        prop_assert!(b - a >= dy * d.cdf_integral(y) - slack, "{d:?}: HH grows slower than H(y)");
        prop_assert!(b - a <= dy * d.cdf_integral(y + dy) + slack, "{d:?}: HH grows faster than H(y+dy)");
        let numeric = numeric_cdf_integral2(d.as_ref(), y);
        prop_assert!(
            (a - numeric).abs() < 2e-5 * (1.0 + numeric.abs()),
            "{d:?} y={y}: analytic {a} vs numeric {numeric}"
        );
    }

    #[test]
    fn quantile_is_generalized_inverse(d in any_dist(), p in 0.01f64..0.99) {
        let x = d.quantile(p);
        prop_assert!(x >= 0.0);
        // cdf(quantile(p)) >= p, with equality for continuous laws.
        prop_assert!(d.cdf(x) >= p - 1e-6, "{d:?} p={p} x={x} cdf={}", d.cdf(x));
        // And quantile is the *smallest* such point (allow atoms slack).
        if x > 1e-9 {
            prop_assert!(
                d.cdf(x * (1.0 - 1e-6) - 1e-9) <= p + 1e-6,
                "{d:?}: quantile overshoots"
            );
        }
    }

    #[test]
    fn samples_lie_in_support_and_respect_median(d in any_dist(), seed in 0u64..1000) {
        let mut rng = seeded(seed);
        let median = d.quantile(0.5);
        let n = 400;
        let below = (0..n)
            .map(|_| d.sample(&mut rng))
            .filter(|&x| {
                assert!(x >= 0.0, "{d:?} sampled negative");
                x <= median
            })
            .count();
        // Crude binomial bound: 400 draws, p=0.5 → k within [120, 280]
        // except with probability < 1e-15 (atoms can push one-sided).
        let frac = below as f64 / n as f64;
        prop_assert!(
            (0.3..=1.0).contains(&frac) || d.variance() == 0.0,
            "{d:?}: {below}/{n} below median {median}"
        );
    }
}
