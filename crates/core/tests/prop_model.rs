//! Property-based tests of the analytic model: probability bounds,
//! monotonicity, decomposition-vs-oracle agreement, and degenerate-case
//! behavior under arbitrary valid configurations.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use proptest::prelude::*;

use vod_dist::kinds::{Exponential, Gamma, Uniform};
use vod_dist::DurationDist;
use vod_model::{
    p_hit_ff, p_hit_ff_direct, p_hit_pause, p_hit_rw, p_hit_single_dist, ModelOptions, Rates,
    SystemParams, VcrMix,
};

fn any_dist() -> impl Strategy<Value = Box<dyn DurationDist>> {
    prop_oneof![
        (0.5f64..30.0)
            .prop_map(|m| Box::new(Exponential::with_mean(m).unwrap()) as Box<dyn DurationDist>),
        ((0.5f64..6.0), (0.5f64..10.0))
            .prop_map(|(k, s)| Box::new(Gamma::new(k, s).unwrap()) as Box<dyn DurationDist>),
        (1.0f64..40.0)
            .prop_map(|hi| Box::new(Uniform::new(0.0, hi).unwrap()) as Box<dyn DurationDist>),
    ]
}

fn any_params() -> impl Strategy<Value = SystemParams> {
    // l ∈ [30, 180], B as a fraction of l, n small enough to keep each
    // evaluation cheap, rates with FF strictly above playback.
    (
        30.0f64..180.0,
        0.0f64..=1.0,
        1u32..40,
        1.2f64..8.0,
        0.3f64..8.0,
    )
        .prop_map(|(l, bfrac, n, ff, rw)| {
            SystemParams::new(l, bfrac * l, n, Rates::new(1.0, ff, rw).unwrap()).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_component_is_a_probability(params in any_params(), d in any_dist()) {
        let opts = ModelOptions::default();
        let ff = p_hit_ff(&params, d.as_ref(), &opts);
        prop_assert!(ff.within >= -1e-9, "within {}", ff.within);
        prop_assert!(ff.end >= -1e-9 && ff.end <= 1.0 + 1e-9);
        for (i, j) in ff.jumps.iter().enumerate() {
            prop_assert!(*j >= -1e-7, "jump {i} = {j} ({params:?})");
        }
        let t = ff.total();
        prop_assert!((0.0..=1.0 + 1e-6).contains(&t), "FF total {t} ({params:?}, {d:?})");

        let rw = p_hit_rw(&params, d.as_ref(), &opts).total();
        prop_assert!((0.0..=1.0 + 1e-6).contains(&rw), "RW total {rw}");

        let pau = p_hit_pause(&params, d.as_ref(), &opts);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&pau), "PAU total {pau}");
    }

    #[test]
    fn mixed_total_is_convex_combination(params in any_params(), d in any_dist(),
                                         ff_w in 0.0f64..1.0, rw_frac in 0.0f64..1.0) {
        let rw_w = (1.0 - ff_w) * rw_frac;
        let pau_w = 1.0 - ff_w - rw_w;
        let mix = VcrMix::new(ff_w, rw_w, pau_w).unwrap();
        let opts = ModelOptions::default();
        let mixed = p_hit_single_dist(&params, d.as_ref(), &mix, &opts).total;
        let ff = p_hit_single_dist(&params, d.as_ref(), &VcrMix::ff_only(), &opts).total;
        let rw = p_hit_single_dist(&params, d.as_ref(), &VcrMix::rw_only(), &opts).total;
        let pau = p_hit_single_dist(&params, d.as_ref(), &VcrMix::pause_only(), &opts).total;
        let lo = ff.min(rw).min(pau) - 1e-9;
        let hi = ff.max(rw).max(pau) + 1e-9;
        prop_assert!((lo..=hi).contains(&mixed), "mixed {mixed} outside [{lo}, {hi}]");
    }

    #[test]
    fn more_buffer_never_hurts(l in 60.0f64..150.0, n in 2u32..30,
                               b1 in 0.0f64..0.5, extra in 0.0f64..0.5,
                               d in any_dist()) {
        let opts = ModelOptions::default();
        let rates = Rates::paper();
        let small = SystemParams::new(l, b1 * l, n, rates).unwrap();
        let large = SystemParams::new(l, (b1 + extra).min(1.0) * l, n, rates).unwrap();
        let mix = VcrMix::paper_fig7d();
        let p_small = p_hit_single_dist(&small, d.as_ref(), &mix, &opts).total;
        let p_large = p_hit_single_dist(&large, d.as_ref(), &mix, &opts).total;
        prop_assert!(p_large >= p_small - 1e-6, "B↑ lowered P(hit): {p_small} -> {p_large}");
    }

    #[test]
    fn ff_decomposition_equals_direct_oracle(l in 60.0f64..150.0, n in 2u32..16,
                                             bfrac in 0.05f64..0.95, d in any_dist()) {
        let params = SystemParams::new(l, bfrac * l, n, Rates::paper()).unwrap();
        let opts = ModelOptions::default();
        let dec = p_hit_ff(&params, d.as_ref(), &opts).total();
        let dir = p_hit_ff_direct(&params, d.as_ref(), 1e-9);
        prop_assert!((dec - dir).abs() < 2e-3,
            "l={l} B={} n={n} {d:?}: {dec} vs {dir}", params.buffer());
    }

    #[test]
    fn pure_batching_only_end_hits(l in 60.0f64..150.0, n in 1u32..40, d in any_dist()) {
        let params = SystemParams::new(l, 0.0, n, Rates::paper()).unwrap();
        let opts = ModelOptions::default();
        let ff = p_hit_ff(&params, d.as_ref(), &opts);
        prop_assert_eq!(ff.within, 0.0);
        prop_assert!(ff.jumps.is_empty());
        prop_assert_eq!(p_hit_rw(&params, d.as_ref(), &opts).total(), 0.0);
        prop_assert_eq!(p_hit_pause(&params, d.as_ref(), &opts), 0.0);
    }

    #[test]
    fn every_stream_count_on_the_wait_line_is_a_probability(l in 60.0f64..150.0, w in 0.4f64..3.0,
                                                            slow_rw in 0.25f64..3.0, d in any_dist()) {
        // The sizing bisection walks B = (l − n·w)₊ over n ≤ ⌊l/w⌋; at the
        // top of that range B is either a real sliver or the float residue
        // of l − n·w, and both must evaluate to probabilities.
        let rates = Rates::new(1.0, 3.0, slow_rw).unwrap();
        let opts = ModelOptions::default();
        let max_streams = (l / w).floor() as u32;
        for n in 1..=max_streams {
            let buffer = (l - n as f64 * w).max(0.0);
            let params = SystemParams::new(l, buffer, n, rates).unwrap();
            let parts = [
                p_hit_ff(&params, d.as_ref(), &opts).total(),
                p_hit_rw(&params, d.as_ref(), &opts).total(),
                p_hit_pause(&params, d.as_ref(), &opts),
            ];
            for (name, p) in ["ff", "rw", "pause"].iter().zip(parts) {
                prop_assert!((-1e-9..=1.0 + 1e-7).contains(&p),
                    "{name} = {p} at l={l} w={w} n={n} B={buffer} ({d:?})");
            }
            if params.is_pure_batching() {
                let zero = SystemParams::new(l, 0.0, n, rates).unwrap();
                prop_assert_eq!(parts[0], p_hit_ff(&zero, d.as_ref(), &opts).total());
                prop_assert_eq!(parts[1], 0.0);
                prop_assert_eq!(parts[2], 0.0);
            }
        }
    }

    #[test]
    fn tiny_sweeps_hit_up_to_the_end_boundary(l in 60.0f64..150.0, n in 2u32..20) {
        // With full buffering and sweeps far smaller than a partition,
        // FF/RW hits are near-certain; PAU loses exactly the end-of-movie
        // sliver: for x→0, P(hit|PAU) → 1 − b/(2l) (a viewer whose V_f
        // overruns the movie end has no live trailing window). Mixed with
        // the Figure-7d weights the total approaches 1 − 0.6·b/(2l).
        let params = SystemParams::new(l, l, n, Rates::paper()).unwrap();
        let d = Exponential::with_mean(0.01).unwrap();
        let opts = ModelOptions::default();
        let mix = VcrMix::paper_fig7d();
        let p = p_hit_single_dist(&params, &d, &mix, &opts).total;
        let b_over_l = params.partition_len() / l;
        let asymptote = 1.0 - 0.6 * b_over_l / 2.0;
        prop_assert!(
            (p - asymptote).abs() < 0.02,
            "tiny sweeps: P(hit) = {p}, asymptote {asymptote}"
        );
    }
}

/// Committed proptest regression (`prop_model.proptest-regressions`:
/// shrinks to `l = 60.0, n = 2`) pinned as a deterministic case: the
/// vendored proptest stand-in cannot replay upstream seed files, so the
/// shrunken input is encoded explicitly.
///
/// Diagnosis: the property itself holds over its whole domain (a dense
/// scan of l ∈ [60, 150) × n ∈ 2..20 puts the worst error at 3.3e-5
/// against the 0.02 tolerance). The failure the seed recorded came from
/// the model side — `p_hit_rw`'s jump-summation cap assumed γ ≥ ½ and
/// tripped a debug assertion for slow rewind rates (see
/// `regression_rw_jump_cap_slow_rewind` below for the direct pin); with
/// the cap scaled by 1/γ the recorded case passes.
#[test]
fn regression_tiny_sweeps_l60_n2() {
    let l = 60.0;
    let n = 2;
    let params = SystemParams::new(l, l, n, Rates::paper()).unwrap();
    let d = Exponential::with_mean(0.01).unwrap();
    let opts = ModelOptions::default();
    let mix = VcrMix::paper_fig7d();
    let p = p_hit_single_dist(&params, &d, &mix, &opts).total;
    let b_over_l = params.partition_len() / l;
    let asymptote = 1.0 - 0.6 * b_over_l / 2.0;
    assert!(
        (p - asymptote).abs() < 0.02,
        "tiny sweeps: P(hit) = {p}, asymptote {asymptote}"
    );
}

/// Root cause behind the recorded regression: with a rewind rate below
/// playback, γ = R_RW/(R_PB + R_RW) drops under ½ and the i-th-partition
/// sum in `p_hit_rw` needs up to n/γ + B/l terms — more than the old
/// `2n + 8` defensive cap, which fired its debug assertion (and silently
/// truncated the sum in release builds). Inputs taken from a failing
/// generated case (γ ≈ 0.33, n = 13 needs ~40 terms, old cap 34).
#[test]
fn regression_rw_jump_cap_slow_rewind() {
    let params = SystemParams::new(
        80.47372282852993,
        44.24469799093355,
        13,
        Rates::new(1.0, 1.3463351793693608, 0.4926836787013574).unwrap(),
    )
    .unwrap();
    let d = Gamma::new(4.266682857453262, 9.310237129623188).unwrap();
    let opts = ModelOptions::default();
    let rw = p_hit_rw(&params, &d, &opts);
    let total = rw.total();
    assert!(
        (0.0..=1.0 + 1e-6).contains(&total),
        "RW total out of range: {total}"
    );
    // The sum must run until the geometric termination condition
    // (γ(il/n − b) ≥ l, here 39 terms), not stop at a fixed 2n + 8 = 34
    // iteration cap.
    assert!(
        rw.jumps.len() > 34,
        "jump sum truncated at 2n + 8: {} terms",
        rw.jumps.len()
    );
}

/// The two geometries of the sub-resolution-buffer bug: `B = l − n·w` at
/// `n = l/w` is float residue of order 1e-14, and dividing rounding noise
/// by `b = B/n` gave P(hit|FF) = −2.31 (exponential) and P(hit|PAU) = −4.39
/// (lognormal) at the second one. Every kind must evaluate the exact
/// `B = 0` limit there.
#[test]
fn regression_sub_resolution_buffer_is_the_pure_batching_limit() {
    use vod_dist::kinds::{
        Deterministic, Empirical, LogNormal, Mixture, Pareto, Truncated, Weibull,
    };
    let kinds: Vec<Box<dyn DurationDist>> = vec![
        Box::new(Exponential::with_mean(3.0).unwrap()),
        Box::new(Gamma::with_shape_mean(2.0, 3.0).unwrap()),
        Box::new(Weibull::new(1.5, 3.0).unwrap()),
        Box::new(LogNormal::with_mean_cv(3.0, 0.7).unwrap()),
        Box::new(Uniform::new(0.0, 6.0).unwrap()),
        Box::new(Deterministic::new(3.0).unwrap()),
        Box::new(Pareto::new(3.0, 6.0).unwrap()),
        Box::new(
            Mixture::new(vec![
                (
                    0.5,
                    Box::new(Exponential::with_mean(1.0).unwrap()) as Box<dyn DurationDist>,
                ),
                (0.5, Box::new(Gamma::new(4.0, 2.0).unwrap())),
            ])
            .unwrap(),
        ),
        Box::new(Truncated::new(Exponential::with_mean(3.0).unwrap(), 0.5, 20.0).unwrap()),
        Box::new(Empirical::from_samples(&[0.5, 1.0, 2.0, 3.0, 5.0, 9.0]).unwrap()),
    ];
    let opts = ModelOptions::default();
    let mix = VcrMix::paper_fig7d();
    for (l, w, n) in [(62.7, 0.57, 110u32), (61.2, 0.6, 102)] {
        let residue: f64 = l - n as f64 * w;
        assert!(
            residue > 0.0 && residue < 1e-9,
            "l={l} w={w}: residue {residue}"
        );
        let tiny = SystemParams::new(l, residue, n, Rates::paper()).unwrap();
        let zero = SystemParams::new(l, 0.0, n, Rates::paper()).unwrap();
        for d in &kinds {
            let got = [
                p_hit_ff(&tiny, d.as_ref(), &opts).total(),
                p_hit_rw(&tiny, d.as_ref(), &opts).total(),
                p_hit_pause(&tiny, d.as_ref(), &opts),
                p_hit_single_dist(&tiny, d.as_ref(), &mix, &opts).total,
            ];
            let want = [
                p_hit_ff(&zero, d.as_ref(), &opts).total(),
                0.0,
                0.0,
                p_hit_single_dist(&zero, d.as_ref(), &mix, &opts).total,
            ];
            for (g, w) in got.iter().zip(want) {
                assert!(
                    (g - w).abs() <= 1e-4 && (0.0..=1.0).contains(g),
                    "l={l} n={n} {d:?}: {g} vs B=0 value {w}"
                );
            }
        }
    }
}
