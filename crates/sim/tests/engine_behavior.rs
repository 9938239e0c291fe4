//! Behavioral tests of the discrete-event engine: determinism,
//! conservation laws, geometry, and agreement with the analytic model
//! (the paper's §4 claim).

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use std::sync::Arc;

use vod_dist::kinds::{Exponential, Gamma};
use vod_model::{p_hit_single_dist, ModelOptions, Rates, SystemParams, VcrMix};
use vod_runtime::PartitionWindows;
use vod_sim::{run_replications, run_seeded, SimConfig};
use vod_workload::{BehaviorModel, VcrKind};

fn behavior(mix: (f64, f64, f64)) -> BehaviorModel {
    BehaviorModel::uniform_dist(mix, 30.0, Arc::new(Gamma::paper_fig7()))
}

fn config(buffer: f64, n: u32, mix: (f64, f64, f64)) -> SimConfig {
    let params = SystemParams::new(120.0, buffer, n, Rates::paper()).unwrap();
    SimConfig::new(params, behavior(mix))
}

#[test]
fn identical_seeds_identical_reports() {
    let cfg = config(60.0, 20, (0.2, 0.2, 0.6));
    let a = run_seeded(&cfg, 7);
    let b = run_seeded(&cfg, 7);
    assert_eq!(a.runtime.resumes.trials(), b.runtime.resumes.trials());
    assert_eq!(a.runtime.resumes.hits(), b.runtime.resumes.hits());
    assert_eq!(a.viewers_completed, b.viewers_completed);
    assert!((a.runtime.dedicated_avg - b.runtime.dedicated_avg).abs() < 1e-12);
}

#[test]
fn different_seeds_differ() {
    let cfg = config(60.0, 20, (0.2, 0.2, 0.6));
    let a = run_seeded(&cfg, 1);
    let b = run_seeded(&cfg, 2);
    assert_ne!(
        (a.runtime.resumes.trials(), a.runtime.resumes.hits()),
        (b.runtime.resumes.trials(), b.runtime.resumes.hits())
    );
}

#[test]
fn waits_bounded_by_w() {
    // Eq. (2): the maximum batching wait is w = (l − B)/n.
    let cfg = config(60.0, 20, (0.2, 0.2, 0.6));
    let w = cfg.params.max_wait();
    let report = run_seeded(&cfg, 3);
    assert!(report.wait.count() > 100);
    // Mean wait of a mix of type-2 (0) and type-1 (≤ w) viewers.
    assert!(report.wait.mean() <= w + 1e-9);
    // Enrollment fraction should approximate b/T = B/l.
    let expect_type2 = cfg.params.buffer() / cfg.params.movie_len();
    let got = report.type2_fraction.value();
    assert!(
        (got - expect_type2).abs() < 0.05,
        "type-2 fraction {got} vs geometric {expect_type2}"
    );
}

#[test]
fn pure_batching_never_hits_rw_pau() {
    let cfg = config(0.0, 20, (0.2, 0.2, 0.6));
    let report = run_seeded(&cfg, 5);
    assert_eq!(report.hit_ratio(VcrKind::Rewind).hits(), 0);
    assert_eq!(report.hit_ratio(VcrKind::Pause).hits(), 0);
    // FF can still "hit" by running off the end of the movie.
    assert_eq!(
        report.hit_ratio(VcrKind::FastForward).hits(),
        report.runtime.ff_end
    );
}

#[test]
fn full_buffer_geometry_covers_all_but_end_sliver() {
    // B = l ⇒ windows tile the whole movie — except near the end, where
    // the stream that displayed those frames may have already terminated.
    // At t = 500 (age offset 8 within the 12-minute period) the oldest
    // live stream has age 116, so [0, 116] is covered and (116, 120] is
    // not; at an exact restart instant (t = 504) everything is covered.
    let w = PartitionWindows::from_params(&config(120.0, 10, (1.0, 0.0, 0.0)).params);
    for i in 0..=100 {
        let p = i as f64 * 1.16;
        assert!(w.covers(500.0, p), "position {p} uncovered at t=500");
    }
    assert!(!w.covers(500.0, 118.0));
    for i in 0..=100 {
        let p = i as f64 * 1.2;
        assert!(w.covers(504.0, p), "position {p} uncovered at t=504");
    }
}

#[test]
fn partition_geometry_matches_window_arithmetic() {
    // b = 6, T = 12: at time t = 600 (multiple of T), stream ages are
    // 0, 12, 24, …; windows are [max(0,a−6), a]. Position p is covered
    // iff p mod 12 ∈ [6, 12] ∪ {0-ish}.
    let cfg = config(60.0, 10, (1.0, 0.0, 0.0));
    assert_eq!(cfg.params.partition_len(), 6.0);
    assert_eq!(cfg.params.restart_interval(), 12.0);
    let w = PartitionWindows::from_params(&cfg.params);
    let t = 600.0;
    for (p, want) in [
        (0.0, true),   // age-0 stream front
        (3.0, false),  // gap: ages 0 and 12 windows are [0,0] and [6,12]
        (7.0, true),   // inside [6,12]
        (12.0, true),  // front of the age-12 stream
        (17.0, false), // gap of the next period
        (20.0, true),
        (118.5, true), // inside [114,120] of the age-120 stream
    ] {
        assert_eq!(w.covers(t, p), want, "position {p} at t={t}");
    }
}

#[test]
fn dedicated_streams_tracked() {
    let cfg = config(30.0, 10, (0.4, 0.4, 0.2));
    let report = run_seeded(&cfg, 11);
    assert!(
        report.runtime.dedicated_avg > 0.0,
        "avg {}",
        report.runtime.dedicated_avg
    );
    assert!(report.runtime.dedicated_peak >= report.runtime.dedicated_avg);
    // With ~60 concurrent viewers and sporadic VCR ops, dedicated use
    // must stay well below the viewer population.
    assert!(
        report.runtime.dedicated_peak < 80.0,
        "peak {}",
        report.runtime.dedicated_peak
    );
}

#[test]
fn conservation_of_viewers() {
    let cfg = config(60.0, 20, (0.2, 0.2, 0.6));
    let report = run_seeded(&cfg, 13);
    // Steady state: arrivals ≈ completions within the active-population
    // slack (λ·l ≈ 60 viewers in flight).
    let arrived = report.viewers_arrived as f64;
    let completed = report.viewers_completed as f64;
    assert!(arrived > 0.0);
    assert!(
        (arrived - completed).abs() < 120.0,
        "arrived {arrived} vs completed {completed}"
    );
}

#[test]
fn more_buffer_more_hits_in_simulation() {
    let mix = (0.2, 0.2, 0.6);
    let lo = run_replications(&config(12.0, 12, mix), 100, 3);
    let hi = run_replications(&config(90.0, 12, mix), 100, 3);
    assert!(
        hi.overall.mean() > lo.overall.mean() + 0.05,
        "B=90 ({}) should clearly beat B=12 ({})",
        hi.overall.mean(),
        lo.overall.mean()
    );
}

#[test]
fn simulation_matches_model_ff_only() {
    let cfg = config(60.0, 20, (1.0, 0.0, 0.0));
    let agg = run_replications(&cfg, 1000, 4);
    let model = p_hit_single_dist(
        &cfg.params,
        &Gamma::paper_fig7(),
        &VcrMix::ff_only(),
        &ModelOptions::default(),
    )
    .total;
    let sim = agg.overall.mean();
    assert!(
        (sim - model).abs() < 0.04,
        "FF: sim {sim:.4} vs model {model:.4}"
    );
}

#[test]
fn simulation_matches_model_mixed() {
    let cfg = config(60.0, 20, (0.2, 0.2, 0.6));
    let agg = run_replications(&cfg, 2000, 4);
    let model = p_hit_single_dist(
        &cfg.params,
        &Gamma::paper_fig7(),
        &VcrMix::paper_fig7d(),
        &ModelOptions::default(),
    )
    .total;
    let sim = agg.overall.mean();
    assert!(
        (sim - model).abs() < 0.05,
        "mixed: sim {sim:.4} vs model {model:.4}"
    );
}

#[test]
fn model_underestimates_rw_as_paper_describes() {
    // §4: "our model underestimates the probability of a hit for the RW
    // and PAU cases" (position-0 resumes count as misses in the model but
    // can hit the enrollment window in the real system). With a duration
    // law that rewinds to the start often, the bias direction must show.
    let params = SystemParams::new(120.0, 60.0, 10, Rates::paper()).unwrap();
    let b = BehaviorModel::uniform_dist(
        (0.0, 1.0, 0.0),
        30.0,
        Arc::new(Exponential::with_mean(40.0).unwrap()),
    );
    let cfg = SimConfig::new(params, b);
    let agg = run_replications(&cfg, 3000, 4);
    let model = p_hit_single_dist(
        &cfg.params,
        &Exponential::with_mean(40.0).unwrap(),
        &VcrMix::rw_only(),
        &ModelOptions::default(),
    )
    .total;
    let sim = agg.overall.mean();
    assert!(
        sim + 0.02 > model,
        "simulated RW hits ({sim:.4}) should not fall below the model ({model:.4})"
    );
}

#[test]
fn trace_collection_works() {
    let mut cfg = config(60.0, 20, (0.2, 0.2, 0.6));
    cfg.collect_trace = true;
    cfg.horizon = 10.0 * 120.0;
    let report = run_seeded(&cfg, 17);
    assert_eq!(report.trace.len() as u64, report.runtime.resumes.trials());
    for r in &report.trace {
        // Ops issued shortly before warmup can resume (and be recorded)
        // after it; only the resume instant is inside the window.
        assert!(r.issued_at >= 0.0 && r.issued_at <= cfg.horizon);
        assert!((0.0..=120.0).contains(&r.position));
        assert!(r.magnitude >= 0.0);
    }
    // Mix frequencies in the trace roughly match the behavior model.
    let ff = report
        .trace
        .iter()
        .filter(|r| r.kind == VcrKind::FastForward)
        .count() as f64;
    let frac = ff / report.trace.len() as f64;
    assert!((frac - 0.2).abs() < 0.06, "FF fraction {frac}");
}

/// The run ends at the horizon, not at the first event past it: the next
/// arrival of a near-idle movie lies ~10¹⁵ minutes out, and a queue that
/// walked the idle minutes to it (64 a step, say) would take hours.
#[test]
fn a_far_future_event_does_not_outlast_the_horizon() {
    let mut cfg = config(60.0, 20, (0.2, 0.2, 0.6));
    cfg.horizon = 1000.0;
    cfg.warmup = 0.0;
    let run_at = |mean_interarrival: f64| {
        let cfg = SimConfig {
            mean_interarrival,
            ..cfg.clone()
        };
        cfg.validate().unwrap();
        run_seeded(&cfg, 5)
    };
    let started = std::time::Instant::now();
    let far = run_at(1e15);
    assert!(
        started.elapsed().as_secs_f64() < 1.0,
        "crossed the wheel to the first event past the horizon"
    );
    assert_eq!(far.viewers_arrived, 1);
    assert_eq!(far, run_at(1e6));
}
