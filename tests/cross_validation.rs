//! Three-way cross-validation of the shared `vod-runtime` semantics: the
//! same `(l, B, n, VCR mix)` configuration runs through the analytic
//! model, the continuous-time event simulator, and the integer-minute
//! tick server, and the three hit probabilities must agree pairwise.
//!
//! Tolerances (fixed seed, so these are deterministic margins, not
//! statistical bounds; measured values sit well inside them — see
//! EXPERIMENTS.md "Three-way cross-validation"):
//!
//! * sim − model ∈ [−0.05, 0.08] — the §4 validation window: one-seed
//!   noise plus the boundary behaviors (position-0 resumes) the paper
//!   documents as an upward sim bias;
//! * server − model ∈ [−0.05, 0.08] — same window: tick quantization
//!   replaces the continuous window by `(T, b)` integers;
//! * |server − sim| ≤ 0.05 — the two *drivers* of the shared semantics,
//!   differing only in time model and workload discretization.
//!
//! A second pair of same-seed runs must reproduce each leg's
//! `RuntimeMetrics` bitwise (`PartialEq` over every counter and f64).

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use vod_prealloc::dist::kinds::Gamma;
use vod_prealloc::model::{p_hit_single_dist, ModelOptions, Rates, SystemParams, VcrMix};
use vod_prealloc::runtime::RuntimeMetrics;
use vod_prealloc::server::{
    run_harness, HarnessConfig, HostedMovie, MovieId, ServerConfig, Workload, VCR_RATE,
};
use vod_prealloc::sim::{run_seeded, SimConfig};
use vod_prealloc::workload::BehaviorModel;

const MOVIE_LEN: f64 = 120.0;
const SEED: u64 = 2026;

fn sim_config(params: SystemParams, horizon_lengths: f64) -> SimConfig {
    let mut cfg = SimConfig::new(params, BehaviorModel::paper_fig7d());
    cfg.horizon = horizon_lengths * MOVIE_LEN;
    cfg.warmup = 2.0 * MOVIE_LEN;
    cfg
}

fn harness_config(params: &SystemParams, n: u32, sim_cfg: &SimConfig) -> HarnessConfig {
    let movie = HostedMovie::from_allocation(MovieId(0), MOVIE_LEN as u32, n, params.buffer());
    HarnessConfig {
        server: ServerConfig {
            // Piggyback off: merge-back would re-enroll missed sessions
            // through a mechanism the model does not describe.
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 80)
        },
        workload: Workload {
            behavior: BehaviorModel::paper_fig7d(),
            mean_interarrival: sim_cfg.mean_interarrival,
            warmup: sim_cfg.warmup as u64,
            measure: (sim_cfg.horizon - sim_cfg.warmup) as u64,
            movies: vec![MovieId(0)],
        },
    }
}

/// Run all three legs for one `(n, w)` point of the Figure-7(d) mixed
/// workload and return `(model, sim, server)` metrics.
fn three_way(n: u32, wait: f64) -> (f64, RuntimeMetrics, RuntimeMetrics) {
    let params =
        SystemParams::from_wait(MOVIE_LEN, wait, n, Rates::paper()).expect("valid configuration");
    let model = p_hit_single_dist(
        &params,
        &Gamma::paper_fig7(),
        &VcrMix::paper_fig7d(),
        &ModelOptions::default(),
    )
    .total;
    let sim_cfg = sim_config(params, 40.0);
    let sim = run_seeded(&sim_cfg, SEED).runtime;
    let harness = harness_config(&params, n, &sim_cfg);
    // The server sweeps `VCR_RATE` segments a tick, the model and the sim
    // at `Rates::paper()`'s multiples of playback: the legs compare only
    // while the two agree.
    let (rates, vcr_rate) = (Rates::paper(), f64::from(VCR_RATE));
    assert_eq!(
        (vcr_rate, vcr_rate),
        (
            rates.fast_forward() / rates.playback(),
            rates.rewind() / rates.playback()
        )
    );
    let server = run_harness(&harness, SEED);
    (model, sim, server)
}

#[test]
fn three_way_agreement_w1_column() {
    for n in [20u32, 40, 60] {
        let (model, sim, server) = three_way(n, 1.0);
        let sim_hit = sim.hit_ratio();
        let srv_hit = server.hit_ratio();
        assert!(
            sim.resumes.trials() > 500 && server.resumes.trials() > 500,
            "n={n}: too few resumes (sim {}, server {})",
            sim.resumes.trials(),
            server.resumes.trials()
        );
        let sim_bias = sim_hit - model;
        assert!(
            (-0.05..=0.08).contains(&sim_bias),
            "n={n}: sim {sim_hit:.4} vs model {model:.4} (bias {sim_bias:.4})"
        );
        let srv_bias = srv_hit - model;
        assert!(
            (-0.05..=0.08).contains(&srv_bias),
            "n={n}: server {srv_hit:.4} vs model {model:.4} (bias {srv_bias:.4})"
        );
        assert!(
            (srv_hit - sim_hit).abs() <= 0.05,
            "n={n}: server {srv_hit:.4} vs sim {sim_hit:.4}"
        );
        // Provisioned generously: the mechanisms, not resource exhaustion,
        // must explain the numbers.
        assert_eq!(server.restart_failures, 0, "n={n}");
        assert_eq!(server.vcr_denied, 0, "n={n}");
        assert_eq!(sim.vcr_denied, 0, "n={n}");
    }
}

#[test]
fn same_seed_runs_are_bitwise_identical() {
    let params =
        SystemParams::from_wait(MOVIE_LEN, 1.0, 40, Rates::paper()).expect("valid configuration");
    let sim_cfg = sim_config(params, 10.0);
    let sim_a = run_seeded(&sim_cfg, SEED).runtime;
    let sim_b = run_seeded(&sim_cfg, SEED).runtime;
    assert_eq!(sim_a, sim_b, "simulator must be seed-deterministic");

    let harness = harness_config(&params, 40, &sim_cfg);
    let srv_a = run_harness(&harness, SEED);
    let srv_b = run_harness(&harness, SEED);
    assert_eq!(srv_a, srv_b, "server harness must be seed-deterministic");

    // And the two legs report through the same vocabulary: spot-check
    // that both actually populated the shared fields.
    for rt in [&sim_a, &srv_a] {
        assert!(rt.resumes.trials() > 0);
        assert!(rt.buffer_minutes > 0.0);
        assert!(rt.dedicated_peak >= 0.0);
    }
}
