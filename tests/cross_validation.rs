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

use vod_bench::fig7::{cross_validation_cells, CrossCell, CROSS_SEED as SEED};
use vod_prealloc::model::Rates;
use vod_prealloc::runtime::RuntimeMetrics;
use vod_prealloc::server::{run_harness, VCR_RATE};
use vod_prealloc::sim::run_seeded;

/// Run all three legs for one `(n, w)` cell of the Figure-7(d) mixed
/// workload and return `(model, sim, server)` metrics.
fn three_way(cell: &CrossCell) -> (f64, RuntimeMetrics, RuntimeMetrics) {
    let model = cell.model();
    let sim = run_seeded(&cell.sim, SEED).runtime;
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
    let server = run_harness(&cell.harness, SEED);
    (model, sim, server)
}

#[test]
fn three_way_agreement_w1_column() {
    for cell in cross_validation_cells(40.0).unwrap() {
        let n = cell.n;
        let (model, sim, server) = three_way(&cell);
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
    let cells = cross_validation_cells(10.0).unwrap();
    let cell = cells.iter().find(|c| c.n == 40).unwrap();
    let sim_a = run_seeded(&cell.sim, SEED).runtime;
    let sim_b = run_seeded(&cell.sim, SEED).runtime;
    assert_eq!(sim_a, sim_b, "simulator must be seed-deterministic");

    let srv_a = run_harness(&cell.harness, SEED);
    let srv_b = run_harness(&cell.harness, SEED);
    assert_eq!(srv_a, srv_b, "server harness must be seed-deterministic");

    // And the two legs report through the same vocabulary: spot-check
    // that both actually populated the shared fields.
    for rt in [&sim_a, &srv_a] {
        assert!(rt.resumes.trials() > 0);
        assert!(rt.buffer_minutes > 0.0);
        assert!(rt.dedicated_peak >= 0.0);
    }
}
