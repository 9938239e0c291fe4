//! The `DeliveryBackend` refactor must be behavior-preserving for the
//! incumbent scheme: `run_harness` (now the shared `Driver` stepping a
//! `dyn DeliveryBackend`, audited every tick) is pinned bitwise against a
//! frozen copy of the pre-refactor workload loop — the independent
//! oracle, deliberately *not* ported onto the `Driver` — and
//! `run_backend(BatchingBuffering)` is pinned bitwise against
//! `run_harness`. The comparison backends get the same determinism and
//! accounting-sanity treatment.

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use vod_dist::rng::{exponential, seeded};
use vod_runtime::{BackendKind, DegradePolicy, FaultPlan, RuntimeMetrics};
use vod_server::{
    run_backend, run_harness, BackendRun, DeliveryBackend, HarnessConfig, HostedMovie, MovieId,
    ServerConfig, SessionId, SessionStatus, VodServer, Workload,
};
use vod_workload::BehaviorModel;

fn config() -> HarnessConfig {
    let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
    HarnessConfig {
        server: ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 40)
        },
        workload: Workload {
            behavior: BehaviorModel::paper_fig7d(),
            mean_interarrival: 2.0,
            warmup: 240,
            measure: 1200,
            movies: vec![MovieId(0)],
        },
    }
}

/// The fault-free harness run of `kind`, audited every tick.
fn run_harness_backend(cfg: &HarnessConfig, kind: BackendKind, seed: u64) -> BackendRun {
    let plan = FaultPlan::empty();
    run_backend(cfg, kind, seed, &plan, DegradePolicy::default())
}

/// A frozen, line-for-line copy of the workload loop as it was before
/// the `DeliveryBackend` extraction, driving `VodServer` through its
/// inherent API. This is the scan-equivalence oracle pattern: if the
/// refactor ever perturbs RNG order, tick order, or status handling,
/// this copy and `run_harness` diverge bitwise.
fn pre_refactor_harness(cfg: &HarnessConfig, seed: u64) -> RuntimeMetrics {
    let mut server = VodServer::new(cfg.server.clone());
    let (movie, cfg) = (cfg.workload.movies[0], &cfg.workload);
    let mut rng = seeded(seed);
    let mut next_arrival = exponential(&mut rng, cfg.mean_interarrival);
    let mut pending: Vec<(SessionId, u64)> = Vec::new();
    let horizon = cfg.warmup + cfg.measure;
    for minute in 0..horizon {
        if minute == cfg.warmup {
            server.reset_metrics();
        }
        while next_arrival < (minute + 1) as f64 {
            let id = server.open_session(movie).unwrap();
            let gap = cfg.behavior.next_interaction_gap(&mut rng);
            pending.push((id, minute + (gap.ceil() as u64).max(1)));
            next_arrival += exponential(&mut rng, cfg.mean_interarrival);
        }
        let mut i = 0;
        while i < pending.len() {
            let (id, due) = pending[i];
            if due > minute {
                i += 1;
                continue;
            }
            match server.session_status(id).unwrap() {
                SessionStatus::Done => {
                    pending.swap_remove(i);
                    continue;
                }
                SessionStatus::Shared | SessionStatus::Dedicated => {
                    let req = cfg.behavior.sample_request(&mut rng);
                    let magnitude = (req.magnitude.round() as u32).max(1);
                    let _ = server.request_vcr(id, req.kind, magnitude);
                    let gap = cfg.behavior.next_interaction_gap(&mut rng);
                    pending[i].1 = minute + (gap.ceil() as u64).max(1);
                }
                SessionStatus::Waiting(_) | SessionStatus::InVcr | SessionStatus::Degraded => {
                    pending[i].1 = minute + 1;
                }
            }
            i += 1;
        }
        server.tick();
    }
    server.runtime_metrics()
}

#[test]
fn refactored_harness_matches_pre_refactor_loop_bitwise() {
    let cfg = config();
    for seed in [7u64, 2026] {
        let oracle = pre_refactor_harness(&cfg, seed);
        let current = run_harness(&cfg, seed);
        assert_eq!(
            oracle, current,
            "seed {seed}: trait-generic driver diverged from the frozen loop"
        );
    }
}

#[test]
fn batching_behind_the_trait_is_bitwise_identical() {
    let cfg = config();
    for seed in [7u64, 2026] {
        let direct = run_harness(&cfg, seed);
        let via_trait = run_harness_backend(&cfg, BackendKind::BatchingBuffering, seed);
        assert_eq!(
            direct, via_trait.outcome.metrics,
            "seed {seed}: make_backend(BatchingBuffering) changed the metrics"
        );
        assert_eq!(via_trait.outcome.violation_count, 0);
        assert_eq!(via_trait.kind, BackendKind::BatchingBuffering);
    }
}

#[test]
fn comparison_backends_are_deterministic_and_accounted() {
    let cfg = config();
    for backend in [BackendKind::PyramidBroadcast, BackendKind::DedicatedStream] {
        let a = run_harness_backend(&cfg, backend, 11);
        let b = run_harness_backend(&cfg, backend, 11);
        assert_eq!(a, b, "{backend}: same seed must replay bitwise");
        assert_eq!(
            a.outcome.violation_count, 0,
            "{backend}: fault-free run broke invariants: {:?}",
            a.outcome.violations
        );
        assert!(a.startup_wait_samples > 0, "{backend}: no waits sampled");
        assert!(
            a.outcome.sessions_done > 0,
            "{backend}: nobody finished a movie"
        );
    }
}

#[test]
fn dedicated_backend_has_no_buffer_and_pyramid_waits_are_bounded() {
    let cfg = config();
    let ded = run_harness_backend(&cfg, BackendKind::DedicatedStream, 11);
    assert_eq!(
        ded.buffer_segments, 0,
        "unicast provisions no server buffer"
    );
    assert_eq!(
        ded.outcome.metrics.buffer_minutes, 0.0,
        "unicast delivered from a buffer that does not exist"
    );
    assert!(ded.outcome.metrics.disk_minutes > 0.0);

    let pyr = run_harness_backend(&cfg, BackendKind::PyramidBroadcast, 11);
    // The harness movie promises max_wait = T − b = 1 minute; the
    // pyramid geometry must honor the same bound.
    assert!(
        pyr.startup_wait_mean < 1.0,
        "pyramid mean startup wait {} ≥ one segment-1 period",
        pyr.startup_wait_mean
    );
    assert_eq!(
        pyr.outcome.metrics.resume_starved, 0,
        "fault-free starvation"
    );
    // RW/Pause resumes are free hits in the broadcast prefix, so pyramid
    // cannot classify worse than the batching scheme on this workload.
    let bat = run_harness_backend(&cfg, BackendKind::BatchingBuffering, 11);
    assert!(
        pyr.outcome.metrics.hit_ratio() >= bat.outcome.metrics.hit_ratio(),
        "pyramid hit ratio {} below batching {}",
        pyr.outcome.metrics.hit_ratio(),
        bat.outcome.metrics.hit_ratio()
    );
}
