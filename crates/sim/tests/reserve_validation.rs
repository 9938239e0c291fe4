//! Validate the Erlang-loss view of the VCR reserve (the extension
//! described in EXPERIMENTS.md): measure the offered load with an
//! infinite reserve, then check that a finite reserve's denial rate
//! tracks the Erlang-B prediction.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use std::sync::Arc;

use vod_dist::kinds::Gamma;
use vod_model::{Rates, SystemParams};
use vod_runtime::{BackendKind, FaultEvent, FaultKind, FaultPlan};
use vod_sim::{run_catalog_seeded, run_seeded, CatalogConfig, SimConfig};
use vod_sizing::erlang_b;
use vod_workload::BehaviorModel;

fn base_config() -> SimConfig {
    // Small buffer → low hit probability → long dedicated holds: a
    // regime where the reserve actually matters.
    let params = SystemParams::new(120.0, 24.0, 12, Rates::paper()).expect("valid");
    let behavior =
        BehaviorModel::uniform_dist((0.45, 0.45, 0.1), 25.0, Arc::new(Gamma::paper_fig7()));
    let mut cfg = SimConfig::new(params, behavior);
    cfg.mean_interarrival = 1.5;
    cfg.horizon = 60.0 * 120.0;
    cfg.warmup = 5.0 * 120.0;
    cfg
}

#[test]
fn denial_rate_tracks_erlang_b() {
    // 1. Offered load from the uncapped system (carried == offered).
    let free = run_seeded(&base_config(), 77);
    let offered = free.runtime.dedicated_avg;
    assert!(offered > 3.0, "load too light to test blocking: {offered}");
    assert_eq!(free.runtime.vcr_denied, 0);
    assert_eq!(free.runtime.resume_starved, 0);

    // 2. Cap the reserve at/above the offered load — the regime a sized
    //    system operates in. Denials must appear and match Erlang-B
    //    within simulation noise. Erlang-B's insensitivity covers our
    //    non-exponential holds, but a capped reserve is offered more than
    //    the free one: a viewer denied an FF/RW stays in its batch and
    //    asks again at its next interaction, so denials breed attempts
    //    (at cap = offered, 5–19 % more per minute over eight seed pairs,
    //    which put Erlang-B at the free run's load 0.03–0.12 under the
    //    measured rate). So the prediction takes the capped run's own
    //    offered traffic: attempts per minute times the mean hold of a
    //    granted stream, which is the carried load over `1 − measured`.
    //    That makes this a fixed-point check — the load fed to Erlang-B
    //    depends on the measured rate, and Erlang-B rises with load, so
    //    part of any error in the sim's rate cancels itself. The window
    //    is held to the residual at this load instead: 0.03, where the
    //    same eight seed pairs read +0.003…+0.018 at cap = offered and
    //    within ±0.013 at 1.25×.
    for cap_factor in [1.0, 1.25] {
        let cap = ((offered * cap_factor).round() as u32).max(1);
        let mut cfg = base_config();
        cfg.dedicated_capacity = Some(cap);
        let run = run_seeded(&cfg, 78);
        let denials = run.runtime.vcr_denied + run.runtime.resume_starved;
        assert!(run.runtime.acquisition_attempts > 500, "too few attempts");
        let measured = denials as f64 / run.runtime.acquisition_attempts as f64;
        let predicted = erlang_b(cap, run.runtime.dedicated_avg / (1.0 - measured));
        assert!(
            (measured - predicted).abs() < 0.03,
            "cap {cap} (offered {offered:.2}): measured {measured:.3} vs Erlang-B {predicted:.3}"
        );
        // Carried load cannot exceed the cap.
        assert!(run.runtime.dedicated_avg <= cap as f64 + 1e-9);
        assert!(run.runtime.dedicated_peak <= cap as f64 + 1e-9);
    }

    // 3. Deep overload (cap = 0.6·offered): denied viewers stay batched
    //    and *retry* later, so the loss system becomes a retrial queue
    //    and Erlang-B at the free run's load systematically
    //    underpredicts. Assert the direction and rough scale rather than
    //    equality.
    let cap = (offered * 0.6).round() as u32;
    let mut cfg = base_config();
    cfg.dedicated_capacity = Some(cap);
    let run = run_seeded(&cfg, 78);
    let measured = (run.runtime.vcr_denied + run.runtime.resume_starved) as f64
        / run.runtime.acquisition_attempts as f64;
    let predicted = erlang_b(cap, offered);
    assert!(
        measured >= predicted - 0.02 && measured < predicted + 0.3,
        "overload: measured {measured:.3}, Erlang-B {predicted:.3}"
    );
}

#[test]
fn generous_reserve_never_denies() {
    let mut cfg = base_config();
    let free = run_seeded(&cfg, 79);
    cfg.dedicated_capacity = Some((free.runtime.dedicated_peak as u32) + 5);
    let run = run_seeded(&cfg, 79);
    assert_eq!(run.runtime.vcr_denied, 0);
    assert_eq!(run.runtime.resume_starved, 0);
    // Identical seed and effectively-uncapped reserve: statistics match
    // the free run exactly.
    assert_eq!(run.runtime.resumes.trials(), free.runtime.resumes.trials());
    assert_eq!(run.runtime.resumes.hits(), free.runtime.resumes.hits());
}

/// Two outages at tick 0 each take one free stream of a `capacity`-stream
/// dedicated reserve; they come back at minute 45 and minute 40 — the
/// later-pushed recovery is due first.
fn outage_config(movies: usize, mean_interarrival: f64, capacity: u32) -> CatalogConfig {
    let params = SystemParams::new(120.0, 100.0, 20, Rates::paper()).expect("valid");
    let mut cfg: CatalogConfig = SimConfig::new(params, BehaviorModel::paper_fig7d()).into();
    cfg.movies = vec![cfg.movies[0].clone(); movies];
    for movie in &mut cfg.movies {
        movie.mean_interarrival = mean_interarrival;
    }
    cfg.backend = BackendKind::DedicatedStream;
    cfg.dedicated_capacity = Some(capacity);
    cfg.horizon = 400.0;
    cfg.warmup = 0.0;
    cfg.faults = FaultPlan::new(
        [45, 40]
            .map(|recover_after| FaultEvent {
                at: 0,
                kind: FaultKind::DiskOutage {
                    count: 1,
                    recover_after,
                },
            })
            .to_vec(),
    );
    cfg
}

/// Recoveries that fall due between two event pops apply in `due` order,
/// and a viewer one of them admits starts — and acts — before the event
/// whose pop applied it and before the next recovery. Out of order, the
/// reserve's occupancy integral ran backwards (a debug build panicked, a
/// release build folded a negative interval into `dedicated_avg`) and the
/// FIFO start queue was served out of arrival order.
#[test]
fn outage_recoveries_keep_time_and_fifo_order() {
    for seed in 0..50 {
        let run = run_catalog_seeded(&outage_config(1, 30.0, 2), seed);
        let avg = run.runtime.dedicated_avg;
        assert!(
            (0.0..=2.0).contains(&avg),
            "seed {seed}: dedicated_avg {avg}"
        );

        // One viewer per movie, all arriving at minute 0 in movie order:
        // movie 0's viewer takes the third stream, the one the outages
        // leave, and every later movie's viewer queues behind the one
        // before it. Its only wait is its start minute, so FIFO service
        // is a wait that never decreases with the movie index.
        let run = run_catalog_seeded(&outage_config(8, 1e9, 3), seed);
        let waits: Vec<_> = run.per_movie[1..].iter().map(|m| &m.wait).collect();
        let started = waits.iter().take_while(|w| w.count() == 1).count();
        assert!(started >= 2, "seed {seed}: both recoveries admit a viewer");
        assert!(
            waits[started..].iter().all(|w| w.count() == 0),
            "seed {seed}: a viewer started ahead of one queued before it"
        );
        for pair in waits[..started].windows(2) {
            assert!(
                pair[0].mean() <= pair[1].mean(),
                "seed {seed}: start order {:?}",
                waits.iter().map(|w| w.mean()).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn tighter_reserve_more_denials() {
    let mut prev = u64::MAX;
    for cap in [2u32, 5, 12, 40] {
        let mut cfg = base_config();
        cfg.dedicated_capacity = Some(cap);
        let run = run_seeded(&cfg, 80);
        let denials = run.runtime.vcr_denied + run.runtime.resume_starved;
        assert!(
            denials <= prev,
            "cap {cap}: denials {denials} did not decrease (prev {prev})"
        );
        prev = denials;
    }
    assert!(prev < u64::MAX);
}
