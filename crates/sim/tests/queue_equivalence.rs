//! The event-queue equivalence gate: the timer-wheel-bucketed queue must
//! be **bitwise identical** to the historical single global heap it
//! replaced — same seeds, same pop order, same full [`CatalogReport`]
//! (traces included) — across single-movie, catalog, capped-reserve, and
//! fault-plan configurations. The heap survives in the engine behind
//! `run_catalog_seeded_reference` exactly so this suite can hold that
//! line.

#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use vod_dist::kinds::{Exponential, Gamma};
use vod_model::{Rates, SystemParams};
use vod_runtime::{BackendKind, FaultEvent, FaultKind, FaultPlan};
use vod_sim::{
    run_catalog_seeded, run_catalog_seeded_reference, CatalogConfig, MovieLoad, SimConfig,
};
use vod_workload::BehaviorModel;

fn behavior(mix: (f64, f64, f64), mean_play_between: f64) -> BehaviorModel {
    BehaviorModel::uniform_dist(mix, mean_play_between, Arc::new(Gamma::paper_fig7()))
}

fn movie(len: f64, buffer: f64, n: u32, interarrival: f64) -> MovieLoad {
    MovieLoad {
        params: SystemParams::new(len, buffer, n, Rates::paper()).unwrap(),
        mean_interarrival: interarrival,
        behavior: behavior((0.2, 0.2, 0.6), 20.0),
    }
}

fn single_movie() -> CatalogConfig {
    let params = SystemParams::new(120.0, 60.0, 20, Rates::paper()).unwrap();
    SimConfig::new(params, behavior((0.2, 0.2, 0.6), 30.0)).into()
}

/// Three movies of different geometry sharing a finite reserve, with
/// traces on so the comparison covers per-operation event order, not
/// just aggregate counters.
fn catalog() -> CatalogConfig {
    CatalogConfig {
        movies: vec![
            movie(120.0, 60.0, 20, 2.0),
            movie(90.0, 30.0, 10, 3.0),
            movie(150.0, 50.0, 25, 5.0),
        ],
        horizon: 2400.0,
        warmup: 300.0,
        count_ff_end_as_hit: true,
        collect_trace: true,
        dedicated_capacity: Some(12),
        faults: FaultPlan::empty(),
        backend: vod_runtime::BackendKind::BatchingBuffering,
    }
}

#[test]
fn wheel_matches_heap_fault_free() {
    for (name, cfg) in [("single", single_movie()), ("catalog", catalog())] {
        for seed in [1u64, 7, 23, 1901] {
            let wheel = run_catalog_seeded(&cfg, seed);
            let heap = run_catalog_seeded_reference(&cfg, seed);
            assert_eq!(wheel, heap, "queues diverged (config {name}, seed {seed})");
        }
    }
}

#[test]
fn wheel_matches_heap_under_faults() {
    let plans = [
        (
            "loss+squeeze",
            FaultPlan::new(vec![
                FaultEvent {
                    at: 500,
                    kind: FaultKind::DiskStreamLoss { count: 4 },
                },
                FaultEvent {
                    at: 700,
                    kind: FaultKind::BufferShrink { segments: 30 },
                },
                FaultEvent {
                    at: 1100,
                    kind: FaultKind::BufferRestore { segments: 30 },
                },
            ]),
        ),
        (
            "outage",
            FaultPlan::new(vec![FaultEvent {
                at: 600,
                kind: FaultKind::DiskOutage {
                    count: 8,
                    recover_after: 150,
                },
            }]),
        ),
        ("storm", FaultPlan::generate(9, 2400, 8)),
    ];
    for (name, plan) in plans {
        let cfg = CatalogConfig {
            faults: plan,
            ..catalog()
        };
        for seed in [7u64, 23] {
            let wheel = run_catalog_seeded(&cfg, seed);
            let heap = run_catalog_seeded_reference(&cfg, seed);
            assert_eq!(wheel, heap, "queues diverged (plan {name}, seed {seed})");
            assert!(
                wheel.runtime.faults_injected > 0,
                "plan {name} never fired — the fault leg tested nothing"
            );
        }
    }
}

/// Interactions every ~0.8 min, nine in ten of them a sweep of mean 0.4
/// movie-minutes (0.13 min of wall at 3×): most `VcrEnd`s — and many of
/// the `Vcr`s that follow them — land inside the minute already being
/// played, so the order comes from the merge of the sorted bucket with
/// the late-insert heap, not from the wheel.
#[test]
fn wheel_matches_heap_when_sweeps_end_inside_their_minute() {
    let short = Arc::new(Exponential::with_mean(0.4).unwrap());
    let twitchy = |len: f64, buffer: f64, n: u32, interarrival: f64| MovieLoad {
        behavior: BehaviorModel::uniform_dist((0.45, 0.45, 0.1), 0.8, short.clone()),
        ..movie(len, buffer, n, interarrival)
    };
    let plans = [FaultPlan::empty(), FaultPlan::generate(9, 600, 6)];
    for kind in BackendKind::ALL {
        for plan in &plans {
            let cfg = CatalogConfig {
                movies: vec![twitchy(60.0, 30.0, 10, 1.5), twitchy(45.0, 15.0, 5, 2.5)],
                horizon: 600.0,
                warmup: 60.0,
                dedicated_capacity: Some(80),
                faults: plan.clone(),
                backend: kind,
                ..catalog()
            };
            for seed in [3u64, 42] {
                let wheel = run_catalog_seeded(&cfg, seed);
                let heap = run_catalog_seeded_reference(&cfg, seed);
                let faulted = !plan.is_empty();
                assert_eq!(
                    wheel, heap,
                    "queues diverged ({kind}, faults {faulted}, seed {seed})"
                );
                assert!(wheel.runtime.resumes.trials() > 10_000, "too few sweeps");
                assert_eq!(wheel.runtime.faults_injected > 0, faulted);
            }
        }
    }
}
