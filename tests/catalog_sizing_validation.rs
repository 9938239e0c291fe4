//! The full §5 loop validated in one piece: size the Example-1 catalog
//! with the analytic model, then simulate all three movies *together*
//! sharing one VCR reserve, and check that
//!
//! 1. each movie's simulated hit ratio lands at (or above) its planned
//!    `P(hit)` — the pre-allocation keeps its promise under load;
//! 2. a reserve sized by the Erlang-B extension keeps denials below the
//!    design target.

#![allow(clippy::unwrap_used, clippy::float_cmp)]
use std::sync::Arc;

use vod_prealloc::model::{ModelOptions, VcrMix};
use vod_prealloc::sim::{run_catalog_seeded, CatalogConfig, MovieLoad};
use vod_prealloc::sizing::{allocate_min_buffer, erlang_b, example1_movies, Budgets};
use vod_prealloc::workload::BehaviorModel;

#[test]
fn example1_catalog_sized_then_simulated() {
    let movies = example1_movies(VcrMix::paper_fig7d());
    let opts = ModelOptions::default();
    // Budget large enough that the water-fill leaves every movie well
    // inside the model's validated regime (the paper's Figure 7 starts
    // around n = 10; at n = 1 the uniform-position assumptions are at
    // their weakest and model-vs-sim gaps widen).
    let plan = allocate_min_buffer(
        &movies,
        Budgets {
            streams: 400,
            buffer: None,
        },
        &opts,
    )
    .expect("satisfiable");
    for a in &plan.allocations {
        assert!(
            a.n_streams >= 10,
            "{} got only {} streams",
            a.movie,
            a.n_streams
        );
    }

    // Build the catalog load: per-movie Poisson arrivals and the paper's
    // mixed VCR behavior.
    let loads: Vec<MovieLoad> = movies
        .iter()
        .zip(&plan.allocations)
        .map(|(m, a)| MovieLoad {
            params: m.params_for_streams(a.n_streams).expect("feasible"),
            mean_interarrival: 3.0,
            behavior: BehaviorModel::paper_fig7d_over(Arc::clone(&m.dist)),
        })
        .collect();

    // 1. Infinite reserve: measure offered load and per-movie hit ratios.
    let cfg = CatalogConfig {
        movies: loads,
        horizon: 40.0 * 120.0,
        warmup: 4.0 * 120.0,
        count_ff_end_as_hit: true,
        collect_trace: false,
        dedicated_capacity: None,
        faults: vod_runtime::FaultPlan::empty(),
        backend: vod_runtime::BackendKind::BatchingBuffering,
    };
    let free = run_catalog_seeded(&cfg, 55);
    for (movie, (report, alloc)) in free.per_movie.iter().zip(&plan.allocations).enumerate() {
        assert!(
            report.runtime.resumes.trials() > 300,
            "movie {movie}: too few resumes ({})",
            report.runtime.resumes.trials()
        );
        let sim = report.runtime.resumes.value();
        // The simulator's boundary behaviors bias RW/PAU upward, so the
        // plan's promise is a (noisy) lower bound.
        assert!(
            sim > alloc.p_hit - 0.05,
            "movie {movie} ({}): sim {sim:.3} well below planned {:.3}",
            alloc.movie,
            alloc.p_hit
        );
    }

    // 2. Size the shared reserve for ≤ 2% denials at the measured load
    //    and verify the capped run meets the target.
    let offered = free.runtime.dedicated_avg;
    assert!(offered > 0.5, "offered load {offered}");
    let mut cap = 1u32;
    while erlang_b(cap, offered) > 0.02 {
        cap += 1;
    }
    let mut capped = cfg.clone();
    capped.dedicated_capacity = Some(cap);
    let run = run_catalog_seeded(&capped, 56);
    let denial_rate = (run.runtime.vcr_denied + run.runtime.resume_starved) as f64
        / run.runtime.acquisition_attempts.max(1) as f64;
    assert!(
        denial_rate <= 0.05,
        "reserve of {cap} streams (offered {offered:.2}) denied {denial_rate:.3}"
    );
    assert!(run.runtime.dedicated_peak <= cap as f64 + 1e-9);
}
