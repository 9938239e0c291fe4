//! Extension experiment: the full §5 loop at catalog scale — size the
//! Example-1 movies with the analytic model, then simulate all three
//! together sharing one VCR reserve and compare planned vs simulated
//! hit probabilities per movie, plus reserve denial rates.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin catalog_sim -- [--threads N] [--out PATH]
//! ```

use std::sync::Arc;

use vod_bench::report::{emit_text, sweep_flags};
use vod_bench::table::{num, Table};
use vod_model::{ModelOptions, VcrMix};
use vod_sim::{run_catalog_seeded, CatalogConfig, MovieLoad};
use vod_sizing::{allocate_min_buffer_with, erlang_b, example1_movies, Budgets};
use vod_workload::BehaviorModel;

/// The catalog's stream budget.
const STREAMS: u32 = 400;

fn main() {
    let (exec, out) = sweep_flags("catalog_sim");

    let movies = example1_movies(VcrMix::paper_fig7d());
    let opts = ModelOptions::default();
    let plan = allocate_min_buffer_with(
        &movies,
        Budgets {
            streams: STREAMS,
            buffer: None,
        },
        &opts,
        &exec,
    )
    .expect("satisfiable");
    let mut text = format!(
        "# Catalog simulation: Example-1 movies, stream budget {STREAMS} \
         (plan uses {} + {:.1} buffer min)\n",
        plan.total_streams(),
        plan.total_buffer()
    );

    let loads: Vec<MovieLoad> = movies
        .iter()
        .zip(&plan.allocations)
        .map(|(m, a)| MovieLoad {
            params: m.params_for_streams(a.n_streams).expect("feasible"),
            mean_interarrival: 3.0,
            behavior: BehaviorModel::paper_fig7d_over(Arc::clone(&m.dist)),
        })
        .collect();
    let cfg = CatalogConfig {
        movies: loads,
        horizon: 60.0 * 120.0,
        warmup: 5.0 * 120.0,
        count_ff_end_as_hit: true,
        collect_trace: false,
        dedicated_capacity: None,
        faults: vod_runtime::FaultPlan::empty(),
        backend: vod_runtime::BackendKind::BatchingBuffering,
    };
    let free = run_catalog_seeded(&cfg, 2026);

    text += "\n## planned vs simulated hit probability (shared catalog)\n";
    let mut t = Table::new(vec!["movie", "n*", "B*", "planned", "simulated", "resumes"]);
    for (a, r) in plan.allocations.iter().zip(&free.per_movie) {
        t.row(vec![
            a.movie.clone(),
            a.n_streams.to_string(),
            num(a.buffer, 1),
            num(a.p_hit, 3),
            num(r.runtime.resumes.value(), 3),
            r.runtime.resumes.trials().to_string(),
        ]);
    }
    text += &t.render();

    text += &format!(
        "\n## shared VCR reserve (offered load {:.2} Erlangs, peak {:.0})\n",
        free.runtime.dedicated_avg, free.runtime.dedicated_peak
    );
    let mut t = Table::new(vec!["reserve", "sim denial", "Erlang-B"]);
    for factor in [1.0, 1.2, 1.5] {
        let cap = ((free.runtime.dedicated_avg * factor).round() as u32).max(1);
        let mut capped = cfg.clone();
        capped.dedicated_capacity = Some(cap);
        let run = run_catalog_seeded(&capped, 2027);
        let measured = (run.runtime.vcr_denied + run.runtime.resume_starved) as f64
            / run.runtime.acquisition_attempts.max(1) as f64;
        t.row(vec![
            cap.to_string(),
            num(measured, 4),
            num(erlang_b(cap, free.runtime.dedicated_avg), 4),
        ]);
    }
    text += &t.render();
    emit_text("catalog_sim", out.as_deref(), &text);
}
