//! Quickstart: size one popular movie and check the answer by simulation.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Walks the paper's core loop end to end:
//! 1. pick QoS targets (maximum batching wait `w`, minimum hit
//!    probability `P*`) for one movie;
//! 2. use the analytic model to find the cheapest `(B, n)` meeting them;
//! 3. validate the predicted hit probability with the discrete-event
//!    simulator.

use std::sync::Arc;

use vod_prealloc::dist::kinds::Gamma;
use vod_prealloc::model::{ModelOptions, Rates, VcrMix};
use vod_prealloc::sim::{run_replications, SimConfig};
use vod_prealloc::sizing::{max_feasible_streams, MovieSpec};
use vod_prealloc::workload::BehaviorModel;

fn main() {
    // A 120-minute movie; viewers' VCR sweeps follow the paper's skewed
    // gamma (mean 8 minutes); FF/RW run at 3x playback.
    let movie = MovieSpec::new(
        "blockbuster",
        120.0,
        0.5, // max batching wait: 30 seconds
        0.6, // at least 60% of VCR resumes must release their stream
        VcrMix::paper_fig7d(),
        Arc::new(Gamma::paper_fig7()),
        Rates::paper(),
    )
    .expect("valid spec");

    let opts = ModelOptions::default();
    println!(
        "movie: l = {} min, w <= {} min, P* = {}",
        movie.length, movie.max_wait, movie.target_hit
    );
    println!(
        "pure batching would need {} I/O streams (zero hit probability)",
        movie.pure_batching_streams()
    );

    // Cheapest feasible point: the largest n (smallest buffer) with
    // P(hit) >= P*.
    let n = max_feasible_streams(&movie, &opts)
        .expect("model evaluation")
        .expect("target is satisfiable");
    let buffer = movie.buffer_for_streams(n);
    let p_model = movie.hit_probability(n, &opts).expect("model evaluation");
    println!("\nchosen configuration:");
    println!(
        "  n = {n} I/O streams ({} fewer than pure batching)",
        movie.pure_batching_streams() - n
    );
    println!("  B = {buffer:.1} movie minutes of buffer");
    println!("  modelled P(hit) = {p_model:.3}");

    // Cross-check with the simulator.
    let params = movie.params_for_streams(n).expect("feasible n");
    // The same viewer on the sim side: that mix over that gamma, a VCR
    // interaction every ~30 playback minutes.
    let behavior = BehaviorModel::paper_fig7d();
    let agg = run_replications(&SimConfig::new(params, behavior), 7, 4);
    println!(
        "  simulated P(hit) = {:.3} ± {:.3} (4 replications)",
        agg.overall.mean(),
        agg.overall.ci_half_width(1.96)
    );
    println!(
        "\nEvery released stream serves future VCR requests or unpopular\n\
         movies — that is the cost-effectiveness argument of the paper."
    );
}
