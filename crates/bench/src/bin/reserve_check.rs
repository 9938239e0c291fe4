//! Extension experiment: validate the Erlang-loss model of the VCR
//! reserve against the discrete-event simulator (see EXPERIMENTS.md,
//! "VCR reserve sizing").
//!
//! 1. Measure the offered dedicated-stream load with an infinite reserve.
//! 2. Sweep finite reserves; compare simulated denial rates with
//!    Erlang-B, and show the analytic piggyback hold-time model shrinking
//!    the load.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin reserve_check -- [--out PATH]
//! ```
//!
//! Writes `results/reserve_check.txt` unless `--out` names another file.

use std::sync::Arc;

use vod_bench::report::{out_path, write_report};
use vod_bench::table::{num, Table};
use vod_dist::kinds::Gamma;
use vod_model::{
    expected_miss_hold_piggyback, expected_miss_hold_plain, p_hit_single_dist, ModelOptions, Rates,
    SystemParams, VcrMix,
};
use vod_sim::{run_seeded, SimConfig};
use vod_sizing::{erlang_b, size_vcr_reserve, VcrLoad};
use vod_workload::BehaviorModel;

fn main() {
    let path = out_path("reserve_check", "results/reserve_check.txt");
    let params = SystemParams::new(120.0, 24.0, 12, Rates::paper()).expect("valid");
    let behavior =
        BehaviorModel::uniform_dist((0.45, 0.45, 0.1), 25.0, Arc::new(Gamma::paper_fig7()));
    let mut cfg = SimConfig::new(params, behavior);
    cfg.mean_interarrival = 1.5;
    cfg.horizon = 80.0 * 120.0;
    cfg.warmup = 5.0 * 120.0;

    // Offered load from the uncapped system.
    let free = run_seeded(&cfg, 2024);
    let offered = free.runtime.dedicated_avg;
    let mut text = String::from("# Reserve validation (l=120, B=24, n=12; mix 0.45/0.45/0.1)\n");
    text += &format!(
        "uncapped run: offered load {offered:.2} Erlangs, peak {:.0}, hit ratio {:.3}\n\n",
        free.runtime.dedicated_peak,
        free.runtime.resumes.value()
    );

    text += "## simulated denial rate vs Erlang-B\n";
    let mut t = Table::new(vec![
        "reserve",
        "sim denial",
        "Erlang-B",
        "|diff|",
        "regime",
    ]);
    for factor in [0.6, 0.8, 1.0, 1.1, 1.25, 1.5] {
        let cap = ((offered * factor).round() as u32).max(1);
        let mut capped = cfg.clone();
        capped.dedicated_capacity = Some(cap);
        let run = run_seeded(&capped, 2025);
        let measured = (run.runtime.vcr_denied + run.runtime.resume_starved) as f64
            / run.runtime.acquisition_attempts.max(1) as f64;
        let predicted = erlang_b(cap, offered);
        t.row(vec![
            cap.to_string(),
            num(measured, 4),
            num(predicted, 4),
            num((measured - predicted).abs(), 4),
            if factor < 1.0 {
                "overload (retrials inflate)".to_string()
            } else {
                "engineered".to_string()
            },
        ]);
    }
    text += &t.render();

    // Analytic load build-up: model hit probability + hold times.
    text += "\n## analytic load and reserve sizing\n";
    let opts = ModelOptions::default();
    let p_hit = p_hit_single_dist(
        &params,
        &Gamma::paper_fig7(),
        &VcrMix::new(0.45, 0.45, 0.1).expect("valid"),
        &opts,
    )
    .total;
    // Interaction rate: population ≈ l/interarrival viewers, each
    // interacting every mean_play_between minutes.
    let population = 120.0 / 1.5;
    let ops_per_minute = population / 25.0;
    let phase1 = 0.9 * (8.0 / 3.0); // FF/RW sweeps at 3x; pauses hold nothing
    for (label, miss_hold) in [
        ("no piggyback", expected_miss_hold_plain(&params)),
        ("piggyback +5%", expected_miss_hold_piggyback(&params, 0.05)),
        (
            "piggyback +10%",
            expected_miss_hold_piggyback(&params, 0.10),
        ),
    ] {
        let load = VcrLoad {
            ops_per_minute,
            mean_phase1: phase1,
            mean_miss_hold: miss_hold,
            p_hit,
        };
        let reserve = size_vcr_reserve(&load, 0.01).expect("valid target");
        text += &format!(
            "{label:<15} E[miss hold] = {miss_hold:>6.1} min  offered = {:>6.1} E  reserve(1% denial) = {reserve}\n",
            load.offered_erlangs()
        );
    }
    text += &format!(
        "\n(model P(hit) = {p_hit:.3}; raising it — more buffer — or merging faster\n \
         shrinks the reserve: the paper's cost-effectiveness loop, quantified)\n"
    );
    write_report("reserve_check", &path, &text);
}
