//! Close the paper's measurement loop: simulate viewers, record their VCR
//! durations as a trace, fit an [`Empirical`] distribution to the trace,
//! and feed it back into the analytic model — the workflow §2.1 sketches
//! ("the pdf of VCR requests can be obtained by statistics while the
//! movie is displayed").
//!
//! ```sh
//! cargo run --release --example trace_fitting
//! ```

use std::sync::Arc;

use vod_prealloc::dist::fit::{fit_all, ks_statistic};
use vod_prealloc::dist::kinds::{Empirical, Gamma};
use vod_prealloc::dist::DurationDist;
use vod_prealloc::model::{p_hit_single_dist, ModelOptions, Rates, SystemParams, VcrMix};
use vod_prealloc::sim::{run_seeded, SimConfig};
use vod_prealloc::workload::{write_csv, BehaviorModel};

fn main() {
    let params = SystemParams::new(120.0, 60.0, 20, Rates::paper()).expect("valid params");
    let true_dist = Gamma::paper_fig7();

    // 1. Observe the system: collect a VCR trace from the simulator.
    let behavior = BehaviorModel::paper_fig7d_over(Arc::new(true_dist));
    let mut cfg = SimConfig::new(params, behavior);
    cfg.collect_trace = true;
    cfg.horizon = 200.0 * 120.0;
    let report = run_seeded(&cfg, 99);
    println!("collected {} VCR operations", report.trace.len());

    // 2. Persist and reload the trace as CSV (a real deployment would
    //    accumulate this server-side).
    let mut csv = Vec::new();
    write_csv(&mut csv, &report.trace).expect("in-memory write");
    println!("trace CSV: {} bytes", csv.len());

    // 3. Fit an empirical duration law from the observed magnitudes.
    let magnitudes: Vec<f64> = report.trace.iter().map(|r| r.magnitude).collect();
    let fitted = Empirical::from_samples(&magnitudes).expect("non-empty trace");
    println!(
        "fitted empirical law: {} breakpoints, mean {:.2} (true mean {:.2})",
        fitted.breakpoints(),
        fitted.mean(),
        true_dist.mean()
    );

    // 4. Alternatively, fit the parametric families and rank them by the
    //    Kolmogorov–Smirnov statistic: the skewed gamma should win (the
    //    trace really was drawn from one).
    let ranked = fit_all(&magnitudes).expect("enough samples");
    println!("\nparametric fits ranked by KS statistic:");
    for c in &ranked {
        println!(
            "  {:<12} KS = {:.4}  (mean {:.2})",
            c.family,
            c.ks,
            c.dist.mean()
        );
    }
    println!(
        "  empirical    KS = {:.4}",
        ks_statistic(&fitted, &magnitudes)
    );

    // 5. Feed it back into the model and compare against the ground truth.
    let opts = ModelOptions::default();
    let mix = VcrMix::paper_fig7d();
    let with_true = p_hit_single_dist(&params, &true_dist, &mix, &opts).total;
    let with_fit = p_hit_single_dist(&params, &fitted, &mix, &opts).total;
    println!("\nP(hit) with the true gamma law : {with_true:.4}");
    println!("P(hit) with the fitted law     : {with_fit:.4}");
    println!(
        "simulated hit ratio            : {:.4}",
        report.runtime.resumes.value()
    );
    assert!(
        (with_true - with_fit).abs() < 0.02,
        "a trace of this size should recover the model input closely"
    );
}
