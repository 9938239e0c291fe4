//! Three-way cross-validation of the shared `vod-runtime` semantics:
//! run the same `(l, B, n, VCR mix)` configuration through
//!
//! 1. the analytic model (`p_hit_single_dist`, continuous time),
//! 2. the discrete-event simulator (`vod-sim`, continuous time),
//! 3. the tick server (`vod-server` + its load harness, integer minutes),
//!
//! and tabulate the hit probabilities side by side. Writes the full
//! [`vod_runtime::RuntimeMetrics`] of the sim and server legs to
//! `results/CROSS_VALIDATION.json` — the two legs share one metric
//! vocabulary, so the JSON objects are field-for-field comparable.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin cross_validate [-- --out PATH]
//! ```

use vod_bench::report::{out_path, write_json};
use vod_bench::table::{num, Table};
use vod_dist::kinds::Gamma;
use vod_model::{p_hit_single_dist, ModelOptions, Rates, SystemParams, VcrMix};
use vod_runtime::json::{Json, Layout};
use vod_server::{HarnessConfig, HostedMovie, MovieId, ServerConfig, Workload};
use vod_sim::{run_seeded, SimConfig};
use vod_workload::BehaviorModel;

/// One validated configuration: Figure 7(d)'s mixed workload along the
/// `w = 1` column.
struct Case {
    n: u32,
    wait: f64,
}

const MOVIE_LEN: f64 = 120.0;
const SEED: u64 = 2026;

fn main() {
    let report_path = out_path("cross_validate", "results/CROSS_VALIDATION.json");
    let cases = [
        Case { n: 20, wait: 1.0 },
        Case { n: 40, wait: 1.0 },
        Case { n: 60, wait: 1.0 },
    ];
    let mut t = Table::new(vec![
        "n",
        "B",
        "model",
        "sim",
        "server",
        "sim-model",
        "srv-model",
        "srv-sim",
    ]);
    let mut json_cases = Vec::new();
    for case in &cases {
        let params = SystemParams::from_wait(MOVIE_LEN, case.wait, case.n, Rates::paper())
            .expect("valid configuration");
        let model = p_hit_single_dist(
            &params,
            &Gamma::paper_fig7(),
            &VcrMix::paper_fig7d(),
            &ModelOptions::default(),
        )
        .total;

        let mut sim_cfg = SimConfig::new(params, BehaviorModel::paper_fig7d());
        sim_cfg.horizon = 40.0 * MOVIE_LEN;
        sim_cfg.warmup = 2.0 * MOVIE_LEN;
        let sim = run_seeded(&sim_cfg, SEED);

        let movie =
            HostedMovie::from_allocation(MovieId(0), MOVIE_LEN as u32, case.n, params.buffer());
        let harness = HarnessConfig {
            server: ServerConfig {
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
        };
        let server = vod_server::run_harness(&harness, SEED);

        let sim_hit = sim.runtime.hit_ratio();
        let srv_hit = server.hit_ratio();
        t.row(vec![
            case.n.to_string(),
            num(params.buffer(), 0),
            num(model, 3),
            num(sim_hit, 3),
            num(srv_hit, 3),
            num(sim_hit - model, 3),
            num(srv_hit - model, 3),
            num(srv_hit - sim_hit, 3),
        ]);
        let cell = [
            ("n", case.n.into()),
            ("buffer", params.buffer().into()),
            ("wait", case.wait.into()),
            ("model_p_hit", Json::Fixed(model, 6)),
            ("sim", sim.runtime.json()),
            ("server", server.json()),
        ];
        json_cases.push(Json::object(Layout::Line, cell));
    }
    println!("# Three-way cross-validation (l = 120, w = 1, mix 0.2/0.2/0.6, seed {SEED})");
    print!("{}", t.render());
    println!("(model: continuous time; sim: continuous time, one seed; server: integer ticks)\n");

    let cases = Json::Array(Layout::Block, json_cases);
    let json = [("seed", SEED.into()), ("cases", cases)];
    write_json(
        "cross_validate",
        &report_path,
        &Json::object(Layout::Block, json),
    );
}
