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

use vod_bench::fig7::{cross_validation_cells, CROSS_SEED as SEED};
use vod_bench::report::{out_path, write_json};
use vod_bench::table::{num, Table};
use vod_runtime::json::{Json, Layout};
use vod_sim::run_seeded;

fn main() {
    let report_path = out_path("cross_validate", "results/CROSS_VALIDATION.json");
    let cells = cross_validation_cells(40.0).expect("valid configuration");
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
    for cell in &cells {
        let model = cell.model();
        let sim = run_seeded(&cell.sim, SEED);
        let server = vod_server::run_harness(&cell.harness, SEED);
        let params = &cell.params;

        let sim_hit = sim.runtime.hit_ratio();
        let srv_hit = server.hit_ratio();
        t.row(vec![
            cell.n.to_string(),
            num(params.buffer(), 0),
            num(model, 3),
            num(sim_hit, 3),
            num(srv_hit, 3),
            num(sim_hit - model, 3),
            num(srv_hit - model, 3),
            num(srv_hit - sim_hit, 3),
        ]);
        let row = [
            ("n", cell.n.into()),
            ("buffer", params.buffer().into()),
            ("wait", cell.wait.into()),
            ("model_p_hit", Json::Fixed(model, 6)),
            ("sim", sim.runtime.json()),
            ("server", server.json()),
        ];
        json_cases.push(Json::object(Layout::Line, row));
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
