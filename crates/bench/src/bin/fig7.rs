//! Regenerate Figure 7: hit probability vs number of partitions, model
//! against simulation.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin fig7 -- [--threads N] [--out PATH]
//! ```
//!
//! All four panels are produced. `--threads N` fans the per-`n`
//! evaluations across N workers (0 = all cores); output is bitwise
//! identical to the serial run.

use vod_bench::fig7::{panel_data, Fig7Config, Panel};
use vod_bench::report::{emit_text, sweep_flags};
use vod_bench::table::{num, Table};

fn main() {
    let (exec, out) = sweep_flags("fig7");
    let cfg = Fig7Config::default();

    let mut text = String::new();
    for panel in [Panel::A, Panel::B, Panel::C, Panel::D] {
        let mix = panel.mix();
        text += &format!(
            "# Figure {}: l = {}, gamma(2,4) durations, 1/lambda = 2 min, mix = {:?}\n",
            panel.label(),
            cfg.movie_len,
            (mix.ff(), mix.rw(), mix.pause())
        );
        for (w, points) in panel_data(panel, &cfg, &exec) {
            text += &format!("## w = {w} minutes\n");
            let mut t = Table::new(vec!["n", "B", "model", "sim", "ci95", "|diff|"]);
            for p in &points {
                t.row(vec![
                    p.n.to_string(),
                    num(p.buffer, 1),
                    num(p.model, 4),
                    num(p.sim, 4),
                    num(p.sim_ci, 4),
                    num((p.model - p.sim).abs(), 4),
                ]);
            }
            text += &t.render();
            text.push('\n');
        }
    }
    emit_text("fig7", out.as_deref(), &text);
}
