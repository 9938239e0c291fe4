//! Regenerate Figure 7: hit probability vs number of partitions, model
//! against simulation.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin fig7 -- [--panel a|b|c|d] [--csv] [--fast] [--threads N] [--out PATH]
//! ```
//!
//! Without `--panel`, all four panels are produced. `--threads N` fans the
//! per-`n` evaluations across N workers (0 = all cores); output is
//! bitwise identical to the serial run.

use vod_bench::ascii::{plot, Series};
use vod_bench::fig7::{panel_data_with, Fig7Config, Panel};
use vod_bench::report::{emit_text, Flags};
use vod_bench::table::{num, Table};
use vod_model::SweepExecutor;

fn main() {
    let usage = "--panel a|b|c|d --csv --plot --threads N --fast --out PATH";
    let flags = Flags::parse("fig7", usage);
    let all = vec![Panel::A, Panel::B, Panel::C, Panel::D];
    let panels = flags.get("--panel", Panel::parse).map_or(all, |p| vec![p]);
    let (csv, do_plot) = (flags.has("--csv"), flags.has("--plot"));
    let exec = flags
        .value("--threads")
        .map_or_else(SweepExecutor::serial, SweepExecutor::new);
    let mut cfg = Fig7Config::default();
    if flags.has("--fast") {
        cfg.ns = vec![10, 30, 60, 100];
        cfg.waits = vec![1.0];
        cfg.replications = 2;
        cfg.horizon_movies = 15.0;
    }
    let out = flags.value::<String>("--out");

    let mut text = String::new();
    for panel in panels {
        text += &format!(
            "# Figure {}: l = {}, gamma(2,4) durations, 1/lambda = 2 min, mix = {:?}\n",
            panel.label(),
            cfg.movie_len,
            panel.mix_tuple()
        );
        for (w, points) in panel_data_with(panel, &cfg, &exec) {
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
            text += &if csv { t.to_csv() } else { t.render() };
            if do_plot {
                let model = Series {
                    label: "model".into(),
                    points: points.iter().map(|p| (p.n as f64, p.model)).collect(),
                };
                let sim = Series {
                    label: "+sim".into(),
                    points: points.iter().map(|p| (p.n as f64, p.sim)).collect(),
                };
                text += &plot(&[model, sim], 64, 16);
            }
            text.push('\n');
        }
    }
    emit_text("fig7", out.as_deref(), &text);
}
