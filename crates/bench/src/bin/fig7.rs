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
use vod_bench::report::emit_text;
use vod_bench::table::{num, Table};
use vod_model::SweepExecutor;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut panels = vec![Panel::A, Panel::B, Panel::C, Panel::D];
    let mut csv = false;
    let mut do_plot = false;
    let mut exec = SweepExecutor::serial();
    let mut cfg = Fig7Config::default();
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--panel" => {
                i += 1;
                let p = args
                    .get(i)
                    .and_then(|s| Panel::parse(s))
                    .unwrap_or_else(|| die("expected --panel a|b|c|d"));
                panels = vec![p];
            }
            "--csv" => csv = true,
            "--plot" => do_plot = true,
            "--threads" => {
                i += 1;
                let n = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("expected --threads N"));
                exec = SweepExecutor::new(n);
            }
            "--fast" => {
                cfg.ns = vec![10, 30, 60, 100];
                cfg.waits = vec![1.0];
                cfg.replications = 2;
                cfg.horizon_movies = 15.0;
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).unwrap_or_else(|| die("expected --out PATH")));
            }
            other => die(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

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
    emit_text("fig7", out.map(String::as_str), &text);
}

fn die(msg: &str) -> ! {
    eprintln!("fig7: {msg}");
    std::process::exit(2);
}
