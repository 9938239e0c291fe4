//! Regenerate Figure 8: feasible (B, n) pairs for the Example-1 movies in
//! 5-minute buffer steps at `P* = 0.5`.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin fig8 -- [--csv] [--step MINUTES] [--threads N] [--out PATH]
//! ```

use vod_bench::fig8::data_with;
use vod_bench::report::emit_text;
use vod_bench::table::{num, Table};
use vod_model::{SweepExecutor, VcrMix};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut csv = false;
    let mut step = 5.0;
    let mut exec = SweepExecutor::serial();
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" => csv = true,
            "--step" => {
                i += 1;
                step = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("expected --step MINUTES"));
            }
            "--threads" => {
                i += 1;
                let n = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("expected --threads N"));
                exec = SweepExecutor::new(n);
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).unwrap_or_else(|| die("expected --out PATH")));
            }
            other => die(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }

    let mut text = format!(
        "# Figure 8: feasible (B, n) pairs, P* = 0.5, {step}-minute buffer steps\n\
         # movies: (l=75, w=0.1, gamma mean 8), (l=60, w=0.5, exp mean 5), (l=90, w=0.25, exp mean 2)\n"
    );
    for series in data_with(VcrMix::paper_fig7d(), step, &exec) {
        text += &format!("## {}\n", series.movie);
        let mut t = Table::new(vec!["B", "n", "P(hit)", "feasible"]);
        for p in &series.points {
            t.row(vec![
                num(p.buffer, 1),
                p.n_streams.to_string(),
                num(p.p_hit, 4),
                if p.feasible {
                    "yes".into()
                } else {
                    "no".to_string()
                },
            ]);
        }
        text += &if csv { t.to_csv() } else { t.render() };
        let max_feasible = series
            .feasible()
            .map(|p| p.n_streams)
            .max()
            .map(|n| n.to_string())
            .unwrap_or_else(|| "none".into());
        text += &format!("max feasible n: {max_feasible}\n\n");
    }
    emit_text("fig8", out.map(String::as_str), &text);
}

fn die(msg: &str) -> ! {
    eprintln!("fig8: {msg}");
    std::process::exit(2);
}
