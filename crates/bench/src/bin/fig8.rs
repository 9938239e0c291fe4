//! Regenerate Figure 8: feasible (B, n) pairs for the Example-1 movies in
//! 5-minute buffer steps at `P* = 0.5`.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin fig8 -- [--csv] [--step MINUTES] [--threads N] [--out PATH]
//! ```

use vod_bench::fig8::data_with;
use vod_bench::report::{emit_text, Flags};
use vod_bench::table::{num, Table};
use vod_model::{SweepExecutor, VcrMix};

fn main() {
    let flags = Flags::parse("fig8", "--csv --step MINUTES --threads N --out PATH");
    let csv = flags.has("--csv");
    let step = flags.value("--step").unwrap_or(5.0);
    let exec = flags
        .value("--threads")
        .map_or_else(SweepExecutor::serial, SweepExecutor::new);
    let out = flags.value::<String>("--out");

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
    emit_text("fig8", out.as_deref(), &text);
}
