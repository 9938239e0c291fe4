//! Regenerate Figure 8: feasible (B, n) pairs for the Example-1 movies in
//! 5-minute buffer steps at `P* = 0.5`.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin fig8 -- [--threads N] [--out PATH]
//! ```

use vod_bench::fig8::{data, BUFFER_STEP};
use vod_bench::report::{emit_text, sweep_flags};
use vod_bench::table::{num, Table};
use vod_model::VcrMix;

fn main() {
    let (exec, out) = sweep_flags("fig8");

    let mut text = format!(
        "# Figure 8: feasible (B, n) pairs, P* = 0.5, {BUFFER_STEP}-minute buffer steps\n\
         # movies: (l=75, w=0.1, gamma mean 8), (l=60, w=0.5, exp mean 5), (l=90, w=0.25, exp mean 2)\n"
    );
    for series in data(VcrMix::paper_fig7d(), &exec) {
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
        text += &t.render();
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
