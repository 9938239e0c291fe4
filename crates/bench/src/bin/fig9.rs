//! Regenerate Figure 9: system cost vs total I/O streams for
//! φ ∈ {3, 4, 6, 10, 11, 16} over the Example-1 catalog.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin fig9 -- [--csv] [--stride N] [--threads N] [--out PATH]
//! ```

use vod_bench::ascii::{plot, Series};
use vod_bench::fig9::{data_with, PAPER_PHIS};
use vod_bench::report::{emit_text, Flags};
use vod_bench::table::{num, Table};
use vod_model::{SweepExecutor, VcrMix};

fn main() {
    let flags = Flags::parse("fig9", "--csv --plot --stride N --threads N --out PATH");
    let (csv, do_plot) = (flags.has("--csv"), flags.has("--plot"));
    let stride = flags.value("--stride").unwrap_or(20);
    let exec = flags
        .value("--threads")
        .map_or_else(SweepExecutor::serial, SweepExecutor::new);
    let out = flags.value::<String>("--out");

    let mut text =
        String::from("# Figure 9: system cost C = C_n(phi*SumB + Sumn) vs total streams\n");
    let curves = data_with(VcrMix::paper_fig7d(), stride, &exec);
    for (panel, (phi, curve)) in PAPER_PHIS.iter().zip(&curves).enumerate() {
        let letter = (b'a' + panel as u8) as char;
        text += &format!("## panel 9({letter}): phi = {phi}\n");
        let mut t = Table::new(vec!["streams", "buffer", "cost"]);
        for p in &curve.points {
            t.row(vec![
                p.total_streams.to_string(),
                num(p.total_buffer, 1),
                num(p.cost, 1),
            ]);
        }
        text += &if csv { t.to_csv() } else { t.render() };
        if do_plot {
            let series = Series {
                label: format!("cost(phi={phi})"),
                points: curve
                    .points
                    .iter()
                    .map(|p| (p.total_streams as f64, p.cost))
                    .collect(),
            };
            text += &plot(&[series], 64, 14);
        }
        if let Some(best) = curve.optimum() {
            text += &format!(
                "optimum: {} streams, {:.1} buffer minutes, cost {:.1}\n\n",
                best.total_streams, best.total_buffer, best.cost
            );
        }
    }
    emit_text("fig9", out.as_deref(), &text);
}
