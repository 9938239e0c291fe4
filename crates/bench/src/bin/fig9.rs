//! Regenerate Figure 9: system cost vs total I/O streams for
//! φ ∈ {3, 4, 6, 10, 11, 16} over the Example-1 catalog.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin fig9 -- [--threads N] [--out PATH]
//! ```

use vod_bench::fig9::{data, PAPER_PHIS};
use vod_bench::report::{emit_text, sweep_flags};
use vod_bench::table::{num, Table};
use vod_model::VcrMix;

fn main() {
    let (exec, out) = sweep_flags("fig9");

    let mut text =
        String::from("# Figure 9: system cost C = C_n(phi*SumB + Sumn) vs total streams\n");
    let curves = data(VcrMix::paper_fig7d(), &exec);
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
        text += &t.render();
        if let Some(best) = curve.optimum() {
            text += &format!(
                "optimum: {} streams, {:.1} buffer minutes, cost {:.1}\n\n",
                best.total_streams, best.total_buffer, best.cost
            );
        }
    }
    emit_text("fig9", out.as_deref(), &text);
}
