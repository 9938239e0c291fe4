//! Regenerate Figure 9: system cost vs total I/O streams for
//! φ ∈ {3, 4, 6, 10, 11, 16} over the Example-1 catalog.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin fig9 -- [--csv] [--stride N] [--threads N] [--out PATH]
//! ```

use vod_bench::ascii::{plot, Series};
use vod_bench::fig9::{data_with, PAPER_PHIS};
use vod_bench::report::emit_text;
use vod_bench::table::{num, Table};
use vod_model::{SweepExecutor, VcrMix};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut csv = false;
    let mut do_plot = false;
    let mut stride = 20;
    let mut exec = SweepExecutor::serial();
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--csv" => csv = true,
            "--plot" => do_plot = true,
            "--stride" => {
                i += 1;
                stride = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("expected --stride N"));
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
    emit_text("fig9", out.map(String::as_str), &text);
}

fn die(msg: &str) -> ! {
    eprintln!("fig9: {msg}");
    std::process::exit(2);
}
