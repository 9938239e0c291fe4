//! Regenerate §5 Example 2: resource prices from 1997 hardware and the
//! cost of the Example-1 plan.
//!
//! Paper reference output: C_b = $750/movie-minute, C_n = $70/stream,
//! φ ≈ 11.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin example2 -- [--out PATH]
//! ```
//!
//! Writes `results/example2.txt` unless `--out` names another file.

use vod_bench::ex2::run;
use vod_bench::report::{out_path, write_report};
use vod_model::VcrMix;

fn main() {
    let path = out_path("example2", "results/example2.txt");
    let out = run(VcrMix::paper_fig7d());
    let mut text = String::from("# Example 2\n");
    text += &format!(
        "hardware: ${:.0} disk @ {:.0} MB/s, {:.0} Mb/s video, ${:.0}/MB memory\n",
        out.hardware.disk_cost,
        out.hardware.disk_bandwidth_mb_s,
        out.hardware.video_rate_mbit_s,
        out.hardware.memory_cost_per_mb
    );
    text += &format!(
        "buffer for one movie minute: {:.0} MB  -> C_b = ${:.0}  (paper: $750)\n",
        out.hardware.mb_per_movie_minute(),
        out.prices.buffer_per_minute()
    );
    text += &format!(
        "streams per disk: {:.0}            -> C_n = ${:.0}   (paper: $70)\n",
        out.hardware.streams_per_disk(),
        out.prices.per_stream()
    );
    text += &format!(
        "phi = C_b/C_n = {:.2}              (paper: ~11)\n\n",
        out.prices.phi()
    );
    text += &format!(
        "Example-1 plan priced at these rates: {} streams + {:.1} buffer minutes = ${:.0}\n",
        out.ex1.plan.total_streams(),
        out.ex1.plan.total_buffer(),
        out.plan_cost
    );
    text += &format!(
        "(pure batching would cost ${:.0} in streams alone but has hit probability 0,\n \
         failing the P* = 0.5 target — it is not a QoS-comparable option)\n",
        out.pure_batching_cost
    );
    write_report("example2", &path, &text);
}
