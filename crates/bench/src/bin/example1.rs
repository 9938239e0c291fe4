//! Regenerate §5 Example 1: minimum-buffer allocation for the three-movie
//! catalog against the 1230-stream pure-batching baseline.
//!
//! Paper reference output: [(B, n)] = [(39, 360), (30, 60), (44.5, 182)],
//! ΣB = 113.5 minutes, Σn = 602 (628 streams saved).
//!
//! ```sh
//! cargo run --release -p vod-bench --bin example1 -- [--out PATH]
//! ```
//!
//! Writes `results/example1.txt` unless `--out` names another file.

use vod_bench::ex1::run;
use vod_bench::report::{out_path, write_report};
use vod_bench::table::{num, Table};
use vod_model::VcrMix;

fn main() {
    let path = out_path("example1", "results/example1.txt");
    let out = run(VcrMix::paper_fig7d());
    let mut text =
        String::from("# Example 1 (VCR mix assumption: P_FF=0.2, P_RW=0.2, P_PAU=0.6)\n");
    text += &format!(
        "pure batching: {} I/O streams, hit probability 0\n",
        out.pure_batching_streams
    );
    let mut t = Table::new(vec!["movie", "n*", "B*", "P(hit)", "paper (B*, n*)"]);
    let paper = ["(39, 360)", "(30, 60)", "(44.5, 182)"];
    for (a, p) in out.plan.allocations.iter().zip(paper) {
        t.row(vec![
            a.movie.clone(),
            a.n_streams.to_string(),
            num(a.buffer, 1),
            num(a.p_hit, 3),
            p.to_string(),
        ]);
    }
    text += &t.render();
    text += &format!(
        "TOTAL: {} streams + {:.1} buffer minutes  (paper: 602 + 113.5)\n",
        out.plan.total_streams(),
        out.plan.total_buffer()
    );
    text += &format!(
        "saved {} I/O streams vs pure batching (paper: 628)\n",
        out.streams_saved()
    );
    write_report("example1", &path, &text);
}
