//! Ablations of the design choices DESIGN.md §4 calls out — the four
//! this bin runs:
//!
//! 1. Eq.-19 jump cutoff vs the extended summation (FF).
//! 2. Decomposed closed forms vs brute-force 2-D integration oracles
//!    (accuracy + speed).
//! 3. The 2-D oracles converging onto the closed forms as their quadrature
//!    tolerance tightens.
//! 5. Piggyback merge-back on/off in the data-path server.
//!
//! There is no ablation 4; the last one keeps its number so the committed
//! tables do not move.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin ablations -- [--threads N] [--out PATH]
//! ```
//!
//! The tables go to `--out PATH` (`results/ablations.txt` is this bin's
//! output with `--out` and no other flag), or to stdout without it. They
//! hold no wall-clock reading, so the file regenerates byte for byte: the
//! timing columns of ablations 2 and 3 (the oracle's speedup and its run
//! time) go to stderr. `--threads N` parallelizes the table-generation
//! sweeps; the timing ablations stay serial so their measured durations
//! are meaningful.

use std::time::Instant;

use rand::RngCore;
use vod_bench::report::{emit_text, sweep_flags};
use vod_bench::table::{num, Table};
use vod_dist::kinds::Gamma;
use vod_dist::rng::seeded;
use vod_model::{
    p_hit_ff, p_hit_ff_direct, p_hit_pause, p_hit_pause_direct, p_hit_rw, p_hit_rw_direct,
    ModelOptions, Rates, SweepExecutor, SystemParams,
};
use vod_server::{DeliveryBackend, HostedMovie, MovieId, ServerConfig, VodServer};
use vod_workload::VcrKind;

fn main() {
    let (exec, out) = sweep_flags("ablations");
    let text = [
        eq19_vs_extended(&exec),
        decomposed_vs_oracle(),
        oracle_convergence(),
        piggyback_on_off(),
    ]
    .concat();
    emit_text("ablations", out.as_deref(), &text);
}

fn eq19_vs_extended(exec: &SweepExecutor) -> String {
    let text =
        String::from("# Ablation 1: Eq.-19 jump cutoff vs extended summation (FF, gamma(2,4))\n");
    let d = Gamma::paper_fig7();
    let mut t = Table::new(vec!["l", "B", "n", "paper eq19", "extended", "diff"]);
    let cases = [
        (120.0, 30.0, 10u32),
        (120.0, 60.0, 20),
        (120.0, 90.0, 40),
        (120.0, 110.0, 60),
        (75.0, 39.0, 360),
        // Few streams + large buffer: Eq. 19 yields i_max < 1 (no jump
        // terms at all) while partial jump hits still exist — the cutoff
        // bites here.
        (120.0, 100.0, 5),
        (120.0, 110.0, 4),
        (90.0, 80.0, 3),
    ];
    let rows = exec.map(&cases, |&(l, b, n)| {
        let p = SystemParams::new(l, b, n, Rates::paper()).expect("valid");
        let paper = p_hit_ff(&p, &d, &ModelOptions::paper()).total();
        let ext = p_hit_ff(&p, &d, &ModelOptions::default()).total();
        vec![
            num(l, 0),
            num(b, 0),
            n.to_string(),
            num(paper, 5),
            num(ext, 5),
            num(ext - paper, 5),
        ]
    });
    for row in rows {
        t.row(row);
    }
    text + &t.render() + "(the cutoff drops only partial-hit tails; differences stay small)\n\n"
}

fn decomposed_vs_oracle() -> String {
    let text = String::from("# Ablation 2: decomposed closed forms vs 2-D integration oracles\n");
    let d = Gamma::paper_fig7();
    let p = SystemParams::new(120.0, 60.0, 20, Rates::paper()).expect("valid");
    let opts = ModelOptions::default();
    let tol = 1e-9;
    let mut t = Table::new(vec!["component", "decomposed", "oracle", "|diff|"]);
    type Eval<'a> = Box<dyn Fn() -> f64 + 'a>;
    let cases: Vec<(&str, Eval<'_>, Eval<'_>)> = vec![
        (
            "FF",
            Box::new(|| p_hit_ff(&p, &d, &opts).total()),
            Box::new(|| p_hit_ff_direct(&p, &d, tol)),
        ),
        (
            "RW",
            Box::new(|| p_hit_rw(&p, &d, &opts).total()),
            Box::new(|| p_hit_rw_direct(&p, &d, tol)),
        ),
        (
            "PAU",
            Box::new(|| p_hit_pause(&p, &d, &opts)),
            Box::new(|| p_hit_pause_direct(&p, &d, tol)),
        ),
    ];
    for (name, fast, slow) in cases {
        let t0 = Instant::now();
        let a = fast();
        let fast_t = t0.elapsed();
        let t0 = Instant::now();
        let b = slow();
        let slow_t = t0.elapsed();
        t.row(vec![
            name.to_string(),
            num(a, 6),
            num(b, 6),
            format!("{:.1e}", (a - b).abs()),
        ]);
        eprintln!(
            "ablation 2: {name} speedup {:.0}x",
            slow_t.as_secs_f64() / fast_t.as_secs_f64().max(1e-9)
        );
    }
    text + &t.render() + "\n"
}

fn oracle_convergence() -> String {
    let text = String::from("# Ablation 3: 2-D oracle vs closed form as the oracle's tolerance tightens (l=120, B=60, n=20)\n");
    let d = Gamma::paper_fig7();
    let p = SystemParams::new(120.0, 60.0, 20, Rates::paper()).expect("valid");
    let opts = ModelOptions::default();
    type Oracle<'a> = Box<dyn Fn(f64) -> f64 + 'a>;
    let cases: Vec<(&str, f64, Oracle<'_>)> = vec![
        (
            "FF",
            p_hit_ff(&p, &d, &opts).total(),
            Box::new(|tol| p_hit_ff_direct(&p, &d, tol)),
        ),
        (
            "RW",
            p_hit_rw(&p, &d, &opts).total(),
            Box::new(|tol| p_hit_rw_direct(&p, &d, tol)),
        ),
        (
            "PAU",
            p_hit_pause(&p, &d, &opts),
            Box::new(|tol| p_hit_pause_direct(&p, &d, tol)),
        ),
    ];
    let mut t = Table::new(vec![
        "component",
        "closed form",
        "oracle tol",
        "oracle",
        "|diff|",
    ]);
    for (name, closed, oracle) in cases {
        for tol in [1e-6, 1e-9, 1e-12] {
            let t0 = Instant::now();
            let v = oracle(tol);
            t.row(vec![
                name.to_string(),
                num(closed, 10),
                format!("{tol:.0e}"),
                num(v, 10),
                format!("{:.1e}", (v - closed).abs()),
            ]);
            eprintln!(
                "ablation 3: {name} tol {tol:.0e} oracle time {:?}",
                t0.elapsed()
            );
        }
    }
    text + &t.render()
        + "(the closed form has no tolerance; the oracle's error shrinks onto it)\n\n"
}

fn piggyback_on_off() -> String {
    let text =
        String::from("# Ablation 5: piggyback merge-back on/off (server, random VCR load)\n");
    let mut t = Table::new(vec![
        "piggyback",
        "merges",
        "avg dedicated",
        "disk segs",
        "buffer segs",
    ]);
    for on in [true, false] {
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 10, 60.0);
        let mut cfg = ServerConfig::provisioned(vec![movie], 12);
        if !on {
            cfg.piggyback = None;
        }
        let mut server = VodServer::new(cfg);
        let mut rng = seeded(7);
        let mut sessions = Vec::new();
        for _ in 0..2000u64 {
            if rng.next_u64().is_multiple_of(2) {
                if let Ok(s) = server.open_session(MovieId(0)) {
                    sessions.push(s);
                }
            }
            if !sessions.is_empty() && rng.next_u64().is_multiple_of(8) {
                let s = sessions[(rng.next_u64() as usize) % sessions.len()];
                let kind = match rng.next_u64() % 3 {
                    0 => VcrKind::FastForward,
                    1 => VcrKind::Rewind,
                    _ => VcrKind::Pause,
                };
                let _ = server.request_vcr(s, kind, 1 + (rng.next_u64() % 15) as u32);
            }
            server.tick();
        }
        let rt = server.runtime_metrics();
        t.row(vec![
            if on { "on" } else { "off" }.to_string(),
            server.metrics().piggyback_merges.to_string(),
            num(rt.dedicated_avg, 2),
            num(rt.disk_minutes, 0),
            num(rt.buffer_minutes, 0),
        ]);
    }
    text + &t.render()
        + "(merging back releases dedicated streams: lower avg dedicated, fewer disk reads)\n"
}
