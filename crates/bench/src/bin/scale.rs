//! Million-session scale benchmark for the timer-wheel + arena engine.
//!
//! Opens `--sessions` concurrent sessions (default one million) against
//! a [`vod_server::VodServer`], mass-enrolls them at tick 0, drives
//! `--ticks` virtual minutes of lockstep delivery with a seeded VCR
//! sprinkle, and writes events/sec and peak RSS to
//! `results/BENCH_scale.json`. The virtual-time driver
//! ([`vod_server::run_scale`]) is deterministic; only the wall-clock and
//! memory measurements taken here vary by machine, which is why they
//! live in this bin (exempt from the determinism lint wall) and not in
//! the server crate.
//!
//! `--plan storm` is chaos at benchmark scale: the same population on
//! each of the three delivery backends under the pool-scaled
//! [`vod_server::storm_plan`], with `check_invariants` after **every**
//! tick. Per backend it reports events/sec, the audit's share of the
//! wall, the slowest tick a fault landed on, the sessions still live at
//! the end beside the session slots still resident (with `--ticks` past
//! the movie length most viewers have left, and their memory with them),
//! and the violation count (must be 0), and writes
//! `results/BENCH_scale_storm.json`;
//! `--previous PATH` copies each backend's row out of an earlier storm
//! file (or, without a plan, the timing lines out of an earlier headline
//! file) so the new numbers sit beside the old ones.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin scale -- \
//!     [--sessions N] [--ticks N] [--movies N] [--vcr-per-tick N] [--out PATH] \
//!     [--plan none|storm] [--previous PATH]
//! ```

use std::time::Instant;

use vod_runtime::BackendKind;
use vod_server::{run_scale, run_scale_on, storm_plan, ScaleConfig};

const SEED: u64 = 42;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = ScaleConfig {
        sessions: 1_000_000,
        ticks: 40,
        movies: 16,
        vcr_per_tick: 64,
    };
    let mut out_path = None;
    let mut storm = false;
    let mut previous = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        i += 1;
        let value = args.get(i).unwrap_or_else(|| {
            eprintln!("scale: expected a value after {flag}");
            std::process::exit(2);
        });
        match flag.as_str() {
            "--sessions" => cfg.sessions = parse(&flag, value),
            "--ticks" => cfg.ticks = parse(&flag, value),
            "--movies" => cfg.movies = parse(&flag, value),
            "--vcr-per-tick" => cfg.vcr_per_tick = parse(&flag, value),
            "--out" => out_path = Some(value.clone()),
            "--previous" => previous = Some(value.clone()),
            "--plan" => {
                storm = match value.as_str() {
                    "storm" => true,
                    "none" => false,
                    _ => {
                        eprintln!("scale: expected --plan none|storm");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!("scale: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# scale: {} sessions x {} ticks, {} movies, {} VCR ops/tick, {cores} core(s){}",
        cfg.sessions,
        cfg.ticks,
        cfg.movies,
        cfg.vcr_per_tick,
        if storm { ", storm plan" } else { "" }
    );
    let header = format!(
        "  \"available_cores\": {cores},\n  \"seed\": {SEED},\n  \"sessions\": {},\n  \
         \"ticks\": {},\n  \"movies\": {},\n  \"vcr_per_tick\": {},\n",
        cfg.sessions, cfg.ticks, cfg.movies, cfg.vcr_per_tick
    );
    let previous = previous.map(|path| {
        std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("scale: cannot read {path}: {e}");
            std::process::exit(1);
        })
    });
    let (default_out, json) = if storm {
        (
            "results/BENCH_scale_storm.json",
            storm_report(&cfg, &header, previous.as_deref()),
        )
    } else {
        (
            "results/BENCH_scale.json",
            headline_report(&cfg, &header, previous.as_deref()),
        )
    };
    let out_path = out_path.unwrap_or_else(|| default_out.to_string());
    vod_bench::report::write_report("scale", &out_path, &json);
}

/// The fault-free batching run behind `results/BENCH_scale.json`, with
/// the three measured lines of `previous` (top-level, one per line)
/// repeated under `"previous"`.
fn headline_report(cfg: &ScaleConfig, header: &str, previous: Option<&str>) -> String {
    let t0 = Instant::now();
    let out = run_scale(cfg, SEED);
    let elapsed = t0.elapsed().as_secs_f64();
    let events_per_sec = out.events as f64 / elapsed.max(1e-9);
    let peak_rss_kb = peak_rss_kb().unwrap_or(0);

    assert_eq!(out.verify_failures, 0, "byte verification failed at scale");
    println!(
        "opened {} sessions, {} concurrent at end, {} segments delivered, {} VCR ops",
        out.sessions, out.concurrent_at_end, out.segments, out.vcr_accepted
    );
    println!(
        "{} events in {elapsed:.2} s = {events_per_sec:.0} events/sec, peak RSS {:.1} MiB",
        out.events,
        peak_rss_kb as f64 / 1024.0
    );
    let old = previous.map_or(String::new(), |p| {
        let measured = ["elapsed_sec", "events_per_sec", "peak_rss_kb"].map(|key| {
            let line = p.lines().find(|l| l.starts_with(&format!("  \"{key}\":")));
            line.unwrap_or("").trim().trim_end_matches(',')
        });
        format!(",\n  \"previous\": {{{}}}", measured.join(", "))
    });
    format!(
        "{{\n  \"benchmark\": \"scale\",\n{header}  \"concurrent_at_end\": {},\n  \
         \"segments\": {},\n  \"vcr_accepted\": {},\n  \"events\": {},\n  \
         \"verify_failures\": {},\n  \"elapsed_sec\": {elapsed:.3},\n  \
         \"events_per_sec\": {events_per_sec:.0},\n  \"peak_rss_kb\": {peak_rss_kb}{old}\n}}\n",
        out.concurrent_at_end, out.segments, out.vcr_accepted, out.events, out.verify_failures,
    )
}

/// The storm run on each backend: one `now` row per backend and, beside
/// it, the same backend's `now` row from `previous`, matched by name.
fn storm_report(cfg: &ScaleConfig, header: &str, previous: Option<&str>) -> String {
    let plan = storm_plan(&cfg.server_config(), cfg.ticks);
    let mut rows = Vec::new();
    for kind in BackendKind::ALL {
        let (mut audit_s, mut worst_fault_tick_s, mut violations) = (0.0f64, 0.0f64, 0u64);
        let t0 = Instant::now();
        let out = run_scale_on(cfg, kind, SEED, &plan, &mut |server| {
            let faulted = !plan.events_at(server.now()).is_empty();
            let tick = Instant::now();
            server.tick();
            let tick_s = tick.elapsed().as_secs_f64();
            if faulted {
                worst_fault_tick_s = worst_fault_tick_s.max(tick_s);
            }
            let audit = Instant::now();
            violations += server.check_invariants().len() as u64;
            audit_s += audit.elapsed().as_secs_f64();
        });
        let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
        assert_eq!(out.verify_failures, 0, "{kind}: byte verification failed");
        assert_eq!(violations, 0, "{kind}: conservation audit fired");
        let row = format!(
            "{{\"backend\": \"{kind}\", \"events\": {}, \"events_per_sec\": {:.0}, \
             \"elapsed_sec\": {elapsed:.3}, \"audit_share\": {:.3}, \
             \"worst_fault_tick_ms\": {:.3}, \"degraded_entries\": {}, \
             \"concurrent_at_end\": {}, \"resident_slots\": {}, \
             \"violations\": {violations}}}",
            out.events,
            out.events as f64 / elapsed,
            audit_s / elapsed,
            worst_fault_tick_s * 1e3,
            out.metrics.degraded_entries,
            out.concurrent_at_end,
            out.resident_slots,
        );
        println!("{row}");
        // Rows hold no nested objects, so the old row ends at its first `}`.
        let name = format!("{{\"backend\": \"{kind}\"");
        let old = previous.and_then(|p| {
            let from = &p[p.find(&name)?..];
            Some(&from[..=from.find('}')?])
        });
        rows.push(match old {
            Some(old) => format!("    {{\"now\": {row},\n     \"previous\": {old}}}"),
            None => format!("    {{\"now\": {row}}}"),
        });
    }
    let rows = rows.join(",\n");
    format!(
        "{{\n  \"benchmark\": \"scale_storm\",\n{header}  \"fault_events\": {},\n  \
         \"peak_rss_kb\": {},\n  \"backends\": [\n{rows}\n  ]\n}}\n",
        plan.len(),
        peak_rss_kb().unwrap_or(0),
    )
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("scale: invalid value `{value}` for {flag}");
        std::process::exit(2);
    })
}

/// Peak resident set size in KiB from `/proc/self/status` (`VmHWM`);
/// `None` off Linux or if the field is missing.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
