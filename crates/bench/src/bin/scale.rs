//! Million-session scale benchmark for the timer-wheel + arena engine.
//!
//! Opens `--sessions` concurrent sessions (default one million) against
//! a [`vod_server::VodServer`] hosting [`ScaleConfig::MOVIES`] movies,
//! mass-enrolls them at tick 0, drives `--ticks` virtual minutes of
//! lockstep delivery with a seeded sprinkle of
//! [`ScaleConfig::VCR_PER_TICK`] VCR operations a tick, and writes
//! events/sec and peak RSS to `results/BENCH_scale.json`. The virtual-time driver
//! ([`vod_server::run_scale`]) is deterministic; only the wall-clock and
//! memory measurements taken here vary by machine, which is why they
//! live in this bin (exempt from the determinism lint wall) and not in
//! the server crate.
//!
//! `--plan storm` is chaos at benchmark scale: the same population on
//! each of the three delivery backends under the pool-scaled
//! [`vod_server::storm_plan`], with `check_invariants` after **every**
//! tick. Per backend it reports events/sec, the audit's share of the
//! wall, the slowest tick a fault landed on, the leases the plan revoked
//! (must be > 0: the bin exits non-zero on a backend whose revocation
//! path the storm never reached), the sessions still live at
//! the end beside the session slots still resident (with `--ticks` past
//! the movie length most viewers have left, and their memory with them —
//! asserted: `resident_slots` stays inside the bound the live ids set,
//! 64 slots for each 64-id chunk holding one plus the chunk still being
//! issued, in whatever order the viewers left),
//! and the violation count (must be 0), and writes
//! `results/BENCH_scale_storm.json`;
//! `--previous PATH` reads an earlier storm file and copies each
//! backend's row out of it (or, without a plan, the three timing numbers
//! of an earlier headline file) so the new numbers sit beside the old
//! ones.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin scale -- \
//!     [--sessions N] [--ticks N] [--out PATH] [--plan none|storm] [--previous PATH]
//! ```

use std::time::Instant;

use vod_bench::report::{write_json, Flags};
use vod_runtime::json::{self, Json, Layout};
use vod_runtime::BackendKind;
use vod_server::{run_scale, run_scale_on, storm_plan, ScaleConfig};

const SEED: u64 = 42;

fn main() {
    let flags = Flags::parse(
        "scale",
        "--sessions N --ticks N --out PATH --previous PATH --plan none|storm",
    );
    let cfg = ScaleConfig {
        sessions: flags.value("--sessions").unwrap_or(1_000_000),
        ticks: flags.value("--ticks").unwrap_or(40),
    };
    let plan = flags.get("--plan", |plan| match plan {
        "storm" => Some(true),
        "none" => Some(false),
        _ => None,
    });
    let storm = plan.unwrap_or(false);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# scale: {} sessions x {} ticks, {} movies, {} VCR ops/tick, {cores} core(s){}",
        cfg.sessions,
        cfg.ticks,
        ScaleConfig::MOVIES,
        ScaleConfig::VCR_PER_TICK,
        if storm { ", storm plan" } else { "" }
    );
    let previous = flags.value::<String>("--previous").map(|path| {
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string());
        text.and_then(|text| json::parse(&text).map_err(|e| e.to_string()))
            .unwrap_or_else(|e| {
                eprintln!("scale: cannot read {path}: {e}");
                std::process::exit(1);
            })
    });
    let (default_out, name, measured) = if storm {
        let measured = storm_report(&cfg, previous.as_ref());
        ("results/BENCH_scale_storm.json", "scale_storm", measured)
    } else {
        let measured = headline_report(&cfg, previous.as_ref());
        ("results/BENCH_scale.json", "scale", measured)
    };
    let header = vec![
        ("benchmark", name.into()),
        ("available_cores", cores.into()),
        ("seed", SEED.into()),
        ("sessions", cfg.sessions.into()),
        ("ticks", cfg.ticks.into()),
        ("movies", ScaleConfig::MOVIES.into()),
        ("vcr_per_tick", ScaleConfig::VCR_PER_TICK.into()),
    ];
    let report = Json::object(Layout::Block, header.into_iter().chain(measured));
    let out_path = flags
        .value("--out")
        .unwrap_or_else(|| default_out.to_string());
    write_json("scale", &out_path, &report);
}

/// What the fault-free batching run behind `results/BENCH_scale.json`
/// adds to the shared header, with the three measured numbers of
/// `previous` repeated under `"previous"`.
fn headline_report(cfg: &ScaleConfig, previous: Option<&Json>) -> Vec<(&'static str, Json)> {
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
    let mut measured = vec![
        ("concurrent_at_end", out.concurrent_at_end.into()),
        ("segments", out.segments.into()),
        ("vcr_accepted", out.vcr_accepted.into()),
        ("events", out.events.into()),
        ("verify_failures", out.verify_failures.into()),
        ("elapsed_sec", Json::Fixed(elapsed, 3)),
        ("events_per_sec", Json::Fixed(events_per_sec, 0)),
        ("peak_rss_kb", peak_rss_kb.into()),
    ];
    if let Some(previous) = previous {
        let old = ["elapsed_sec", "events_per_sec", "peak_rss_kb"]
            .into_iter()
            .filter_map(|key| Some((key, previous.get(key)?.clone())));
        measured.push(("previous", Json::object(Layout::Line, old)));
    }
    measured
}

/// The storm run on each backend: one `now` row per backend and, beside
/// it, the same backend's `now` row from `previous`, matched by name.
fn storm_report(cfg: &ScaleConfig, previous: Option<&Json>) -> Vec<(&'static str, Json)> {
    let plan = storm_plan(&ScaleConfig::server_config(), cfg.ticks);
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
        // The storm must take leases from their holders on every backend,
        // or the revocation path goes untimed.
        assert!(out.leases_revoked > 0, "{kind}: the storm revoked no lease");
        // A finished session gives its slot back: what is still resident is
        // bounded by the chunks the sessions still live sit in (plus the one
        // under the issue cursor), not by all that passed through.
        assert!(
            out.resident_slots <= out.slot_bound,
            "{kind}: finished sessions are being retained: {} slots resident, {} live sessions pin {}",
            out.resident_slots,
            out.concurrent_at_end,
            out.slot_bound
        );
        let row = [
            ("backend", kind.name().into()),
            ("events", out.events.into()),
            (
                "events_per_sec",
                Json::Fixed(out.events as f64 / elapsed, 0),
            ),
            ("elapsed_sec", Json::Fixed(elapsed, 3)),
            ("audit_share", Json::Fixed(audit_s / elapsed, 3)),
            (
                "worst_fault_tick_ms",
                Json::Fixed(worst_fault_tick_s * 1e3, 3),
            ),
            ("leases_revoked", out.leases_revoked.into()),
            ("degraded_entries", out.metrics.degraded_entries.into()),
            ("concurrent_at_end", out.concurrent_at_end.into()),
            ("resident_slots", out.resident_slots.into()),
            ("violations", violations.into()),
        ];
        let row = Json::object(Layout::Line, row);
        println!("{}", row.render());
        let old_rows = previous.and_then(|p| p.get("backends")?.items());
        let old = old_rows.into_iter().flatten().find_map(|old| {
            let now = old.get("now")?;
            (now.get("backend") == row.get("backend")).then_some(now.fields()?)
        });
        let mut pair = vec![("now", row)];
        if let Some(old) = old {
            pair.push(("previous", Json::object(Layout::Line, old.iter().cloned())));
        }
        rows.push(Json::object(Layout::Line, pair));
    }
    vec![
        ("fault_events", plan.len().into()),
        ("peak_rss_kb", peak_rss_kb().unwrap_or(0).into()),
        ("backends", Json::Array(Layout::Block, rows)),
    ]
}

/// Peak resident set size in KiB from `/proc/self/status` (`VmHWM`);
/// `None` off Linux or if the field is missing.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
