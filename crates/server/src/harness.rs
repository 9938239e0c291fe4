//! Deterministic load harness: drives a [`DeliveryBackend`] (the
//! batching [`VodServer`] by default) with the same statistical workload
//! primitives the simulator uses (Poisson arrivals, a [`BehaviorModel`]
//! VCR mix), under a fixed seed, and reports the shared
//! [`RuntimeMetrics`] vocabulary. One `drive` loop serves every entry
//! point — harness, chaos, and the backend comparison.
//!
//! This is the server-side leg of the three-way cross-validation
//! (analytic model ↔ event simulator ↔ tick server): the same `(l, B, n,
//! VCR mix)` configuration runs through all three and the hit
//! probabilities are compared. Everything here is integer-minute — the
//! continuous samples are floored/rounded onto the tick grid — so
//! agreement with the continuous-time model is approximate by design
//! (tolerances live in the cross-validation test).

use rand::RngCore;
use vod_dist::rng::{exponential, seeded};
use vod_runtime::{BackendKind, DegradePolicy, FaultEvent, FaultKind, FaultPlan, RuntimeMetrics};
use vod_workload::{BehaviorModel, VcrKind};

use crate::backend::{make_backend, DeliveryBackend};
use crate::content::MovieId;
use crate::server::{HostedMovie, ServerConfig, VodServer};
use crate::session::{SessionId, SessionStatus};

/// Workload configuration for [`run_harness`].
#[derive(Clone)]
pub struct HarnessConfig {
    /// Server under test.
    pub server: ServerConfig,
    /// Movie every arrival requests (single-movie validation runs).
    pub movie: MovieId,
    /// Further hosted movies arrivals cycle through round-robin after
    /// [`movie`](Self::movie). Empty keeps the historical single-movie
    /// workload — same RNG stream, bitwise-identical metrics.
    pub extra_movies: Vec<MovieId>,
    /// Viewer interaction behavior (same model `vod-sim` consumes).
    pub behavior: BehaviorModel,
    /// Mean minutes between viewer arrivals (Poisson process).
    pub mean_interarrival: f64,
    /// Warm-up ticks excluded from measurement (metrics are reset after).
    pub warmup: u64,
    /// Measured ticks after warm-up.
    pub measure: u64,
}

/// Result of one [`run_chaos`] run: the measured metrics plus everything
/// the per-tick invariant checks observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// Measured [`RuntimeMetrics`] (same vocabulary as [`run_harness`]).
    pub metrics: RuntimeMetrics,
    /// Total per-tick invariant and monotonicity violations observed.
    pub violation_count: u64,
    /// First few violation descriptions, `"t=<tick>: <what>"` (capped so
    /// a badly broken run cannot exhaust memory).
    pub violations: Vec<String>,
    /// Sessions the workload opened over the whole run.
    pub sessions_opened: u64,
    /// Sessions that reached `Done` (finished or closed) by the end.
    pub sessions_done: u64,
    /// Sessions still degraded when the run ended.
    pub degraded_at_end: u32,
    /// Ticks driven (warm-up + measured).
    pub ticks: u64,
}

/// Cap on stored violation strings in a [`ChaosOutcome`].
const MAX_VIOLATION_REPORTS: usize = 16;

impl ChaosOutcome {
    /// Outcome schema version; bump on any key change in
    /// [`to_json`](Self::to_json).
    pub const SCHEMA_VERSION: u32 = 1;

    /// Serialize to a single-line JSON object with a pinned key order
    /// (`schema_version`, `violations`, `violation_details`,
    /// `sessions_opened`, `sessions_done`, `degraded_at_end`, `ticks`,
    /// `metrics`). The shape is frozen by the serde-stability suite:
    /// report consumers may parse positionally.
    pub fn to_json(&self) -> String {
        let details: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", escape_json(v)))
            .collect();
        format!(
            concat!(
                "{{\"schema_version\":{},",
                "\"violations\":{},",
                "\"violation_details\":[{}],",
                "\"sessions_opened\":{},",
                "\"sessions_done\":{},",
                "\"degraded_at_end\":{},",
                "\"ticks\":{},",
                "\"metrics\":{}}}"
            ),
            Self::SCHEMA_VERSION,
            self.violation_count,
            details.join(","),
            self.sessions_opened,
            self.sessions_done,
            self.degraded_at_end,
            self.ticks,
            self.metrics.to_json(),
        )
    }
}

/// Escape a violation string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Drive the server with a seeded workload and return the measured
/// [`RuntimeMetrics`]. Same seed, same config ⇒ bitwise-identical
/// metrics (asserted by the cross-validation test).
pub fn run_harness(cfg: &HarnessConfig, seed: u64) -> RuntimeMetrics {
    run_driver(
        cfg,
        seed,
        &FaultPlan::empty(),
        DegradePolicy::default(),
        false,
        false,
    )
    .metrics
}

/// [`run_harness`] with the server in reference-scan mode (the historical
/// full-table session loop instead of the timer wheel). Exists solely so
/// the equivalence suite can pin the two schedulers against each other.
#[doc(hidden)]
pub fn run_harness_reference(cfg: &HarnessConfig, seed: u64) -> RuntimeMetrics {
    run_driver(
        cfg,
        seed,
        &FaultPlan::empty(),
        DegradePolicy::default(),
        false,
        true,
    )
    .metrics
}

/// Drive the server with the same seeded workload as [`run_harness`]
/// while injecting `plan`, checking conservation invariants and metrics
/// monotonicity after **every tick**. With an empty plan this is
/// [`run_harness`] plus checks: the same driver runs underneath, so the
/// metrics are bitwise identical by construction.
pub fn run_chaos(
    cfg: &HarnessConfig,
    seed: u64,
    plan: &FaultPlan,
    policy: DegradePolicy,
) -> ChaosOutcome {
    run_driver(cfg, seed, plan, policy, true, false)
}

/// [`run_chaos`] against the reference-scan scheduler; see
/// [`run_harness_reference`].
#[doc(hidden)]
pub fn run_chaos_reference(
    cfg: &HarnessConfig,
    seed: u64,
    plan: &FaultPlan,
    policy: DegradePolicy,
) -> ChaosOutcome {
    run_driver(cfg, seed, plan, policy, true, true)
}

/// One backend-generic harness run: the [`ChaosOutcome`] plus the
/// provisioning and startup-wait observables the cost comparison needs.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendRun {
    /// Which delivery scheme ran.
    pub kind: BackendKind,
    /// The workload outcome (metrics + invariant checks).
    pub outcome: ChaosOutcome,
    /// Mean startup wait over the measured window, minutes (0 when no
    /// session started in the window).
    pub startup_wait_mean: f64,
    /// Startup-wait samples behind the mean.
    pub startup_wait_samples: u64,
    /// Provisioned I/O streams `Σn` (stream term of `C = C_n(φΣB + Σn)`).
    pub io_streams: u32,
    /// Provisioned server buffer `ΣB` in segments (buffer term).
    pub buffer_segments: u64,
}

/// Run the seeded harness workload against the delivery scheme `kind`,
/// built from `cfg.server` via [`make_backend`](crate::make_backend),
/// with per-tick invariant checks on. For
/// [`BackendKind::BatchingBuffering`] the metrics are bitwise identical
/// to [`run_harness`] on the same config/seed (pinned by the
/// `backend_equivalence` suite).
pub fn run_harness_backend(cfg: &HarnessConfig, kind: BackendKind, seed: u64) -> BackendRun {
    run_chaos_backend(
        cfg,
        kind,
        seed,
        &FaultPlan::empty(),
        DegradePolicy::default(),
    )
}

/// [`run_harness_backend`] with a fault plan: the backend-generic
/// [`run_chaos`].
pub fn run_chaos_backend(
    cfg: &HarnessConfig,
    kind: BackendKind,
    seed: u64,
    plan: &FaultPlan,
    policy: DegradePolicy,
) -> BackendRun {
    let mut server = make_backend(kind, &cfg.server);
    server.inject_faults(plan.clone(), policy);
    let outcome = drive(server.as_mut(), cfg, seed, true);
    let waits = server.startup_waits();
    BackendRun {
        kind,
        startup_wait_mean: if waits.count() == 0 {
            0.0
        } else {
            waits.mean()
        },
        startup_wait_samples: waits.count(),
        io_streams: server.io_streams(),
        buffer_segments: server.buffer_segments(),
        outcome,
    }
}

/// The single driver underneath [`run_harness`] and [`run_chaos`]. The
/// RNG consumption order never depends on `plan` or `check`, so the
/// fault-free workload sequence is identical across both entry points.
fn run_driver(
    cfg: &HarnessConfig,
    seed: u64,
    plan: &FaultPlan,
    policy: DegradePolicy,
    check: bool,
    reference: bool,
) -> ChaosOutcome {
    let mut server = VodServer::new(cfg.server.clone());
    server.set_reference_scan(reference);
    server.inject_faults(plan.clone(), policy);
    drive(&mut server, cfg, seed, check)
}

/// The workload loop itself, generic over the delivery scheme. Every
/// entry point in this module funnels here, so no driver logic is
/// duplicated between the harness, the chaos runs, and the backend
/// comparison.
fn drive(
    server: &mut dyn DeliveryBackend,
    cfg: &HarnessConfig,
    seed: u64,
    check: bool,
) -> ChaosOutcome {
    let mut rng = seeded(seed);
    let mut next_arrival = exponential(&mut rng, cfg.mean_interarrival);
    // (session, tick at which its next interaction is due)
    let mut pending: Vec<(SessionId, u64)> = Vec::new();
    let horizon = cfg.warmup + cfg.measure;
    let mut sessions_opened: u64 = 0;
    let mut violation_count: u64 = 0;
    let mut violations: Vec<String> = Vec::new();
    let mut prev_rt: Option<RuntimeMetrics> = None;
    for minute in 0..horizon {
        if minute == cfg.warmup {
            server.reset_metrics();
            // The reset legitimately zeroes counters; restart the
            // monotonicity baseline with it.
            prev_rt = None;
        }
        while next_arrival < (minute + 1) as f64 {
            // Round-robin over the requested catalog; an empty
            // `extra_movies` reduces to the historical single-movie
            // workload with an untouched RNG stream.
            let movie = if cfg.extra_movies.is_empty() {
                cfg.movie
            } else {
                let slot = (sessions_opened % (1 + cfg.extra_movies.len() as u64)) as usize;
                if slot == 0 {
                    cfg.movie
                } else {
                    cfg.extra_movies[slot - 1]
                }
            };
            // vod-lint: allow(no-panic) — HarnessConfig ties its movies to the
            // ServerConfig hosting them; a miss is a harness-construction bug.
            let id = server.open_session(movie).expect("movie hosted");
            sessions_opened += 1;
            let gap = cfg.behavior.next_interaction_gap(&mut rng);
            pending.push((id, minute + (gap.ceil() as u64).max(1)));
            next_arrival += exponential(&mut rng, cfg.mean_interarrival);
        }
        let mut i = 0;
        while i < pending.len() {
            let (id, due) = pending[i];
            if due > minute {
                i += 1;
                continue;
            }
            // vod-lint: allow(no-panic) — ids come from open_session and stay
            // queryable until this loop sees Done and drops them from pending.
            match server.session_status(id).expect("session exists") {
                SessionStatus::Done => {
                    pending.swap_remove(i);
                    continue;
                }
                SessionStatus::Shared | SessionStatus::Dedicated => {
                    let req = cfg.behavior.sample_request(&mut rng);
                    let magnitude = (req.magnitude.round() as u32).max(1);
                    // Denied ops are counted by the server; either way the
                    // viewer's next interaction clock restarts now.
                    let _ = server.request_vcr(id, req.kind, magnitude);
                    let gap = cfg.behavior.next_interaction_gap(&mut rng);
                    pending[i].1 = minute + (gap.ceil() as u64).max(1);
                }
                // Waiting in the batch queue, mid-VCR, or degraded: the
                // interaction clock only runs during playback — defer one
                // tick.
                SessionStatus::Waiting(_) | SessionStatus::InVcr | SessionStatus::Degraded => {
                    pending[i].1 = minute + 1;
                }
            }
            i += 1;
        }
        server.tick();
        if check {
            let mut record = |what: String| {
                violation_count += 1;
                if violations.len() < MAX_VIOLATION_REPORTS {
                    violations.push(format!("t={minute}: {what}"));
                }
            };
            for what in server.check_invariants() {
                record(what);
            }
            let rt = server.runtime_metrics();
            if let Some(prev) = &prev_rt {
                for field in prev.monotone_violations(&rt) {
                    record(format!("counter `{field}` went backwards"));
                }
            }
            prev_rt = Some(rt);
        }
    }
    ChaosOutcome {
        metrics: server.runtime_metrics(),
        violation_count,
        violations,
        sessions_opened,
        sessions_done: server.sessions_finished(),
        degraded_at_end: server.degraded_sessions(),
        ticks: horizon,
    }
}

/// Workload shape for [`run_scale`]: a mass-batching population, the
/// million-session north star's stress case. Every session is opened
/// before the first tick, so each movie's cohort enrolls into one
/// restart en masse at tick 0 — the worst case for the restart memo and
/// the timer wheel's bulk drain.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Concurrent sessions to open before the first tick.
    pub sessions: u64,
    /// Ticks to drive after opening (each live session consumes one
    /// segment per tick).
    pub ticks: u64,
    /// Hosted movies. Sessions are assigned in contiguous blocks —
    /// block `m` is movie `m`'s batching cohort.
    pub movies: u32,
    /// Sessions issued a seeded-random VCR operation each tick
    /// (denials count as issued, like the chaos harness).
    pub vcr_per_tick: u32,
}

/// What one [`run_scale`] run measured. Pure virtual-time observables:
/// wall-clock and memory measurement belong to the bench binary, which
/// is exempt from the determinism lint wall.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleOutcome {
    /// Sessions opened (all before tick 0).
    pub sessions: u64,
    /// Sessions still live (not `Done`) after the last tick.
    pub concurrent_at_end: u64,
    /// Segments delivered (buffer + disk), byte-verified.
    pub segments: u64,
    /// VCR operations accepted by the server.
    pub vcr_accepted: u64,
    /// Scheduler events processed: session opens + delivered segments +
    /// accepted VCR operations. The numerator of the bench's events/sec.
    pub events: u64,
    /// Ticks driven.
    pub ticks: u64,
    /// Byte-verification failures (must be 0).
    pub verify_failures: u64,
    /// The shared mechanism counters.
    pub metrics: RuntimeMetrics,
}

impl ScaleConfig {
    /// The server a scale run provisions: `movies` copies of the harness
    /// geometry (l = 120, n = 20, B = 100 — restarts every 6 ticks with
    /// 5-tick enrollment windows, so a tick-0 cohort stays in lockstep
    /// on one ring entry per movie) plus a VCR reserve sized to the
    /// sprinkle.
    pub fn server_config(&self) -> ServerConfig {
        let movies = (0..self.movies)
            .map(|m| HostedMovie::from_allocation(MovieId(m), 120, 20, 100.0))
            .collect();
        let vcr_reserve = self.vcr_per_tick.saturating_mul(4).clamp(8, 4096);
        ServerConfig::provisioned(movies, vcr_reserve)
    }
}

/// The `storm` fault plan, scaled to the pool so it hurts a server of
/// any size alike: 15 events evenly spaced over `[ticks/8, ticks)`,
/// cycling stream loss (pool/50), outage (pool/5 for ticks/8), slowdown
/// (every 3rd tick serves, for ticks/10), buffer shrink and restore
/// (budget/5). [`FaultPlan::generate`]'s one- and two-stream faults
/// vanish in a pool of thousands.
pub fn storm_plan(server: &ServerConfig, ticks: u64) -> FaultPlan {
    const EVENTS: u64 = 15;
    let pool = server.disk_streams;
    let budget = u32::try_from(server.buffer_budget).unwrap_or(u32::MAX);
    let first = ticks / 8;
    FaultPlan::new(
        (0..EVENTS)
            .map(|i| FaultEvent {
                at: first + i * (ticks - first) / EVENTS,
                kind: match i % 5 {
                    0 => FaultKind::DiskStreamLoss { count: pool / 50 },
                    1 => FaultKind::DiskOutage {
                        count: pool / 5,
                        recover_after: (ticks / 8).max(1),
                    },
                    2 => FaultKind::DiskSlowdown {
                        period: 3,
                        duration: ticks / 10,
                    },
                    3 => FaultKind::BufferShrink {
                        segments: budget / 5,
                    },
                    _ => FaultKind::BufferRestore {
                        segments: budget / 5,
                    },
                },
            })
            .collect(),
    )
}

/// Drive a [`VodServer`] with `cfg.sessions` concurrent sessions for
/// `cfg.ticks` virtual minutes and return the event totals. Same seed,
/// same config ⇒ bitwise-identical outcome, like every other driver in
/// this module.
///
/// # Panics
///
/// Panics if `cfg.sessions` or `cfg.movies` is zero.
pub fn run_scale(cfg: &ScaleConfig, seed: u64) -> ScaleOutcome {
    let (kind, plan) = (BackendKind::BatchingBuffering, FaultPlan::empty());
    run_scale_on(cfg, kind, seed, &plan, &mut |server| server.tick())
}

/// [`run_scale`] against any delivery scheme, armed with `plan`. The
/// caller owns the clock: `advance` must tick the backend exactly once
/// per call, which is where the bench bin wraps the tick and a
/// `check_invariants` audit in the wall-clock timers this crate may not
/// hold.
///
/// # Panics
///
/// Panics if `cfg.sessions` or `cfg.movies` is zero.
pub fn run_scale_on(
    cfg: &ScaleConfig,
    kind: BackendKind,
    seed: u64,
    plan: &FaultPlan,
    advance: &mut dyn FnMut(&mut dyn DeliveryBackend),
) -> ScaleOutcome {
    // vod-lint: allow(no-panic) — a zero-session or zero-movie scale run is a
    // caller bug; the driver cannot size a server around it.
    assert!(
        cfg.sessions > 0 && cfg.movies > 0,
        "scale run needs at least one session and one movie"
    );
    let mut server = make_backend(kind, &cfg.server_config());
    server.inject_faults(plan.clone(), DegradePolicy::default());
    let mut rng = seeded(seed);
    // Contiguous block assignment: adjacent session indices share a
    // movie, so the per-tick delivery walk switches movies only
    // `cfg.movies` times per tick.
    let ids: Vec<SessionId> = (0..cfg.sessions)
        .map(|i| {
            let movie = MovieId((i * u64::from(cfg.movies) / cfg.sessions) as u32);
            // vod-lint: allow(no-panic) — the movie id is derived from the
            // hosted range above; a miss is a driver bug.
            server.open_session(movie).expect("movie hosted")
        })
        .collect();
    let mut vcr_accepted: u64 = 0;
    for _ in 0..cfg.ticks {
        for _ in 0..cfg.vcr_per_tick {
            let target = ids[(rng.next_u64() % cfg.sessions) as usize];
            let kind = match rng.next_u64() % 3 {
                0 => VcrKind::FastForward,
                1 => VcrKind::Rewind,
                _ => VcrKind::Pause,
            };
            let magnitude = (rng.next_u64() % 30 + 1) as u32;
            if server.request_vcr(target, kind, magnitude).is_ok() {
                vcr_accepted += 1;
            }
        }
        advance(server.as_mut());
    }
    let metrics = server.runtime_metrics();
    let segments = (metrics.buffer_minutes + metrics.disk_minutes) as u64;
    ScaleOutcome {
        sessions: cfg.sessions,
        concurrent_at_end: cfg.sessions.saturating_sub(server.sessions_finished()),
        segments,
        vcr_accepted,
        events: cfg.sessions + segments + vcr_accepted,
        ticks: cfg.ticks,
        verify_failures: server.verify_failures(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vod_dist::kinds::Gamma;

    use super::*;

    fn config() -> HarnessConfig {
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
        HarnessConfig {
            server: ServerConfig {
                piggyback: None,
                ..ServerConfig::provisioned(vec![movie], 40)
            },
            movie: MovieId(0),
            extra_movies: vec![],
            behavior: BehaviorModel::uniform_dist(
                (0.2, 0.2, 0.6),
                30.0,
                Arc::new(Gamma::paper_fig7()),
            ),
            mean_interarrival: 2.0,
            warmup: 240,
            measure: 1200,
        }
    }

    #[test]
    fn harness_is_deterministic() {
        let cfg = config();
        let a = run_harness(&cfg, 7);
        let b = run_harness(&cfg, 7);
        assert_eq!(a, b, "same seed must reproduce bitwise-identical metrics");
        assert!(a.resumes.trials() > 50, "workload actually exercised VCR");
    }

    #[test]
    fn chaos_outcome_json_shape_is_pinned() {
        let outcome = ChaosOutcome {
            metrics: RuntimeMetrics::new(),
            violation_count: 2,
            violations: vec!["t=3: lease \"drift\"".to_string(), "t=4: x\\y".to_string()],
            sessions_opened: 10,
            sessions_done: 7,
            degraded_at_end: 1,
            ticks: 60,
        };
        let json = outcome.to_json();
        let expected_prefix = concat!(
            "{\"schema_version\":1,",
            "\"violations\":2,",
            "\"violation_details\":[\"t=3: lease \\\"drift\\\"\",\"t=4: x\\\\y\"],",
            "\"sessions_opened\":10,",
            "\"sessions_done\":7,",
            "\"degraded_at_end\":1,",
            "\"ticks\":60,",
            "\"metrics\":{\"schema_version\":2,"
        );
        assert!(
            json.starts_with(expected_prefix),
            "pinned key order/escaping changed:\n{json}"
        );
        assert!(
            json.ends_with("}}"),
            "metrics object must close the outcome"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = config();
        let a = run_harness(&cfg, 7);
        let b = run_harness(&cfg, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn scale_run_is_deterministic_and_conserves_segments() {
        let cfg = ScaleConfig {
            sessions: 3000,
            ticks: 30,
            movies: 4,
            vcr_per_tick: 20,
        };
        let a = run_scale(&cfg, 42);
        let b = run_scale(&cfg, 42);
        assert_eq!(a, b, "same seed must reproduce the outcome bitwise");
        assert_eq!(a.verify_failures, 0);
        assert_eq!(a.concurrent_at_end, 3000, "no session finishes in 30 ticks");
        // Every session enrolls at tick 0 and then consumes one segment
        // per tick, minus time parked in VCR/pause states.
        assert!(a.segments > 0 && a.segments <= cfg.sessions * cfg.ticks);
        assert!(a.vcr_accepted > 0, "the VCR sprinkle never landed");
        assert_eq!(a.events, a.sessions + a.segments + a.vcr_accepted);
    }

    /// The scale bench's storm mode at test size: every backend rides
    /// out the pool-scaled plan with a clean audit after every tick, the
    /// faults actually bite, and the run reproduces bitwise.
    #[test]
    fn scale_storm_keeps_every_backend_conserved() {
        let cfg = ScaleConfig {
            sessions: 3000,
            ticks: 120,
            movies: 4,
            vcr_per_tick: 20,
        };
        let plan = storm_plan(&cfg.server_config(), cfg.ticks);
        assert_eq!(plan.len(), 15);
        for kind in BackendKind::ALL {
            let run = || {
                let mut violations = Vec::new();
                let out = run_scale_on(&cfg, kind, 42, &plan, &mut |server| {
                    server.tick();
                    violations.extend(server.check_invariants());
                });
                (out, violations)
            };
            let (out, violations) = run();
            assert_eq!(violations, Vec::<String>::new(), "{kind}");
            assert_eq!(out.verify_failures, 0, "{kind}");
            assert_eq!(out.metrics.faults_injected, expected_faults(kind), "{kind}");
            assert!(out.metrics.degraded_entries > 0, "{kind}: nothing degraded");
            assert_eq!(run().0, out, "{kind}: storm run is not reproducible");
        }
    }

    /// The unicast backend skips the six buffer events of the 15.
    fn expected_faults(kind: BackendKind) -> u64 {
        match kind {
            BackendKind::DedicatedStream => 9,
            BackendKind::BatchingBuffering | BackendKind::PyramidBroadcast => 15,
        }
    }
}
