//! Deterministic load harness: the one seeded workload [`Driver`] —
//! Poisson arrivals and a [`BehaviorModel`] VCR mix, the statistical
//! primitives the simulator uses — written once against the [`Target`]
//! seam, and the entry points that run it against a [`DeliveryBackend`]
//! and report the shared [`RuntimeMetrics`] vocabulary. The federation
//! front tier and the scan-equivalence lock-step oracle step this same
//! driver through their own `Target`s, so "the same workload" is a
//! property of the code, not of three loops kept in step by hand.
//!
//! This is the server-side leg of the three-way cross-validation
//! (analytic model ↔ event simulator ↔ tick server): the same `(l, B, n,
//! VCR mix)` configuration runs through all three and the hit
//! probabilities are compared. Everything here is integer-minute — the
//! continuous samples are floored/rounded onto the tick grid — so
//! agreement with the continuous-time model is approximate by design
//! (tolerances live in the cross-validation test).

use rand::RngCore;
use vod_dist::rng::{exponential, seeded, SeededRng};
use vod_runtime::{BackendKind, DegradePolicy, FaultEvent, FaultKind, FaultPlan, RuntimeMetrics};
use vod_workload::{BehaviorModel, VcrKind};

use crate::backend::{make_backend, DeliveryBackend};
use crate::content::MovieId;
use crate::server::{HostedMovie, ServerConfig, VodServer};
use crate::session::{SessionId, SessionStatus};

/// The seeded workload a [`Driver`] generates, over movie handles `M`
/// (a [`MovieId`] for one backend, a global catalog index for a
/// federation).
#[derive(Clone)]
pub struct Workload<M> {
    /// Viewer interaction behavior (same model `vod-sim` consumes).
    pub behavior: BehaviorModel,
    /// Mean minutes between viewer arrivals (Poisson process).
    pub mean_interarrival: f64,
    /// Warm-up ticks excluded from measurement (metrics are reset after).
    pub warmup: u64,
    /// Measured ticks after warm-up.
    pub measure: u64,
    /// Movies arrivals request, round-robin by arrival number (non-empty;
    /// one entry is the single-movie validation workload).
    pub movies: Vec<M>,
}

impl<M: Copy> Workload<M> {
    /// Ticks a full run drives (warm-up + measured).
    pub fn horizon(&self) -> u64 {
        self.warmup + self.measure
    }

    /// The movie arrival number `arrival` requests under round-robin.
    /// Indexed by *arrivals*, not admissions: a refused arrival still
    /// takes its turn, so one refusal does not shift every later viewer
    /// onto a different movie.
    pub fn round_robin(&self, arrival: u64) -> M {
        self.movies[(arrival % self.movies.len() as u64) as usize]
    }
}

/// The driver's movie-pick / arrival-mean hook. The defaults are the
/// harness workload — round-robin, constant rate, no extra randomness —
/// which [`RoundRobin`] takes as they are.
pub trait ArrivalShape<M: Copy> {
    /// Movie requested by arrival number `arrival` at tick `minute`.
    /// Randomness drawn here comes out of the driver's one stream.
    fn pick_movie(
        &self,
        workload: &Workload<M>,
        arrival: u64,
        _minute: u64,
        _rng: &mut SeededRng,
    ) -> M {
        workload.round_robin(arrival)
    }

    /// Mean minutes to the next arrival, drawn at tick `minute`.
    fn mean_interarrival(&self, workload: &Workload<M>, _minute: u64) -> f64 {
        workload.mean_interarrival
    }
}

/// The plain harness shape: every [`ArrivalShape`] default.
pub struct RoundRobin;

impl<M: Copy> ArrivalShape<M> for RoundRobin {}

/// Exactly what the workload loop calls on the system it drives. Every
/// method takes `&mut self` so that a target may be several systems
/// asked in lock-step (the scan-equivalence `Pair`).
pub trait Target {
    /// Handle arrivals request movies by.
    type Movie: Copy;
    /// Handle of an admitted session.
    type Id: Copy;
    /// Snapshot of the cumulative counters [`audit`](Self::audit) checks
    /// for monotonicity.
    type Counters;

    /// Admit an arrival for `movie`; `None` when admission is refused.
    fn open(&mut self, movie: Self::Movie) -> Option<Self::Id>;
    /// Status of a session [`open`](Self::open) admitted.
    fn status(&mut self, id: Self::Id) -> SessionStatus;
    /// Issue a VCR operation; denials are the target's to count.
    fn vcr(&mut self, id: Self::Id, kind: VcrKind, magnitude: u32);
    /// Advance one virtual minute.
    fn tick(&mut self);
    /// Zero the counters at the end of warm-up.
    fn reset_metrics(&mut self);
    /// The per-tick audit: conservation violations, plus every cumulative
    /// counter that moved backwards since the snapshot in `last` (which
    /// this call replaces; the driver clears it on a reset).
    fn audit(&mut self, last: &mut Option<Self::Counters>) -> Vec<String>;
}

impl Target for dyn DeliveryBackend + '_ {
    type Movie = MovieId;
    type Id = SessionId;
    type Counters = RuntimeMetrics;

    fn open(&mut self, movie: MovieId) -> Option<SessionId> {
        // vod-lint: allow(no-panic) — HarnessConfig ties its movies to the
        // ServerConfig hosting them; a miss is a harness-construction bug.
        Some(self.open_session(movie).expect("movie hosted"))
    }

    fn status(&mut self, id: SessionId) -> SessionStatus {
        // vod-lint: allow(no-panic) — ids come from open_session and stay
        // queryable until the driver sees Done and drops them.
        self.session_status(id).expect("session exists")
    }

    fn vcr(&mut self, id: SessionId, kind: VcrKind, magnitude: u32) {
        let _ = self.request_vcr(id, kind, magnitude);
    }

    fn tick(&mut self) {
        DeliveryBackend::tick(self);
    }

    fn reset_metrics(&mut self) {
        DeliveryBackend::reset_metrics(self);
    }

    fn audit(&mut self, last: &mut Option<RuntimeMetrics>) -> Vec<String> {
        let mut found = self.check_invariants();
        let now = self.runtime_metrics();
        if let Some(last) = last {
            let backwards = last.monotone_violations(&now);
            found.extend(
                backwards
                    .iter()
                    .map(|field| format!("counter `{field}` went backwards")),
            );
        }
        *last = Some(now);
        found
    }
}

/// What a [`Driver`] has counted so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Arrivals the target admitted.
    pub opened: u64,
    /// Arrivals the target refused to admit.
    pub refused: u64,
    /// Total per-tick audit findings.
    pub violation_count: u64,
    /// First few findings, `"t=<tick>: <what>"` (capped so a badly
    /// broken run cannot exhaust memory).
    pub violations: Vec<String>,
}

/// Cap on stored violation strings in a [`Tally`].
const MAX_VIOLATION_REPORTS: usize = 16;

/// The seeded arrival / interaction loop, one virtual minute per
/// [`step`](Self::step). The RNG consumption order depends only on the
/// workload, the shape and the statuses the target reports — never on
/// fault plans or audit findings — and the interaction-gap draw of an
/// arrival happens whether or not it was admitted, so two targets that
/// answer alike see bitwise the same workload.
pub struct Driver<'w, T: Target + ?Sized> {
    workload: &'w Workload<T::Movie>,
    shape: &'w dyn ArrivalShape<T::Movie>,
    rng: SeededRng,
    next_arrival: f64,
    /// (session, tick at which its next interaction is due)
    pending: Vec<(T::Id, u64)>,
    minute: u64,
    last_counters: Option<T::Counters>,
    tally: Tally,
}

impl<'w, T: Target + ?Sized> Driver<'w, T> {
    /// A driver at tick 0 of `workload`, shaped by `shape`, on the RNG
    /// stream of `seed`.
    pub fn new(
        workload: &'w Workload<T::Movie>,
        shape: &'w dyn ArrivalShape<T::Movie>,
        seed: u64,
    ) -> Self {
        let mut rng = seeded(seed);
        let next_arrival = exponential(&mut rng, workload.mean_interarrival);
        Self {
            workload,
            shape,
            rng,
            next_arrival,
            pending: Vec::new(),
            minute: 0,
            last_counters: None,
            tally: Tally::default(),
        }
    }

    /// Step through the whole horizon and hand back the counts.
    pub fn run(mut self, target: &mut T) -> Tally {
        while self.minute < self.workload.horizon() {
            self.step(target);
        }
        self.tally
    }

    /// One virtual minute: this minute's arrivals, every due interaction,
    /// the target's tick, then its audit.
    pub fn step(&mut self, target: &mut T) {
        let (workload, minute) = (self.workload, self.minute);
        if minute == workload.warmup {
            target.reset_metrics();
            // The reset legitimately zeroes counters; restart the
            // monotonicity baseline with it.
            self.last_counters = None;
        }
        while self.next_arrival < (minute + 1) as f64 {
            let arrival = self.tally.opened + self.tally.refused;
            let movie = self
                .shape
                .pick_movie(workload, arrival, minute, &mut self.rng);
            let opened = target.open(movie);
            let gap = workload.behavior.next_interaction_gap(&mut self.rng);
            match opened {
                Some(id) => {
                    self.tally.opened += 1;
                    self.pending.push((id, minute + (gap.ceil() as u64).max(1)));
                }
                None => self.tally.refused += 1,
            }
            let mean = self.shape.mean_interarrival(workload, minute);
            self.next_arrival += exponential(&mut self.rng, mean);
        }
        let mut i = 0;
        while i < self.pending.len() {
            let (id, due) = self.pending[i];
            if due > minute {
                i += 1;
                continue;
            }
            match target.status(id) {
                SessionStatus::Done => {
                    self.pending.swap_remove(i);
                    continue;
                }
                SessionStatus::Shared | SessionStatus::Dedicated => {
                    let req = workload.behavior.sample_request(&mut self.rng);
                    let magnitude = (req.magnitude.round() as u32).max(1);
                    // Denied ops are counted by the target; either way the
                    // viewer's next interaction clock restarts now.
                    target.vcr(id, req.kind, magnitude);
                    let gap = workload.behavior.next_interaction_gap(&mut self.rng);
                    self.pending[i].1 = minute + (gap.ceil() as u64).max(1);
                }
                // Waiting in the batch queue, mid-VCR, or degraded: the
                // interaction clock only runs during playback — defer one
                // tick.
                SessionStatus::Waiting(_) | SessionStatus::InVcr | SessionStatus::Degraded => {
                    self.pending[i].1 = minute + 1;
                }
            }
            i += 1;
        }
        target.tick();
        for what in target.audit(&mut self.last_counters) {
            self.tally.violation_count += 1;
            if self.tally.violations.len() < MAX_VIOLATION_REPORTS {
                self.tally.violations.push(format!("t={minute}: {what}"));
            }
        }
        self.minute += 1;
    }
}

/// Harness configuration: the server under test and the workload its
/// hosted movies are asked for.
#[derive(Clone)]
pub struct HarnessConfig {
    /// Server under test.
    pub server: ServerConfig,
    /// The seeded workload, over `server`'s hosted movies.
    pub workload: Workload<MovieId>,
}

/// What one harness run measured, plus everything the per-tick audit
/// observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// Measured [`RuntimeMetrics`] (what [`run_harness`] returns).
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

/// One [`run_backend`] run: the [`ChaosOutcome`] plus the provisioning
/// and startup-wait observables the cost comparison needs.
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

/// Drive the batching server with the seeded workload, fault-free, and
/// return the measured [`RuntimeMetrics`]: the common case of
/// [`run_backend`]. Same seed, same config ⇒ bitwise-identical metrics
/// (asserted by the cross-validation test).
pub fn run_harness(cfg: &HarnessConfig, seed: u64) -> RuntimeMetrics {
    let (kind, plan) = (BackendKind::BatchingBuffering, FaultPlan::empty());
    run_backend(cfg, kind, seed, &plan, DegradePolicy::default())
        .outcome
        .metrics
}

/// Run the seeded workload against the delivery scheme `kind`, built
/// from `cfg.server` via [`make_backend`](crate::make_backend) and armed
/// with `plan`, auditing conservation invariants and metrics
/// monotonicity after **every tick**. The audit is a pure read and the
/// workload never looks at the plan, so an empty plan costs nothing:
/// batching's metrics are bitwise those of the frozen pre-trait loop
/// (pinned by the `backend_equivalence` suite).
pub fn run_backend(
    cfg: &HarnessConfig,
    kind: BackendKind,
    seed: u64,
    plan: &FaultPlan,
    policy: DegradePolicy,
) -> BackendRun {
    let mut server = make_backend(kind, &cfg.server);
    let outcome = drive(server.as_mut(), cfg, seed, plan, policy);
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

/// [`run_backend`]'s outcome from the batching server in reference-scan
/// mode (the historical full-table session loop instead of the timer
/// wheel). Exists solely so the equivalence suite can pin the two
/// schedulers against each other.
#[doc(hidden)]
pub fn run_reference_scan(
    cfg: &HarnessConfig,
    seed: u64,
    plan: &FaultPlan,
    policy: DegradePolicy,
) -> ChaosOutcome {
    let mut server = VodServer::new(cfg.server.clone());
    server.set_reference_scan(true);
    drive(&mut server, cfg, seed, plan, policy)
}

/// Arm `server`, run the [`Driver`] over the whole horizon, read the
/// outcome.
fn drive(
    server: &mut dyn DeliveryBackend,
    cfg: &HarnessConfig,
    seed: u64,
    plan: &FaultPlan,
    policy: DegradePolicy,
) -> ChaosOutcome {
    server.inject_faults(plan.clone(), policy);
    let tally = Driver::new(&cfg.workload, &RoundRobin, seed).run(server);
    ChaosOutcome {
        metrics: server.runtime_metrics(),
        violation_count: tally.violation_count,
        violations: tally.violations,
        sessions_opened: tally.opened,
        sessions_done: server.sessions_finished(),
        degraded_at_end: server.degraded_sessions(),
        ticks: cfg.workload.horizon(),
    }
}

/// Workload shape for [`run_scale`]: a mass-batching population, the
/// million-session north star's stress case. Every session is opened
/// before the first tick, so each movie's cohort enrolls into one
/// restart en masse at tick 0 — the worst case for the per-session
/// restart lookup and the timer wheel's bulk drain.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Concurrent sessions to open before the first tick.
    pub sessions: u64,
    /// Ticks to drive after opening (each live session consumes one
    /// segment per tick).
    pub ticks: u64,
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
    /// Session slots the backend still holds in memory after the last
    /// tick ([`DeliveryBackend::session_slots`]): a multiple of the live
    /// population, not of `sessions`.
    pub resident_slots: u64,
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
    /// Disk leases the fault plan revoked from their holders
    /// ([`ServerMetrics::leases_revoked`](crate::ServerMetrics::leases_revoked)).
    pub leases_revoked: u64,
    /// The shared mechanism counters.
    pub metrics: RuntimeMetrics,
}

impl ScaleConfig {
    /// Hosted movies. Sessions are assigned in contiguous blocks —
    /// block `m` is movie `m`'s batching cohort.
    pub const MOVIES: u32 = 16;
    /// Sessions issued a seeded-random VCR operation each tick
    /// (denials count as issued, like the chaos harness).
    pub const VCR_PER_TICK: u32 = 64;

    /// The server a scale run provisions: [`Self::MOVIES`] copies of the
    /// harness geometry (l = 120, n = 20, B = 100 — restarts every 6
    /// ticks with 5-tick enrollment windows, so a tick-0 cohort stays in
    /// lockstep on one ring entry per movie) plus a VCR reserve of four
    /// streams per operation of the sprinkle.
    pub fn server_config() -> ServerConfig {
        let movies = (0..Self::MOVIES)
            .map(|m| HostedMovie::from_allocation(MovieId(m), 120, 20, 100.0))
            .collect();
        ServerConfig::provisioned(movies, Self::VCR_PER_TICK * 4)
    }
}

/// The `storm` fault plan, scaled to the pool so it hurts a server of
/// any size alike: 15 events evenly spaced over `[ticks/8, ticks)`,
/// cycling stream loss (pool/50), an outage of the whole pool for
/// ticks/60, slowdown (every 3rd tick serves, for ticks/10), buffer
/// shrink and restore (budget/5). [`FaultPlan::generate`]'s one- and
/// two-stream faults vanish in a pool of thousands.
///
/// A disk fails free streams before it revokes a lease, and how many
/// are free at a fault depends on the backend and its load: at the scale
/// run's size, batching and pyramid kept more free streams than a
/// pool/5 outage takes and lost no lease to it. Only an outage of every
/// stream revokes leases on all three backends whatever their load.
/// It is short so that the run also times the recovery: a degraded
/// batching viewer rejoins only when a window restarted after the outage
/// reaches its position, and that window crawls through the slowdown
/// that follows. The next outage comes `ticks × 7/24` later; an outage
/// as long as `ticks/8` leaves too little of that gap, retires every such
/// window first and strands nearly every batching viewer degraded.
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
                        count: pool,
                        recover_after: (ticks / 60).max(1),
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
/// Panics if `cfg.sessions` is zero.
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
/// Panics if `cfg.sessions` is zero.
pub fn run_scale_on(
    cfg: &ScaleConfig,
    kind: BackendKind,
    seed: u64,
    plan: &FaultPlan,
    advance: &mut dyn FnMut(&mut dyn DeliveryBackend),
) -> ScaleOutcome {
    // vod-lint: allow(no-panic) — a zero-session scale run is a caller
    // bug; the driver cannot size a server around it.
    assert!(cfg.sessions > 0, "scale run needs at least one session");
    let mut server = make_backend(kind, &ScaleConfig::server_config());
    server.inject_faults(plan.clone(), DegradePolicy::default());
    let mut rng = seeded(seed);
    // Contiguous block assignment: adjacent session indices share a
    // movie, so the per-tick delivery walk switches movies only
    // `ScaleConfig::MOVIES` times per tick.
    let ids: Vec<SessionId> = (0..cfg.sessions)
        .map(|i| {
            let movie = MovieId((i * u64::from(ScaleConfig::MOVIES) / cfg.sessions) as u32);
            // vod-lint: allow(no-panic) — the movie id is derived from the
            // hosted range above; a miss is a driver bug.
            server.open_session(movie).expect("movie hosted")
        })
        .collect();
    let mut vcr_accepted: u64 = 0;
    for _ in 0..cfg.ticks {
        for _ in 0..ScaleConfig::VCR_PER_TICK {
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
        resident_slots: server.session_slots() as u64,
        segments,
        vcr_accepted,
        events: cfg.sessions + segments + vcr_accepted,
        ticks: cfg.ticks,
        verify_failures: server.verify_failures(),
        leases_revoked: server.core().metrics.leases_revoked,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> HarnessConfig {
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
        HarnessConfig {
            server: ServerConfig {
                piggyback: None,
                ..ServerConfig::provisioned(vec![movie], 40)
            },
            workload: Workload {
                behavior: BehaviorModel::paper_fig7d(),
                mean_interarrival: 2.0,
                warmup: 240,
                measure: 1200,
                movies: vec![MovieId(0)],
            },
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
        // The whole-pool outage revokes leases on every backend, however
        // few streams its load holds.
        let cfg = ScaleConfig {
            sessions: 10_000,
            ticks: 120,
        };
        let plan = storm_plan(&ScaleConfig::server_config(), cfg.ticks);
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
            assert!(out.leases_revoked > 0, "{kind}: no lease revoked");
            assert_eq!(run().0, out, "{kind}: storm run is not reproducible");
        }
    }

    /// Over five movie lengths the storm's outages leave batching time to
    /// recover: the restarted windows reach the viewers the outage froze,
    /// they finish, and their session slots go back.
    #[test]
    fn scale_storm_lets_batching_recover() {
        let cfg = ScaleConfig {
            sessions: 2_000,
            ticks: 600,
        };
        let plan = storm_plan(&ScaleConfig::server_config(), cfg.ticks);
        let kind = BackendKind::BatchingBuffering;
        let out = run_scale_on(&cfg, kind, 42, &plan, &mut |server| server.tick());
        assert!(out.leases_revoked > 0 && out.metrics.degraded_entries > 0);
        assert!(
            out.concurrent_at_end < cfg.sessions / 100,
            "{} of {} viewers still live",
            out.concurrent_at_end,
            cfg.sessions
        );
        assert!(out.resident_slots <= 2 * out.concurrent_at_end + 64);
    }

    /// The unicast backend skips the six buffer events of the 15.
    fn expected_faults(kind: BackendKind) -> u64 {
        match kind {
            BackendKind::DedicatedStream => 9,
            BackendKind::BatchingBuffering | BackendKind::PyramidBroadcast => 15,
        }
    }
}
