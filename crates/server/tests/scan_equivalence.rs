//! The wheel-scheduler equivalence gate: the event-driven session phase
//! — one timer-wheel entry per session, enrolled viewers delivered per
//! cohort and brought up to date only when read — must be **bitwise identical**
//! to the historical full `0..n` scan it replaced, which visits every
//! session on every tick and advances and accounts each enrolled one a
//! tick at a time: same seeded workload, same metrics, same chaos outcome
//! (violations included), and the same position, statistics and status
//! of every session after every tick — fault-free and under every fault
//! family. The reference scan survives in the server behind
//! `set_reference_scan` exactly so this suite can hold that line.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use rand::RngCore;

use vod_dist::rng::seeded;
use vod_runtime::{BackendKind, DegradePolicy, FaultEvent, FaultKind, FaultPlan};
use vod_server::{
    run_backend, run_harness, run_reference_scan, DeliveryBackend, Driver, HarnessConfig,
    HostedMovie, MovieId, RoundRobin, ServerConfig, SessionId, SessionStatus, Target, VodServer,
    Workload,
};
use vod_workload::{BehaviorModel, VcrKind};

fn config(piggyback: bool) -> HarnessConfig {
    let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
    let base = ServerConfig::provisioned(vec![movie], 40);
    HarnessConfig {
        server: ServerConfig {
            piggyback: base.piggyback.filter(|_| piggyback),
            ..base
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
fn wheel_matches_reference_scan_fault_free() {
    for piggyback in [false, true] {
        let cfg = config(piggyback);
        for seed in [1u64, 7, 23, 1901] {
            let wheel = run_harness(&cfg, seed);
            let reference =
                run_reference_scan(&cfg, seed, &FaultPlan::empty(), DegradePolicy::default())
                    .metrics;
            assert_eq!(
                wheel, reference,
                "schedulers diverged (seed {seed}, piggyback {piggyback})"
            );
        }
    }
}

fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("baseline", FaultPlan::empty()),
        (
            "loss",
            FaultPlan::new(vec![FaultEvent {
                at: 400,
                kind: FaultKind::DiskStreamLoss { count: 4 },
            }]),
        ),
        (
            "outage",
            FaultPlan::new(vec![FaultEvent {
                at: 500,
                kind: FaultKind::DiskOutage {
                    count: 6,
                    recover_after: 120,
                },
            }]),
        ),
        (
            "slowdown",
            FaultPlan::new(vec![FaultEvent {
                at: 300,
                kind: FaultKind::DiskSlowdown {
                    period: 3,
                    duration: 90,
                },
            }]),
        ),
        (
            "squeeze",
            FaultPlan::new(vec![
                FaultEvent {
                    at: 420,
                    kind: FaultKind::BufferShrink { segments: 30 },
                },
                FaultEvent {
                    at: 700,
                    kind: FaultKind::BufferRestore { segments: 30 },
                },
            ]),
        ),
        // Back-to-back slowdowns of different periods: viewers in
        // lock-step with a stream stall at its front again and again
        // (their finish wake-ups re-arm), while the ones trailing it keep
        // moving and close the gap.
        (
            "stall-front",
            FaultPlan::new(
                [(300, 2, 40), (340, 4, 60), (400, 3, 45)]
                    .into_iter()
                    .map(|(at, period, duration)| FaultEvent {
                        at,
                        kind: FaultKind::DiskSlowdown { period, duration },
                    })
                    .collect(),
            ),
        ),
        ("storm", FaultPlan::generate(9, 1440, 8)),
    ]
}

#[test]
fn wheel_matches_reference_scan_under_faults() {
    let cfg = config(true);
    let policy = DegradePolicy::default();
    for (name, plan) in plans() {
        for seed in [7u64, 23] {
            let wheel =
                run_backend(&cfg, BackendKind::BatchingBuffering, seed, &plan, policy).outcome;
            let reference = run_reference_scan(&cfg, seed, &plan, policy);
            assert_eq!(
                wheel, reference,
                "chaos outcome diverged (plan {name}, seed {seed})"
            );
            assert_eq!(wheel.violation_count, 0, "plan {name} seed {seed}");
        }
    }
}

/// The production server and the reference scan, fed the same calls.
struct Pair {
    servers: [VodServer; 2],
    sessions: Vec<SessionId>,
}

impl Pair {
    fn new(server: &ServerConfig, plan: &FaultPlan) -> Self {
        let servers = [false, true].map(|reference| {
            let mut s = VodServer::new(server.clone());
            s.set_reference_scan(reference);
            s.inject_faults(plan.clone(), DegradePolicy::default());
            s
        });
        Self {
            servers,
            sessions: Vec::new(),
        }
    }

    /// Make the same call on both servers; the answers must agree.
    fn both<T: PartialEq + std::fmt::Debug>(
        &mut self,
        what: &str,
        mut call: impl FnMut(&mut VodServer) -> T,
    ) -> T {
        let [production, reference] = &mut self.servers;
        let (got, expected) = (call(production), call(reference));
        assert_eq!(got, expected, "{what} (production vs reference)");
        got
    }

    fn open(&mut self, movie: MovieId) -> SessionId {
        let id = self.both("open_session", |s| s.open_session(movie).unwrap());
        self.sessions.push(id);
        id
    }

    fn adopt(&mut self, movie: MovieId, position: u32) {
        let adopted = self.both("adopt_session", |s| s.adopt_session(movie, position).ok());
        self.sessions.extend(adopted.map(|(id, _)| id));
    }

    fn vcr(&mut self, id: SessionId, kind: VcrKind, magnitude: u32) {
        self.both("request_vcr", |s| {
            s.request_vcr(id, kind, magnitude).is_ok()
        });
    }

    fn close(&mut self, id: SessionId) {
        // `None` on both: the session had already finished.
        self.both("close_session", |s| s.close_session(id).ok());
    }

    fn status(&mut self, id: SessionId) -> SessionStatus {
        self.both("session_status", |s| s.session_status(id).unwrap())
    }

    /// One tick on both, then everything observable about every session
    /// ever opened — position and statistics while it plays (`None` on
    /// both once it is retired), its final record on the tick it
    /// finishes, its status for ever — the mechanism counters, and a
    /// clean audit.
    fn tick(&mut self) {
        self.both("tick", |s| s.tick());
        self.both("finished_this_tick", |s| s.finished_this_tick().to_vec());
        for i in 0..self.sessions.len() {
            let id = self.sessions[i];
            let (.., position, stats, status) = self.both("session after tick", |s| {
                (
                    id,
                    s.now(),
                    s.session_position(id).ok(),
                    s.session_stats(id).ok(),
                    s.session_status(id).unwrap(),
                )
            });
            let retired = status == SessionStatus::Done;
            assert_eq!((position.is_none(), stats.is_none()), (retired, retired));
        }
        self.both("runtime_metrics", |s| s.runtime_metrics());
        self.both("verify_failures", |s| s.metrics().verify_failures);
        let violations = self.both("check_invariants", |s| s.check_invariants());
        assert_eq!(violations, Vec::<String>::new());
    }
}

/// The pair as the shared [`Driver`]'s target: every call the workload
/// makes lands on both servers, and `Pair::tick` is its own audit.
impl Target for Pair {
    type Movie = MovieId;
    type Id = SessionId;
    type Counters = ();

    fn open(&mut self, movie: MovieId) -> Option<SessionId> {
        Some(Pair::open(self, movie))
    }

    fn status(&mut self, id: SessionId) -> SessionStatus {
        Pair::status(self, id)
    }

    fn vcr(&mut self, id: SessionId, kind: VcrKind, magnitude: u32) {
        Pair::vcr(self, id, kind, magnitude);
    }

    fn tick(&mut self) {
        Pair::tick(self);
    }

    fn reset_metrics(&mut self) {
        self.both("reset_metrics", |s| s.reset_metrics());
    }

    fn audit(&mut self, _last: &mut Option<()>) -> Vec<String> {
        Vec::new()
    }
}

/// The harness workload — the very `Driver` `run_harness` runs — driven
/// through both servers in lock-step.
fn lockstep(cfg: &HarnessConfig, seed: u64, plan: &FaultPlan) {
    let mut pair = Pair::new(&cfg.server, plan);
    let mut driver = Driver::new(&cfg.workload, &RoundRobin, seed);
    for _ in 0..cfg.workload.horizon() {
        driver.step(&mut pair);
    }
}

#[test]
fn every_session_matches_the_reference_scan_after_every_tick() {
    for piggyback in [false, true] {
        lockstep(&config(piggyback), 7, &FaultPlan::empty());
    }
    let cfg = config(true);
    for (_, plan) in plans() {
        lockstep(&cfg, 23, &plan);
    }
}

/// Working sessions that quit or change state between ticks. A dedicated
/// viewer that starts a sweep or a pause files its new state's entry
/// beside the one it left, both due the same tick, and the two collapse
/// into one visit; a sweeping or dedicated viewer that quits leaves its
/// entry to fire once as a no-op. Each acts at most once a tick, exactly
/// as the reference scan has it, and the audit's stale count stays exact.
#[test]
fn working_sessions_that_quit_or_switch_between_ticks_act_once() {
    let movie = HostedMovie::from_allocation(MovieId(0), 30, 6, 18.0);
    let server = ServerConfig {
        piggyback: None,
        ..ServerConfig::provisioned(vec![movie], 8)
    };
    let mut pair = Pair::new(&server, &FaultPlan::empty());
    pair.tick();
    // Position 20 is in no window yet: each adoption takes a dedicated
    // stream.
    for _ in 0..6 {
        pair.adopt(MovieId(0), 20);
    }
    let enrolled = pair.open(MovieId(0));
    let d = pair.sessions.clone();
    assert_eq!(d.len(), 7);
    for &id in &d[..6] {
        assert_eq!(pair.status(id), SessionStatus::Dedicated);
    }
    pair.tick();
    pair.vcr(d[0], VcrKind::FastForward, 6);
    pair.vcr(d[1], VcrKind::Pause, 0);
    pair.close(d[2]);
    pair.vcr(d[3], VcrKind::Rewind, 4);
    pair.close(d[3]);
    pair.vcr(enrolled, VcrKind::FastForward, 2);
    pair.tick();
    assert_eq!(pair.status(d[0]), SessionStatus::InVcr);
    pair.close(d[0]);
    pair.vcr(d[4], VcrKind::Pause, 1);
    pair.vcr(d[5], VcrKind::FastForward, 3);
    for _ in 0..40 {
        pair.tick();
    }
    for &id in &d {
        assert_eq!(pair.status(id), SessionStatus::Done);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary call sequences — opens, VCR requests, early closes and
    /// adoptions between ticks, on two movies, with or without faults in
    /// the middle — leave the production server and the reference scan
    /// indistinguishable after every tick, with a clean audit.
    #[test]
    fn random_call_sequences_match_the_reference_scan(
        ops in proptest::collection::vec(0u64..u64::MAX, 400),
        piggyback in 0u32..2,
        faults in 0u32..3,
    ) {
        let movies = vec![
            HostedMovie::from_allocation(MovieId(0), 30, 6, 18.0),
            HostedMovie::from_allocation(MovieId(1), 24, 3, 12.0),
        ];
        let base = ServerConfig::provisioned(movies, 3);
        let server = ServerConfig {
            piggyback: base.piggyback.filter(|_| piggyback == 1),
            ..base
        };
        // Nothing; a slowdown; a slowdown with streams lost inside it, so
        // degraded viewers rejoin stalled partitions.
        let mut events = Vec::new();
        if faults >= 1 {
            events.push(FaultEvent {
                at: 20,
                kind: FaultKind::DiskSlowdown { period: 3, duration: 25 },
            });
        }
        if faults == 2 {
            events.push(FaultEvent {
                at: 24,
                kind: FaultKind::DiskStreamLoss { count: 4 },
            });
        }
        let plan = FaultPlan::new(events);
        let mut pair = Pair::new(&server, &plan);
        for op in ops {
            let mut bits = seeded(op);
            let mut draw = |n: u64| bits.next_u64() % n;
            let movie = MovieId(draw(2) as u32);
            let known = pair.sessions.len() as u64;
            match draw(10) {
                0..=2 => {
                    pair.open(movie);
                }
                3..=5 if known > 0 => {
                    let id = pair.sessions[draw(known) as usize];
                    let kind = [VcrKind::FastForward, VcrKind::Rewind, VcrKind::Pause][draw(3) as usize];
                    pair.vcr(id, kind, draw(12) as u32);
                }
                6 if known > 0 => pair.close(pair.sessions[draw(known) as usize]),
                7 => pair.adopt(movie, draw(32) as u32),
                _ => pair.tick(),
            }
        }
    }
}
