//! The load model: an open loop on the virtual clock.
//!
//! Viewers are independent, so arrivals follow a schedule that never
//! waits for the program: Poisson arrivals at a fixed rate per tick,
//! Zipf(0.73) movie choice, and the paper's Fig. 7(d) VCR behaviour, all
//! drawn from `--seed` by this single thread. The program under test
//! receives only `open_session` / `session_status` / `request_vcr` /
//! `tick` (and, on audited workloads, `check_invariants`) calls. The wall
//! clock is never part of the load: the benchmark measures how fast the
//! system outruns virtual time.

use std::sync::Arc;

use vod_dist::kinds::Gamma;
use vod_dist::rng::{exponential, seeded};
use vod_federation::{FedSessionId, Federation};
use vod_server::{DeliveryBackend, MovieId, SessionId, SessionStatus};
use vod_workload::{BehaviorModel, VcrKind, Zipf};

use crate::ring::CalendarRing;
use crate::trace::{NameId, SpanId, Tracer};

/// Zipf skew of movie popularity.
pub const ZIPF_THETA: f64 = 0.73;

/// The paper's Fig. 7(d) viewer: 20 % FF, 20 % RW, 60 % pause, 30 minutes
/// of playback between interactions, gamma durations.
pub fn behavior() -> BehaviorModel {
    BehaviorModel::uniform_dist((0.2, 0.2, 0.6), 30.0, Arc::new(Gamma::paper_fig7()))
}

/// What the generator drives: one backend or the federation front tier.
pub trait Target {
    type Id: Copy;
    /// Admit a viewer of catalog movie `movie`; `None` = refused.
    fn open(&mut self, movie: usize) -> Option<Self::Id>;
    fn status(&self, id: Self::Id) -> SessionStatus;
    /// Issue a VCR operation; `false` = refused.
    fn vcr(&mut self, id: Self::Id, kind: VcrKind, magnitude: u32) -> bool;
    fn tick(&mut self);
    fn audit(&self) -> Vec<String>;
}

impl Target for Box<dyn DeliveryBackend> {
    type Id = SessionId;

    fn open(&mut self, movie: usize) -> Option<SessionId> {
        self.open_session(MovieId(movie as u32)).ok()
    }

    fn status(&self, id: SessionId) -> SessionStatus {
        self.session_status(id)
            .expect("ids come from open_session and stay queryable")
    }

    fn vcr(&mut self, id: SessionId, kind: VcrKind, magnitude: u32) -> bool {
        self.request_vcr(id, kind, magnitude).is_ok()
    }

    fn tick(&mut self) {
        DeliveryBackend::tick(self.as_mut());
    }

    fn audit(&self) -> Vec<String> {
        self.check_invariants()
    }
}

impl Target for Federation {
    type Id = FedSessionId;

    fn open(&mut self, movie: usize) -> Option<FedSessionId> {
        self.open_session(movie)
    }

    fn status(&self, id: FedSessionId) -> SessionStatus {
        self.session_status(id)
    }

    fn vcr(&mut self, id: FedSessionId, kind: VcrKind, magnitude: u32) -> bool {
        self.request_vcr(id, kind, magnitude).is_ok()
    }

    fn tick(&mut self) {
        Federation::tick(self);
    }

    fn audit(&self) -> Vec<String> {
        self.check_invariants()
    }
}

/// Size of one open-loop run.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub ticks: u64,
    /// Mean arrivals per tick.
    pub rate: f64,
    /// Catalog movies the Zipf choice ranges over.
    pub movies: usize,
    /// Run the conservation audit after every tick.
    pub audit: bool,
}

/// What the generator itself observed (the program's own counters are
/// read separately by the caller).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Observed {
    pub sessions: u64,
    pub admissions_refused: u64,
    pub status_calls: u64,
    pub vcr_ops: u64,
    pub vcr_refused: u64,
    pub audits: u64,
    pub violations: u64,
    /// First few violation texts, for the failure message.
    pub violation_samples: Vec<String>,
}

/// Interned span names of one segment's tick loop.
pub struct PhaseNames {
    pub step: NameId,
    pub admit: NameId,
    pub status: NameId,
    pub vcr: NameId,
    pub tick: NameId,
    pub audit: NameId,
}

impl PhaseNames {
    pub fn new(tr: &mut Tracer, segment: &str) -> Self {
        let mut n = |phase: &str| tr.name(&format!("{segment}/{phase}"));
        Self {
            step: n("step"),
            admit: n("admit"),
            status: n("status"),
            vcr: n("vcr"),
            tick: n("tick"),
            audit: n("audit"),
        }
    }
}

/// Drive `target` through `load.ticks` virtual minutes.
///
/// Each tick batches the calls into the program by phase (admit → status
/// → vcr → tick → audit) so a traced run wraps each phase in one span and
/// everything between the phases — sampling, the calendar ring — is the
/// generator's own time (the `step` span's self time).
pub fn drive<T: Target>(
    target: &mut T,
    load: &Load,
    seed: u64,
    tr: &mut Tracer,
    names: &PhaseNames,
    parent: Option<SpanId>,
) -> Observed {
    let behavior = behavior();
    let zipf = Zipf::new(load.movies, ZIPF_THETA);
    let mean_gap = 1.0 / load.rate;
    let mut rng = seeded(seed);
    let mut ring: CalendarRing<T::Id> = CalendarRing::new();
    let mut seen = Observed::default();
    let mut next_arrival = exponential(&mut rng, mean_gap);
    let mut arrivals: Vec<(usize, u64)> = Vec::new();
    let mut admitted: Vec<Option<T::Id>> = Vec::new();
    let mut due: Vec<T::Id> = Vec::new();
    let mut statuses: Vec<SessionStatus> = Vec::new();
    let mut requests: Vec<(T::Id, VcrKind, u32)> = Vec::new();
    let gap_ticks = |gap: f64| (gap.ceil() as u64).max(1);

    for now in 0..load.ticks {
        let step = tr.open(names.step, parent);

        arrivals.clear();
        while next_arrival < (now + 1) as f64 {
            let movie = zipf.sample(&mut rng);
            let gap = gap_ticks(behavior.next_interaction_gap(&mut rng));
            arrivals.push((movie, gap));
            next_arrival += exponential(&mut rng, mean_gap);
        }

        admitted.clear();
        let span = tr.open(names.admit, step);
        for &(movie, _) in &arrivals {
            admitted.push(target.open(movie));
        }
        tr.close(span, arrivals.len() as u64);

        for (&(_, gap), id) in arrivals.iter().zip(&admitted) {
            match id {
                Some(id) => {
                    seen.sessions += 1;
                    ring.schedule(now + gap, *id);
                }
                None => seen.admissions_refused += 1,
            }
        }
        due.clear();
        ring.drain_due(now, &mut due);

        statuses.clear();
        let span = tr.open(names.status, step);
        for &id in &due {
            statuses.push(target.status(id));
        }
        tr.close(span, due.len() as u64);
        seen.status_calls += due.len() as u64;

        requests.clear();
        for (&id, status) in due.iter().zip(&statuses) {
            match status {
                SessionStatus::Done => {}
                SessionStatus::Shared | SessionStatus::Dedicated => {
                    let req = behavior.sample_request(&mut rng);
                    let magnitude = (req.magnitude.round() as u32).max(1);
                    requests.push((id, req.kind, magnitude));
                }
                // Queued, mid-VCR or degraded: the interaction clock only
                // runs during playback, so look again next tick.
                SessionStatus::Waiting(_) | SessionStatus::InVcr | SessionStatus::Degraded => {
                    ring.schedule(now + 1, id);
                }
            }
        }

        let span = tr.open(names.vcr, step);
        let mut refused = 0;
        for &(id, kind, magnitude) in &requests {
            if !target.vcr(id, kind, magnitude) {
                refused += 1;
            }
        }
        tr.close(span, requests.len() as u64);
        seen.vcr_ops += requests.len() as u64;
        seen.vcr_refused += refused;

        // Served or refused, the viewer's next interaction clock restarts.
        for &(id, _, _) in &requests {
            let gap = gap_ticks(behavior.next_interaction_gap(&mut rng));
            ring.schedule(now + gap, id);
        }

        let span = tr.open(names.tick, step);
        target.tick();
        tr.close(span, 1);

        if load.audit {
            let span = tr.open(names.audit, step);
            let found = target.audit();
            tr.close(span, 1);
            seen.audits += 1;
            seen.violations += found.len() as u64;
            for what in found {
                if seen.violation_samples.len() < 8 {
                    seen.violation_samples.push(format!("t={now}: {what}"));
                }
            }
        }

        tr.close(step, 1);
    }
    seen
}
