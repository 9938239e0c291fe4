//! Memory and audit are `O(live viewers)`, asserted rather than inferred:
//! steady arrivals for six movie lengths under the Fig. 7(d) mix, the
//! conservation audit after every tick, on each delivery backend and on a
//! two-shard federation. Throughout, the session slots held in memory stay
//! within twice the live population (plus one chunk), and inside the
//! chunks of ids the live sessions occupy plus the one being issued,
//! however many sessions have passed through; everyone admitted is live
//! or has had a final record published; a finished id answers `Done`,
//! refuses VCR and is never handed out again; and the record of a viewing
//! nobody interrupted adds up to the movie.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;

use vod_federation::{FedSessionId, Federation, FederationConfig, ShardSpec, WorkloadShape};
use vod_runtime::{BackendKind, DegradePolicy, FaultPlan, SESSION_CHUNK};
use vod_server::{
    make_backend, ArrivalShape, DeliveryBackend, DeliveryStats, Driver, HostedMovie, MovieId,
    RoundRobin, ServerConfig, SessionId, SessionStatus, Target, Workload,
};
use vod_workload::{BehaviorModel, VcrKind};

const MOVIE_LENGTH: u32 = 120;
const MOVIE_LENGTHS_RUN: u64 = 6;

fn server() -> ServerConfig {
    let movies = [0, 1].map(|m| HostedMovie::from_allocation(MovieId(m), MOVIE_LENGTH, 20, 100.0));
    ServerConfig {
        piggyback: None,
        // Streams enough for the unicast backend to carry everyone.
        ..ServerConfig::provisioned(movies.to_vec(), 400)
    }
}

fn workload<M>(movies: Vec<M>) -> Workload<M> {
    Workload {
        behavior: BehaviorModel::paper_fig7d(),
        mean_interarrival: 0.5,
        warmup: 0,
        measure: MOVIE_LENGTHS_RUN * u64::from(MOVIE_LENGTH),
        movies,
    }
}

/// What the long run reads off the system under test besides driving it.
trait Population: Target {
    /// The id's place in issue order: ids are handed out `0, 1, 2, …`.
    fn index(id: Self::Id) -> u32;
    fn live_sessions(&self) -> usize;
    fn session_slots(&self) -> usize;
    fn published(&self) -> Vec<(Self::Id, DeliveryStats)>;
    fn refuses_vcr(&mut self, id: Self::Id) -> bool;
}

impl Population for dyn DeliveryBackend + '_ {
    fn index(id: SessionId) -> u32 {
        id.0
    }
    fn live_sessions(&self) -> usize {
        DeliveryBackend::live_sessions(self)
    }
    fn session_slots(&self) -> usize {
        DeliveryBackend::session_slots(self)
    }
    fn published(&self) -> Vec<(SessionId, DeliveryStats)> {
        self.finished_this_tick().to_vec()
    }
    fn refuses_vcr(&mut self, id: SessionId) -> bool {
        self.request_vcr(id, VcrKind::Pause, 1).is_err() && self.session_position(id).is_err()
    }
}

impl Population for Federation {
    fn index(id: FedSessionId) -> u32 {
        id.0
    }
    fn live_sessions(&self) -> usize {
        Federation::live_sessions(self)
    }
    fn session_slots(&self) -> usize {
        Federation::session_slots(self)
    }
    fn published(&self) -> Vec<(FedSessionId, DeliveryStats)> {
        self.finished_this_tick().to_vec()
    }
    fn refuses_vcr(&mut self, id: FedSessionId) -> bool {
        self.request_vcr(id, VcrKind::Pause, 1).is_err()
    }
}

/// The system under test with the checks wrapped round every call the
/// shared [`Driver`] makes on it.
struct Watched<'a, T: Population + ?Sized> {
    inner: &'a mut T,
    what: String,
    ticks: u64,
    opened: u64,
    /// Sessions a VCR request was ever issued for.
    interrupted: Vec<T::Id>,
    /// Admitted and not yet finished.
    live: Vec<T::Id>,
    finished: Vec<T::Id>,
    whole_viewings: u64,
    peak_slots: usize,
}

impl<T: Population + ?Sized> Target for Watched<'_, T>
where
    T::Id: PartialEq + std::fmt::Debug,
{
    type Movie = T::Movie;
    type Id = T::Id;
    type Counters = T::Counters;

    fn open(&mut self, movie: T::Movie) -> Option<T::Id> {
        let id = self.inner.open(movie)?;
        self.opened += 1;
        assert!(
            !self.finished.contains(&id),
            "{}: {id:?} handed out again after its session finished",
            self.what
        );
        self.live.push(id);
        Some(id)
    }

    fn status(&mut self, id: T::Id) -> SessionStatus {
        self.inner.status(id)
    }

    fn vcr(&mut self, id: T::Id, kind: VcrKind, magnitude: u32) {
        self.interrupted.push(id);
        self.inner.vcr(id, kind, magnitude);
    }

    fn tick(&mut self) {
        self.inner.tick();
        self.ticks += 1;
        let what = &self.what;
        for (id, record) in self.inner.published() {
            assert_eq!(self.inner.status(id), SessionStatus::Done, "{what}: {id:?}");
            assert!(
                self.inner.refuses_vcr(id),
                "{what}: finished {id:?} took a request"
            );
            if !self.interrupted.contains(&id) {
                assert_eq!(
                    (record.total(), record.verify_failures),
                    (u64::from(MOVIE_LENGTH), 0),
                    "{what}: {id:?} watched straight through: {record:?}"
                );
                self.whole_viewings += 1;
            }
            let at = self.live.iter().position(|&l| l == id).unwrap();
            self.live.swap_remove(at);
            self.finished.push(id);
        }
        let (live, slots) = (self.inner.live_sessions(), self.inner.session_slots());
        assert_eq!(
            self.opened,
            live as u64 + self.finished.len() as u64,
            "{what}: t={}: admitted != live + finished",
            self.ticks
        );
        assert!(
            slots <= 2 * live + SESSION_CHUNK,
            "{what}: t={}: {slots} slots resident for {live} live sessions",
            self.ticks
        );
        // Memory is held only for a chunk with a live id or the one being
        // issued: a chunk whose viewers have all left is given back.
        let chunk_of = |index: u32| index as usize / SESSION_CHUNK;
        let held: BTreeSet<usize> = self
            .live
            .iter()
            .map(|&id| chunk_of(T::index(id)))
            .chain([self.opened as usize / SESSION_CHUNK])
            .collect();
        assert!(
            slots <= held.len() * SESSION_CHUNK,
            "{what}: t={}: {slots} slots resident for {live} live sessions in {} chunks",
            self.ticks,
            held.len() - 1
        );
        self.peak_slots = self.peak_slots.max(slots);
    }

    fn reset_metrics(&mut self) {
        self.inner.reset_metrics();
    }

    fn audit(&mut self, last: &mut Option<T::Counters>) -> Vec<String> {
        self.inner.audit(last)
    }
}

fn long_run<T: Population + ?Sized>(
    target: &mut T,
    workload: &Workload<T::Movie>,
    shape: &dyn ArrivalShape<T::Movie>,
    what: &str,
) where
    T::Id: PartialEq + std::fmt::Debug,
{
    let mut watched = Watched {
        inner: target,
        what: what.to_string(),
        ticks: 0,
        opened: 0,
        interrupted: Vec::new(),
        live: Vec::new(),
        finished: Vec::new(),
        whole_viewings: 0,
        peak_slots: 0,
    };
    let tally = Driver::new(workload, shape, 42).run(&mut watched);
    assert_eq!(tally.violations, Vec::<String>::new(), "{what}");
    assert_eq!(tally.opened, watched.opened);
    // Most of the ~1 400 viewers have been and gone; memory never held
    // more than the few hundred watching at once.
    let live = watched.inner.live_sessions();
    assert!(watched.finished.len() > 3 * live, "{what}: most have left");
    assert!(
        watched.peak_slots * 2 < watched.opened as usize,
        "{what}: {} slots at peak for {} admitted",
        watched.peak_slots,
        watched.opened
    );
    let fewest = fewest_whole_viewings(watched.finished.len(), workload);
    assert!(
        watched.whole_viewings >= fewest,
        "{what}: {} watched it through, {fewest} at least",
        watched.whole_viewings
    );
    // Long after: still `Done`, still nobody else's.
    for &id in watched.finished.iter().step_by(97) {
        assert_eq!(watched.inner.status(id), SessionStatus::Done, "{what}");
    }
}

/// The fewest viewings no VCR request interrupted that a correct system
/// shows but once in a thousand runs. A finished viewer went through
/// uninterrupted iff its first interaction gap (exponential, mean 30)
/// outlasted the movie's 120 minutes: probability e⁻⁴ = 0.0183 (a little
/// less for a viewer that waited for its stream). So the count is
/// Poisson with λ = finished · e⁻⁴ — ≈ 1 150 · 0.0183 ≈ 21 here — and
/// this is the largest `c` with `P(X < c) ≤ 10⁻³`: 8 at λ = 21, where
/// `P(X ≤ 7) = 3.9·10⁻⁴` and `P(X ≤ 8) = 1.1·10⁻³`.
fn fewest_whole_viewings<M>(finished: usize, workload: &Workload<M>) -> u64 {
    let through = (-f64::from(MOVIE_LENGTH) / workload.behavior.mean_play_between()).exp();
    let lambda = finished as f64 * through;
    let (mut c, mut pmf, mut below) = (0, (-lambda).exp(), 0.0);
    while below + pmf <= 1e-3 {
        below += pmf;
        c += 1;
        pmf *= lambda / c as f64;
    }
    c
}

#[test]
fn every_backend_holds_memory_for_the_live_sessions_only() {
    let workload = workload(vec![MovieId(0), MovieId(1)]);
    for kind in BackendKind::ALL {
        let mut backend = make_backend(kind, &server());
        long_run(backend.as_mut(), &workload, &RoundRobin, &kind.to_string());
    }
}

#[test]
fn the_front_tier_holds_rows_for_the_sessions_in_flight_only() {
    // Movie `m` lives on shard `m`; the two shards run different schemes.
    let shards = [
        BackendKind::BatchingBuffering,
        BackendKind::PyramidBroadcast,
    ];
    let config = FederationConfig {
        shards: shards
            .map(|backend| ShardSpec {
                backend,
                server: server(),
            })
            .to_vec(),
        placement: vec![vec![(0, MovieId(0))], vec![(1, MovieId(1))]],
        policy: DegradePolicy::default(),
    };
    let mut fed = Federation::new(config, FaultPlan::empty());
    let workload = workload(vec![0, 1]);
    long_run(
        &mut fed,
        &workload,
        &WorkloadShape::RoundRobin,
        "federation",
    );
    // The shards behind it gave their slots back too.
    assert_eq!(fed.check_invariants(), Vec::<String>::new());
}
