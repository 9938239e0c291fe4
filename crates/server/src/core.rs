//! The resource / fault / degrade core the three delivery schemes share.
//!
//! The paper's rule — pre-allocate the streams and buffer normal playback
//! needs, keep a separate reserve for VCR service — does not depend on how
//! the pre-allocated part is delivered. [`ServerCore`] is that rule as one
//! struct: the clock, the disk, the dedicated-stream reserve, the
//! counters, the injected fault schedule and the degraded population.
//! Each backend owns one and adds only its scheme: what it pre-allocates,
//! what "position is covered" means, what a tick broadcasts, and where a
//! timed-out session goes. What the schemes do differently under a fault
//! is the [`FaultPolicy`] they implement, not a second copy of the loop.

use std::collections::BTreeMap;

use vod_runtime::{
    DegradePolicy, FaultKind, FaultPlan, RetryLedger, RetryStep, RuntimeMetrics, StreamReserve,
};
use vod_workload::{TimeWeighted, Welford};

use crate::backend::DeliveryBackend;
use crate::content::{verify_segment, MovieId};
use crate::disk::{DiskSubsystem, StreamLease};
use crate::metrics::ServerMetrics;
use crate::server::{ServerConfig, ServerError};
use crate::session::{DeliveryStats, SessionId};

/// State and accounting common to every [`DeliveryBackend`]; see the
/// module docs. Backends hand it out through
/// [`DeliveryBackend::core`], which is what lets the trait answer the
/// scheme-independent questions (clock, counters, fault arming) itself.
pub struct ServerCore {
    /// Current virtual time in minutes.
    pub(crate) now: u64,
    pub(crate) config: ServerConfig,
    pub(crate) disk: DiskSubsystem,
    /// Dedicated-stream accountant: the disk streams left over once the
    /// scheme's pre-allocation is set aside, so VCR service can never eat
    /// into the headroom normal playback needs (the paper's separation of
    /// pre-allocated playback resources from the VCR reserve).
    pub(crate) reserve: StreamReserve,
    pub(crate) metrics: ServerMetrics,
    movie_index: BTreeMap<MovieId, usize>,
    /// Startup waits (minutes from open to scheduled playback start).
    /// Outside [`RuntimeMetrics`] because that schema's JSON key order is
    /// pinned.
    pub(crate) startup_waits: Welford,
    /// Injected fault schedule; empty unless `inject_faults` armed one.
    plan: FaultPlan,
    /// True once a non-empty plan is injected; gates every fault-only
    /// path, so a fault-free run stays bitwise identical to a never-armed
    /// one and still fails loudly on impossible states.
    pub(crate) fault_mode: bool,
    pub(crate) policy: DegradePolicy,
    /// Disk slowdown `(period, until)`: leases serve only on ticks
    /// divisible by `period`, through tick `until` exclusive — so a
    /// window whose `until` has passed (as the initial one has) is none.
    slowdown: (u32, u64),
    /// Outage recoveries scheduled by tick: streams to return to service.
    recovery_due: BTreeMap<u64, u32>,
    /// Tick of the most recent recovery that returned streams; a retry
    /// timeout expiring on this exact tick may get one last attempt (see
    /// [`DegradePolicy::recovery_wins`]).
    recovered_at: Option<u64>,
    /// Sessions currently in the degraded re-wait state.
    pub(crate) degraded_count: u32,
    /// Sessions retired so far (finished or closed) and the `(buffer,
    /// disk)` deliveries on their final records. A retired session leaves
    /// nothing else behind, so this is what keeps the books closed: with
    /// the live sessions' records it adds up to every delivery the
    /// counters ever saw.
    retired: u64,
    retired_delivered: (u64, u64),
    /// Deliveries `(buffer, disk)` the runtime counters had seen when
    /// `reset_metrics` last zeroed them.
    delivered_before_reset: (u64, u64),
    /// Final records of the sessions retired since the current tick
    /// began; see [`DeliveryBackend::finished_this_tick`].
    finished: Vec<(SessionId, DeliveryStats)>,
}

/// What one retry-ledger tick of a degraded session came to.
pub(crate) enum Retry {
    /// Nothing changed for the session (an attempt may have been refused).
    Wait,
    /// A dedicated stream was granted; the session has left the degraded
    /// census and its refusals resolved transient.
    Granted(StreamLease),
    /// The retry sequence timed out this tick and its refusals resolved
    /// permanent. The ledger attempts nothing more; where the session
    /// goes from here is the scheme's call.
    TimedOut,
}

/// Where a backend's audit recount disagrees with the core's books; every
/// `None` is a conserved quantity.
pub(crate) struct ResourceDrift {
    /// [`DiskSubsystem::conservation_violation`].
    pub disk: Option<String>,
    /// The disk's in-use count, when the leases held (pre-allocated plus
    /// session-held) do not add up to it.
    pub leases: Option<u32>,
    /// The reserve's in-use count, when the session-held leases differ.
    pub reserve: Option<u32>,
    /// The tracked degraded population, when the recount differs.
    pub population: Option<u32>,
}

impl ServerCore {
    /// Core over `config`'s catalog and stream pool, with `preallocated`
    /// of the streams set aside for the scheme's normal playback and the
    /// rest forming the dedicated reserve.
    pub(crate) fn new(config: ServerConfig, preallocated: u32) -> Self {
        let mut disk = DiskSubsystem::new(config.disk_streams);
        let mut movie_index = BTreeMap::new();
        for (i, m) in config.movies.iter().enumerate() {
            disk.register_movie(m.movie, m.geometry.length);
            movie_index.insert(m.movie, i);
        }
        let reserve =
            StreamReserve::with_capacity(config.disk_streams.saturating_sub(preallocated));
        Self {
            now: 0,
            config,
            disk,
            reserve,
            metrics: ServerMetrics::new(),
            movie_index,
            startup_waits: Welford::default(),
            plan: FaultPlan::empty(),
            fault_mode: false,
            policy: DegradePolicy::default(),
            slowdown: (1, 0),
            recovery_due: BTreeMap::new(),
            recovered_at: None,
            degraded_count: 0,
            retired: 0,
            retired_delivered: (0, 0),
            delivered_before_reset: (0, 0),
            finished: Vec::new(),
        }
    }

    /// A tick begins: the finishes published during the last one have
    /// had their one tick of visibility.
    pub(crate) fn begin_tick(&mut self) {
        self.finished.clear();
    }

    /// Close the books on a session its backend just took out of the
    /// store — the one place a retirement is counted and the one place a
    /// finished viewer's record is published.
    pub(crate) fn retire(&mut self, id: SessionId, stats: DeliveryStats) {
        self.retired += 1;
        self.retired_delivered.0 += stats.from_buffer;
        self.retired_delivered.1 += stats.from_disk;
        self.finished.push((id, stats));
    }

    /// [`DeliveryBackend::finished_this_tick`].
    pub(crate) fn finished_this_tick(&self) -> &[(SessionId, DeliveryStats)] {
        &self.finished
    }

    /// Index of a hosted movie in `config.movies`.
    pub(crate) fn movie_idx(&self, movie: MovieId) -> Result<usize, ServerError> {
        self.movie_index
            .get(&movie)
            .copied()
            .ok_or(ServerError::UnknownMovie(movie))
    }

    /// Take one dedicated stream — reserve and disk in lockstep — counting
    /// the attempt. `None`: the reserve (or, never in a provisioned
    /// server, the disk itself) is exhausted.
    pub(crate) fn try_lease(&mut self) -> Option<StreamLease> {
        self.metrics.runtime.acquisition_attempts += 1;
        let now = self.now as f64;
        if !self.reserve.try_acquire(now) {
            return None;
        }
        match self.disk.acquire() {
            Ok(lease) => Some(lease),
            Err(_) => {
                self.reserve.release(now);
                None
            }
        }
    }

    /// Hand a dedicated stream back to disk and reserve.
    pub(crate) fn release_lease(&mut self, lease: StreamLease) {
        self.disk.release(lease);
        self.reserve.release(self.now as f64);
    }

    /// Is disk service stalled this tick by an active slowdown fault? No
    /// lease reads on such a tick, pre-allocated or dedicated.
    pub(crate) fn disk_stalled(&self) -> bool {
        let (period, until) = self.slowdown;
        self.now < until && !self.now.is_multiple_of(u64::from(period))
    }

    /// A session enters the degraded population with `pending` refusals
    /// already awaiting classification; returns its fresh ledger.
    pub(crate) fn enter_degraded(&mut self, pending: u64) -> RetryLedger {
        self.degraded_count += 1;
        self.metrics.runtime.degraded_entries += 1;
        RetryLedger::enter(self.now, &self.policy, pending)
    }

    /// A session leaves the degraded population and its ledger resolves:
    /// the refusals still pending are classified `transient` (an attempt
    /// was finally granted) or permanent (free rejoin, timeout, close).
    pub(crate) fn exit_degraded(&mut self, ledger: &mut RetryLedger, transient: bool) {
        debug_assert!(
            self.degraded_count > 0,
            "degraded session outside the census"
        );
        self.degraded_count -= 1;
        self.reserve.record_denials(ledger.resolve(), transient);
    }

    /// A resuming session needs a dedicated stream now: the lease, or —
    /// refused — the ledger it enters with that refusal pending.
    pub(crate) fn lease_or_degrade(&mut self) -> Result<StreamLease, RetryLedger> {
        self.try_lease().ok_or_else(|| {
            self.metrics.runtime.resume_starved += 1;
            self.enter_degraded(1)
        })
    }

    /// One retry-ledger tick of a degraded session the scheme could not
    /// rejoin for free: the due-check, the timeout (and the
    /// `recovery_wins` last chance), the attempt, and the resolution-time
    /// classification of the sequence's refusals — transient when an
    /// attempt is granted, permanent when it times out.
    pub(crate) fn retry_degraded(&mut self, ledger: &mut RetryLedger) -> Retry {
        match ledger.step(self.now, &self.policy, self.recovered_at) {
            RetryStep::Wait => return Retry::Wait,
            RetryStep::TimedOut => {}
            RetryStep::Attempt { last_chance } => {
                if let Some(lease) = self.try_lease() {
                    self.exit_degraded(ledger, true);
                    self.metrics.runtime.degraded_dedicated += 1;
                    return Retry::Granted(lease);
                }
                ledger.refuse(self.now, &self.policy);
                if !last_chance {
                    return Retry::Wait;
                }
            }
        }
        self.reserve.record_denials(ledger.time_out(), false);
        Retry::TimedOut
    }

    /// Read segment `position` of `movie` through a session's own lease
    /// and account the delivery. The caller moves the playhead.
    pub(crate) fn read_via_lease(
        &mut self,
        lease: Option<&StreamLease>,
        movie: MovieId,
        position: u32,
        stats: &mut DeliveryStats,
    ) {
        // vod-lint: allow(no-panic) — the states that read through a lease
        // hold one by construction (a fault that revokes it degrades the
        // session first); losing it silently is a backend bug.
        let lease = lease.expect("reading session holds a lease");
        // A refused read (never on a held lease and an in-range position)
        // counts as a failed delivery, which every gate requires to be 0.
        let verified = self
            .disk
            .read(lease, movie, position)
            .is_ok_and(|seg| verify_segment(&seg));
        stats.from_disk += 1;
        if !verified {
            stats.verify_failures += 1;
            self.metrics.verify_failures += 1;
        }
        self.metrics.runtime.disk_minutes += 1.0;
    }

    /// The resource clauses of `check_invariants`, against a backend's
    /// from-scratch recount: `preallocated` leases held by the scheme's
    /// own streams or channels, `sessions` held by sessions, `degraded`
    /// sessions in the re-wait state.
    pub(crate) fn resource_drift(
        &self,
        preallocated: u32,
        sessions: u32,
        degraded: u32,
    ) -> ResourceDrift {
        let disagrees = |counted: u32, booked: u32| (counted != booked).then_some(booked);
        ResourceDrift {
            disk: self.disk.conservation_violation(),
            leases: disagrees(preallocated + sessions, self.disk.in_use()),
            reserve: disagrees(sessions, self.reserve.in_use()),
            population: disagrees(degraded, self.degraded_count),
        }
    }

    /// The population clauses of `check_invariants`, against a backend's
    /// walk over its live sessions: every session the store ever `issued`
    /// is one of the `live` ones or was retired through [`Self::retire`],
    /// and the `(buffer, disk)` deliveries `on_record` for the live ones
    /// plus the retired totals are the deliveries the counters saw. With
    /// no slot kept per finished session, this is what "no session was
    /// lost" means.
    pub(crate) fn population_drift(
        &self,
        issued: u64,
        live: u64,
        on_record: (u64, u64),
    ) -> Vec<String> {
        let mut found = Vec::new();
        if issued != live + self.retired {
            found.push(format!(
                "session population drift: {issued} admitted != {live} live + {} retired",
                self.retired
            ));
        }
        let rt = &self.metrics.runtime;
        let recorded = (
            on_record.0 + self.retired_delivered.0,
            on_record.1 + self.retired_delivered.1,
        );
        // Whole numbers far below 2⁵³: the counters convert exactly.
        let delivered = (
            self.delivered_before_reset.0 + rt.buffer_minutes as u64,
            self.delivered_before_reset.1 + rt.disk_minutes as u64,
        );
        if recorded != delivered {
            found.push(format!(
                "delivery record drift: sessions show {} buffer + {} disk segments (live and \
                 retired), the counters {} + {}",
                recorded.0, recorded.1, delivered.0, delivered.1
            ));
        }
        found
    }

    /// [`DeliveryBackend::reset_metrics`].
    pub(crate) fn reset_metrics(&mut self) {
        let now = self.now as f64;
        let rt = &self.metrics.runtime;
        self.delivered_before_reset.0 += rt.buffer_minutes as u64;
        self.delivered_before_reset.1 += rt.disk_minutes as u64;
        let playing = self.metrics.playback.current();
        self.metrics = ServerMetrics::new();
        self.metrics.playback = TimeWeighted::new(now, playing);
        self.reserve.rebaseline(now);
        self.startup_waits = Welford::default();
    }

    /// [`DeliveryBackend::runtime_metrics`].
    pub(crate) fn runtime_metrics(&self) -> RuntimeMetrics {
        let mut rt = self.metrics.runtime.clone();
        rt.dedicated_avg = self.reserve.average(self.now as f64);
        rt.dedicated_peak = self.reserve.peak();
        rt.denied_transient = self.reserve.denied_transient();
        rt.denied_permanent = self.reserve.denied_permanent();
        rt
    }

    /// [`DeliveryBackend::inject_faults`].
    pub(crate) fn inject_faults(&mut self, plan: FaultPlan, policy: DegradePolicy) {
        self.fault_mode = !plan.is_empty();
        self.plan = plan;
        self.policy = policy;
    }
}

/// What a delivery scheme does when a fault reaches it — the only part of
/// fault handling that differs between the backends.
pub(crate) trait FaultPolicy: DeliveryBackend {
    /// When the reserve writes off a disk failure. `true`: at once,
    /// before the revoked holders hand their slots back — the reserve
    /// only fails free slots, so the dedicated share absorbs what it can
    /// and the scheme's pre-allocation the rest (batching: VCR service
    /// shrinks before scheduled playback does). `false`: after they have
    /// released, and only the streams that were the reserve's to lose —
    /// so the reserve's failure ledger tracks the disk's exactly
    /// (dedicated) or trails it by the pre-allocated channels lost
    /// (pyramid).
    const RESERVE_FAILS_FIRST: bool;

    /// The leases in `revoked` (ids, strictly descending, never empty)
    /// died with their streams. Drop every one the scheme or a session
    /// holds: a session returns its reserve slot and degrades; a
    /// pre-allocated stream or channel goes dark. Returns how many
    /// pre-allocated leases were lost — streams that were never the
    /// reserve's to write off.
    fn leases_revoked(&mut self, revoked: &[u64]) -> u32;

    /// A buffer fault changed the budget by `segments` (`grow`: restored,
    /// else shrunk). `false`: the scheme keeps no server-side buffer and
    /// the event is skipped uncounted, the way `vod-sim` skips
    /// tick-grid-only kinds.
    fn buffer_resized(&mut self, grow: bool, segments: usize) -> bool;
}

/// Apply the recoveries and fault events scheduled at the current tick.
/// Recoveries land first, so an outage ending exactly when a new fault
/// strikes frees capacity before the new fault consumes it.
pub(crate) fn apply_faults<B: FaultPolicy>(backend: &mut B) {
    let core = backend.core_mut();
    if !core.fault_mode {
        return;
    }
    let now = core.now;
    if let Some(streams) = core.recovery_due.remove(&now) {
        let recovered = core.disk.recover_streams(streams);
        core.reserve.recover_streams(recovered);
        if recovered > 0 {
            core.recovered_at = Some(now);
        }
    }
    let events: Vec<FaultKind> = core.plan.events_at(now).iter().map(|e| e.kind).collect();
    for kind in events {
        let core = backend.core_mut();
        let counted = match kind {
            FaultKind::DiskStreamLoss { count } | FaultKind::DiskOutage { count, .. } => {
                let before = core.disk.failed();
                let revoked = core.disk.fail_streams(count);
                // `fail_streams` only ever grows the failed count; the
                // saturating difference keeps a recovery interleaved here
                // some day from wrapping it.
                let applied = core.disk.failed().saturating_sub(before);
                if let FaultKind::DiskOutage { recover_after, .. } = kind {
                    // A recovery filed under this very tick would never
                    // fire: the earliest one lands next tick.
                    *core
                        .recovery_due
                        .entry(now + recover_after.max(1))
                        .or_insert(0) += applied;
                }
                core.metrics.leases_revoked += revoked.len() as u64;
                if B::RESERVE_FAILS_FIRST {
                    core.reserve.fail_streams(applied);
                }
                let preallocated = if revoked.is_empty() {
                    0
                } else {
                    backend.leases_revoked(&revoked)
                };
                if !B::RESERVE_FAILS_FIRST {
                    let core = backend.core_mut();
                    core.reserve
                        .fail_streams(applied.saturating_sub(preallocated));
                }
                true
            }
            FaultKind::DiskSlowdown { period, duration } => {
                // `period ≤ 1` serves every tick: a no-op, which leaves a
                // slowdown already running in force.
                if period > 1 {
                    core.slowdown = (period, now + duration);
                }
                true
            }
            FaultKind::BufferShrink { segments } => {
                backend.buffer_resized(false, segments as usize)
            }
            FaultKind::BufferRestore { segments } => {
                backend.buffer_resized(true, segments as usize)
            }
            // Whole-shard events are interpreted by the federation front
            // tier, never by a shard itself: below it they are inert and
            // uncounted.
            FaultKind::ShardOutage { .. } | FaultKind::ShardRecovery { .. } => false,
        };
        if counted {
            backend.core_mut().metrics.runtime.faults_injected += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use vod_runtime::{BackendKind, FaultEvent};
    use vod_workload::VcrKind;

    use super::*;
    use crate::backend::make_backend;
    use crate::server::HostedMovie;
    use crate::{DedicatedServer, PyramidServer, VodServer};

    fn config() -> ServerConfig {
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
        ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 3)
        }
    }

    const KINDS: [BackendKind; 3] = [
        BackendKind::BatchingBuffering,
        BackendKind::PyramidBroadcast,
        BackendKind::DedicatedStream,
    ];

    /// An outage that recovers "after 0 ticks" — `FaultPlan::from_json`
    /// accepts it — recovers on the next tick, on every backend. Filed
    /// under the fault's own tick it would never fire (pyramid and
    /// dedicated did that) and the streams stayed failed for good.
    #[test]
    fn outage_with_zero_recovery_delay_recovers_next_tick() {
        let plan =
            FaultPlan::from_json(r#"[{"at":3,"kind":"disk_outage","count":2,"recover_after":0}]"#)
                .unwrap();
        for kind in KINDS {
            let mut backend = make_backend(kind, &config());
            backend.inject_faults(plan.clone(), DegradePolicy::default());
            for _ in 0..4 {
                backend.open_session(MovieId(0)).unwrap();
            }
            for _ in 0..4 {
                backend.tick();
            }
            assert_eq!(
                backend.core().disk.failed(),
                2,
                "{kind:?}: the outage is on"
            );
            backend.tick();
            assert_eq!(backend.core().disk.failed(), 0, "{kind:?}: one tick later");
            assert_eq!(backend.check_invariants(), Vec::<String>::new(), "{kind:?}");
        }
    }

    /// Exhaust the reserve, lose more streams than the free pool holds
    /// (so live leases are revoked), ride out an outage and its recovery:
    /// on every tick the leases the backend's own recount finds are the
    /// leases the disk and the reserve have booked. Asked of the shared
    /// audit function itself — the fail-before-release class (PR 8) at
    /// the one site it can still occur.
    fn lease_cycle<B: FaultPolicy>(mut backend: B, holders: fn(&B) -> (u32, u32, u32)) {
        let kind = backend.kind();
        let ids: Vec<_> = (0..40)
            .map(|_| backend.open_session(MovieId(0)).unwrap())
            .collect();
        backend.tick();
        backend.tick();
        for &id in &ids {
            // Whoever may sweep takes a dedicated stream while one is left.
            let _ = backend.request_vcr(id, VcrKind::FastForward, 60);
        }
        let core = backend.core();
        assert_eq!(core.reserve.free(), Some(0), "{kind:?}: reserve exhausted");
        let (now, free) = (core.now, core.disk.available());
        let loss = FaultKind::DiskStreamLoss { count: free + 2 };
        let outage = FaultKind::DiskOutage {
            count: 3,
            recover_after: 12,
        };
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: now + 1,
                kind: loss,
            },
            FaultEvent {
                at: now + 6,
                kind: outage,
            },
        ]);
        backend.inject_faults(plan, DegradePolicy::default());
        for _ in 0..60 {
            backend.tick();
            let (preallocated, sessions, degraded) = holders(&backend);
            let drift = backend
                .core()
                .resource_drift(preallocated, sessions, degraded);
            assert_eq!(drift.disk, None, "{kind:?}");
            assert_eq!(drift.leases, None, "{kind:?}: held != disk.in_use()");
            assert_eq!(drift.reserve, None, "{kind:?}: held != reserve.in_use()");
            assert_eq!(drift.population, None, "{kind:?}");
            assert_eq!(backend.check_invariants(), Vec::<String>::new(), "{kind:?}");
        }
        let core = backend.core();
        assert!(
            core.metrics.leases_revoked >= 2,
            "{kind:?}: live leases revoked"
        );
        assert!(core.metrics.runtime.degraded_entries >= 1, "{kind:?}");
        assert_eq!(
            core.disk.failed(),
            free + 2,
            "{kind:?}: the outage recovered"
        );
    }

    #[test]
    fn held_leases_match_disk_and_reserve_through_revocation_and_recovery() {
        lease_cycle(VodServer::new(config()), VodServer::holders);
        lease_cycle(PyramidServer::new(config()), PyramidServer::holders);
        lease_cycle(DedicatedServer::new(config()), DedicatedServer::holders);
    }
}
