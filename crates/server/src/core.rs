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
//!
//! The viewer life-cycle is shared the same way (see [`crate::session`]
//! for the record and the states): the steps that do not depend on the
//! scheme — the adoption refusals, the tail of a VCR request, the
//! position-only sweep, the resume onto a stream of one's own, the finish,
//! the revoked-lease walk and the per-session half of the audit — are
//! [`ServerCore`] methods over any scheme's [`Session`].

use std::collections::BTreeMap;

use vod_runtime::{
    DegradePolicy, FaultKind, FaultPlan, RetryLedger, RetryStep, RuntimeMetrics, StreamReserve,
};
use vod_workload::{VcrKind, Welford};

use crate::backend::DeliveryBackend;
use crate::content::{verify_segment, MovieId};
use crate::disk::{DiskSubsystem, StreamLease};
use crate::metrics::ServerMetrics;
use crate::server::{ServerConfig, ServerError, VCR_RATE};
use crate::session::{DeliveryStats, Session, SessionId, SessionState, Sessions};

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

/// What one tick of a position-only sweep came to
/// ([`ServerCore::sweep_position`]).
pub(crate) enum Swept {
    /// Still sweeping.
    Going,
    /// The sweep is over short of the end: the viewer resumes here.
    Landed(VcrKind),
    /// Fast-forwarded off the end of the movie: the viewing is over.
    OffTheEnd,
}

/// The per-session half of every backend's audit: a from-scratch recount
/// over the live sessions, which [`ServerCore::audit`] holds against the
/// books. Counters only — what is wrong with a session by itself goes to
/// a list of its own, so these stay in registers over the walk.
#[derive(Default, Clone, Copy)]
pub(crate) struct Recount {
    /// Sessions holding a dedicated lease.
    pub held: u32,
    /// Sessions in the degraded re-wait state.
    pub degraded: u32,
    pub live: u64,
    /// `(buffer, disk)` deliveries on the live sessions' records.
    pub delivered: (u64, u64),
}

impl Recount {
    /// Count live session `idx`, and file under `faults` a lease that
    /// contradicts its state: one is held exactly in the serving states —
    /// always `Dedicated`, and a sweep unless the scheme has `free_sweeps`
    /// (inside what the viewer has already received).
    #[inline]
    pub(crate) fn see<E, X>(
        &mut self,
        idx: u32,
        sess: &Session<E, X>,
        free_sweeps: bool,
        faults: &mut Vec<String>,
    ) {
        self.live += 1;
        self.delivered.0 += sess.stats.from_buffer;
        self.delivered.1 += sess.stats.from_disk;
        if sess.lease.is_some() {
            self.held += 1;
            if !matches!(
                sess.state,
                SessionState::Dedicated | SessionState::Vcr { .. }
            ) {
                found(faults, idx, "holds a lease in a non-serving state");
            }
        } else if matches!(sess.state, SessionState::Dedicated)
            || (!free_sweeps && matches!(sess.state, SessionState::Vcr { .. }))
        {
            found(faults, idx, "is serving without a lease");
        }
        if matches!(sess.state, SessionState::Degraded(_)) {
            self.degraded += 1;
        }
    }
}

/// The active-walk clause of the schemes that keep one (pyramid,
/// dedicated): every live session past `Waiting` is on the walk exactly
/// once, and a `Waiting` one is not on it. `walked` is how often the walk
/// names session `idx` (its [`IdTally`](vod_runtime::IdTally) count).
#[inline]
pub(crate) fn audit_walk<E, X>(
    faults: &mut Vec<String>,
    idx: u32,
    sess: &Session<E, X>,
    walked: u32,
) {
    let waiting = matches!(sess.state, SessionState::Waiting { .. });
    match walked {
        1 if !waiting => {}
        0 if waiting => {}
        0 => found(faults, idx, "is missing from the active walk"),
        _ if waiting => found(faults, idx, "is waiting on the active walk"),
        n => faults.push(format!("session {idx} is on the active walk {n} times")),
    }
}

/// Out of line: the walk that calls it runs once per live session per tick
/// and never comes here on a healthy server.
#[cold]
#[inline(never)]
fn found(faults: &mut Vec<String>, idx: u32, fault: &str) {
    faults.push(format!("session {idx} {fault}"));
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

    /// True once a non-empty plan is injected; gates every fault-only
    /// path, so a fault-free run stays bitwise identical to a never-armed
    /// one and still fails loudly on impossible states.
    pub(crate) fn fault_mode(&self) -> bool {
        !self.plan.is_empty()
    }

    /// A tick begins: the finishes published during the last one have
    /// had their one tick of visibility.
    pub(crate) fn begin_tick(&mut self) {
        self.finished.clear();
    }

    /// Session `idx`'s viewing is over — the end of the movie, or a
    /// fast-forward off it: the one function that retires a finished
    /// session.
    pub(crate) fn finish<E, X>(&mut self, sessions: &mut Sessions<E, X>, idx: u32) {
        self.retire(sessions, idx);
        self.metrics.sessions_done += 1;
    }

    /// The one way a session leaves a server, finished or closed: its slot
    /// given up, its lease handed back, its final record booked — the one
    /// place a retirement is counted — and published. Returns that record.
    pub(crate) fn retire<E, X>(
        &mut self,
        sessions: &mut Sessions<E, X>,
        idx: u32,
    ) -> DeliveryStats {
        let Some(mut sess) = sessions.retire(idx) else {
            unreachable!("only a live session is retired")
        };
        if let Some(lease) = sess.lease.take() {
            self.release_lease(lease);
        }
        self.retired += 1;
        self.retired_delivered.0 += sess.stats.from_buffer;
        self.retired_delivered.1 += sess.stats.from_disk;
        self.finished.push((SessionId(idx), sess.stats));
        sess.stats
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
    /// the attempt. `None`: the reserve or the disk is exhausted. The disk
    /// is asked first, so the reserve is charged only for a stream that is
    /// granted: a charge rolled back at the same instant would still have
    /// raised `dedicated_peak`.
    pub(crate) fn try_lease(&mut self) -> Option<StreamLease> {
        self.metrics.runtime.acquisition_attempts += 1;
        if self.disk.available() == 0 || !self.reserve.try_acquire(self.now as f64) {
            return None;
        }
        self.disk.acquire()
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
        RetryLedger::enter(self.now, pending)
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

    /// `sess` resumes where nothing shared covers its position, holding no
    /// stream: onto a dedicated stream of its own or — refused — into the
    /// degraded re-wait, that refusal pending.
    pub(crate) fn resume_on_own_stream<E, X>(&mut self, sess: &mut Session<E, X>) {
        sess.lease = self.try_lease();
        sess.state = if sess.lease.is_some() {
            SessionState::Dedicated
        } else {
            self.metrics.runtime.resume_starved += 1;
            SessionState::Degraded(self.enter_degraded(1))
        };
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
                ledger.refuse(self.now);
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
            .is_some_and(|seg| verify_segment(&seg));
        stats.from_disk += 1;
        if !verified {
            stats.verify_failures += 1;
            self.metrics.verify_failures += 1;
        }
        self.metrics.runtime.disk_minutes += 1.0;
    }

    /// The refusals every scheme's `adopt_session` opens with — a movie
    /// not hosted, a position past its end, no session id left — or the
    /// movie's index.
    pub(crate) fn adoptable<E, X>(
        &self,
        sessions: &Sessions<E, X>,
        movie: MovieId,
        position: u32,
    ) -> Result<usize, ServerError> {
        let movie_idx = self.movie_idx(movie)?;
        if position >= self.config.movies[movie_idx].geometry.length {
            return Err(ServerError::InvalidState { operation: "adopt" });
        }
        if sessions.is_full() {
            return Err(ServerError::SessionIdsExhausted);
        }
        Ok(movie_idx)
    }

    /// No stream for a VCR request or an adoption. Whoever asked never
    /// retries it here — a viewer stays where it plays; a displaced
    /// session's retry resolves in the front tier's ledger, maybe on
    /// another shard — so locally the refusal is permanent.
    pub(crate) fn deny_vcr(&mut self) -> ServerError {
        self.metrics.runtime.vcr_denied += 1;
        self.reserve.record_denials(1, false);
        ServerError::VcrDenied
    }

    /// The tail of every scheme's `request_vcr`, once the request is
    /// accepted and `sess` holds whatever stream it needs: a rewind the
    /// start of the movie cuts short is counted, a pausing viewer gives
    /// its stream back (it consumes nothing, and fights for one again at
    /// resume), and the state to enter is named — a sweep of `span`
    /// segments, or a pause that ends on tick `now + span`.
    pub(crate) fn begin_vcr<E, X>(
        &mut self,
        sess: &mut Session<E, X>,
        kind: VcrKind,
        magnitude: u32,
        span: u32,
    ) -> SessionState<E> {
        if matches!(kind, VcrKind::Rewind) && magnitude >= sess.position {
            self.metrics.runtime.rw_truncated += 1;
        }
        if !matches!(kind, VcrKind::Pause) {
            return SessionState::Vcr {
                kind,
                remaining: span,
            };
        }
        if let Some(lease) = sess.lease.take() {
            self.release_lease(lease);
        }
        SessionState::Paused {
            until: self.now + u64::from(span),
        }
    }

    /// One tick of a sweep that moves the playhead without reading what it
    /// passes (pyramid, dedicated): [`VCR_RATE`] segments, clamped to the
    /// movie, and a minute of disk service if a lease carries it. FF off
    /// the end releases the viewer — the model's P(end) path, counted as
    /// a hit for comparability.
    pub(crate) fn sweep_position<E, X>(&mut self, sess: &mut Session<E, X>, length: u32) -> Swept {
        let SessionState::Vcr { kind, remaining } = &mut sess.state else {
            unreachable!("caller checked state")
        };
        let kind = *kind;
        let step = VCR_RATE.min(*remaining);
        *remaining -= step;
        let landed = *remaining == 0;
        sess.position = match kind {
            VcrKind::FastForward => sess.position.saturating_add(step).min(length),
            VcrKind::Rewind => sess.position.saturating_sub(step),
            VcrKind::Pause => unreachable!("a pause is `Paused`, not a sweep"),
        };
        if sess.lease.is_some() {
            self.metrics.runtime.disk_minutes += 1.0;
            sess.stats.from_disk += 1;
        }
        if sess.position >= length {
            self.metrics.runtime.ff_end += 1;
            self.metrics.runtime.record_resume(kind, true);
            Swept::OffTheEnd
        } else if landed {
            Swept::Landed(kind)
        } else {
            Swept::Going
        }
    }

    /// The one walk that strips revoked session leases: every session
    /// holding a lease in `revoked` (ids, strictly descending) loses it —
    /// dead at the disk already, so only the reserve gets its slot back —
    /// and degrades; a sweep it was carrying is aborted.
    pub(crate) fn revoke_session_leases<E, X>(
        &mut self,
        sessions: &mut Sessions<E, X>,
        revoked: &[u64],
    ) {
        for (_, sess) in sessions.iter_mut() {
            if sess.lease.as_ref().is_some_and(|l| l.revoked_in(revoked)) {
                sess.lease = None;
                self.reserve.release(self.now as f64);
                if matches!(sess.state, SessionState::Vcr { .. }) {
                    self.metrics.sweeps_aborted += 1;
                }
                // Revocation, not a refused acquisition: nothing pending
                // to classify yet.
                sess.state = SessionState::Degraded(self.enter_degraded(0));
            }
        }
    }

    /// Assemble a backend's `check_invariants`: the disk's own law, the
    /// scheme's `findings` (its own clauses and what it found session by
    /// session, in its own order), then — worded once for every scheme —
    /// the `recount` against the books. With `preallocated` leases
    /// held by the scheme's own streams or channels, the leases held add
    /// up to the disk's and the session-held ones to the reserve's; the
    /// degraded census matches; every session the store ever `issued` is
    /// live or was retired through [`Self::retire`]; and the deliveries on
    /// the live records plus the retired totals are the deliveries the
    /// counters saw. With no slot kept per finished session, the last two
    /// are what "no session was lost" means.
    pub(crate) fn audit(
        &self,
        preallocated: u32,
        issued: u64,
        recount: Recount,
        mut findings: Vec<String>,
    ) -> Vec<String> {
        let Recount {
            held,
            degraded,
            live,
            delivered,
        } = recount;
        let mut found = Vec::from_iter(self.disk.conservation_violation());
        found.append(&mut findings);
        if issued != live + self.retired {
            found.push(format!(
                "session population drift: {issued} admitted != {live} live + {} retired",
                self.retired
            ));
        }
        let rt = &self.metrics.runtime;
        let recorded = (
            delivered.0 + self.retired_delivered.0,
            delivered.1 + self.retired_delivered.1,
        );
        // Whole numbers far below 2⁵³: the counters convert exactly.
        let counted = (
            self.delivered_before_reset.0 + rt.buffer_minutes as u64,
            self.delivered_before_reset.1 + rt.disk_minutes as u64,
        );
        if recorded != counted {
            found.push(format!(
                "delivery record drift: sessions show {} buffer + {} disk segments (live and \
                 retired), the counters {} + {}",
                recorded.0, recorded.1, counted.0, counted.1
            ));
        }
        let (disk, reserve) = (self.disk.in_use(), self.reserve.in_use());
        if preallocated + held != disk {
            found.push(format!(
                "lease accounting broken: {preallocated} pre-allocated + {held} session-held != \
                 disk {disk}"
            ));
        }
        if held != reserve {
            found.push(format!(
                "reserve accounting broken: sessions hold {held}, reserve says {reserve}"
            ));
        }
        if degraded != self.degraded_count {
            found.push(format!(
                "degraded population drift: counted {degraded}, tracked {}",
                self.degraded_count
            ));
        }
        found
    }

    /// [`DeliveryBackend::reset_metrics`].
    pub(crate) fn reset_metrics(&mut self) {
        let rt = &self.metrics.runtime;
        self.delivered_before_reset.0 += rt.buffer_minutes as u64;
        self.delivered_before_reset.1 += rt.disk_minutes as u64;
        self.metrics = ServerMetrics::new();
        self.reserve.rebaseline(self.now as f64);
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
    if !core.fault_mode() {
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
                        .entry(now.saturating_add(recover_after.max(1)))
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
                    core.slowdown = (period, now.saturating_add(duration));
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

    use super::*;
    use crate::backend::{make_backend, Adoption};
    use crate::server::HostedMovie;
    use crate::session::SessionStatus;
    use crate::{DedicatedServer, PyramidServer, VodServer};

    fn config() -> ServerConfig {
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
        ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 3)
        }
    }

    /// Arm every backend with `plan`, open four sessions, tick to `ticks`
    /// with a clean audit after each.
    fn ride_out(plan: &str, ticks: u64, check: impl Fn(&ServerCore, BackendKind)) {
        let plan = FaultPlan::from_json(plan).unwrap();
        for kind in BackendKind::ALL {
            let mut backend = make_backend(kind, &config());
            backend.inject_faults(plan.clone(), DegradePolicy::default());
            for _ in 0..4 {
                backend.open_session(MovieId(0)).unwrap();
            }
            for _ in 0..ticks {
                backend.tick();
                assert_eq!(backend.check_invariants(), Vec::<String>::new(), "{kind:?}");
            }
            check(backend.core(), kind);
        }
    }

    /// An outage that recovers "after 0 ticks" — `FaultPlan::from_json`
    /// accepts it — recovers on the next tick, on every backend. Filed
    /// under the fault's own tick it would never fire (pyramid and
    /// dedicated did that) and the streams stayed failed for good.
    #[test]
    fn outage_with_zero_recovery_delay_recovers_next_tick() {
        let plan = r#"[{"at":3,"kind":"disk_outage","count":2,"recover_after":0}]"#;
        ride_out(plan, 4, |core, kind| {
            assert_eq!(core.disk.failed(), 2, "{kind:?}: the outage is on");
        });
        ride_out(plan, 5, |core, kind| {
            assert_eq!(core.disk.failed(), 0, "{kind:?}: one tick later");
        });
    }

    /// `from_json` takes any `u64`: an outage that recovers after
    /// `u64::MAX` ticks never recovers. An unchecked `now + recover_after`
    /// panics in a debug build and files the recovery in the past in release.
    #[test]
    fn outage_with_the_longest_recovery_delay_stays_failed() {
        let plan =
            r#"[{"at":3,"kind":"disk_outage","count":2,"recover_after":18446744073709551615}]"#;
        ride_out(plan, 12, |core, kind| {
            assert_eq!(core.disk.failed(), 2, "{kind:?}");
            assert!(core.recovery_due.contains_key(&u64::MAX), "{kind:?}");
        });
    }

    /// The same for a slowdown of `u64::MAX` ticks: it stays in force
    /// (a wrapped `until` lies in the past and ends it the tick it begins).
    #[test]
    fn slowdown_with_the_longest_duration_stays_in_force() {
        let plan =
            r#"[{"at":3,"kind":"disk_slowdown","period":3,"duration":18446744073709551615}]"#;
        ride_out(plan, 13, |core, kind| {
            assert_eq!((core.now, core.slowdown), (13, (3, u64::MAX)), "{kind:?}");
            assert!(core.disk_stalled(), "{kind:?}: 13 is not a multiple of 3");
        });
    }

    /// The disk runs out of streams while the reserve still has room: a
    /// 9-stream outage and a 1-stream loss leave the reserve's failure
    /// ledger one stream behind the disk's. The request the disk refuses
    /// must not be charged to the reserve, not even for the instant before
    /// a rollback — `dedicated_peak` counts only streams some session held.
    #[test]
    fn a_disk_refusal_leaves_the_reserve_peak_alone() {
        let movie = HostedMovie::from_allocation(MovieId(0), 30, 3, 15.0);
        let cfg = ServerConfig {
            disk_streams: 10,
            ..ServerConfig::provisioned(vec![movie], 0)
        };
        let mut s = PyramidServer::new(cfg);
        let outage = FaultKind::DiskOutage {
            count: 9,
            recover_after: 50,
        };
        let loss = FaultKind::DiskStreamLoss { count: 1 };
        let faults = [(1, outage), (2, loss)].map(|(at, kind)| FaultEvent { at, kind });
        s.inject_faults(FaultPlan::new(faults.to_vec()), DegradePolicy::default());
        for _ in 0..52 {
            s.tick();
        }
        let ids: Vec<_> = (0..8)
            .map(|_| s.open_session(MovieId(0)).unwrap())
            .collect();
        for _ in 0..6 {
            s.tick();
        }
        let granted = ids
            .iter()
            .filter(|&&id| s.request_vcr(id, VcrKind::FastForward, 25).is_ok())
            .count();
        assert_eq!(granted, 6, "the disk has six free streams");
        assert_eq!(s.runtime_metrics().dedicated_peak, 6.0);
    }

    /// Exhaust the reserve, lose more streams than the free pool holds
    /// (so live leases are revoked), ride out an outage and its recovery:
    /// on every tick the leases the backend's own recount finds are the
    /// leases the disk and the reserve have booked — the shared tail of
    /// every audit, the fail-before-release class at the one site
    /// it can still occur.
    fn lease_cycle<B: FaultPolicy>(mut backend: B) {
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
        lease_cycle(VodServer::new(config()));
        lease_cycle(PyramidServer::new(config()));
        lease_cycle(DedicatedServer::new(config()));
        // A lease revoked out from under an FF sweep: the one shared walk
        // counts the aborted sweep once, whatever the scheme (dedicated's
        // own copy of the walk never did), degrades the holder the same
        // tick and gives the reserve its slot back.
        for kind in BackendKind::ALL {
            let mut walk = sweeper(kind);
            let lost = Do::Lose {
                recover_after: None,
            };
            let revoked = ("revoked", lost, [SessionStatus::Degraded; 3], [false; 3]);
            walk.run(&[revoked]);
            let metrics = &walk.backend.core().metrics;
            assert_eq!(metrics.sweeps_aborted, 1, "{kind:?}");
            assert_eq!(metrics.leases_revoked, 1, "{kind:?}");
        }
    }

    /// One backend under a script: every tick is audited, and the one
    /// session the script follows holds a stream exactly when it should.
    struct Walk {
        backend: Box<dyn DeliveryBackend>,
        /// Which column of a `[batching, pyramid, dedicated]` row applies.
        column: usize,
        id: SessionId,
    }

    /// A row of a life-cycle script: what it is, the step, and after it
    /// the session's status and whether it is served through a stream of
    /// its own — on batching, pyramid, dedicated.
    type Row = (&'static str, Do, [SessionStatus; 3], [bool; 3]);

    /// [`config`]'s movie length and one-tick wait, but with restarts 60
    /// ticks apart, each dragging a 59-tick window: a sweep that starts
    /// just after a restart holds the newest lease until the next one.
    fn sparse() -> ServerConfig {
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 2, 118.0);
        ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 10)
        }
    }

    /// A session sweeping on a stream of its own, so far ahead that
    /// nothing lets it straight back in if it loses it: admitted 4 ticks
    /// into [`sparse`] (the first window takes it at once), then 24 ticks
    /// into an FF from position 2. At `t = 30` it is at position 74, ahead
    /// of every window and of its pyramid reception front, on the newest
    /// lease.
    fn sweeper(kind: BackendKind) -> Walk {
        use SessionStatus::{Dedicated, InVcr, Shared};
        let (on, off) = (true, false);
        let mut walk = Walk::new(kind, &sparse(), 4);
        #[rustfmt::skip]
        walk.run(&[
            ("admit", Do::Open, [Shared, Shared, Dedicated], [off, off, on]),
            ("playback", Do::Tick(2), [Shared, Shared, Dedicated], [off, off, on]),
            ("FF", Do::Vcr(VcrKind::FastForward, [115; 3]), [InVcr; 3], [on; 3]),
            ("sweep", Do::Tick(24), [InVcr; 3], [on; 3]),
        ]);
        walk
    }

    /// One step of a life-cycle script.
    enum Do {
        Open,
        Tick(u32),
        /// Request the operation, with the magnitude of the scheme's column.
        Vcr(VcrKind, [u32; 3]),
        /// Tick until the status is no longer the column's, at most this
        /// many times.
        Leave([SessionStatus; 3], u32),
        /// Strike now: every free stream and the newest lease with it.
        Lose {
            recover_after: Option<u64>,
        },
    }

    impl Walk {
        fn new(kind: BackendKind, config: &ServerConfig, warm_up: u32) -> Self {
            let column = BackendKind::ALL.iter().position(|&k| k == kind).unwrap();
            let backend = make_backend(kind, config);
            let mut walk = Walk {
                backend,
                column,
                id: SessionId(u32::MAX),
            };
            walk.tick(warm_up);
            walk
        }

        fn tick(&mut self, ticks: u32) {
            for _ in 0..ticks {
                self.backend.tick();
                assert_eq!(self.backend.check_invariants(), Vec::<String>::new());
            }
        }

        fn status(&self) -> SessionStatus {
            match self.backend.session_status(self.id).unwrap() {
                // When is the scheme's own business.
                SessionStatus::Waiting(_) => SessionStatus::Waiting(0),
                status => status,
            }
        }

        /// Run `script`; after each step the session is in the row's
        /// state, holds a stream iff the row says it is served through
        /// one, and the audit is clean.
        fn run(&mut self, script: &[Row]) {
            for (what, step, status, serving) in script {
                match *step {
                    Do::Open => self.id = self.backend.open_session(MovieId(0)).unwrap(),
                    Do::Tick(ticks) => self.tick(ticks),
                    Do::Vcr(kind, magnitude) => self
                        .backend
                        .request_vcr(self.id, kind, magnitude[self.column])
                        .unwrap(),
                    Do::Leave(leaves, bound) => {
                        let mut left = bound;
                        while self.status() == leaves[self.column] && left > 0 {
                            self.tick(1);
                            left -= 1;
                        }
                    }
                    Do::Lose { recover_after } => {
                        let core = self.backend.core();
                        let count = core.disk.available() + 1;
                        let kind = match recover_after {
                            Some(recover_after) => FaultKind::DiskOutage {
                                count,
                                recover_after,
                            },
                            None => FaultKind::DiskStreamLoss { count },
                        };
                        let plan = FaultPlan::new(vec![FaultEvent { at: core.now, kind }]);
                        self.backend.inject_faults(plan, DegradePolicy::default());
                        self.tick(1);
                    }
                }
                let column = BackendKind::ALL[self.column];
                assert_eq!(self.status(), status[self.column], "{column:?}: {what}");
                let held = self.backend.core().reserve.in_use();
                assert_eq!(held, u32::from(serving[self.column]), "{column:?}: {what}");
                assert_eq!(self.backend.check_invariants(), Vec::<String>::new());
            }
        }
    }

    /// The life-cycle is one table: a session walks every edge of the
    /// shared state vocabulary on every scheme, and each row says what the
    /// scheme makes of the step — batching, pyramid, dedicated.
    #[test]
    fn the_life_cycle_is_one_table() {
        use SessionStatus::{Dedicated, Degraded, Done, InVcr, Shared, Waiting};
        use VcrKind::{FastForward, Pause, Rewind};
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
        let config = ServerConfig::provisioned(vec![movie], 3);
        let (on, off) = (true, false);
        for kind in BackendKind::ALL {
            // A healthy viewing, admitted 17 ticks in: batching has three
            // streams up and no window over position 0.
            let mut walk = Walk::new(kind, &config, 17);
            #[rustfmt::skip]
            walk.run(&[
                ("admit", Do::Open, [Waiting(0), Shared, Dedicated], [off, off, on]),
                ("shared playback", Do::Tick(4), [Shared, Shared, Dedicated], [off, off, on]),
                // Into the window of the stream ahead; inside the received prefix.
                ("FF", Do::Vcr(FastForward, [6, 2, 6]), [InVcr; 3], [on, off, on]),
                ("FF hit", Do::Leave([InVcr; 3], 3), [Shared, Shared, Dedicated], [off, off, on]),
                // Into the one-segment gap between two windows; beyond the front.
                ("FF", Do::Vcr(FastForward, [5, 60, 5]), [InVcr; 3], [on; 3]),
                ("FF miss", Do::Leave([InVcr; 3], 25), [Dedicated; 3], [on; 3]),
                ("merge back", Do::Leave([Dedicated, Dedicated, Done], 70), [Shared, Shared, Dedicated], [off, off, on]),
                ("RW", Do::Vcr(Rewind, [500; 3]), [InVcr; 3], [on, off, on]),
                ("RW to the start", Do::Leave([InVcr; 3], 170), [Shared, Shared, Dedicated], [off, off, on]),
                ("PAU", Do::Vcr(Pause, [3; 3]), [InVcr; 3], [off; 3]),
                ("resume", Do::Leave([InVcr; 3], 5), [Shared, Shared, Dedicated], [off, off, on]),
                ("FF", Do::Vcr(FastForward, [500; 3]), [InVcr; 3], [on, off, on]),
                ("FF off the end", Do::Leave([InVcr; 3], 45), [Done; 3], [off; 3]),
            ]);
            let rt = walk.backend.runtime_metrics();
            assert_eq!((rt.rw_truncated, rt.ff_end), (1, 1), "{kind:?}");
            assert_eq!(walk.backend.sessions_finished(), 1, "{kind:?}");
            let merged = [1, 1, 0][walk.column];
            assert_eq!(
                walk.backend.core().metrics.piggyback_merges,
                merged,
                "{kind:?}"
            );

            // A fault takes the stream from under a sweep — far past
            // every window and front, so nothing lets the holder straight
            // back in. While the outage lasts it re-waits; the first retry
            // after the recovery is granted.
            let mut walk = sweeper(kind);
            #[rustfmt::skip]
            walk.run(&[
                ("revoked lease", Do::Lose { recover_after: Some(3) }, [Degraded; 3], [off; 3]),
                ("granted retry", Do::Leave([Degraded; 3], 6), [Dedicated; 3], [on; 3]),
            ]);
            assert_eq!(
                walk.backend.runtime_metrics().degraded_dedicated,
                1,
                "{kind:?}"
            );

            // The streams never come back: past the retry timeout the
            // shared resource is all that is left — the window or the front
            // that reaches the position, or, with nothing shared, the FIFO.
            let mut walk = sweeper(kind);
            #[rustfmt::skip]
            walk.run(&[
                ("revoked lease", Do::Lose { recover_after: None }, [Degraded; 3], [off; 3]),
                ("timeout", Do::Tick(33), [Degraded, Degraded, Waiting(0)], [off; 3]),
                ("free rejoin", Do::Leave([Degraded, Degraded, Done], 50), [Shared, Shared, Waiting(0)], [off; 3]),
            ]);
            let rt = walk.backend.runtime_metrics();
            assert_eq!(rt.degraded_rejoined, 1, "{kind:?}");
            assert!(rt.denied_permanent > 0, "{kind:?}: the retries resolved");

            // Adoption places at once or refuses: into a window that covers
            // the position (batching alone has one to offer a newcomer),
            // else onto a stream of the reserve, while it has one.
            let mut walk = Walk::new(kind, &config, 17);
            let (joined, how) = walk.backend.adopt_session(MovieId(0), 10).unwrap();
            let cohort = [
                Adoption::CohortJoin,
                Adoption::DedicatedStream,
                Adoption::DedicatedStream,
            ];
            assert_eq!(how, cohort[walk.column], "{kind:?}");
            while walk.backend.core().reserve.free() != Some(0) {
                let (_, how) = walk.backend.adopt_session(MovieId(0), 6).unwrap();
                assert_eq!(how, Adoption::DedicatedStream, "{kind:?}");
            }
            // A refusal is a VCR denial on every scheme.
            let denied = walk.backend.runtime_metrics().vcr_denied;
            let mut adopt = |movie, at| walk.backend.adopt_session(MovieId(movie), at);
            assert!(
                matches!(adopt(0, 6), Err(ServerError::VcrDenied)),
                "{kind:?}"
            );
            let past_the_end = adopt(0, 120);
            assert!(
                matches!(past_the_end, Err(ServerError::InvalidState { .. })),
                "{kind:?}"
            );
            assert!(
                matches!(adopt(9, 6), Err(ServerError::UnknownMovie(_))),
                "{kind:?}"
            );
            let refused = walk.backend.runtime_metrics().vcr_denied - denied;
            assert_eq!(refused, 1, "{kind:?}");
            walk.tick(3);
            walk.id = joined;
            assert_eq!(
                walk.status(),
                [Shared, Dedicated, Dedicated][walk.column],
                "{kind:?}"
            );
        }
    }
}
