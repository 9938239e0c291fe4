//! Pure unicast baseline backend: every viewer holds a dedicated disk
//! stream for the whole viewing.
//!
//! This is the scheme the paper's batching+buffering design is priced
//! against: zero server-side buffer (`ΣB = 0`), but stream demand grows
//! linearly with concurrency, and with the *same* provisioned stream
//! pool as the batching server, load beyond the pool queues arrivals
//! (startup wait) instead of batching them. No shared windows exist, so
//! every resume that needs service is a miss by construction — `P(hit)`
//! collapses to the FF-to-end release path. Interactive operations are
//! therefore pure reserve accounting (the arXiv:1706.06642 framing:
//! interactions cost bandwidth, never buffer).
//!
//! Implemented natively against the same [`DiskSubsystem`] /
//! [`StreamReserve`] substrate as the batching server so the accounting
//! vocabulary (acquisitions, denials, starvation, occupancy) is
//! field-for-field comparable.
//!
//! # Fault semantics (chaos-grade)
//!
//! Stream loss and outage revoke leases out of live viewings: the holder
//! enters the [`DegradePolicy`] ledger (bounded re-wait, backoff
//! retries, resolution-time denial classification) and, past the retry
//! timeout, falls back to the FIFO admission queue — from there its
//! waits are ordinary queueing, whose head-of-line refusals are
//! *transient* denials (the mid-queue regression test
//! `mid_queue_stream_fail_keeps_denials_transient` pins that taxonomy).
//! The reserve mirrors every disk failure exactly
//! (`reserve.failed == disk.failed`, audited per tick): holders release
//! their slots before the reserve marks them failed, so a full pool can
//! no longer hide a failure from the accountant.

use std::collections::{BTreeMap, VecDeque};

use vod_runtime::{
    Arena, BackendKind, DegradePolicy, FaultKind, FaultPlan, RuntimeMetrics, StreamReserve,
};
use vod_workload::{TimeWeighted, VcrKind, Welford};

use crate::backend::{Adoption, DeliveryBackend};
use crate::content::{verify_segment, MovieId};
use crate::disk::{DiskSubsystem, StreamLease};
use crate::metrics::ServerMetrics;
use crate::server::{ServerConfig, ServerError};
use crate::session::{DeliveryStats, SessionId, SessionStatus};

/// Per-session state machine of the unicast backend.
enum DState {
    /// Waiting for a free stream (FIFO).
    Queued,
    /// Consuming one segment per tick through its own lease.
    Playing,
    /// Mid FF/RW sweep at the configured VCR rate.
    Vcr {
        kind: VcrKind,
        /// Movie minutes left to sweep.
        remaining: u32,
    },
    /// Paused; the lease was released (a paused viewer consumes no
    /// bandwidth — same policy as the batching server).
    Paused {
        /// Ticks until the viewer resumes.
        remaining: u32,
    },
    /// Lost (or was refused) a stream mid-viewing. Follows the
    /// [`DegradePolicy`] ledger: bounded re-wait, then acquisition
    /// retries under exponential backoff whose refusals are classified at
    /// resolution time (transient when a retry eventually succeeds,
    /// permanent when the sequence times out); after the timeout the
    /// session re-enters the FIFO admission queue, where further waits
    /// are ordinary queueing (transient denials), not degradation.
    Starved {
        /// Tick the starvation began (timeout anchor).
        since: u64,
        /// Next tick an acquisition retry is allowed.
        next_retry: u64,
        /// Current backoff interval in ticks.
        backoff: u64,
        /// Refused acquisitions awaiting resolution-time classification.
        pending_denials: u64,
        /// Ledger-shape parity with the other backends; never set here —
        /// the timeout re-queues the session instead of parking it.
        retries_exhausted: bool,
    },
    /// Finished.
    Done,
}

struct DSession {
    movie_idx: usize,
    position: u32,
    opened_at: u64,
    /// First admission already recorded in `startup_waits`: a session
    /// that falls back to the queue after starving must not count a
    /// second startup wait.
    admitted: bool,
    state: DState,
    lease: Option<StreamLease>,
    stats: DeliveryStats,
}

/// Fresh `Starved` state under `policy`, carrying `pending` refusals
/// already awaiting classification (1 when a refused acquisition caused
/// the starvation, 0 when a fault revoked the lease outright).
fn starved_state(now: u64, policy: &DegradePolicy, pending: u64) -> DState {
    DState::Starved {
        since: now,
        next_retry: now + policy.rewait_bound.max(1),
        backoff: policy.retry_backoff.max(1),
        pending_denials: pending,
        retries_exhausted: false,
    }
}

/// The dedicated-stream (pure unicast) backend. See the module docs.
pub struct DedicatedServer {
    now: u64,
    config: ServerConfig,
    disk: DiskSubsystem,
    /// Accountant over the *whole* stream pool: unlike the batching
    /// server there is no pre-allocated restart schedule, so every
    /// stream is "dedicated" in the reserve's sense.
    reserve: StreamReserve,
    sessions: Arena<DSession>,
    /// FIFO of queued session indices awaiting their first stream.
    queue: VecDeque<u32>,
    /// Indices of sessions past the queue and not yet `Done`, ascending
    /// (session slots are never reused, so push order is index order).
    active: Vec<u32>,
    metrics: ServerMetrics,
    movie_index: BTreeMap<MovieId, usize>,
    startup_waits: Welford,
    plan: FaultPlan,
    fault_mode: bool,
    policy: DegradePolicy,
    /// Active disk slowdown `(period, until)`: leases serve only on
    /// ticks divisible by `period`, through tick `until` exclusive.
    slowdown: Option<(u32, u64)>,
    /// Outage recoveries scheduled by tick.
    recovery_due: BTreeMap<u64, u32>,
    /// Tick of the most recent recovery that returned streams; a starved
    /// retry timeout expiring on this exact tick attempts one last lease
    /// first — recovery wins the same-tick race.
    recovered_at: Option<u64>,
    starved_count: u32,
}

impl DedicatedServer {
    /// Build the unicast backend over the same catalog and stream pool
    /// as `config` (the buffer budget is ignored: `ΣB = 0`).
    pub fn new(config: ServerConfig) -> Self {
        let mut disk = DiskSubsystem::new(config.disk_streams);
        let mut movie_index = BTreeMap::new();
        for (i, m) in config.movies.iter().enumerate() {
            disk.register_movie(m.movie, m.geometry.length);
            movie_index.insert(m.movie, i);
        }
        let reserve = StreamReserve::with_capacity(config.disk_streams);
        Self {
            now: 0,
            config,
            disk,
            reserve,
            sessions: Arena::new(),
            queue: VecDeque::new(),
            active: Vec::new(),
            metrics: ServerMetrics::new(),
            movie_index,
            startup_waits: Welford::default(),
            plan: FaultPlan::empty(),
            fault_mode: false,
            policy: DegradePolicy::default(),
            slowdown: None,
            recovery_due: BTreeMap::new(),
            recovered_at: None,
            starved_count: 0,
        }
    }

    /// Try to take one stream (reserve + disk in lockstep), counting the
    /// attempt.
    fn try_lease(&mut self) -> Option<StreamLease> {
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

    fn release_lease(&mut self, lease: StreamLease) {
        self.disk.release(lease);
        self.reserve.release(self.now as f64);
    }

    /// Apply the fault events scheduled at the current tick. Buffer
    /// faults are meaningless here (no buffer) and are skipped without
    /// counting, the same way `vod-sim` skips tick-grid-only kinds.
    fn apply_faults(&mut self) {
        if !self.fault_mode {
            return;
        }
        if let Some(streams) = self.recovery_due.remove(&self.now) {
            let recovered = self.disk.recover_streams(streams);
            self.reserve.recover_streams(recovered);
            if recovered > 0 {
                self.recovered_at = Some(self.now);
            }
        }
        let events: Vec<FaultKind> = self
            .plan
            .events_at(self.now)
            .iter()
            .map(|e| e.kind)
            .collect();
        for kind in events {
            match kind {
                FaultKind::DiskStreamLoss { count } | FaultKind::DiskOutage { count, .. } => {
                    let before = self.disk.failed();
                    let revoked = self.disk.fail_streams(count);
                    let applied = self.disk.failed().saturating_sub(before);
                    if let FaultKind::DiskOutage { recover_after, .. } = kind {
                        *self
                            .recovery_due
                            .entry(self.now + recover_after)
                            .or_insert(0) += applied;
                    }
                    // Revoked leases strand their holders: into the
                    // degrade ledger, lease gone. The holders release
                    // *before* the reserve marks the failure — the
                    // reserve only fails free streams, so the old
                    // fail-first order silently under-failed it whenever
                    // every stream was in use and left the reserve
                    // claiming capacity the disk no longer had.
                    let now = self.now;
                    let policy = self.policy;
                    for idx in 0..self.sessions.slot_count() {
                        let Some(sess) = self.sessions.at_mut(idx) else {
                            continue;
                        };
                        if sess.lease.as_ref().is_some_and(|l| l.revoked_in(&revoked)) {
                            sess.lease = None;
                            if !matches!(sess.state, DState::Done) {
                                if matches!(sess.state, DState::Playing | DState::Vcr { .. }) {
                                    self.metrics.playback.add(self.now as f64, -1.0);
                                }
                                // Revocation, not a refused acquisition:
                                // nothing pending to classify yet.
                                sess.state = starved_state(now, &policy, 0);
                                self.starved_count += 1;
                                self.metrics.runtime.degraded_entries += 1;
                            }
                            self.metrics.leases_revoked += 1;
                            self.reserve.release(self.now as f64);
                        }
                    }
                    self.reserve.fail_streams(applied);
                    self.metrics.runtime.faults_injected += 1;
                }
                FaultKind::DiskSlowdown { period, duration } => {
                    self.slowdown = Some((period.max(1), self.now + duration));
                    self.metrics.runtime.faults_injected += 1;
                }
                // Buffer faults are meaningless without a buffer; shard
                // events belong to the federation front tier. Both are
                // skipped without counting.
                FaultKind::BufferShrink { .. }
                | FaultKind::BufferRestore { .. }
                | FaultKind::ShardOutage { .. }
                | FaultKind::ShardRecovery { .. } => {}
            }
        }
        if let Some((_, until)) = self.slowdown {
            if self.now >= until {
                self.slowdown = None;
            }
        }
    }

    /// Is the disk serving this tick (false only mid-slowdown on an
    /// off-period tick)?
    fn disk_serving(&self) -> bool {
        match self.slowdown {
            Some((period, until)) if self.now < until => self.now.is_multiple_of(u64::from(period)),
            _ => true,
        }
    }

    /// Grant queued sessions in FIFO order while streams remain.
    fn drain_queue(&mut self) {
        while let Some(&idx) = self.queue.front() {
            let Some(lease) = self.try_lease() else {
                // Queued arrivals retry, so the denial is transient.
                self.reserve.record_denials(1, true);
                break;
            };
            self.queue.pop_front();
            let now = self.now;
            let sess = self.sessions.live_at_mut(idx as usize);
            sess.lease = Some(lease);
            sess.state = DState::Playing;
            if !sess.admitted {
                sess.admitted = true;
                self.startup_waits.push((now - sess.opened_at) as f64);
            }
            self.metrics.playback.add(now as f64, 1.0);
            self.active.push(idx);
        }
    }

    /// Deliver one segment to a playing session through its lease.
    /// Returns false when the movie ended (session finished).
    fn consume_one(&mut self, idx: u32) -> bool {
        let (movie_idx, position, length) = {
            let sess = self.sessions.live_at(idx as usize);
            let length = self.config.movies[sess.movie_idx].geometry.length;
            (sess.movie_idx, sess.position, length)
        };
        if position >= length {
            self.finish(idx);
            return false;
        }
        let movie = self.config.movies[movie_idx].movie;
        let sess = self.sessions.live_at_mut(idx as usize);
        // vod-lint: allow(no-panic) — a Playing session holds a lease by
        // construction; losing it without a state change is a backend bug.
        let lease = sess.lease.as_ref().expect("playing session holds lease");
        let verified = self
            .disk
            .read(lease, movie, position)
            .map(|seg| verify_segment(&seg))
            .unwrap_or(false);
        let sess = self.sessions.live_at_mut(idx as usize);
        sess.stats.from_disk += 1;
        if !verified {
            sess.stats.verify_failures += 1;
            self.metrics.verify_failures += 1;
        }
        sess.position += 1;
        self.metrics.runtime.disk_minutes += 1.0;
        if sess.position >= length {
            self.finish(idx);
            return false;
        }
        true
    }

    /// Retire a finished session: release its stream, close the books.
    fn finish(&mut self, idx: u32) {
        let lease = {
            let sess = self.sessions.live_at_mut(idx as usize);
            sess.state = DState::Done;
            sess.lease.take()
        };
        if let Some(lease) = lease {
            self.release_lease(lease);
        }
        self.metrics.playback.add(self.now as f64, -1.0);
        self.metrics.sessions_done += 1;
    }
}

impl DeliveryBackend for DedicatedServer {
    fn kind(&self) -> BackendKind {
        BackendKind::DedicatedStream
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn open_session(&mut self, movie: MovieId) -> Result<SessionId, ServerError> {
        let movie_idx = *self
            .movie_index
            .get(&movie)
            .ok_or(ServerError::UnknownMovie(movie))?;
        let id = SessionId(self.sessions.insert(DSession {
            movie_idx,
            position: 0,
            opened_at: self.now,
            admitted: false,
            state: DState::Queued,
            lease: None,
            stats: DeliveryStats::default(),
        }));
        let idx = id.0.index() as u32;
        if self.queue.is_empty() {
            if let Some(lease) = self.try_lease() {
                let sess = self.sessions.live_at_mut(idx as usize);
                sess.lease = Some(lease);
                sess.state = DState::Playing;
                sess.admitted = true;
                self.startup_waits.push(0.0);
                self.metrics.playback.add(self.now as f64, 1.0);
                self.active.push(idx);
                return Ok(id);
            }
            self.reserve.record_denials(1, true);
        }
        self.queue.push_back(idx);
        Ok(id)
    }

    fn request_vcr(
        &mut self,
        id: SessionId,
        kind: VcrKind,
        magnitude: u32,
    ) -> Result<(), ServerError> {
        let sess = self
            .sessions
            .get(id.0)
            .ok_or(ServerError::UnknownSession(id))?;
        if !matches!(sess.state, DState::Playing) {
            return Err(ServerError::InvalidState { operation: "vcr" });
        }
        let position = sess.position;
        let sess = self.sessions.live_mut(id.0);
        match kind {
            VcrKind::Pause => {
                // A paused viewer consumes nothing: the stream goes back
                // to the pool (and is fought for again at resume).
                sess.state = DState::Paused {
                    remaining: magnitude.max(1),
                };
                if let Some(lease) = sess.lease.take() {
                    self.release_lease(lease);
                }
                self.metrics.playback.add(self.now as f64, -1.0);
            }
            VcrKind::FastForward | VcrKind::Rewind => {
                if matches!(kind, VcrKind::Rewind) && magnitude >= position {
                    self.metrics.runtime.rw_truncated += 1;
                }
                sess.state = DState::Vcr {
                    kind,
                    remaining: magnitude.max(1),
                };
            }
        }
        Ok(())
    }

    fn session_position(&self, id: SessionId) -> Result<u32, ServerError> {
        self.sessions
            .get(id.0)
            .map(|s| s.position)
            .ok_or(ServerError::UnknownSession(id))
    }

    fn adopt_session(
        &mut self,
        movie: MovieId,
        position: u32,
    ) -> Result<(SessionId, Adoption), ServerError> {
        let movie_idx = *self
            .movie_index
            .get(&movie)
            .ok_or(ServerError::UnknownMovie(movie))?;
        if position >= self.config.movies[movie_idx].geometry.length {
            return Err(ServerError::InvalidState { operation: "adopt" });
        }
        // A migration places immediately or refuses: the FIFO queue is
        // for fresh admissions, and queueing a displaced session here
        // would hide it from the front tier's failover ledger.
        let Some(lease) = self.try_lease() else {
            // Locally permanent — the ledger may resolve the displaced
            // session elsewhere; see `FederationMetrics`.
            self.reserve.record_denials(1, false);
            return Err(ServerError::VcrDenied);
        };
        let id = SessionId(self.sessions.insert(DSession {
            movie_idx,
            position,
            opened_at: self.now,
            admitted: true,
            state: DState::Playing,
            lease: Some(lease),
            stats: DeliveryStats::default(),
        }));
        self.metrics.playback.add(self.now as f64, 1.0);
        self.active.push(id.0.index() as u32);
        Ok((id, Adoption::DedicatedStream))
    }

    fn session_status(&self, id: SessionId) -> Result<SessionStatus, ServerError> {
        let sess = self
            .sessions
            .get(id.0)
            .ok_or(ServerError::UnknownSession(id))?;
        Ok(match sess.state {
            DState::Queued => SessionStatus::Waiting(self.now + 1),
            DState::Playing => SessionStatus::Dedicated,
            DState::Vcr { .. } | DState::Paused { .. } => SessionStatus::InVcr,
            DState::Starved { .. } => SessionStatus::Degraded,
            DState::Done => SessionStatus::Done,
        })
    }

    fn tick(&mut self) {
        self.apply_faults();
        self.drain_queue();
        let serving = self.disk_serving();
        let now = self.now;
        let policy = self.policy;
        let vcr_rate = self.config.vcr_rate.max(1);
        // Session slots are never reused and `active` is push-ordered, so
        // this walk is ascending-index — the same deterministic order as
        // the batching server's session phase.
        let mut i = 0;
        while i < self.active.len() {
            let idx = self.active[i];
            let state_now = {
                let sess = self.sessions.live_at(idx as usize);
                match sess.state {
                    DState::Playing => 0u8,
                    DState::Vcr { .. } => 1,
                    DState::Paused { .. } => 2,
                    DState::Starved { .. } => 3,
                    DState::Queued | DState::Done => 4,
                }
            };
            match state_now {
                0 => {
                    if serving {
                        if !self.consume_one(idx) {
                            self.active.swap_remove(i);
                            continue;
                        }
                    } else {
                        self.metrics.runtime.stall_minutes += 1.0;
                    }
                }
                1 => {
                    // Sweep at the VCR display rate on the held lease.
                    let length = {
                        let sess = self.sessions.live_at(idx as usize);
                        self.config.movies[sess.movie_idx].geometry.length
                    };
                    let sess = self.sessions.live_at_mut(idx as usize);
                    let DState::Vcr { kind, remaining } = &mut sess.state else {
                        unreachable!("state tag checked above");
                    };
                    let step = vcr_rate.min(*remaining);
                    *remaining -= step;
                    let kind = *kind;
                    let done = *remaining == 0;
                    match kind {
                        VcrKind::FastForward => {
                            sess.position = sess.position.saturating_add(step).min(length);
                        }
                        VcrKind::Rewind => {
                            sess.position = sess.position.saturating_sub(step);
                        }
                        VcrKind::Pause => unreachable!("pause never enters Vcr"),
                    }
                    let reached_end = sess.position >= length;
                    self.metrics.runtime.disk_minutes += 1.0;
                    self.sessions.live_at_mut(idx as usize).stats.from_disk += 1;
                    if reached_end {
                        // FF off the end releases the viewer: the model's
                        // P(end) path, counted as a hit for comparability.
                        self.metrics.runtime.ff_end += 1;
                        self.metrics.runtime.record_resume(kind, true);
                        self.finish(idx);
                        self.active.swap_remove(i);
                        continue;
                    }
                    if done {
                        // No shared window can cover the resume: a miss by
                        // construction, but the viewer already holds the
                        // stream, so playback continues seamlessly.
                        self.metrics.runtime.record_resume(kind, false);
                        self.sessions.live_at_mut(idx as usize).state = DState::Playing;
                    }
                }
                2 => {
                    let sess = self.sessions.live_at_mut(idx as usize);
                    let DState::Paused { remaining } = &mut sess.state else {
                        unreachable!("state tag checked above");
                    };
                    *remaining = remaining.saturating_sub(1);
                    if *remaining == 0 {
                        // Resume needs a fresh stream; no window exists, so
                        // the trial is a miss either way.
                        self.metrics.runtime.record_resume(VcrKind::Pause, false);
                        match self.try_lease() {
                            Some(lease) => {
                                let sess = self.sessions.live_at_mut(idx as usize);
                                sess.lease = Some(lease);
                                sess.state = DState::Playing;
                                self.metrics.playback.add(self.now as f64, 1.0);
                            }
                            None => {
                                // The refusal enters the degrade ledger
                                // as pending; it is classified
                                // transient/permanent at resolution.
                                self.metrics.runtime.resume_starved += 1;
                                self.sessions.live_at_mut(idx as usize).state =
                                    starved_state(now, &policy, 1);
                                self.starved_count += 1;
                                self.metrics.runtime.degraded_entries += 1;
                            }
                        }
                    }
                }
                3 => {
                    // Mirrors `VodServer::degraded_tick`, with one
                    // backend-specific exit: there is no shared window to
                    // rejoin, so the retry timeout resolves the pending
                    // refusals permanent and sends the session back to
                    // the FIFO admission queue — where later head-of-line
                    // refusals are ordinary transient queueing denials.
                    self.metrics.runtime.rewait_minutes += 1.0;
                    let (since, next_retry, backoff, pending, exhausted) = {
                        let sess = self.sessions.live_at(idx as usize);
                        let DState::Starved {
                            since,
                            next_retry,
                            backoff,
                            pending_denials,
                            retries_exhausted,
                        } = sess.state
                        else {
                            unreachable!("state tag checked above");
                        };
                        (
                            since,
                            next_retry,
                            backoff,
                            pending_denials,
                            retries_exhausted,
                        )
                    };
                    if !exhausted && now >= next_retry {
                        let timed_out = now.saturating_sub(since) >= self.policy.retry_timeout;
                        // A recovery landing on the timeout tick wins the
                        // race: the session gets one last lease attempt
                        // before the timeout resolves its ledger.
                        let last_chance = timed_out
                            && self.policy.recovery_wins
                            && self.recovered_at == Some(now);
                        if timed_out && !last_chance {
                            self.reserve.record_denials(pending, false);
                            let sess = self.sessions.live_at_mut(idx as usize);
                            sess.state = DState::Queued;
                            self.queue.push_back(idx);
                            debug_assert!(self.starved_count > 0, "starved session outside census");
                            self.starved_count -= 1;
                            self.metrics.runtime.degraded_rejoined += 1;
                            self.active.swap_remove(i);
                            continue;
                        }
                        match self.try_lease() {
                            Some(lease) => {
                                self.reserve.record_denials(pending, true);
                                let sess = self.sessions.live_at_mut(idx as usize);
                                sess.lease = Some(lease);
                                sess.state = DState::Playing;
                                debug_assert!(
                                    self.starved_count > 0,
                                    "starved session outside census"
                                );
                                self.starved_count -= 1;
                                self.metrics.runtime.degraded_dedicated += 1;
                                self.metrics.playback.add(self.now as f64, 1.0);
                            }
                            None if last_chance => {
                                // Recovery was not enough after all: the
                                // refused attempt joins the ledger and the
                                // timeout proceeds as usual.
                                self.reserve.record_denials(pending + 1, false);
                                let sess = self.sessions.live_at_mut(idx as usize);
                                sess.state = DState::Queued;
                                self.queue.push_back(idx);
                                debug_assert!(
                                    self.starved_count > 0,
                                    "starved session outside census"
                                );
                                self.starved_count -= 1;
                                self.metrics.runtime.degraded_rejoined += 1;
                                self.active.swap_remove(i);
                                continue;
                            }
                            None => {
                                let nb = (backoff * 2).min(self.policy.retry_backoff_cap.max(1));
                                let sess = self.sessions.live_at_mut(idx as usize);
                                if let DState::Starved {
                                    next_retry,
                                    backoff,
                                    pending_denials,
                                    ..
                                } = &mut sess.state
                                {
                                    *pending_denials = pending + 1;
                                    *next_retry = now + nb;
                                    *backoff = nb;
                                }
                            }
                        }
                    }
                }
                _ => {
                    self.active.swap_remove(i);
                    continue;
                }
            }
            i += 1;
        }
        self.now += 1;
    }

    fn reset_metrics(&mut self) {
        let now = self.now as f64;
        let playing = self.metrics.playback.current();
        self.metrics = ServerMetrics::new();
        self.metrics.playback = TimeWeighted::new(now, playing);
        self.reserve.rebaseline(now);
        self.startup_waits = Welford::default();
    }

    fn runtime_metrics(&self) -> RuntimeMetrics {
        let mut rt = self.metrics.runtime.clone();
        rt.dedicated_avg = self.reserve.average(self.now as f64);
        rt.dedicated_peak = self.reserve.peak();
        rt.denied_transient = self.reserve.denied_transient();
        rt.denied_permanent = self.reserve.denied_permanent();
        rt
    }

    fn startup_waits(&self) -> &Welford {
        &self.startup_waits
    }

    fn inject_faults(&mut self, plan: FaultPlan, policy: DegradePolicy) {
        self.fault_mode = !plan.is_empty();
        self.plan = plan;
        self.policy = policy;
    }

    fn check_invariants(&self) -> Vec<String> {
        let mut v = Vec::new();
        let disk = &self.disk;
        v.extend(disk.conservation_violation());
        // The reserve accounts the *whole* pool here, so its failure
        // ledger must track the disk's exactly — this is the audit that
        // catches the fail-before-release ordering bug.
        if self.reserve.failed() != disk.failed() {
            v.push(format!(
                "reserve failure accounting drifted from the disk: reserve {} != disk {}",
                self.reserve.failed(),
                disk.failed()
            ));
        }
        // Queue conservation: the FIFO and the active walk partition the
        // live population — every `Queued` session sits in the queue
        // exactly once and holds no lease; nothing else queues. Entries
        // are tallied per session slot; one past the arena (never in a
        // healthy queue) is reported after the in-range ones.
        let mut queued = vec![0u32; self.sessions.slot_count()];
        let mut strays = BTreeMap::new();
        for &idx in &self.queue {
            match queued.get_mut(idx as usize) {
                Some(count) => *count += 1,
                None => *strays.entry(idx).or_insert(0u32) += 1,
            }
        }
        let in_range = queued.iter().enumerate().map(|(idx, &n)| (idx as u32, n));
        for (idx, count) in in_range.filter(|&(_, n)| n > 0).chain(strays) {
            if count > 1 {
                v.push(format!("session {idx} queued {count} times"));
            }
            match self.sessions.at(idx as usize) {
                Some(sess) if matches!(sess.state, DState::Queued) => {
                    if sess.lease.is_some() {
                        v.push(format!("queued session {idx} holds a lease"));
                    }
                }
                _ => v.push(format!("queue entry {idx} is not a queued session")),
            }
        }
        let mut held = 0u32;
        let mut starved = 0u32;
        for (idx, &in_fifo) in queued.iter().enumerate() {
            let Some(sess) = self.sessions.at(idx) else {
                continue;
            };
            if matches!(sess.state, DState::Queued) && in_fifo == 0 {
                v.push(format!("queued session {idx} missing from the FIFO"));
            }
            if sess.lease.is_some() {
                held += 1;
                if !matches!(sess.state, DState::Playing | DState::Vcr { .. }) {
                    v.push(format!(
                        "session {idx} holds a lease in a non-serving state"
                    ));
                }
            } else if matches!(sess.state, DState::Playing | DState::Vcr { .. }) {
                v.push(format!("session {idx} is serving without a lease"));
            }
            if matches!(sess.state, DState::Starved { .. }) {
                starved += 1;
            }
        }
        if held != disk.in_use() {
            v.push(format!(
                "lease accounting broken: sessions hold {held}, disk says {}",
                disk.in_use()
            ));
        }
        if held != self.reserve.in_use() {
            v.push(format!(
                "reserve accounting broken: sessions hold {held}, reserve says {}",
                self.reserve.in_use()
            ));
        }
        if starved != self.starved_count {
            v.push(format!(
                "starved population drifted: counted {starved}, tracked {}",
                self.starved_count
            ));
        }
        v
    }

    fn degraded_sessions(&self) -> u32 {
        self.starved_count
    }

    fn sessions_finished(&self) -> u64 {
        self.metrics.sessions_done + self.metrics.sessions_closed_early
    }

    fn verify_failures(&self) -> u64 {
        self.metrics.verify_failures
    }

    fn io_streams(&self) -> u32 {
        self.config.disk_streams
    }

    fn buffer_segments(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::HostedMovie;

    fn config() -> ServerConfig {
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
        ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 40)
        }
    }

    #[test]
    fn single_viewer_plays_through_on_disk_only() {
        let mut s = DedicatedServer::new(config());
        let id = s.open_session(MovieId(0)).unwrap();
        assert_eq!(s.session_status(id).unwrap(), SessionStatus::Dedicated);
        for _ in 0..130 {
            s.tick();
            assert!(s.check_invariants().is_empty());
        }
        assert_eq!(s.session_status(id).unwrap(), SessionStatus::Done);
        assert_eq!(s.sessions_finished(), 1);
        assert_eq!(s.verify_failures(), 0);
        let rt = s.runtime_metrics();
        assert_eq!(rt.buffer_minutes, 0.0, "unicast never serves from buffer");
        assert_eq!(rt.disk_minutes, 120.0);
        assert_eq!(s.startup_waits().count(), 1);
        assert_eq!(s.startup_waits().mean(), 0.0);
    }

    #[test]
    fn overload_queues_and_records_startup_wait() {
        let movie = HostedMovie::from_allocation(MovieId(0), 10, 2, 4.0);
        let cfg = ServerConfig {
            disk_streams: 2,
            ..ServerConfig {
                piggyback: None,
                ..ServerConfig::provisioned(vec![movie], 0)
            }
        };
        let mut s = DedicatedServer::new(cfg);
        let a = s.open_session(MovieId(0)).unwrap();
        let b = s.open_session(MovieId(0)).unwrap();
        let c = s.open_session(MovieId(0)).unwrap();
        assert_eq!(s.session_status(c).unwrap(), SessionStatus::Waiting(1));
        // Both streams busy for 10 ticks; c starts when a finishes.
        for _ in 0..12 {
            s.tick();
            assert!(s.check_invariants().is_empty());
        }
        assert_eq!(s.session_status(a).unwrap(), SessionStatus::Done);
        assert_eq!(s.session_status(b).unwrap(), SessionStatus::Done);
        assert_ne!(s.session_status(c).unwrap(), SessionStatus::Waiting(1));
        assert_eq!(s.startup_waits().count(), 3);
        assert!(s.startup_waits().mean() > 0.0, "c waited for a stream");
    }

    #[test]
    fn resumes_are_always_misses_except_ff_end() {
        let mut s = DedicatedServer::new(config());
        let id = s.open_session(MovieId(0)).unwrap();
        s.tick();
        s.request_vcr(id, VcrKind::Rewind, 1).unwrap();
        s.tick();
        let rt = s.runtime_metrics();
        assert_eq!(rt.resumes.trials(), 1);
        assert_eq!(rt.resumes.hits(), 0, "no shared window can cover a resume");
        // FF off the end releases the viewer and counts as a hit.
        s.request_vcr(id, VcrKind::FastForward, 500).unwrap();
        for _ in 0..200 {
            s.tick();
        }
        let rt = s.runtime_metrics();
        assert_eq!(rt.ff_end, 1);
        assert_eq!(rt.resumes.hits(), 1);
        assert_eq!(s.session_status(id).unwrap(), SessionStatus::Done);
    }

    #[test]
    fn mid_queue_stream_fail_keeps_denials_transient() {
        use vod_runtime::FaultEvent;
        // Two streams, both taken; two more viewers queue behind them.
        let movie = HostedMovie::from_allocation(MovieId(0), 10, 2, 4.0);
        let cfg = ServerConfig {
            disk_streams: 2,
            ..ServerConfig {
                piggyback: None,
                ..ServerConfig::provisioned(vec![movie], 0)
            }
        };
        let mut s = DedicatedServer::new(cfg);
        // Long timeout: the revoked holders stay in the retry loop until
        // the outage recovers, so their refusals resolve transient.
        let policy = DegradePolicy {
            retry_timeout: 200,
            ..DegradePolicy::default()
        };
        let plan = FaultPlan::new(vec![FaultEvent {
            at: 5,
            kind: FaultKind::DiskOutage {
                count: 2,
                recover_after: 20,
            },
        }]);
        s.inject_faults(plan, policy);
        let a = s.open_session(MovieId(0)).unwrap();
        s.tick();
        let b = s.open_session(MovieId(0)).unwrap();
        let c = s.open_session(MovieId(0)).unwrap();
        let d = s.open_session(MovieId(0)).unwrap();
        for _ in 0..70 {
            s.tick();
            // Includes `reserve.failed == disk.failed`: with every
            // stream in use at the fault tick, the old fail-then-release
            // order left the reserve failure ledger at 0.
            let violations = s.check_invariants();
            assert!(violations.is_empty(), "{violations:?}");
        }
        for id in [a, b, c, d] {
            assert_eq!(s.session_status(id).unwrap(), SessionStatus::Done);
        }
        let rt = s.runtime_metrics();
        assert_eq!(rt.degraded_entries, 2, "both revoked holders degraded");
        assert_eq!(rt.degraded_dedicated, 2, "both recovered via retry");
        assert!(
            rt.denied_transient > 0,
            "queued-behind-the-outage refusals are transient"
        );
        assert_eq!(
            rt.denied_permanent, 0,
            "no refusal in this run was permanent: the queue and the \
             retry loop both eventually won a stream"
        );
        assert_eq!(s.startup_waits().count(), 4, "each admission counted once");
    }

    #[test]
    fn deterministic_under_replay() {
        let run = || {
            let mut s = DedicatedServer::new(config());
            let mut ids = Vec::new();
            for t in 0..60u64 {
                if t % 3 == 0 {
                    ids.push(s.open_session(MovieId(0)).unwrap());
                }
                if t == 20 {
                    let _ = s.request_vcr(ids[0], VcrKind::Pause, 5);
                }
                s.tick();
            }
            s.runtime_metrics()
        };
        assert_eq!(run(), run());
    }

    /// A healthy two-stream server at `now = 1`: sessions 0 and 1 play,
    /// session 2 waits in the FIFO.
    fn busy() -> DedicatedServer {
        let movie = HostedMovie::from_allocation(MovieId(0), 10, 2, 4.0);
        let mut s = DedicatedServer::new(ServerConfig {
            disk_streams: 2,
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 0)
        });
        for _ in 0..3 {
            s.open_session(MovieId(0)).unwrap();
        }
        s.tick();
        assert_eq!(s.queue, [2]);
        assert_eq!(s.check_invariants(), Vec::<String>::new());
        s
    }

    /// Every string `check_invariants` can emit, provoked by corrupting
    /// exactly the state it certifies.
    #[test]
    fn audit_sees_resource_drift() {
        let mut s = busy();
        s.disk.skew_failed(100);
        assert_eq!(
            s.check_invariants(),
            [
                "disk conservation broken: in_use 2 + free 0 + failed 100 != provisioned 2",
                "reserve failure accounting drifted from the disk: reserve 0 != disk 100",
            ]
        );
        let mut s = busy();
        // A session lease dropped without a release.
        s.sessions.live_at_mut(1).lease = None;
        assert_eq!(
            s.check_invariants(),
            [
                "session 1 is serving without a lease",
                "lease accounting broken: sessions hold 1, disk says 2",
                "reserve accounting broken: sessions hold 1, reserve says 2",
            ]
        );
        let mut s = busy();
        s.sessions.live_at_mut(1).state = DState::Paused { remaining: 3 };
        assert_eq!(
            s.check_invariants(),
            ["session 1 holds a lease in a non-serving state"]
        );
        let mut s = busy();
        s.starved_count += 1;
        assert_eq!(
            s.check_invariants(),
            ["starved population drifted: counted 0, tracked 1"]
        );
    }

    #[test]
    fn audit_sees_queue_drift() {
        let mut s = busy();
        s.queue.push_back(2);
        assert_eq!(s.check_invariants(), ["session 2 queued 2 times"]);
        let mut s = busy();
        s.queue.push_front(1);
        s.queue.push_back(7);
        assert_eq!(
            s.check_invariants(),
            [
                "queue entry 1 is not a queued session",
                "queue entry 7 is not a queued session",
            ]
        );
        let mut s = busy();
        s.queue.clear();
        assert_eq!(
            s.check_invariants(),
            ["queued session 2 missing from the FIFO"]
        );
        let mut s = busy();
        let lease = s.sessions.live_at_mut(1).lease.take();
        s.sessions.live_at_mut(1).state = DState::Paused { remaining: 3 };
        s.sessions.live_at_mut(2).lease = lease;
        assert_eq!(
            s.check_invariants(),
            [
                "queued session 2 holds a lease",
                "session 2 holds a lease in a non-serving state",
            ]
        );
    }
}
