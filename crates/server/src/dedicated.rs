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
//! Built on the same [`ServerCore`] as the batching server — nothing is
//! pre-allocated, so the core's reserve accounts the *whole* stream pool
//! — which keeps the accounting vocabulary (acquisitions, denials,
//! starvation, occupancy) field-for-field comparable.
//!
//! # Fault semantics (chaos-grade)
//!
//! Stream loss and outage revoke leases out of live viewings: the holder
//! enters the [`RetryLedger`] (bounded re-wait, backoff retries,
//! resolution-time denial classification) and, past the retry timeout,
//! falls back to the FIFO admission queue — from there its waits are
//! ordinary queueing, whose head-of-line refusals are *transient*
//! denials (the mid-queue regression test
//! `mid_queue_stream_fail_keeps_denials_transient` pins that taxonomy).
//! The reserve mirrors every disk failure exactly
//! (`reserve.failed == disk.failed`, audited per tick): holders release
//! their slots before the reserve marks them failed
//! ([`FaultPolicy::RESERVE_FAILS_FIRST`] is off), so a full pool cannot
//! hide a failure from the accountant.

use std::collections::VecDeque;

use vod_runtime::{BackendKind, RetryLedger, SessionStore};
use vod_workload::VcrKind;

use crate::backend::{Adoption, DeliveryBackend};
use crate::content::MovieId;
use crate::core::{apply_faults, FaultPolicy, Retry, ServerCore};
use crate::disk::StreamLease;
use crate::server::{ServerConfig, ServerError};
use crate::session::{resolve, status_of, DeliveryStats, SessionId, SessionStatus};

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
    /// Lost (or was refused) a stream mid-viewing and follows the retry
    /// ledger. There is no shared window to rejoin, so the retry timeout
    /// sends the session back to the FIFO admission queue, where further
    /// waits are ordinary queueing (transient denials), not degradation.
    Starved(RetryLedger),
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

/// Deliver one segment to a playing session through its lease. Returns
/// false when that was the last of the movie.
fn consume_one(sess: &mut DSession, core: &mut ServerCore) -> bool {
    let hosted = core.config.movies[sess.movie_idx];
    let length = hosted.geometry.length;
    if sess.position < length {
        let lease = sess.lease.as_ref();
        core.read_via_lease(lease, hosted.movie, sess.position, &mut sess.stats);
        sess.position += 1;
    }
    sess.position < length
}

/// The dedicated-stream (pure unicast) backend. See the module docs.
pub struct DedicatedServer {
    core: ServerCore,
    sessions: SessionStore<DSession>,
    /// FIFO of queued session indices awaiting their first stream.
    queue: VecDeque<u32>,
    /// Indices of the sessions past the queue, in the order they left it.
    active: Vec<u32>,
}

impl DedicatedServer {
    /// Build the unicast backend over the same catalog and stream pool
    /// as `config` (the buffer budget is ignored: `ΣB = 0`).
    pub fn new(config: ServerConfig) -> Self {
        Self {
            core: ServerCore::new(config, 0),
            sessions: SessionStore::new(),
            queue: VecDeque::new(),
            active: Vec::new(),
        }
    }

    /// Session `idx` starts (or resumes) playing on `lease`.
    fn play(&mut self, idx: u32, lease: StreamLease) {
        let sess = self.sessions.live_mut(idx);
        sess.lease = Some(lease);
        sess.state = DState::Playing;
        self.core.metrics.playback.add(self.core.now as f64, 1.0);
    }

    /// Grant queued sessions in FIFO order while streams remain.
    fn drain_queue(&mut self) {
        while let Some(&idx) = self.queue.front() {
            let Some(lease) = self.core.try_lease() else {
                // Queued arrivals retry, so the denial is transient.
                self.core.reserve.record_denials(1, true);
                break;
            };
            self.queue.pop_front();
            self.play(idx, lease);
            let sess = self.sessions.live_mut(idx);
            if !sess.admitted {
                sess.admitted = true;
                let waited = self.core.now - sess.opened_at;
                self.core.startup_waits.push(waited as f64);
            }
            self.active.push(idx);
        }
    }

    /// Session `idx` reached the end of the movie: retire it — its
    /// stream released, its slot given up, its final record booked and
    /// published by the core.
    fn finish(&mut self, idx: u32) {
        let Some(mut sess) = self.sessions.retire(idx) else {
            unreachable!("the active walk holds live sessions only")
        };
        if let Some(lease) = sess.lease.take() {
            self.core.release_lease(lease);
        }
        self.core.retire(SessionId(idx), sess.stats);
        self.core.metrics.playback.add(self.core.now as f64, -1.0);
        self.core.metrics.sessions_done += 1;
    }
}

impl FaultPolicy for DedicatedServer {
    const RESERVE_FAILS_FIRST: bool = false;

    fn leases_revoked(&mut self, revoked: &[u64]) -> u32 {
        let now = self.core.now as f64;
        for (_, sess) in self.sessions.iter_mut() {
            if sess.lease.as_ref().is_some_and(|l| l.revoked_in(revoked)) {
                sess.lease = None;
                if matches!(sess.state, DState::Playing | DState::Vcr { .. }) {
                    self.core.metrics.playback.add(now, -1.0);
                }
                // Revocation, not a refused acquisition: nothing pending
                // to classify yet.
                sess.state = DState::Starved(self.core.enter_degraded(0));
                self.core.reserve.release(now);
            }
        }
        0
    }

    fn buffer_resized(&mut self, _grow: bool, _segments: usize) -> bool {
        false
    }
}

impl DeliveryBackend for DedicatedServer {
    fn kind(&self) -> BackendKind {
        BackendKind::DedicatedStream
    }

    fn core(&self) -> &ServerCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut ServerCore {
        &mut self.core
    }

    fn open_session(&mut self, movie: MovieId) -> Result<SessionId, ServerError> {
        let movie_idx = self.core.movie_idx(movie)?;
        let idx = self
            .sessions
            .insert(DSession {
                movie_idx,
                position: 0,
                opened_at: self.core.now,
                admitted: false,
                state: DState::Queued,
                lease: None,
                stats: DeliveryStats::default(),
            })
            .ok_or(ServerError::SessionIdsExhausted)?;
        let id = SessionId(idx);
        if self.queue.is_empty() {
            if let Some(lease) = self.core.try_lease() {
                self.play(idx, lease);
                self.sessions.live_mut(idx).admitted = true;
                self.core.startup_waits.push(0.0);
                self.active.push(idx);
                return Ok(id);
            }
            self.core.reserve.record_denials(1, true);
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
        resolve(&self.sessions, id)?;
        let sess = self.sessions.live_mut(id.0);
        if !matches!(sess.state, DState::Playing) {
            return Err(ServerError::InvalidState { operation: "vcr" });
        }
        match kind {
            VcrKind::Pause => {
                // A paused viewer consumes nothing: the stream goes back
                // to the pool (and is fought for again at resume).
                sess.state = DState::Paused {
                    remaining: magnitude.max(1),
                };
                if let Some(lease) = sess.lease.take() {
                    self.core.release_lease(lease);
                }
                self.core.metrics.playback.add(self.core.now as f64, -1.0);
            }
            VcrKind::FastForward | VcrKind::Rewind => {
                if matches!(kind, VcrKind::Rewind) && magnitude >= sess.position {
                    self.core.metrics.runtime.rw_truncated += 1;
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
        resolve(&self.sessions, id).map(|sess| sess.position)
    }

    fn adopt_session(
        &mut self,
        movie: MovieId,
        position: u32,
    ) -> Result<(SessionId, Adoption), ServerError> {
        let movie_idx = self.core.movie_idx(movie)?;
        if position >= self.core.config.movies[movie_idx].geometry.length {
            return Err(ServerError::InvalidState { operation: "adopt" });
        }
        if self.sessions.is_full() {
            return Err(ServerError::SessionIdsExhausted);
        }
        // A migration places immediately or refuses: the FIFO queue is
        // for fresh admissions, and queueing a displaced session here
        // would hide it from the front tier's failover ledger.
        let Some(lease) = self.core.try_lease() else {
            // Locally permanent — the ledger may resolve the displaced
            // session elsewhere; see `FederationMetrics`.
            self.core.reserve.record_denials(1, false);
            return Err(ServerError::VcrDenied);
        };
        let idx = self
            .sessions
            .insert(DSession {
                movie_idx,
                position,
                opened_at: self.core.now,
                admitted: true,
                state: DState::Queued,
                lease: None,
                stats: DeliveryStats::default(),
            })
            .ok_or(ServerError::SessionIdsExhausted)?;
        self.play(idx, lease);
        self.active.push(idx);
        Ok((SessionId(idx), Adoption::DedicatedStream))
    }

    fn session_status(&self, id: SessionId) -> Result<SessionStatus, ServerError> {
        status_of(&self.sessions, id, |sess| match sess.state {
            DState::Queued => SessionStatus::Waiting(self.core.now + 1),
            DState::Playing => SessionStatus::Dedicated,
            DState::Vcr { .. } | DState::Paused { .. } => SessionStatus::InVcr,
            DState::Starved(_) => SessionStatus::Degraded,
        })
    }

    fn tick(&mut self) {
        self.core.begin_tick();
        apply_faults(self);
        self.drain_queue();
        let stalled = self.core.disk_stalled();
        let vcr_rate = self.core.config.vcr_rate.max(1);
        let mut i = 0;
        while i < self.active.len() {
            let idx = self.active[i];
            let sess = self.sessions.live_mut(idx);
            // Does the session stay on the active walk?
            let stays = match &mut sess.state {
                DState::Playing if stalled => {
                    self.core.metrics.runtime.stall_minutes += 1.0;
                    true
                }
                DState::Playing => {
                    let more = consume_one(sess, &mut self.core);
                    if !more {
                        self.finish(idx);
                    }
                    more
                }
                DState::Vcr { kind, remaining } => {
                    // Sweep at the VCR display rate on the held lease.
                    let length = self.core.config.movies[sess.movie_idx].geometry.length;
                    let kind = *kind;
                    let step = vcr_rate.min(*remaining);
                    *remaining -= step;
                    let done = *remaining == 0;
                    sess.position = match kind {
                        VcrKind::FastForward => sess.position.saturating_add(step).min(length),
                        VcrKind::Rewind => sess.position.saturating_sub(step),
                        VcrKind::Pause => unreachable!("pause never enters Vcr"),
                    };
                    self.core.metrics.runtime.disk_minutes += 1.0;
                    sess.stats.from_disk += 1;
                    if sess.position >= length {
                        // FF off the end releases the viewer: the model's
                        // P(end) path, counted as a hit for comparability.
                        self.core.metrics.runtime.ff_end += 1;
                        self.core.metrics.runtime.record_resume(kind, true);
                        self.finish(idx);
                        false
                    } else {
                        if done {
                            // No shared window can cover the resume: a miss
                            // by construction, but the viewer already holds
                            // the stream, so playback continues seamlessly.
                            self.core.metrics.runtime.record_resume(kind, false);
                            sess.state = DState::Playing;
                        }
                        true
                    }
                }
                DState::Paused { remaining } => {
                    *remaining = remaining.saturating_sub(1);
                    if *remaining == 0 {
                        // Resume needs a fresh stream; no window exists, so
                        // the trial is a miss either way.
                        self.core
                            .metrics
                            .runtime
                            .record_resume(VcrKind::Pause, false);
                        match self.core.lease_or_degrade() {
                            Ok(lease) => self.play(idx, lease),
                            Err(ledger) => sess.state = DState::Starved(ledger),
                        }
                    }
                    true
                }
                DState::Starved(ledger) => {
                    self.core.metrics.runtime.rewait_minutes += 1.0;
                    match self.core.retry_degraded(ledger) {
                        Retry::Wait => true,
                        Retry::Granted(lease) => {
                            self.play(idx, lease);
                            true
                        }
                        Retry::TimedOut => {
                            // Nothing to rejoin for free: back to the FIFO
                            // admission queue, where later head-of-line
                            // refusals are ordinary transient queueing
                            // denials.
                            self.core.exit_degraded(ledger, false);
                            self.core.metrics.runtime.degraded_rejoined += 1;
                            sess.state = DState::Queued;
                            self.queue.push_back(idx);
                            false
                        }
                    }
                }
                DState::Queued => false,
            };
            if stays {
                i += 1;
            } else {
                self.active.swap_remove(i);
            }
        }
        self.core.now += 1;
    }

    fn check_invariants(&self) -> Vec<String> {
        // Queue conservation: the FIFO and the active walk partition the
        // live population — every `Queued` session sits in the queue
        // exactly once and holds no lease; nothing else queues. The
        // entries are put in index order and matched against the sessions
        // in one walk; what they say about the queue is reported ahead of
        // what the walk says about the sessions.
        let mut queued: Vec<u32> = self.queue.iter().copied().collect();
        // Arrival order but for the few re-queued after starving: a handful
        // of ascending runs, which the adaptive stable sort merges in one pass.
        queued.sort();
        let mut entries = queued
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len()))
            .peekable();
        let mut queue_faults = Vec::new();
        let mut entry_found = |idx: u32, count: usize, sess: Option<&DSession>| {
            if count > 1 {
                queue_faults.push(format!("session {idx} queued {count} times"));
            }
            match sess {
                Some(sess) if matches!(sess.state, DState::Queued) => {
                    if sess.lease.is_some() {
                        queue_faults.push(format!("queued session {idx} holds a lease"));
                    }
                }
                _ => queue_faults.push(format!("queue entry {idx} is not a queued session")),
            }
        };
        let mut faults = Vec::new();
        let mut held = 0u32;
        let mut starved = 0u32;
        let (mut live, mut from_disk) = (0u64, 0u64);
        for (idx, sess) in self.sessions.iter() {
            live += 1;
            from_disk += sess.stats.from_disk;
            // Entries below `idx` name nobody live.
            while let Some((stray, count)) = entries.next_if(|&(entry, _)| entry < idx) {
                entry_found(stray, count, None);
            }
            match entries.next_if(|&(entry, _)| entry == idx) {
                Some((_, count)) => entry_found(idx, count, Some(sess)),
                None if matches!(sess.state, DState::Queued) => {
                    faults.push(format!("queued session {idx} missing from the FIFO"));
                }
                None => {}
            }
            if sess.lease.is_some() {
                held += 1;
                if !matches!(sess.state, DState::Playing | DState::Vcr { .. }) {
                    faults.push(format!(
                        "session {idx} holds a lease in a non-serving state"
                    ));
                }
            } else if matches!(sess.state, DState::Playing | DState::Vcr { .. }) {
                faults.push(format!("session {idx} is serving without a lease"));
            }
            if matches!(sess.state, DState::Starved(_)) {
                starved += 1;
            }
        }
        for (stray, count) in entries {
            entry_found(stray, count, None);
        }
        queue_faults.append(&mut faults);
        let mut faults = queue_faults;
        // Reported resources first, then the findings above, then what
        // the recount says about the books.
        let drift = self.core.resource_drift(0, held, starved);
        let mut v = Vec::from_iter(drift.disk);
        // The reserve accounts the *whole* pool here, so its failure
        // ledger must track the disk's exactly — this is the audit that
        // catches the fail-before-release ordering bug.
        let (reserve, disk) = (&self.core.reserve, &self.core.disk);
        if reserve.failed() != disk.failed() {
            v.push(format!(
                "reserve failure accounting drifted from the disk: reserve {} != disk {}",
                reserve.failed(),
                disk.failed()
            ));
        }
        v.append(&mut faults);
        v.extend(
            self.core
                .population_drift(self.sessions.issued(), live, (0, from_disk)),
        );
        if let Some(in_use) = drift.leases {
            v.push(format!(
                "lease accounting broken: sessions hold {held}, disk says {in_use}"
            ));
        }
        if let Some(in_use) = drift.reserve {
            v.push(format!(
                "reserve accounting broken: sessions hold {held}, reserve says {in_use}"
            ));
        }
        if let Some(tracked) = drift.population {
            v.push(format!(
                "starved population drifted: counted {starved}, tracked {tracked}"
            ));
        }
        v
    }

    fn buffer_segments(&self) -> u64 {
        0
    }

    fn live_sessions(&self) -> usize {
        self.sessions.len()
    }

    fn session_slots(&self) -> usize {
        self.sessions.resident_slots()
    }
}

#[cfg(test)]
mod tests {
    use vod_runtime::{DegradePolicy, FaultKind, FaultPlan};

    use super::*;
    use crate::server::HostedMovie;

    impl DedicatedServer {
        /// The audit's recount, for the cross-backend lease test:
        /// `(pre-allocated leases, session-held leases, starved sessions)`.
        pub(crate) fn holders(&self) -> (u32, u32, u32) {
            let live = || self.sessions.iter().map(|(_, s)| s);
            let held = live().filter(|s| s.lease.is_some()).count();
            let degraded = live()
                .filter(|s| matches!(s.state, DState::Starved(_)))
                .count();
            (0, held as u32, degraded as u32)
        }
    }

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

    /// The last session id is issued; the next admission is refused with
    /// a typed error before it takes a stream.
    #[test]
    fn admission_ends_when_the_ids_run_out() {
        let mut s = DedicatedServer::new(config());
        s.sessions = SessionStore::starting_at(u32::MAX - 1);
        assert_eq!(s.open_session(MovieId(0)).unwrap(), SessionId(u32::MAX - 1));
        assert!(matches!(
            s.open_session(MovieId(0)),
            Err(ServerError::SessionIdsExhausted)
        ));
        assert!(matches!(
            s.adopt_session(MovieId(0), 100),
            Err(ServerError::SessionIdsExhausted)
        ));
        assert_eq!(s.core.reserve.in_use(), 1);
        s.tick();
        assert_eq!(s.check_invariants(), Vec::<String>::new());
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
        s.core.disk.skew_failed(100);
        assert_eq!(
            s.check_invariants(),
            [
                "disk conservation broken: in_use 2 + free 0 + failed 100 != provisioned 2",
                "reserve failure accounting drifted from the disk: reserve 0 != disk 100",
            ]
        );
        let mut s = busy();
        // A session lease dropped without a release.
        s.sessions.live_mut(1).lease = None;
        assert_eq!(
            s.check_invariants(),
            [
                "session 1 is serving without a lease",
                "lease accounting broken: sessions hold 1, disk says 2",
                "reserve accounting broken: sessions hold 1, reserve says 2",
            ]
        );
        let mut s = busy();
        s.sessions.live_mut(1).state = DState::Paused { remaining: 3 };
        assert_eq!(
            s.check_invariants(),
            ["session 1 holds a lease in a non-serving state"]
        );
        let mut s = busy();
        s.core.degraded_count += 1;
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
        let lease = s.sessions.live_mut(1).lease.take();
        s.sessions.live_mut(1).state = DState::Paused { remaining: 3 };
        s.sessions.live_mut(2).lease = lease;
        assert_eq!(
            s.check_invariants(),
            [
                "queued session 2 holds a lease",
                "session 2 holds a lease in a non-serving state",
            ]
        );
    }
}
