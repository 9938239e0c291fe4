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
//! enters the [`RetryLedger`](vod_runtime::RetryLedger) (bounded re-wait, backoff retries,
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
use std::convert::Infallible;

use vod_runtime::{BackendKind, SessionStore};
use vod_workload::VcrKind;

use crate::backend::{Adoption, DeliveryBackend};
use crate::content::MovieId;
use crate::core::{apply_faults, audit_walk, FaultPolicy, Recount, Retry, ServerCore, Swept};
use crate::disk::StreamLease;
use crate::server::{ServerConfig, ServerError};
use crate::session::{
    admit, resolve, status_of, Session, SessionId, SessionState, SessionStatus, Sessions,
};

/// A unicast viewer. There is nothing to be `Shared` in: `Waiting` is the
/// FIFO queue for a free stream, `Dedicated` the whole viewing, and
/// `Degraded` has no window to rejoin, so its retry timeout sends the
/// session back to the queue, where further waits are ordinary queueing
/// (transient denials), not degradation. The scheme's own field is the
/// admission stamp ([`Admission`]).
type UnicastSession = Session<Infallible, Admission>;

struct Admission {
    /// The tick the session opened, until its first admission is recorded
    /// in `startup_waits`; [`COUNTED`] from then on — a session that falls
    /// back to the queue after starving must not count a second startup
    /// wait, and an adopted one counts none. (An `Option<u64>` would say
    /// it better and cost every record 8 bytes the audit walks each tick.)
    opened_at: u64,
}

/// No tick: see [`Admission::opened_at`].
const COUNTED: u64 = u64::MAX;

/// Deliver one segment to a playing session through its lease. Returns
/// false when that was the last of the movie.
fn consume_one(sess: &mut UnicastSession, core: &mut ServerCore) -> bool {
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
    sessions: Sessions<Infallible, Admission>,
    /// FIFO of queued session indices awaiting a stream.
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
        sess.state = SessionState::Dedicated;
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
            let stamp = &mut self.sessions.live_mut(idx).scheme.opened_at;
            if *stamp != COUNTED {
                let waited = self.core.now - std::mem::replace(stamp, COUNTED);
                self.core.startup_waits.push(waited as f64);
            }
            self.active.push(idx);
        }
    }
}

impl FaultPolicy for DedicatedServer {
    const RESERVE_FAILS_FIRST: bool = false;

    fn leases_revoked(&mut self, revoked: &[u64]) -> u32 {
        // Every lease is a playing session's.
        self.core.revoke_session_leases(&mut self.sessions, revoked);
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
        let now = self.core.now;
        let queued = SessionState::Waiting { start_at: now + 1 };
        let stamp = Admission { opened_at: now };
        let idx = admit(&mut self.sessions, movie_idx, 0, queued, stamp)?;
        self.queue.push_back(idx);
        if self.queue.len() == 1 {
            // Nobody ahead: straight onto a stream if one is free.
            self.drain_queue();
        }
        Ok(SessionId(idx))
    }

    fn request_vcr(
        &mut self,
        id: SessionId,
        kind: VcrKind,
        magnitude: u32,
    ) -> Result<(), ServerError> {
        resolve(&self.sessions, id)?;
        let sess = self.sessions.live_mut(id.0);
        if !matches!(sess.state, SessionState::Dedicated) {
            return Err(ServerError::InvalidState { operation: "vcr" });
        }
        // A sweep rides the stream the viewing already holds.
        sess.state = self.core.begin_vcr(sess, kind, magnitude, magnitude.max(1));
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
        let movie_idx = self.core.adoptable(&self.sessions, movie, position)?;
        // A migration places immediately or refuses: the FIFO queue is
        // for fresh admissions, and queueing a displaced session here
        // would hide it from the front tier's failover ledger.
        // Locally permanent — the ledger may resolve the displaced
        // session elsewhere; see `FederationMetrics`.
        let lease = self.core.try_lease().ok_or_else(|| self.core.deny_vcr())?;
        let state = SessionState::Dedicated;
        let stamp = Admission { opened_at: COUNTED };
        let idx = admit(&mut self.sessions, movie_idx, position, state, stamp)?;
        self.play(idx, lease);
        self.active.push(idx);
        Ok((SessionId(idx), Adoption::DedicatedStream))
    }

    fn session_status(&self, id: SessionId) -> Result<SessionStatus, ServerError> {
        status_of(&self.sessions, id, self.core.now)
    }

    fn tick(&mut self) {
        self.core.begin_tick();
        apply_faults(self);
        self.drain_queue();
        let stalled = self.core.disk_stalled();
        let mut i = 0;
        while i < self.active.len() {
            let idx = self.active[i];
            let sess = self.sessions.live_mut(idx);
            // Does the session stay on the active walk?
            let stays = match &mut sess.state {
                SessionState::Dedicated if stalled => {
                    self.core.metrics.runtime.stall_minutes += 1.0;
                    true
                }
                SessionState::Dedicated => {
                    let more = consume_one(sess, &mut self.core);
                    if !more {
                        self.core.finish(&mut self.sessions, idx);
                    }
                    more
                }
                SessionState::Vcr { .. } => {
                    let length = self.core.config.movies[sess.movie_idx].geometry.length;
                    match self.core.sweep_position(sess, length) {
                        Swept::Going => true,
                        Swept::OffTheEnd => {
                            self.core.finish(&mut self.sessions, idx);
                            false
                        }
                        Swept::Landed(kind) => {
                            // No shared window can cover the resume: a miss
                            // by construction, but the viewer already holds
                            // the stream, so playback continues seamlessly.
                            self.core.metrics.runtime.record_resume(kind, false);
                            sess.state = SessionState::Dedicated;
                            true
                        }
                    }
                }
                // The pause runs through the tick before `until`.
                SessionState::Paused { until } if self.core.now + 1 < *until => true,
                SessionState::Paused { .. } => {
                    // Resume needs a fresh stream; no window exists, so
                    // the trial is a miss either way.
                    self.core
                        .metrics
                        .runtime
                        .record_resume(VcrKind::Pause, false);
                    self.core.resume_on_own_stream(sess);
                    true
                }
                SessionState::Degraded(ledger) => {
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
                            let start_at = self.core.now + 1;
                            sess.state = SessionState::Waiting { start_at };
                            self.queue.push_back(idx);
                            false
                        }
                    }
                }
                SessionState::Waiting { .. } => false,
                SessionState::Shared(never) => match *never {},
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
        // Queue and walk conservation: the FIFO and the active walk
        // partition the live population — every `Waiting` session sits in
        // the queue exactly once and holds no lease, every other one is on
        // the walk exactly once. One id tally per list stands in for a
        // sort; what the entries say about the queue is reported ahead of
        // what the walk over the sessions says.
        let mut queued = self.sessions.tally(&self.queue);
        let mut walked = self.sessions.tally(&self.active);
        let mut findings = Vec::new();
        // The reserve accounts the *whole* pool here, so its failure
        // ledger must track the disk's exactly — this is the audit that
        // catches the fail-before-release ordering bug.
        let (reserve, disk) = (&self.core.reserve, &self.core.disk);
        if reserve.failed() != disk.failed() {
            findings.push(format!(
                "reserve failure accounting drifted from the disk: reserve {} != disk {}",
                reserve.failed(),
                disk.failed()
            ));
        }
        let mut entry_found = |idx: u32, count: u32, sess: Option<&UnicastSession>| {
            if count > 1 {
                findings.push(format!("session {idx} queued {count} times"));
            }
            match sess {
                Some(sess) if matches!(sess.state, SessionState::Waiting { .. }) => {
                    if sess.lease.is_some() {
                        findings.push(format!("queued session {idx} holds a lease"));
                    }
                }
                _ => findings.push(format!("queue entry {idx} is not a queued session")),
            }
        };
        let mut recount = Recount::default();
        let mut faults = Vec::new();
        for (idx, sess) in self.sessions.iter() {
            let waiting = matches!(sess.state, SessionState::Waiting { .. });
            match queued.take(idx) {
                0 if waiting => faults.push(format!("queued session {idx} missing from the FIFO")),
                0 => {}
                1 if waiting && sess.lease.is_none() => {}
                count => entry_found(idx, count, Some(sess)),
            }
            audit_walk(&mut faults, idx, sess, walked.take(idx));
            recount.see(idx, sess, false, &mut faults);
        }
        for (stray, count) in queued.strays() {
            entry_found(stray, count, None);
        }
        for (stray, _) in walked.strays() {
            faults.push(format!("active walk entry {stray} names no live session"));
        }
        findings.append(&mut faults);
        self.core
            .audit(0, self.sessions.issued(), recount, findings)
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
        // The outage recovers at t = 17. The two queued viewers take the
        // streams back and finish at 27, so the revoked holders' retry at
        // 29, inside their timeout at 37, wins a stream: their refusals
        // resolve transient.
        let plan = FaultPlan::new(vec![FaultEvent {
            at: 5,
            kind: FaultKind::DiskOutage {
                count: 2,
                recover_after: 12,
            },
        }]);
        s.inject_faults(plan, DegradePolicy::default());
        let a = s.open_session(MovieId(0)).unwrap();
        s.tick();
        let b = s.open_session(MovieId(0)).unwrap();
        let c = s.open_session(MovieId(0)).unwrap();
        let d = s.open_session(MovieId(0)).unwrap();
        for _ in 0..70 {
            s.tick();
            // Includes `reserve.failed == disk.failed`: with every
            // stream in use at the fault tick, a fail-then-release order
            // leaves the reserve failure ledger at 0.
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
                "lease accounting broken: 0 pre-allocated + 1 session-held != disk 2",
                "reserve accounting broken: sessions hold 1, reserve says 2",
            ]
        );
        let mut s = busy();
        s.sessions.live_mut(1).state = SessionState::Paused { until: 4 };
        assert_eq!(
            s.check_invariants(),
            ["session 1 holds a lease in a non-serving state"]
        );
        let mut s = busy();
        s.core.degraded_count += 1;
        assert_eq!(
            s.check_invariants(),
            ["degraded population drift: counted 0, tracked 1"]
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
        s.sessions.live_mut(1).state = SessionState::Paused { until: 4 };
        s.sessions.live_mut(2).lease = lease;
        assert_eq!(
            s.check_invariants(),
            [
                "queued session 2 holds a lease",
                "session 2 holds a lease in a non-serving state",
            ]
        );
    }

    #[test]
    fn audit_sees_walk_drift() {
        let mut s = busy();
        s.active.retain(|&idx| idx != 0);
        assert_eq!(
            s.check_invariants(),
            ["session 0 is missing from the active walk"]
        );
        let mut s = busy();
        s.active.push(1);
        assert_eq!(
            s.check_invariants(),
            ["session 1 is on the active walk 2 times"]
        );
        let mut s = busy();
        s.active.push(2);
        assert_eq!(
            s.check_invariants(),
            ["session 2 is waiting on the active walk"]
        );
        let mut s = busy();
        s.active.push(7);
        s.queue.push_back(7);
        assert_eq!(
            s.check_invariants(),
            [
                "queue entry 7 is not a queued session",
                "active walk entry 7 names no live session",
            ]
        );
    }
}
