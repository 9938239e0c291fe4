//! Pyramid fast-broadcasting backend: channel-transition-invariant
//! broadcast delivery (arXiv:1711.08118 lineage).
//!
//! Each hosted movie permanently occupies `k` disk streams — one per
//! geometric segment channel of its [`PyramidGeometry`] — and one
//! staging segment per channel (its *slot*). Channels loop their
//! segments phase-locked to the global clock; clients join at the next
//! segment-1 boundary (startup wait ≤ one segment-1 period, scheduled on
//! the shared `TimerWheel`), record all channels concurrently, and play
//! from their local prefix. Server cost is therefore **load-invariant**:
//! `Σn = Σk + reserve`, `ΣB = Σk` staging segments, no matter how many
//! viewers arrive — the scheme trades the batching design's server-side
//! partitions for client-side buffer (at most the prefix below the last
//! segment, `d·(2^(k−1) − 1)` minutes, about half the movie; no report
//! carries it).
//! Every delivery is byte-verified: off the staging slot when that
//! minute is on the air this tick, else as a replay from the client's
//! prefix.
//!
//! VCR follows the interactive-bandwidth accounting of arXiv:1706.06642:
//! RW and Pause resume inside the received prefix and are always hits
//! (they cost nothing); FF beyond the reception front needs a dedicated
//! stream from the same [`StreamReserve`] the batching server uses, and
//! the session merges back into the broadcast as soon as the front
//! catches up to its position.
//!
//! # Fault semantics (chaos-grade, per channel)
//!
//! Faults degrade **channels**, never whole movies. A channel is *on the
//! air* for a tick iff its lease is live, the disk is serving (slowdowns
//! blank off-period ticks), and its staging slot is funded (a
//! buffer-shrink overcommit defunds slots from the global tail, in
//! deterministic order). A channel whose scheduled **real** minute is
//! not on the air stalls only that delivery — other channels keep
//! broadcasting, and clients keep free playback inside their
//! already-received prefix; a broken channel stalls exactly the sessions
//! whose playout front has crossed into its segment, and a stall is
//! counted there, per session (`stall_minutes`) — nothing is kept per
//! channel. Because each channel loops phase-locked to the global clock,
//! every stall is boundary-aligned by construction: recovery rejoins the
//! wheel mid-cycle and the missed minutes return on their next loop.
//!
//! Reception bookkeeping is **exact** and kept per movie: every client
//! of a movie records the same channels from the tick it starts
//! receiving, so one [`AirLog`] per movie — the last tick each minute was
//! actually staged — and one join tick per session give each client's
//! contiguous front, which can never lead the truly-broadcast front (a
//! conservative per-movie-freeze model can lead by up to `d − 1` after
//! recovery; `recovered_front_never_leads_schedule` pins that the log
//! does not). A session that
//! outruns its front (fault stall or revoked catch-up lease) enters
//! `Degraded` and follows the [`RetryLedger`](vod_runtime::RetryLedger): bounded re-wait,
//! dedicated-stream retries under exponential backoff whose denials are
//! classified at resolution time (transient when a retry eventually
//! succeeds, permanent when the session rejoins free or times out), and
//! after the retry timeout a plain wait for the looping broadcast front
//! — which reaches every position once the channels are back.

use vod_runtime::{AirLog, BackendKind, PyramidGeometry, SessionStore, TimerWheel};
use vod_workload::VcrKind;

use crate::backend::{Adoption, DeliveryBackend};
use crate::content::{verify_segment, MovieId, Segment};
use crate::core::{apply_faults, audit_walk, FaultPolicy, Recount, Retry, ServerCore, Swept};
use crate::disk::StreamLease;
use crate::server::{HostedMovie, ServerConfig, ServerError};
use crate::session::{
    admit, resolve, status_of, Session, SessionId, SessionState, SessionStatus, Sessions,
};

/// One hosted movie's broadcast apparatus.
struct PyramidMovie {
    movie: MovieId,
    geometry: PyramidGeometry,
    /// One lease per channel; `None` while a fault holds the channel
    /// down (only that channel's deliveries stall).
    leases: Vec<Option<StreamLease>>,
    /// One staging segment per channel: the minute it broadcasts this
    /// tick, `None` on a padding or off-air tick. A slot is cyclic — a
    /// channel loops its segment forever, so consecutive stores jump
    /// backwards at every cycle boundary by design.
    slots: Vec<Option<Segment>>,
    /// What the slots have put on the air, logged once a tick: every
    /// client's reception follows from it and the tick it joined.
    air: AirLog,
}

/// A broadcast client. `Waiting` is for the next segment-1 boundary;
/// `Shared` is receiving all channels and consuming one minute per tick
/// from the local prefix; a sweep or a pause keeps receiving, and a sweep
/// holds a lease only when it runs beyond the reception front;
/// `Dedicated` is catching up beyond the front on a lease until the
/// broadcast covers the position again; `Degraded` outran the front with
/// no stream and rejoins free the moment the front passes its position —
/// past the retry timeout, a plain wait for the looping front. The
/// scheme's own field is the tick the client starts receiving: with its
/// movie's [`AirLog`] it is the client's exact reception.
type BroadcastSession = Session<(), u64>;

/// Deliver minute `sess.position` to a receiving session from the
/// broadcast: byte-verify through the staging slot when that exact
/// minute is on the air this tick, otherwise from the client's local
/// prefix (canonical bytes, re-verified).
fn consume_from_broadcast(
    sess: &mut BroadcastSession,
    movies: &[PyramidMovie],
    core: &mut ServerCore,
) {
    sess.stats.from_buffer += 1;
    if !verify_delivery(&movies[sess.movie_idx], sess.position, core.now) {
        sess.stats.verify_failures += 1;
        core.metrics.verify_failures += 1;
    }
    sess.position += 1;
    core.metrics.runtime.buffer_minutes += 1.0;
}

/// Byte-verify one delivery of minute `position`. Most deliveries are
/// replays (a minute is on the air about `k/l` of the time), so the air
/// log decides before the channel is looked up.
fn verify_delivery(m: &PyramidMovie, position: u32, now: u64) -> bool {
    let on_air = m.air.on_air(now, position);
    let slot = || {
        m.slots
            .get(m.geometry.channel_of(position) as usize)?
            .as_ref()
    };
    match on_air.then(slot).flatten() {
        Some(seg) if seg.index == position => verify_segment(seg),
        // Client-buffered replay: the segment was verified at reception;
        // re-derive and re-verify the canonical bytes.
        _ => verify_segment(&crate::content::generate_segment(m.movie, position)),
    }
}

/// `sess` holds a dedicated lease it no longer needs: the broadcast front
/// covers its position again. Back into the broadcast.
fn merge_back(sess: &mut BroadcastSession, core: &mut ServerCore) {
    if let Some(lease) = sess.lease.take() {
        core.release_lease(lease);
    }
    sess.state = SessionState::Shared(());
}

/// The pyramid fast-broadcasting backend. See the module docs.
pub struct PyramidServer {
    /// The core's reserve serves FF-beyond-front; its capacity is
    /// whatever the channel pre-allocation leaves over, mirroring the
    /// batching server's reserve derivation.
    core: ServerCore,
    /// Staging segments the buffer budget funds: one per channel (`Σk`,
    /// the backend's `ΣB`) until a buffer-shrink fault takes some away.
    staging_budget: usize,
    movies: Vec<PyramidMovie>,
    sessions: Sessions<(), u64>,
    /// Waiting-session wakeups keyed by their boundary tick: exactly one
    /// per `Waiting` session, filed at admission and drained on the tick
    /// it starts receiving.
    wakeups: TimerWheel<u32>,
    /// Indices of the sessions past Waiting, in the order they got there.
    active: Vec<u32>,
    /// Test hook: the `(movie, channel)` staging slot to corrupt between
    /// the next tick's broadcast and its session phase.
    #[cfg(test)]
    corrupt_staged: Option<(usize, usize)>,
}

impl PyramidServer {
    /// Build the broadcast backend from the shared config: per movie,
    /// the smallest channel count whose segment-1 period does not exceed
    /// the movie's batching `max_wait` (same worst-case startup promise,
    /// different delivery mechanism).
    pub fn new(config: ServerConfig) -> Self {
        let geometry_of = |m: &HostedMovie| {
            PyramidGeometry::for_target_wait(m.geometry.length, m.geometry.max_wait())
        };
        let total_channels: u32 = config
            .movies
            .iter()
            .map(|m| geometry_of(m).channels())
            .sum();
        let mut core = ServerCore::new(config, total_channels);
        let mut movies = Vec::with_capacity(core.config.movies.len());
        for m in &core.config.movies {
            let geometry = geometry_of(m);
            let channels = geometry.channels() as usize;
            movies.push(PyramidMovie {
                movie: m.movie,
                geometry,
                // A config whose stream pool cannot even cover the
                // channel pre-allocation is a sizing bug; the channel
                // stays down (the movie stalls) rather than panicking.
                leases: (0..channels).map(|_| core.disk.acquire()).collect(),
                slots: vec![None; channels],
                air: AirLog::new(geometry.length()),
            });
        }
        Self {
            core,
            staging_budget: total_channels as usize,
            movies,
            sessions: SessionStore::new(),
            wakeups: TimerWheel::new(),
            active: Vec::new(),
            #[cfg(test)]
            corrupt_staged: None,
        }
    }

    /// Broadcast phase: re-acquire dead channels, then stage each
    /// channel's scheduled minute independently. A channel is *on the
    /// air* for this tick iff its lease is live, the disk is serving
    /// (slowdowns blank off-period ticks for every channel at once), and
    /// its staging slot is funded — a buffer-shrink overcommit of `o`
    /// segments defunds the last `o` slots in global (movie, channel)
    /// order, so which channels a squeeze silences is deterministic. An
    /// off-air channel stages nothing; what that costs is counted where
    /// it is felt, as a stall of each session whose playout front has
    /// reached the missing minute.
    fn broadcast(&mut self) {
        let core = &mut self.core;
        let stalled = core.disk_stalled();
        let total: usize = self.movies.iter().map(|m| m.slots.len()).sum();
        let funded = total.min(self.staging_budget);
        let mut slot_index: usize = 0;
        for m in &mut self.movies {
            for lease in m.leases.iter_mut().filter(|l| l.is_none()) {
                *lease = core.disk.acquire();
            }
            for ci in 0..m.leases.len() {
                let slot_funded = slot_index < funded;
                slot_index += 1;
                let Some(minute) = m.geometry.broadcast_minute(ci as u32, core.now) else {
                    // Padding tick: nothing real was scheduled here.
                    m.slots[ci] = None;
                    continue;
                };
                let on_air = m.leases[ci]
                    .as_ref()
                    .filter(|_| !stalled && slot_funded)
                    .and_then(|lease| core.disk.read(lease, m.movie, minute));
                match on_air {
                    Some(seg) => {
                        if !verify_segment(&seg) {
                            core.metrics.verify_failures += 1;
                        }
                        assert_eq!(seg.movie, m.movie, "segment for wrong movie");
                        m.slots[ci] = Some(seg);
                    }
                    None => m.slots[ci] = None,
                }
            }
        }
    }
}

impl FaultPolicy for PyramidServer {
    const RESERVE_FAILS_FIRST: bool = false;

    fn leases_revoked(&mut self, revoked: &[u64]) -> u32 {
        let mut channels_lost: u32 = 0;
        for lease in self.movies.iter_mut().flat_map(|m| m.leases.iter_mut()) {
            if lease.as_ref().is_some_and(|l| l.revoked_in(revoked)) {
                *lease = None;
                channels_lost += 1;
            }
        }
        self.core.revoke_session_leases(&mut self.sessions, revoked);
        channels_lost
    }

    fn buffer_resized(&mut self, grow: bool, segments: usize) -> bool {
        if grow {
            self.staging_budget += segments;
        } else {
            self.staging_budget = self.staging_budget.saturating_sub(segments);
        }
        true
    }
}

impl DeliveryBackend for PyramidServer {
    fn kind(&self) -> BackendKind {
        BackendKind::PyramidBroadcast
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
        let geometry = self.movies[movie_idx].geometry;
        let wait = geometry.startup_wait(now);
        let state = match wait {
            0 => SessionState::Shared(()),
            _ => SessionState::Waiting {
                start_at: now + wait,
            },
        };
        let idx = admit(&mut self.sessions, movie_idx, 0, state, now + wait)?;
        self.core.startup_waits.push(wait as f64);
        if wait == 0 {
            self.active.push(idx);
        } else {
            self.wakeups.schedule(now + wait, idx);
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
        if !matches!(
            sess.state,
            SessionState::Shared(()) | SessionState::Dedicated
        ) {
            return Err(ServerError::InvalidState { operation: "vcr" });
        }
        let PyramidMovie { air, geometry, .. } = &self.movies[sess.movie_idx];
        let length = geometry.length();
        // FF beyond the reception front costs a dedicated stream
        // (interactive-bandwidth accounting); everything else plays from
        // the client's prefix for free, and a paused viewer keeps
        // receiving.
        if matches!(kind, VcrKind::FastForward) && sess.lease.is_none() {
            let target = sess.position.saturating_add(magnitude).min(length);
            if target < length && !air.received(sess.scheme, target) {
                // Issue-time Erlang loss: the viewer stays in the
                // broadcast and never retries this request.
                sess.lease = Some(self.core.try_lease().ok_or_else(|| self.core.deny_vcr())?);
            }
        }
        sess.state = self.core.begin_vcr(sess, kind, magnitude, magnitude.max(1));
        Ok(())
    }

    fn session_status(&self, id: SessionId) -> Result<SessionStatus, ServerError> {
        status_of(&self.sessions, id, self.core.now)
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
        // A broadcast client assembles its prefix from the channels it
        // has been recording since it joined; an adopted session arrives
        // with an empty local prefix, so mid-movie playback can only be
        // served from the dedicated reserve. The session plays catch-up
        // on the lease and merges into the broadcast once its (fresh)
        // reception front sweeps past its position — the looping
        // channels guarantee that eventually happens.
        let lease = self.core.try_lease().ok_or_else(|| self.core.deny_vcr())?;
        let idx = admit(
            &mut self.sessions,
            movie_idx,
            position,
            SessionState::Dedicated,
            self.core.now,
        )?;
        self.sessions.live_mut(idx).lease = Some(lease);
        self.active.push(idx);
        Ok((SessionId(idx), Adoption::DedicatedStream))
    }

    fn tick(&mut self) {
        self.core.begin_tick();
        apply_faults(self);
        self.broadcast();
        #[cfg(test)]
        if let Some((movie, channel)) = self.corrupt_staged.take() {
            tests::corrupt(&mut self.movies[movie].slots[channel]);
        }
        // Boundary joins: sessions whose segment-1 boundary is this tick
        // start receiving now.
        for idx in self.wakeups.drain_tick(self.core.now) {
            let sess = self.sessions.live_mut(idx);
            if matches!(sess.state, SessionState::Waiting { .. }) {
                sess.state = SessionState::Shared(());
                self.active.push(idx);
            }
        }
        // Reception first: every receiving client records exactly the
        // minutes staged this tick, so a front read from the log can never
        // lead the truly-broadcast one — channels a fault holds off the
        // air leave holes that fill on their next loop.
        let now = self.core.now;
        for m in &mut self.movies {
            let staged = m.slots.iter().flatten().map(|seg| seg.index);
            m.air.log(now, staged);
        }
        let stalled = self.core.disk_stalled();
        let mut i = 0;
        while i < self.active.len() {
            let idx = self.active[i];
            let sess = self.sessions.live_mut(idx);
            let PyramidMovie { air, geometry, .. } = &self.movies[sess.movie_idx];
            let (since, length) = (sess.scheme, geometry.length());
            let received = |minute| air.received(since, minute);
            // Does the session stay on the active walk?
            let stays = match &mut sess.state {
                // A catch-up lease reads nothing on a slowdown's
                // off-period tick.
                SessionState::Dedicated if stalled => {
                    self.core.metrics.runtime.stall_minutes += 1.0;
                    true
                }
                SessionState::Shared(()) | SessionState::Dedicated if sess.position >= length => {
                    self.core.finish(&mut self.sessions, idx);
                    false
                }
                SessionState::Shared(()) if received(sess.position) => {
                    consume_from_broadcast(sess, &self.movies, &mut self.core);
                    let ended = sess.position >= length;
                    if ended {
                        self.core.finish(&mut self.sessions, idx);
                    }
                    !ended
                }
                SessionState::Shared(()) => {
                    // The playout front crossed into a segment some
                    // off-air channel still owes: only this session stalls
                    // (unreachable fault-free, by channel-transition
                    // invariance).
                    self.core.metrics.runtime.stall_minutes += 1.0;
                    true
                }
                SessionState::Dedicated if received(sess.position) => {
                    // The broadcast front caught up: merge back.
                    self.core.metrics.piggyback_merges += 1;
                    merge_back(sess, &mut self.core);
                    consume_from_broadcast(sess, &self.movies, &mut self.core);
                    true
                }
                SessionState::Dedicated => {
                    let movie = self.movies[sess.movie_idx].movie;
                    let lease = sess.lease.as_ref();
                    self.core
                        .read_via_lease(lease, movie, sess.position, &mut sess.stats);
                    sess.position += 1;
                    let ended = sess.position >= length;
                    if ended {
                        self.core.finish(&mut self.sessions, idx);
                    }
                    !ended
                }
                SessionState::Vcr { .. } => match self.core.sweep_position(sess, length) {
                    Swept::Going => true,
                    Swept::OffTheEnd => {
                        self.core.finish(&mut self.sessions, idx);
                        false
                    }
                    Swept::Landed(kind) => {
                        let hit = received(sess.position);
                        self.core.metrics.runtime.record_resume(kind, hit);
                        if hit {
                            if sess.lease.is_some() {
                                self.core.metrics.piggyback_merges += 1;
                            }
                            merge_back(sess, &mut self.core);
                        } else if sess.lease.is_some() {
                            sess.state = SessionState::Dedicated;
                        } else {
                            // Only reachable through fault stalls: the
                            // issue-time classification said the target
                            // was received, the exact front now disagrees.
                            self.core.resume_on_own_stream(sess);
                        }
                        true
                    }
                },
                // The pause runs through the tick before `until`.
                SessionState::Paused { until } if self.core.now + 1 < *until => true,
                SessionState::Paused { .. } => {
                    // Reception continued throughout the pause, so the
                    // front moved past the resume position: free hit.
                    let hit = sess.position >= length || received(sess.position);
                    self.core.metrics.runtime.record_resume(VcrKind::Pause, hit);
                    if hit {
                        sess.state = SessionState::Shared(());
                    } else {
                        self.core.resume_on_own_stream(sess);
                    }
                    true
                }
                SessionState::Degraded(ledger) => {
                    self.core.metrics.runtime.rewait_minutes += 1.0;
                    if sess.position >= length || received(sess.position) {
                        // The front swept past the starved position.
                        self.core.exit_degraded(ledger, false);
                        self.core.metrics.runtime.degraded_rejoined += 1;
                        sess.state = SessionState::Shared(());
                    } else if let Retry::Granted(lease) = self.core.retry_degraded(ledger) {
                        sess.lease = Some(lease);
                        sess.state = SessionState::Dedicated;
                    }
                    // Past the timeout the ledger attempts nothing more:
                    // the session waits for the looping front.
                    true
                }
                SessionState::Waiting { .. } => false,
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
        let now = self.core.now;
        let mut findings = Vec::new();
        let channel_live: u32 = self
            .movies
            .iter()
            .map(|m| m.leases.iter().filter(|l| l.is_some()).count() as u32)
            .sum();
        // Channel-wheel phase consistency: a staged slot always holds the
        // minute its channel's schedule called at the tick just played
        // (tick() advances `now` after staging).
        if now > 0 {
            for (mi, m) in self.movies.iter().enumerate() {
                for (ci, slot) in m.slots.iter().enumerate() {
                    if let Some(seg) = slot {
                        let scheduled = m.geometry.broadcast_minute(ci as u32, now - 1);
                        if scheduled != Some(seg.index) {
                            findings.push(format!(
                                "movie {mi} channel {ci} staged minute {} off the wheel phase \
                                 (scheduled {scheduled:?})",
                                seg.index
                            ));
                        }
                    }
                }
            }
        }
        for (mi, m) in self.movies.iter().enumerate() {
            if let Some(minute) = m.air.drift() {
                findings.push(format!(
                    "movie {mi} reception prefix at minute {minute} drifted from its on-air recount"
                ));
            }
        }
        let (reserve, disk) = (&self.core.reserve, &self.core.disk);
        if reserve.failed() > disk.failed() {
            findings.push(format!(
                "reserve failure accounting leads the disk: reserve {} > disk {}",
                reserve.failed(),
                disk.failed()
            ));
        }
        let mut walked = self.sessions.tally(&self.active);
        let mut recount = Recount::default();
        let mut faults = Vec::new();
        let mut waiting = 0;
        for (idx, sess) in self.sessions.iter() {
            // A sweep inside the received prefix rides free.
            recount.see(idx, sess, true, &mut faults);
            waiting += usize::from(matches!(sess.state, SessionState::Waiting { .. }));
            audit_walk(&mut faults, idx, sess, walked.take(idx));
            // Prefix-coverage audit: a receiving session can never have
            // consumed past its reception front.
            let PyramidMovie { air, geometry, .. } = &self.movies[sess.movie_idx];
            if matches!(sess.state, SessionState::Shared(()))
                && sess.position < geometry.length()
                && sess.position > 0
                && !air.received(sess.scheme, sess.position - 1)
            {
                faults.push(format!(
                    "session {idx} consumed to {} past its reception front {}",
                    sess.position,
                    air.front(sess.scheme)
                ));
            }
        }
        for (stray, _) in walked.strays() {
            faults.push(format!("active walk entry {stray} names no live session"));
        }
        // One boundary wake-up per waiting session, drained as it joins.
        if waiting != self.wakeups.len() {
            faults.push(format!(
                "wheel population drift: {waiting} waiting != {} scheduled",
                self.wakeups.len()
            ));
        }
        findings.append(&mut faults);
        self.core
            .audit(channel_live, self.sessions.issued(), recount, findings)
    }

    fn buffer_segments(&self) -> u64 {
        self.staging_budget as u64
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

    /// Test hook: flip one payload byte of a staged segment.
    pub(super) fn corrupt(slot: &mut Option<Segment>) {
        slot.as_mut().expect("staged segment").data[0] ^= 0xFF;
    }

    fn config() -> ServerConfig {
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
        ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 40)
        }
    }

    #[test]
    fn boundary_join_and_play_through() {
        let mut s = PyramidServer::new(config());
        // Batching max_wait for (120, 20, 100) is T − b = 6 − 5 = 1, so
        // the pyramid provisions d ≤ 1: joins start immediately.
        let id = s.open_session(MovieId(0)).unwrap();
        assert_eq!(s.session_status(id).unwrap(), SessionStatus::Shared);
        for _ in 0..121 {
            s.tick();
            assert!(s.check_invariants().is_empty());
        }
        assert_eq!(s.session_status(id).unwrap(), SessionStatus::Done);
        assert_eq!(s.sessions_finished(), 1);
        assert_eq!(s.verify_failures(), 0);
        let rt = s.runtime_metrics();
        assert_eq!(rt.buffer_minutes, 120.0, "all service from the broadcast");
        assert_eq!(rt.disk_minutes, 0.0);
    }

    /// Every delivery of a corrupt staged minute counts, on the server
    /// and on its session, and nothing carries into the next tick.
    #[test]
    fn every_delivery_of_a_corrupt_staged_minute_counts() {
        let mut s = PyramidServer::new(config());
        // d = 1: a session opened at tick t plays minute 0 on tick t, off
        // channel 0's staging slot (which loops minute 0 alone).
        let cohort: Vec<SessionId> = (0..3)
            .map(|_| s.open_session(MovieId(0)).unwrap())
            .collect();
        s.corrupt_staged = Some((0, 0));
        s.tick();
        assert_eq!(s.verify_failures(), 3, "one per delivery");
        for &id in &cohort {
            assert_eq!(s.sessions.live(id.0).stats.verify_failures, 1);
            assert_eq!(s.session_position(id).unwrap(), 1);
        }
        // Next tick the slot is restaged: a newcomer's minute 0 and the
        // cohort's replayed minute 1 verify afresh, and pass.
        let late = s.open_session(MovieId(0)).unwrap();
        s.tick();
        assert_eq!(s.session_position(late).unwrap(), 1);
        assert_eq!(s.sessions.live(late.0).stats.verify_failures, 0);
        assert_eq!(s.verify_failures(), 3);
        // And a corrupt slot after a clean tick is seen.
        let later = s.open_session(MovieId(0)).unwrap();
        s.corrupt_staged = Some((0, 0));
        s.tick();
        assert_eq!(s.sessions.live(later.0).stats.verify_failures, 1);
        assert_eq!(s.verify_failures(), 4);
        assert!(s.check_invariants().is_empty());
    }

    /// The last session id is issued; the next admission is refused with
    /// a typed error before it takes a stream.
    #[test]
    fn admission_ends_when_the_ids_run_out() {
        let mut s = PyramidServer::new(config());
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
        assert_eq!(s.core.reserve.in_use(), 0);
        s.tick();
        assert_eq!(s.check_invariants(), Vec::<String>::new());
    }

    #[test]
    fn startup_wait_bounded_by_segment_one_period() {
        // A looser movie: (120, 2, 20) ⇒ T = 60, b = 10, max_wait = 50;
        // pyramid picks k = 2 (d = 40) — wait, ⌈120/3⌉ = 40 ≤ 50. Joins
        // wait for the next multiple of 40.
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 2, 20.0);
        let cfg = ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 8)
        };
        let mut s = PyramidServer::new(cfg);
        let d = s.movies[0].geometry.unit() as u64;
        assert!(d > 1);
        s.tick(); // now = 1: next boundary is d
        let id = s.open_session(MovieId(0)).unwrap();
        match s.session_status(id).unwrap() {
            SessionStatus::Waiting(at) => assert_eq!(at, d),
            other => panic!("expected Waiting, got {other:?}"),
        }
        assert!(s.startup_waits().mean() < d as f64, "wait < one period");
        for _ in 1..d {
            s.tick();
        }
        // Boundary tick: the session starts receiving.
        s.tick();
        assert_eq!(s.session_status(id).unwrap(), SessionStatus::Shared);
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn server_resources_are_load_invariant() {
        let mut s = PyramidServer::new(config());
        let channels = s.movies[0].geometry.channels();
        let base_in_use = s.core.disk.in_use();
        assert_eq!(base_in_use, channels);
        for _ in 0..50 {
            s.open_session(MovieId(0)).unwrap();
        }
        for _ in 0..30 {
            s.tick();
        }
        assert_eq!(
            s.core.disk.in_use(),
            channels,
            "50 viewers cost zero extra streams"
        );
        assert_eq!(s.buffer_segments(), u64::from(channels));
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn rw_and_pause_resumes_always_hit() {
        let mut s = PyramidServer::new(config());
        let id = s.open_session(MovieId(0)).unwrap();
        for _ in 0..20 {
            s.tick();
        }
        s.request_vcr(id, VcrKind::Rewind, 10).unwrap();
        for _ in 0..10 {
            s.tick();
        }
        s.request_vcr(id, VcrKind::Pause, 5).unwrap();
        for _ in 0..10 {
            s.tick();
        }
        let rt = s.runtime_metrics();
        assert_eq!(rt.resumes.trials(), 2);
        assert_eq!(rt.resumes.hits(), 2, "RW/Pause resume inside the prefix");
        assert_eq!(rt.vcr_denied, 0);
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn ff_beyond_front_takes_dedicated_stream_then_merges() {
        let mut s = PyramidServer::new(config());
        let id = s.open_session(MovieId(0)).unwrap();
        for _ in 0..5 {
            s.tick();
        }
        let before = s.core.reserve.in_use();
        // Jump 60 minutes ahead — far beyond anything received by t=5.
        s.request_vcr(id, VcrKind::FastForward, 60).unwrap();
        assert_eq!(s.core.reserve.in_use(), before + 1, "sweep holds a lease");
        // Drive until the sweep ends and the catch-up merges back.
        let mut merged = false;
        for _ in 0..120 {
            s.tick();
            assert!(s.check_invariants().is_empty());
            if matches!(s.session_status(id).unwrap(), SessionStatus::Shared) {
                merged = true;
                break;
            }
            if matches!(s.session_status(id).unwrap(), SessionStatus::Done) {
                break;
            }
        }
        assert!(
            merged,
            "catch-up session must merge back into the broadcast"
        );
        assert_eq!(s.core.reserve.in_use(), before, "lease released at merge");
        assert!(s.core.metrics.piggyback_merges >= 1);
        let rt = s.runtime_metrics();
        assert!(rt.disk_minutes > 0.0, "the sweep/catch-up was disk-served");
    }

    #[test]
    fn recovered_front_never_leads_schedule() {
        use vod_runtime::FaultEvent;
        // Multi-channel geometry (d = 40, k = 2): closed-form per-movie
        // bookkeeping can lead the real front by up to d − 1 = 39
        // after an outage recovered. The air log may not lead the
        // truly-staged schedule by even one minute, on any tick.
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 2, 20.0);
        let cfg = ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 8)
        };
        let mut s = PyramidServer::new(cfg);
        // 2 channel streams + 10 reserve: a count-11 outage exhausts the
        // free reserve, then revokes the newest channel lease (channel 1,
        // the one carrying minutes 40..119).
        assert_eq!(s.core.disk.available(), 10);
        let plan = FaultPlan::new(vec![FaultEvent {
            at: 30,
            kind: FaultKind::DiskOutage {
                count: 11,
                recover_after: 25,
            },
        }]);
        s.inject_faults(plan, DegradePolicy::default());
        // t = 0 is a segment-1 boundary: the session receives from the
        // first tick, exactly like the truth recorder below.
        let id = s.open_session(MovieId(0)).unwrap();
        let mut truth = vec![false; 120];
        let mut stalled_ticks = 0u64;
        for _ in 0..400 {
            s.tick();
            if matches!(s.session_status(id).unwrap(), SessionStatus::Done) {
                break;
            }
            for seg in s.movies[0].slots.iter().flatten() {
                truth[seg.index as usize] = true;
            }
            let truth_front = contiguous_prefix(&truth);
            let sess = s.sessions.get(id.0).unwrap();
            let front = s.movies[0].air.front(sess.scheme);
            assert!(
                front <= truth_front,
                "bookkept front {front} leads the truly-staged front {truth_front}"
            );
            assert_eq!(
                front, truth_front,
                "recovery resync must re-anchor the bookkept front exactly"
            );
            if sess.position < front || sess.position >= 120 {
                // playable or finished
            } else {
                stalled_ticks += 1;
            }
            let violations = s.check_invariants();
            assert!(violations.is_empty(), "{violations:?}");
        }
        assert_eq!(s.session_status(id).unwrap(), SessionStatus::Done);
        assert!(
            stalled_ticks > 0,
            "the outage window must actually stall the playout front"
        );
        let rt = s.runtime_metrics();
        assert!(
            rt.stall_minutes > 0.0,
            "the outage must show as stalled session minutes"
        );
    }

    /// How many minutes from the start a recorder holds without a hole.
    fn contiguous_prefix(got: &[bool]) -> u32 {
        got.iter().position(|&m| !m).unwrap_or(got.len()) as u32
    }

    /// The air log against a private recorder per session, in lock step:
    /// two multi-channel movies under the storm plan (outages that revoke
    /// channels, slowdowns, buffer squeezes), with joins on many ticks, FF
    /// catch-ups and adopted sessions. Each recorder is fed its movie's
    /// staged slots on every tick its session spends past `Waiting`; after
    /// every tick each live session's front read from the log must equal
    /// its recorder's contiguous prefix, and a receiving session must not
    /// have played past that prefix.
    #[test]
    fn air_log_front_equals_a_per_session_recorder() {
        let movies = vec![
            HostedMovie::from_allocation(MovieId(0), 120, 2, 20.0),
            HostedMovie::from_allocation(MovieId(1), 90, 6, 60.0),
        ];
        let cfg = ServerConfig::provisioned(movies, 8);
        let plan = crate::harness::storm_plan(&cfg, 400);
        let mut s = PyramidServer::new(cfg);
        assert_eq!(s.movies[0].geometry.unit(), 40);
        assert!(s.movies.iter().all(|m| m.geometry.channels() > 1));
        s.inject_faults(plan, DegradePolicy::default());
        let mut recorders = std::collections::BTreeMap::new();
        let (mut adopted, mut caught_up) = (0, 0);
        for t in 0..400u64 {
            if t < 300 && t % 3 == 0 {
                let mi = (t / 3 % 2) as usize;
                let id = s.open_session(MovieId(mi as u32)).unwrap();
                let length = s.movies[mi].geometry.length() as usize;
                recorders.insert(id.0, (mi, vec![false; length]));
            }
            if t < 300 && t % 20 == 7 {
                if let Ok((id, _)) = s.adopt_session(MovieId(0), 60) {
                    recorders.insert(id.0, (0, vec![false; 120]));
                    adopted += 1;
                }
            }
            if t % 11 == 5 {
                let (&id, (mi, _)) = recorders.iter().nth(t as usize % recorders.len()).unwrap();
                let sess = s.sessions.live(id);
                let (front, leased) = (s.movies[*mi].air.front(sess.scheme), sess.lease.is_some());
                let jump = front.saturating_sub(sess.position) + 10;
                let _ = s.request_vcr(SessionId(id), VcrKind::FastForward, jump);
                caught_up += u32::from(!leased && s.sessions.live(id).lease.is_some());
            }
            s.tick();
            recorders.retain(|&id, _| s.sessions.get(id).is_some());
            for (&id, (mi, got)) in &mut recorders {
                let sess = s.sessions.live(id);
                if matches!(sess.state, SessionState::Waiting { .. }) {
                    continue;
                }
                for seg in s.movies[*mi].slots.iter().flatten() {
                    got[seg.index as usize] = true;
                }
                let (air, truth) = (&s.movies[*mi].air, contiguous_prefix(got));
                assert_eq!(air.front(sess.scheme), truth, "tick {t} session {id}");
                assert!(truth == 0 || air.received(sess.scheme, truth - 1));
                assert!(!air.received(sess.scheme, truth), "tick {t} session {id}");
                if matches!(sess.state, SessionState::Shared(()))
                    && sess.position < got.len() as u32
                {
                    assert!(
                        sess.position <= truth,
                        "tick {t}: {id} played past its recorder"
                    );
                }
            }
            assert_eq!(s.check_invariants(), Vec::<String>::new(), "tick {t}");
        }
        let metrics = &s.core.metrics;
        assert!(
            adopted > 0 && caught_up > 0,
            "{adopted} adopted, {caught_up} FF leases"
        );
        assert!(metrics.leases_revoked > 0 && metrics.runtime.stall_minutes > 0.0);
        assert!(metrics.piggyback_merges > 0, "nobody merged back");
    }

    #[test]
    fn deterministic_under_replay() {
        let run = || {
            let mut s = PyramidServer::new(config());
            let mut ids = Vec::new();
            for t in 0..80u64 {
                if t % 3 == 0 {
                    ids.push(s.open_session(MovieId(0)).unwrap());
                }
                if t == 30 {
                    let _ = s.request_vcr(ids[0], VcrKind::FastForward, 40);
                }
                if t == 40 {
                    let _ = s.request_vcr(ids[1], VcrKind::Pause, 7);
                }
                s.tick();
            }
            s.runtime_metrics()
        };
        assert_eq!(run(), run());
    }

    /// A healthy server at `now = 10`: session 0 receiving, session 1
    /// sweeping beyond its front on a dedicated lease.
    fn busy() -> PyramidServer {
        let mut s = PyramidServer::new(config());
        s.open_session(MovieId(0)).unwrap();
        let sweeping = s.open_session(MovieId(0)).unwrap();
        for _ in 0..9 {
            s.tick();
        }
        s.request_vcr(sweeping, VcrKind::FastForward, 90).unwrap();
        s.tick();
        assert!(s.sessions.live(1).lease.is_some());
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
            ["disk conservation broken: in_use 8 + free 0 + failed 100 != provisioned 62"]
        );
        let mut s = busy();
        let wrong = crate::content::generate_segment(MovieId(0), 119);
        s.movies[0].slots[0] = Some(wrong);
        assert_eq!(
            s.check_invariants(),
            ["movie 0 channel 0 staged minute 119 off the wheel phase (scheduled Some(0))"]
        );
        let mut s = busy();
        s.core.reserve.fail_streams(1);
        assert_eq!(
            s.check_invariants(),
            ["reserve failure accounting leads the disk: reserve 1 > disk 0"]
        );
        let mut s = busy();
        s.movies[0].leases[3] = None;
        assert_eq!(
            s.check_invariants(),
            ["lease accounting broken: 6 pre-allocated + 1 session-held != disk 8"]
        );
        let mut s = busy();
        assert!(s.core.reserve.try_acquire(10.0));
        assert_eq!(
            s.check_invariants(),
            ["reserve accounting broken: sessions hold 1, reserve says 2"]
        );
    }

    #[test]
    fn audit_sees_session_drift() {
        let mut s = busy();
        // A session lease dropped without a release.
        let lease = s.sessions.live_mut(1).lease.take();
        assert_eq!(
            s.check_invariants(),
            [
                "lease accounting broken: 7 pre-allocated + 0 session-held != disk 8",
                "reserve accounting broken: sessions hold 0, reserve says 1",
            ]
        );
        s.sessions.live_mut(0).lease = lease;
        assert_eq!(
            s.check_invariants(),
            ["session 0 holds a lease in a non-serving state"]
        );
        let mut s = busy();
        s.sessions.live_mut(0).state = SessionState::Dedicated;
        assert_eq!(
            s.check_invariants(),
            ["session 0 is serving without a lease"]
        );
        let mut s = busy();
        s.core.degraded_count += 1;
        assert_eq!(
            s.check_invariants(),
            ["degraded population drift: counted 0, tracked 1"]
        );
        let mut s = busy();
        let front = s.movies[0].air.front(s.sessions.live(0).scheme);
        s.sessions.live_mut(0).position = front + 2;
        assert_eq!(
            s.check_invariants(),
            [format!(
                "session 0 consumed to {} past its reception front {front}",
                front + 2
            )]
        );
        s.sessions.live_mut(0).position = 0;
        s.movies[0].air.skew(front);
        assert_eq!(
            s.check_invariants(),
            [format!(
                "movie 0 reception prefix at minute {front} drifted from its on-air recount"
            )]
        );
    }

    #[test]
    fn audit_sees_walk_drift() {
        let mut s = busy();
        s.active.retain(|&idx| idx != 1);
        assert_eq!(
            s.check_invariants(),
            ["session 1 is missing from the active walk"]
        );
        let mut s = busy();
        s.active.push(0);
        assert_eq!(
            s.check_invariants(),
            ["session 0 is on the active walk 2 times"]
        );
        let mut s = busy();
        s.sessions.live_mut(0).state = SessionState::Waiting { start_at: 12 };
        assert_eq!(
            s.check_invariants(),
            [
                "session 0 is waiting on the active walk",
                "wheel population drift: 1 waiting != 0 scheduled",
            ]
        );
        let mut s = busy();
        s.active.push(7);
        assert_eq!(
            s.check_invariants(),
            ["active walk entry 7 names no live session"]
        );
    }

    /// The boundary wheel holds one entry per waiting session.
    #[test]
    fn audit_sees_wheel_drift() {
        // (120, 2, 20) waits for a segment-1 boundary; see
        // `startup_wait_bounded_by_segment_one_period`.
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 2, 20.0);
        let mut s = PyramidServer::new(ServerConfig::provisioned(vec![movie], 8));
        s.tick();
        let id = s.open_session(MovieId(0)).unwrap();
        assert_eq!(s.check_invariants(), Vec::<String>::new());
        let wheel = std::mem::take(&mut s.wakeups);
        let drift = s.check_invariants();
        assert_eq!(drift, ["wheel population drift: 1 waiting != 0 scheduled"]);
        s.wakeups = wheel;
        s.wakeups.schedule(s.movies[0].geometry.unit().into(), id.0);
        let drift = s.check_invariants();
        assert_eq!(drift, ["wheel population drift: 1 waiting != 2 scheduled"]);
    }
}
