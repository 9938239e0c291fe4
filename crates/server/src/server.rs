//! The virtual-time VOD server: batching scheduler, partitioned buffer
//! service, dedicated-stream VCR service, and piggyback merge-back.
//!
//! Time advances in integer minutes via [`VodServer::tick`]; one tick
//! displays one segment at normal playback rate. Restart intervals are
//! quantized to whole minutes by [`QuantizedGeometry`] (the analytic
//! model and `vod-sim` cover the continuous-time behavior; this crate's
//! job is a byte-exact data path with honest resource accounting).
//!
//! Semantics per tick `t` (then the clock becomes `t + 1`):
//! 1. retire streams that finished displaying and whose partitions have
//!    no enrolled readers left;
//! 2. start streams scheduled at `t` (each acquires a disk lease and a
//!    partition reservation);
//! 3. every playing stream reads its next segment from disk into its
//!    partition, and the readers enrolled in the partition consume —
//!    accounted per cohort (the readers at one ring offset), not per
//!    session;
//! 4. every session whose state can change this tick is visited:
//!    dedicated sessions read through their own lease, sweeping sessions
//!    sweep at the configured rate, and the wake-ups due now fire —
//!    batches start, pauses end, enrolled viewers reach the end of the
//!    movie; resumes are classified hit/miss against live windows.

use std::ops::RangeInclusive;

use vod_runtime::{Arena, ArenaId, BackendKind, QuantizedGeometry, SessionStore, TimerWheel};
use vod_workload::VcrKind;

use crate::backend::{Adoption, DeliveryBackend};
use crate::buffer::{BufferPool, Partition};
use crate::content::{verify_segment, MovieId};
use crate::core::{apply_faults, FaultPolicy, Recount, Retry, ServerCore};
use crate::disk::{DiskSubsystem, StreamLease};
use crate::metrics::ServerMetrics;
use crate::session::{
    admit, resolve, status_of, DeliveryStats, Session, SessionId, SessionState, SessionStatus,
    Sessions, StreamId,
};

/// One movie hosted under static partitioning: identity plus the
/// quantized `(T, b)` schedule derived in `vod-runtime`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostedMovie {
    /// Movie identity.
    pub movie: MovieId,
    /// Quantized restart/window geometry (single source of the rounding
    /// rule: [`QuantizedGeometry::from_allocation`]).
    pub geometry: QuantizedGeometry,
}

impl HostedMovie {
    /// Derive hosting parameters from the paper's `(l, B, n)` triple.
    pub fn from_allocation(
        movie: MovieId,
        length: u32,
        n_streams: u32,
        buffer_minutes: f64,
    ) -> Self {
        Self {
            movie,
            geometry: QuantizedGeometry::from_allocation(length, n_streams, buffer_minutes),
        }
    }
}

/// Piggybacking (the paper's phase-2 fallback, after [1, 7, 9]): a
/// dedicated post-miss session displays slightly faster, gaining one
/// segment every [`PiggybackConfig::CATCHUP_PERIOD`] ticks until it
/// re-enters a partition window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PiggybackConfig;

impl PiggybackConfig {
    /// Ticks between catch-up segments; 20 ≈ a 5% display-rate increase,
    /// the range the piggybacking literature considers imperceptible.
    pub const CATCHUP_PERIOD: u32 = 20;
}

/// Display rate of FF and RW in segments per tick: the paper's
/// `R_FF = R_RW = 3` playback rates (`Rates::paper()`), the one rate it
/// measures at.
pub const VCR_RATE: u32 = 3;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Total concurrent disk streams provisioned.
    pub disk_streams: u32,
    /// Total buffer budget in segments.
    pub buffer_budget: usize,
    /// Hosted movies.
    pub movies: Vec<HostedMovie>,
    /// Piggyback merge-back; `None` disables it.
    pub piggyback: Option<PiggybackConfig>,
}

impl ServerConfig {
    /// Provision disk and buffer generously enough that scheduled
    /// restarts can never fail, leaving `vcr_reserve` streams for VCR
    /// service.
    pub fn provisioned(movies: Vec<HostedMovie>, vcr_reserve: u32) -> Self {
        let (mut disk, mut buffer) = (vcr_reserve, 0);
        for g in movies.iter().map(|m| m.geometry) {
            disk += g.max_live_streams();
            buffer += (g.max_live_streams() * g.partition_capacity) as usize;
        }
        Self {
            disk_streams: disk,
            buffer_budget: buffer,
            movies,
            piggyback: Some(PiggybackConfig),
        }
    }
}

/// Errors surfaced by the server API.
#[derive(Debug)]
pub enum ServerError {
    /// The movie is not hosted.
    UnknownMovie(MovieId),
    /// The server never issued this session id.
    UnknownSession(SessionId),
    /// The session finished or was closed; it has been retired and only
    /// `session_status` (→ `Done`) still answers for its id. Its final
    /// record was published through
    /// [`DeliveryBackend::finished_this_tick`] (or returned by
    /// `close_session`).
    SessionFinished(SessionId),
    /// Every session id this server can issue has been issued; ids are
    /// never reused, so admission ends here rather than wrapping.
    SessionIdsExhausted,
    /// The session cannot accept this request in its current state.
    InvalidState {
        /// What was attempted.
        operation: &'static str,
    },
    /// No disk stream available for the request.
    VcrDenied,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::UnknownMovie(m) => write!(f, "movie {m:?} is not hosted"),
            ServerError::UnknownSession(s) => write!(f, "no such session {s:?}"),
            ServerError::SessionFinished(s) => write!(f, "session {s:?} has finished"),
            ServerError::SessionIdsExhausted => write!(f, "session ids exhausted"),
            ServerError::InvalidState { operation } => {
                write!(f, "session state does not allow `{operation}`")
            }
            ServerError::VcrDenied => write!(f, "no I/O stream available for VCR service"),
        }
    }
}

impl std::error::Error for ServerError {}

struct ActiveStream {
    movie_idx: usize,
    started: u64,
    /// Disk lease; dropped (released) once the stream finishes displaying.
    lease: Option<StreamLease>,
    partition: Partition,
    /// The enrolled readers by how far they trail the read head:
    /// `cohorts[d]` sessions are at position `next_read − d`. A reader
    /// in lock-step with the stream sits at `d = 0` between ticks; the
    /// deepest joinable offset is the partition capacity (the tail of a
    /// finished stream's frozen window), hence `capacity + 1` entries.
    /// The table is the one count of the stream's readers.
    cohorts: Box<[u32]>,
    /// Next segment index this stream reads from disk. Equal to the
    /// stream's age on every fault-free tick; a disk-slowdown fault lets
    /// it lag behind (the stream then serves only every k-th tick).
    next_read: u32,
}

/// What one stream's enrolled readers did on one tick.
struct Delivered {
    /// Readers that took a segment from the partition.
    consumed: u32,
    /// Readers level with a read head that stood still.
    stalled: u32,
    /// Positions of the ring entries that failed verification (none, on
    /// any run that is not a test of exactly this).
    corrupt: Vec<u32>,
}

impl ActiveStream {
    /// How many sessions read this stream's partition.
    fn readers(&self) -> u32 {
        self.cohorts.iter().sum()
    }

    /// The enrolled readers consume tick `t`'s segments, a cohort at a
    /// time. `old_head` is the read head before this tick's read; the
    /// cohort `d` behind it takes position `old_head − d`, and the one
    /// level with it (`d = 0`) takes the segment just read or, when the
    /// stream stood still (`!reads`), stalls. With `verify`, each
    /// occupied ring entry is verified for its readers — once, as the
    /// walk visits each offset once.
    fn deliver(&mut self, old_head: u32, reads: bool, verify: bool) -> Delivered {
        let stalled = if reads { 0 } else { self.cohorts[0] };
        let consumed = self.cohorts[usize::from(!reads)..].iter().sum();
        let mut corrupt = Vec::new();
        if verify {
            for lag in usize::from(!reads)..self.cohorts.len() {
                if self.cohorts[lag] == 0 {
                    continue;
                }
                let position = old_head.checked_sub(lag as u32);
                let stored = position.and_then(|at| self.partition.get(at));
                match stored.map(verify_segment) {
                    Some(true) => {}
                    Some(false) => corrupt.extend(position),
                    // vod-lint: allow(no-panic) — a cohort outside the window
                    // means the enrollment invariant is broken; serving a
                    // wrong segment silently would corrupt the data path, so
                    // abort loudly.
                    None => panic!(
                        "buffer underrun: cohort {lag} behind head {old_head} not covered by \
                         partition [{:?}, {:?}] (enrollment invariant broken)",
                        self.partition.tail_index(),
                        self.partition.front_index()
                    ),
                }
            }
        }
        if !reads {
            // The head stood still and everyone behind it moved up.
            self.cohorts[0] += std::mem::take(&mut self.cohorts[1]);
            self.cohorts[1..].rotate_left(1);
        }
        Delivered {
            consumed,
            stalled,
            corrupt,
        }
    }
}

/// Cold path of the cohort delivery: the ring entry at `position` of
/// `stream` failed this tick's verification, with the read head at
/// `old_head` when the readers took their positions. A failed delivery is
/// charged to each reader and a cohort keeps no member list, so find them
/// among all sessions — the ones whose position, brought up to tick `t`,
/// is the entry's.
fn charge_corrupt_entry(
    sessions: &mut Sessions<Enrolment, Piggyback>,
    metrics: &mut ServerMetrics,
    stream: ArenaId,
    position: u32,
    old_head: u32,
    t: u64,
) {
    for (_, sess) in sessions.iter_mut() {
        let reads_it = matches!(sess.state, SessionState::Shared(Enrolment { stream: s, .. }) if s.0 == stream)
            && sess.position + sess.owed(old_head, t) == position;
        if reads_it {
            sess.stats.verify_failures += 1;
            metrics.verify_failures += 1;
        }
    }
}

/// What a batching session is enrolled in while it plays `Shared`: a
/// stream's buffer partition.
#[derive(Debug, Clone, Copy)]
struct Enrolment {
    /// The stream whose partition serves the session.
    stream: StreamId,
    /// First tick whose delivery the session's stored position and
    /// statistics do not include yet: since then it has consumed one
    /// segment per tick the server has accounted, held back only by the
    /// stream's read head (see [`BatchSession::owed`]).
    since: u64,
    /// Tick the session reaches the end of the movie if it never stalls;
    /// its wheel wake-up is live only on this tick.
    finish_at: u64,
}

/// A batching viewer. `Waiting` is for the next restart of the movie
/// (type-1), `Shared` reading from a batch stream's partition (type-2 or a
/// post-resume hit), `Dedicated` post-miss playback, possibly piggybacking
/// its way back into a partition, which is the scheme's own field
/// ([`Piggyback`]).
///
/// `Waiting`, `Shared` and `Paused` are *passive*: nothing about such a
/// session changes from one tick to the next except what the clock and
/// its stream's read head already say, so the server does not visit it
/// every tick. Its one timer-wheel entry waits for its wake-up
/// ([`wake_at`]) and a `Shared` session's position and buffer count are
/// worked out from `(position, since)` when somebody asks. `Dedicated`,
/// sweeping and `Degraded` sessions do work every minute: their entry is
/// re-filed for the next tick each time it fires.
type BatchSession = Session<Enrolment, Piggyback>;

/// Ticks on the dedicated stream since the last catch-up segment.
#[derive(Default)]
struct Piggyback {
    phase: u32,
}

/// The tick a passive state's wake-up is parked on — the restart instant,
/// the tick the movie ends, the tick the pause ends; `None` for a state
/// that works every minute.
fn wake_at(state: &SessionState<Enrolment>) -> Option<u64> {
    match *state {
        SessionState::Waiting { start_at } => Some(start_at),
        SessionState::Shared(Enrolment { finish_at, .. }) => Some(finish_at),
        SessionState::Paused { until } => Some(until),
        _ => None,
    }
}

/// Segments an enrolled reader that stood at `position` before tick
/// `since` has consumed once `accounted` ticks are accounted, its stream's
/// read head now at `head`. An enrolled reader takes one segment per tick
/// unless it is level with the head, and the head moves at most one
/// segment per tick, so after tick `t` it is at
/// `min(p₀ + t + 1 − t₀, head(t))` — exact under a disk slowdown too.
fn arrears(position: u32, since: u64, head: u32, accounted: u64) -> u32 {
    let ahead = head.saturating_sub(position);
    // Bounded by `ahead`, so the narrowing is lossless.
    accounted.saturating_sub(since).min(u64::from(ahead)) as u32
}

impl BatchSession {
    /// The [`arrears`] of an enrolled session — what `position` and
    /// `stats` do not show yet; zero for every other state.
    fn owed(&self, head: u32, accounted: u64) -> u32 {
        match self.state {
            SessionState::Shared(Enrolment { since, .. }) => {
                arrears(self.position, since, head, accounted)
            }
            _ => 0,
        }
    }

    /// Advance an enrolled session by the `k = accounted − since` ticks
    /// it is behind: the one routine that moves an enrolled position.
    /// Production calls it when something reads or changes the session
    /// (`k` = whatever has elapsed); the reference scan calls it for
    /// every session on every tick (`k = 1`). Returns the segments
    /// consumed.
    fn sync(&mut self, head: u32, accounted: u64) -> u32 {
        let consumed = self.owed(head, accounted);
        self.position += consumed;
        self.stats.from_buffer += u64::from(consumed);
        if let SessionState::Shared(Enrolment { since, .. }) = &mut self.state {
            *since = accounted;
        }
        consumed
    }
}

/// Read `sess`'s next segment via its own lease and advance.
fn read_forward(core: &mut ServerCore, sess: &mut BatchSession) {
    let movie = core.config.movies[sess.movie_idx].movie;
    let lease = sess.lease.as_ref();
    core.read_via_lease(lease, movie, sess.position, &mut sess.stats);
    sess.position += 1;
}

/// The server.
///
/// Sessions live in a [`SessionStore`], streams in a generational
/// [`Arena`] (the liveness seam is `live`/`live_mut` on both: callers
/// only dereference ids they observed live earlier in the same call
/// chain, and a miss aborts loudly). Session indices are issued in
/// admission order and never reused, which keeps the per-tick processing
/// order identical to the historical full-table scan — and a session is
/// retired the tick it finishes, so the table holds the live viewers
/// only. Stream slots *are* reused, lowest-index-first, matching the
/// historical free-slot scan.
pub struct VodServer {
    /// The clock, disk, counters and fault state every backend shares.
    /// Its reserve is the VCR reserve: the disk streams left over once
    /// the restart schedule's worst case is pre-allocated. That static
    /// cap is equivalent to the dynamic check `available > reserved −
    /// in_use` whenever the schedule stays within its pre-allocation.
    core: ServerCore,
    pool: BufferPool,
    streams: Arena<ActiveStream>,
    sessions: Sessions<Enrolment, Piggyback>,
    /// The one scheduler: every live session holds exactly one live entry
    /// — a passive one (Waiting / Shared / Paused) at its [`wake_at`], one
    /// that works every minute (Dedicated / Vcr / Degraded) at the next
    /// tick whose session phase has not begun — so a tick touches only
    /// the sessions whose state changes on it.
    wakeups: TimerWheel<u32>,
    /// Wheel entries known stale (their session left the state that
    /// filed them — closed, finished, issued a VCR request, degraded,
    /// resumed — before they fired; [`Self::unpark`] counts them); each
    /// fires once as a no-op, for a retired session too, and is dropped.
    /// Tracked so the invariant check can reconcile `wakeups.len()`
    /// exactly.
    wheel_stale: u64,
    /// The session whose live entry is firing, until it leaves the state
    /// that filed it: that one departure leaves no stale entry.
    firing: Option<u32>,
    /// Ticks whose cohort deliveries are accounted: `now` between ticks
    /// and through the fault and stream phases, `now + 1` from the end of
    /// the stream phase on. An enrolled session's stored position is
    /// `accounted − since` ticks old.
    accounted: u64,
    /// Per movie and position, the first live stream in slot order whose
    /// join window ([`QuantizedGeometry::stream_join_range`] of its
    /// partition) holds that position, or `None`: the join probe is one
    /// look-up. Rewritten by `advance_streams`. Streams start, advance and
    /// retire only in the stream phase and in `apply_faults`, both ahead
    /// of it within a tick, so the cover is exact for the session phase
    /// and for every call between ticks.
    join_cover: Vec<Vec<Option<StreamId>>>,
    /// Per movie, the stream `start_due_streams` started this tick, or
    /// `None` (no restart due, or it failed): the stream a batch waiting
    /// for this tick enrols in. The cover cannot say — on a disk-slowdown
    /// tick the new stream reads nothing and covers no position yet.
    restarted: Vec<Option<StreamId>>,
    /// Spare bitmap of `advance_sessions` (bit `k`: id `lo + k` is among
    /// the tick's drained entries), kept for its capacity.
    due_bits: Vec<u64>,
    /// Test-only oracle mode: process sessions with the historical full
    /// 0..n scan (no wheel, every enrolled session advanced and accounted
    /// one tick at a time). Set at construction time via
    /// `set_reference_scan`; the equivalence suite pins wheel mode
    /// against it bit for bit.
    reference_scan: bool,
}

impl VodServer {
    /// Build a server from a configuration.
    pub fn new(config: ServerConfig) -> Self {
        let pool = BufferPool::new(config.buffer_budget);
        let playback_reserved = config
            .movies
            .iter()
            .map(|m| m.geometry.max_live_streams())
            .sum::<u32>()
            .min(config.disk_streams);
        let join_cover = config
            .movies
            .iter()
            .map(|m| vec![None; m.geometry.length as usize])
            .collect();
        let restarted = vec![None; config.movies.len()];
        Self {
            core: ServerCore::new(config, playback_reserved),
            pool,
            streams: Arena::new(),
            sessions: SessionStore::new(),
            wakeups: TimerWheel::new(),
            wheel_stale: 0,
            firing: None,
            accounted: 0,
            join_cover,
            restarted,
            due_bits: Vec::new(),
            reference_scan: false,
        }
    }

    /// Test-only oracle switch: process sessions with the historical full
    /// 0..n scan instead of the timer wheel (and every
    /// delivery accounted per session instead of per cohort).
    /// Flip it right after construction, before any session opens — the
    /// equivalence suite pins the two modes against each other bit for
    /// bit.
    #[doc(hidden)]
    pub fn set_reference_scan(&mut self, on: bool) {
        self.reference_scan = on;
    }

    /// The configuration this server was provisioned from.
    pub fn config(&self) -> &ServerConfig {
        &self.core.config
    }

    /// Server metrics so far.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.core.metrics
    }

    /// Disk subsystem state (for capacity assertions in tests).
    pub fn disk(&self) -> &DiskSubsystem {
        &self.core.disk
    }

    /// Buffer pool state.
    pub fn buffer_pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Close a session early (the viewer quits): releases any dedicated
    /// lease, leaves the enrolled partition, retires the session and
    /// returns its final delivery record (also published through
    /// [`DeliveryBackend::finished_this_tick`]). Closing a finished or
    /// already-closed session is [`ServerError::SessionFinished`];
    /// closing an id the server never issued is an error too.
    pub fn close_session(&mut self, id: SessionId) -> Result<DeliveryStats, ServerError> {
        resolve(&self.sessions, id)?;
        let idx = id.0;
        // A degraded session that quits resolves its retry denials as
        // permanent (no retry ever succeeded) and leaves the degraded
        // population.
        if let SessionState::Degraded(ledger) = &mut self.sessions.live_mut(idx).state {
            self.core.exit_degraded(ledger, false);
        }
        self.detach(idx);
        self.core.metrics.sessions_closed_early += 1;
        Ok(self.core.retire(&mut self.sessions, idx))
    }

    /// Delivery statistics of a live session. A finished session's final
    /// record is published once, through
    /// [`DeliveryBackend::finished_this_tick`].
    pub fn session_stats(&self, id: SessionId) -> Result<DeliveryStats, ServerError> {
        let sess = resolve(&self.sessions, id)?;
        Ok(DeliveryStats {
            from_buffer: sess.stats.from_buffer + u64::from(self.owed(sess)),
            ..sess.stats
        })
    }

    /// [`BatchSession::owed`] against the session's own stream.
    fn owed(&self, sess: &BatchSession) -> u32 {
        match sess.state {
            SessionState::Shared(Enrolment { stream, .. }) => {
                sess.owed(self.streams.live(stream.0).next_read, self.accounted)
            }
            _ => 0,
        }
    }

    /// Run `minutes` ticks.
    pub fn run(&mut self, minutes: u64) {
        for _ in 0..minutes {
            self.tick();
        }
    }

    // ---- faults ------------------------------------------------------------

    /// Retire stream `sid` immediately: release its partition and free
    /// the slot (a lease a fault already revoked is a no-op at the disk).
    /// Its enrolled readers are left pointing at a dead stream; the
    /// caller follows up with [`Self::degrade_orphans`] once per fault
    /// event, however many streams the event retired, handing it the
    /// read head returned here — the last thing needed to bring those
    /// readers' positions up to date.
    fn retire_stream(&mut self, sid: ArenaId) -> Option<u32> {
        let mut s = self.streams.remove(sid)?;
        if let Some(lease) = s.lease.take() {
            self.core.disk.release(lease);
        }
        self.pool.release(s.partition.capacity());
        Some(s.next_read)
    }

    /// One pass over the sessions after a fault event retired streams:
    /// degrade every reader whose stream is gone (`final_heads[slot]` is
    /// the read head it died with).
    fn degrade_orphans(&mut self, final_heads: &[Option<u32>]) {
        let orphaned = |(idx, sess): (u32, &BatchSession)| match sess.state {
            SessionState::Shared(Enrolment { stream, .. }) if !self.streams.contains(stream.0) => {
                final_heads[stream.0.index()].map(|head| (idx, head))
            }
            _ => None,
        };
        let orphans: Vec<(u32, u32)> = self.sessions.iter().filter_map(orphaned).collect();
        for (idx, head) in orphans {
            // The stream took its cohort table with it; what is left of
            // the enrolment is the session's own arrears and its finish
            // wake-up. Degraded, it works every minute.
            self.sessions.live_mut(idx).sync(head, self.accounted);
            let ledger = self.core.enter_degraded(0);
            self.transition(idx, SessionState::Degraded(ledger));
        }
    }

    /// Evict whole partitions (victim order: fewest enrolled readers,
    /// then oldest start, then lowest slot — deterministic) until the
    /// pool is no longer overcommitted after a buffer shrink. Evicted
    /// streams release their disk lease normally; their readers degrade.
    fn evict_partitions_to_fit(&mut self) {
        if self.pool.overcommitted() == 0 {
            return;
        }
        let mut final_heads = vec![None; self.streams.slot_count()];
        while self.pool.overcommitted() > 0 {
            let victim = self
                .streams
                .iter()
                .min_by_key(|(id, s)| (s.readers(), s.started, id.index()))
                .map(|(id, _)| id);
            let Some(sid) = victim else { break };
            self.core.metrics.partitions_evicted += 1;
            final_heads[sid.index()] = self.retire_stream(sid);
        }
        self.degrade_orphans(&final_heads);
    }

    // ---- streams -----------------------------------------------------------

    fn retire_streams(&mut self) {
        for i in 0..self.streams.slot_count() {
            let Some(id) = self.streams.id_at(i) else {
                continue;
            };
            let s = self.streams.live_mut(id);
            // Displaying ends once every segment has been read — `next_read`
            // equals the stream's age on fault-free ticks and lags it under
            // a disk slowdown.
            if s.next_read < self.core.config.movies[s.movie_idx].geometry.length {
                continue;
            }
            if s.readers() == 0 {
                self.retire_stream(id);
            } else if let Some(lease) = s.lease.take() {
                // Release the disk lease as soon as displaying ends; keep
                // the frozen partition until its trailing readers finish.
                self.core.disk.release(lease);
            }
        }
    }

    fn start_due_streams(&mut self, t: u64) {
        self.restarted.fill(None);
        for movie_idx in 0..self.core.config.movies.len() {
            let hosted = self.core.config.movies[movie_idx];
            let geometry = hosted.geometry;
            if !t.is_multiple_of(geometry.restart_interval as u64) {
                continue;
            }
            let Some(lease) = self.core.disk.acquire() else {
                self.core.metrics.runtime.restart_failures += 1;
                continue;
            };
            if !self.pool.reserve(geometry.partition_capacity as usize) {
                self.core.disk.release(lease);
                self.core.metrics.runtime.restart_failures += 1;
                continue;
            }
            let stream = ActiveStream {
                movie_idx,
                started: t,
                lease: Some(lease),
                partition: Partition::new(hosted.movie, geometry.partition_capacity as usize),
                cohorts: vec![0; geometry.partition_capacity as usize + 1].into_boxed_slice(),
                next_read: 0,
            };
            // The arena reuses the lowest free slot: eviction victims and
            // the join cover tiebreak on the slot index.
            self.restarted[movie_idx] = Some(StreamId(self.streams.insert(stream)));
        }
    }

    fn advance_streams(&mut self, t: u64) {
        let stalled = self.core.disk_stalled();
        for cover in &mut self.join_cover {
            cover.fill(None);
        }
        for i in 0..self.streams.slot_count() {
            let Some(id) = self.streams.id_at(i) else {
                continue;
            };
            let s = self.streams.live_mut(id);
            let hosted = self.core.config.movies[s.movie_idx];
            // Disk slowdown: no stream reads this tick; `next_read` holds
            // and enrolled readers at the front stall with it.
            let reads = s.next_read < hosted.geometry.length && !stalled;
            if reads {
                // vod-lint: allow(no-panic) — retire_streams only drops the lease once
                // next_read ≥ length, and the guard above skips exactly those streams.
                let lease = s.lease.as_ref().expect("playing stream holds a lease");
                let seg = self
                    .core
                    .disk
                    .read(lease, hosted.movie, s.next_read)
                    // vod-lint: allow(no-panic) — next_read < length above bounds the read.
                    .expect("scheduled read is in range");
                s.partition.advance(seg);
                s.next_read += 1;
            }
            if s.cohorts.iter().any(|&c| c > 0) {
                // Before the read, when the readers' positions are taken.
                let old_head = s.next_read - u32::from(reads);
                let verify = !self.reference_scan;
                let delivered = s.deliver(old_head, reads, verify);
                if verify {
                    // The reference scan accounts each of these per session.
                    // Whole numbers far below 2⁵³: adding a cohort's size
                    // in one step is bit-identical to adding 1.0 per reader.
                    self.core.metrics.runtime.buffer_minutes += f64::from(delivered.consumed);
                    if delivered.stalled > 0 {
                        // vod-lint: allow(no-panic) — only an injected disk
                        // slowdown keeps a stream with lock-step readers from
                        // reading; otherwise the enrollment invariant is
                        // broken, and serving a wrong segment silently would
                        // corrupt the data path, so abort loudly.
                        assert!(
                            self.core.fault_mode(),
                            "buffer underrun: {} readers level with a stream that read \
                             nothing (enrollment invariant broken)",
                            delivered.stalled
                        );
                        self.core.metrics.runtime.stall_minutes += f64::from(delivered.stalled);
                    }
                    for position in delivered.corrupt {
                        let (sessions, metrics) = (&mut self.sessions, &mut self.core.metrics);
                        charge_corrupt_entry(sessions, metrics, id, position, old_head, t);
                    }
                }
            }
            let filled = s.partition.len() as u32;
            let joinable = s
                .partition
                .front_index()
                .and_then(|front| hosted.geometry.stream_join_range(front, filled));
            if let Some((lo, hi)) = joinable.map(RangeInclusive::into_inner) {
                // Slot order: a position already held keeps its first stream.
                for held in &mut self.join_cover[s.movie_idx][lo as usize..=hi as usize] {
                    held.get_or_insert(StreamId(id));
                }
            }
        }
        self.accounted = t + 1;
    }

    // ---- sessions ----------------------------------------------------------

    /// Process every session whose state can change at tick `t`.
    ///
    /// Wheel mode visits the sessions the entries due at `t` name, in
    /// ascending index order and once each — the same relative order as
    /// the historical full `0..n` scan, which is bitwise-identical because
    /// what the skipped sessions did in that scan either was a strict
    /// no-op (finished, not-yet-due `Waiting` and `Paused`) or touched
    /// nothing another session reads and is accounted per cohort in the
    /// stream phase (`Enrolled`). Reference mode (`set_reference_scan`)
    /// still runs the full scan as the equivalence oracle.
    fn advance_sessions(&mut self, t: u64) {
        if self.reference_scan {
            // Nobody is admitted during a tick; whoever finishes drops
            // out of the store, not out of this list.
            let everyone: Vec<u32> = self.sessions.iter().map(|(idx, _)| idx).collect();
            for idx in everyone {
                if let Some(sess) = self.sessions.get(idx) {
                    self.advance_session(t, idx, sess.state);
                }
            }
            return;
        }
        let due = self.wakeups.drain_tick(t);
        let (Some(&lo), Some(&hi)) = (due.iter().min(), due.iter().max()) else {
            return;
        };
        // Ascending and deduplicated without a sort: one bit per id of the
        // span the entries name.
        let mut bits = std::mem::take(&mut self.due_bits);
        bits.clear();
        bits.resize((hi - lo) as usize / 64 + 1, 0);
        for &idx in &due {
            let k = (idx - lo) as usize;
            bits[k / 64] |= 1 << (k % 64);
        }
        let mut fired = 0;
        for (w, &word) in bits.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let idx = lo + (w * 64) as u32 + word.trailing_zeros();
                word &= word - 1;
                fired += u64::from(self.fire(t, idx));
            }
        }
        self.due_bits = bits;
        // Every other entry drained was stale: it fired once as a no-op
        // and is accounted off.
        let stale = due.len() as u64 - fired;
        debug_assert!(
            self.wheel_stale >= stale,
            "stale wakeup with no accounted entry"
        );
        self.wheel_stale -= stale;
    }

    /// Tick `t` drained an entry of session `idx`: if one of them is its
    /// live entry, the session acts. The live entry is the one its state
    /// filed — due now for a state that works every minute, at the
    /// wake-up for a passive one — and no session retired since has one.
    fn fire(&mut self, t: u64, idx: u32) -> bool {
        let state = self.sessions.get(idx).map(|sess| sess.state);
        let Some(state) = state.filter(|state| wake_at(state).is_none_or(|at| at == t)) else {
            return false;
        };
        self.firing = Some(idx);
        self.advance_session(t, idx, state);
        // Still firing: it kept its state, one that works every minute (a
        // passive state fires only to be left), and goes again next tick.
        if self.firing.take().is_some() {
            debug_assert!(wake_at(&self.sessions.live(idx).state).is_none());
            self.wakeups.schedule(t + 1, idx);
        }
        true
    }

    /// What session `idx`, in `state`, does on tick `t`.
    fn advance_session(&mut self, t: u64, idx: u32, state: SessionState<Enrolment>) {
        match state {
            SessionState::Waiting { start_at } if start_at == t => {
                // The restart happened earlier in this tick; enroll in the
                // stream that just started.
                let movie_idx = self.sessions.live(idx).movie_idx;
                let Some(stream) = self.restarted[movie_idx] else {
                    // The scheduled restart failed to start (under-provisioned
                    // disk or buffer, counted in `restart_failures`). The
                    // batch keeps waiting for the next restart instant
                    // instead of aborting the server.
                    let t_int = self.core.config.movies[movie_idx].geometry.restart_interval as u64;
                    let start_at = t + t_int;
                    self.transition(idx, SessionState::Waiting { start_at });
                    return;
                };
                // This tick's cohorts were accounted in the stream phase;
                // the batch enrols as of `t` and takes its first minute on
                // its own.
                self.enrol(idx, stream, t);
                self.consume_enrolled(t, idx);
            }
            SessionState::Shared(_) if self.reference_scan => self.consume_enrolled(t, idx),
            SessionState::Shared(_) => self.finish_enrolled(idx),
            // A disk slowdown holds every lease read this tick.
            SessionState::Dedicated | SessionState::Vcr { .. } if self.core.disk_stalled() => {
                self.core.metrics.runtime.stall_minutes += 1.0;
            }
            SessionState::Dedicated => self.consume_dedicated(idx),
            SessionState::Vcr { kind, .. } => match kind {
                VcrKind::FastForward => self.sweep_forward(t, idx),
                VcrKind::Rewind => self.sweep_backward(t, idx),
                VcrKind::Pause => unreachable!("a pause is `Paused`, not a sweep"),
            },
            // The full pause has elapsed: resuming on exactly `until` is
            // what makes a pause of d minutes shift the pattern by d.
            SessionState::Paused { until } if until == t => self.resume(t, idx, VcrKind::Pause),
            SessionState::Degraded(_) => self.degraded_tick(t, idx),
            SessionState::Waiting { .. } | SessionState::Paused { .. } => {}
        }
    }

    /// One degraded re-wait tick: free batch rejoin if a live window
    /// covers the position; otherwise whatever the retry ledger has due —
    /// past the timeout nothing, and only batch admission remains. See
    /// [`vod_runtime::DegradePolicy`].
    fn degraded_tick(&mut self, t: u64, idx: u32) {
        self.core.metrics.runtime.rewait_minutes += 1.0;
        let sess = self.sessions.live(idx);
        let joinable = self.joinable_stream(sess.movie_idx, sess.position);
        let sess = self.sessions.live_mut(idx);
        let SessionState::Degraded(ledger) = &mut sess.state else {
            unreachable!("caller checked state")
        };
        if let Some(stream) = joinable {
            // Rejoined the batch: the dedicated retries (if any) never
            // succeeded, so their denials resolve as permanent.
            self.core.exit_degraded(ledger, false);
            self.core.metrics.runtime.degraded_rejoined += 1;
            // Same-tick consumption, as for a starting batch.
            self.enrol(idx, stream, t);
            self.consume_enrolled(t, idx);
        } else if let Retry::Granted(lease) = self.core.retry_degraded(ledger) {
            sess.lease = Some(lease);
            self.transition(idx, SessionState::Dedicated);
        }
    }

    // ---- the scheduler's view of a state change ----------------------------

    /// The one place a session's state is written. What the scheduler
    /// keeps about a session follows its state, so it is kept here: the
    /// wheel holds one live entry per session plus the accounted stale
    /// ones.
    fn transition(&mut self, idx: u32, next: SessionState<Enrolment>) {
        self.unpark(idx);
        let sess = self.sessions.live_mut(idx);
        if matches!(next, SessionState::Dedicated) {
            sess.scheme.phase = 0;
        }
        sess.state = next;
        self.place(idx);
    }

    /// Session `idx` is in a state nothing is scheduled for yet — just
    /// admitted, or just transitioned: file its live entry. A passive
    /// state's goes on its wake-up; a working state's on the first tick
    /// whose session phase has not begun (`accounted`): the current one
    /// between ticks and in the fault phase, the next one mid-tick.
    fn place(&mut self, idx: u32) {
        let at = wake_at(&self.sessions.live(idx).state).unwrap_or(self.accounted);
        self.wakeups.schedule(at, idx);
    }

    /// Session `idx` leaves its state, for another or for good. The entry
    /// that state filed goes stale — it still fires, once, as a no-op —
    /// unless it is the one firing now.
    fn unpark(&mut self, idx: u32) {
        if self.firing == Some(idx) {
            self.firing = None;
        } else {
            self.wheel_stale += 1;
        }
    }

    /// Session `idx` is about to be retired: out of its cohort, its live
    /// entry accounted for.
    fn detach(&mut self, idx: u32) {
        self.leave_cohort(idx);
        self.unpark(idx);
    }

    /// Enrol session `idx` in `stream`'s partition as of tick `since`
    /// ([`Self::enrolment`]), parking the finish wake-up. A session that
    /// enrols as of the current tick `t`, after its stream phase — a
    /// starting batch, a degraded rejoin — still takes this tick's
    /// segment: the caller follows with [`Self::consume_enrolled`].
    fn enrol(&mut self, idx: u32, stream: StreamId, since: u64) {
        let sess = self.sessions.live(idx);
        let enrolment = self.enrolment(sess.movie_idx, sess.position, stream, since);
        self.transition(idx, SessionState::Shared(enrolment));
    }

    /// A place in `stream`'s partition for a reader of `movie_idx` at
    /// `position` as of tick `since`: `self.accounted` for a session that
    /// first consumes with the next stream phase, the current tick for one
    /// that still takes this tick's segment. The cohort counts the reader
    /// from here on; the caller owes it the `Shared` state.
    fn enrolment(
        &mut self,
        movie_idx: usize,
        position: u32,
        stream: StreamId,
        since: u64,
    ) -> Enrolment {
        let s = self.streams.live_mut(stream.0);
        let length = self.core.config.movies[movie_idx].geometry.length;
        // Where the session stands once this tick's delivery, if it takes
        // one (`since` a tick behind `accounted`), is counted: that is the
        // cohort it is in from now on.
        let position = position + arrears(position, since, s.next_read, self.accounted);
        s.cohorts[(s.next_read - position) as usize] += 1;
        // One segment per tick from tick `accounted` on, the last of them
        // on this tick (the tick before `accounted` — already past by the
        // time the wheel sees it — when the delivery above was the last).
        let finish_at = self.accounted + u64::from(length - position) - 1;
        Enrolment {
            stream,
            since,
            finish_at,
        }
    }

    /// Take session `idx`, if enrolled, out of its stream's cohort table,
    /// position and statistics brought up to date first. The caller
    /// changes the state.
    fn leave_cohort(&mut self, idx: u32) {
        let sess = self.sessions.live_mut(idx);
        let SessionState::Shared(Enrolment { stream, .. }) = sess.state else {
            return;
        };
        let s = self.streams.live_mut(stream.0);
        sess.sync(s.next_read, self.accounted);
        s.cohorts[(s.next_read - sess.position) as usize] -= 1;
    }

    /// Deliver tick `t`'s segment to enrolled session `idx` on its own:
    /// advance it the one tick it is behind and account that delivery the
    /// way the stream phase accounts a cohort's. The reference scan does
    /// this for every enrolled session on every tick; production only
    /// for a session that enrolled as of `t` after the stream phase of
    /// `t` had run.
    fn consume_enrolled(&mut self, t: u64, idx: u32) {
        let sess = self.sessions.live_mut(idx);
        let SessionState::Shared(Enrolment { stream, since, .. }) = sess.state else {
            unreachable!("caller checked state")
        };
        debug_assert_eq!(since, t, "enrolled session not exactly one tick behind");
        let length = self.core.config.movies[sess.movie_idx].geometry.length;
        let s = self.streams.live_mut(stream.0);
        let position = sess.position;
        if sess.sync(s.next_read, self.accounted) == 0 {
            // vod-lint: allow(no-panic) — only an injected disk slowdown keeps
            // the stream from producing the segment (stall with it); without
            // faults an underrun means the enrollment invariant is broken,
            // and serving a wrong segment silently would corrupt the data
            // path, so abort loudly.
            assert!(
                self.core.fault_mode(),
                "buffer underrun: session at {position} not covered by partition \
                 [{:?}, {:?}] (enrollment invariant broken)",
                s.partition.tail_index(),
                s.partition.front_index()
            );
            self.core.metrics.runtime.stall_minutes += 1.0;
            return;
        }
        let outcome = s.partition.get(position).map(verify_segment);
        // vod-lint: allow(no-panic) — the window never moves past a reader
        // (it trails the head by at most what it joined with); see above.
        let verified = outcome.expect("buffer underrun: window moved past an enrolled session");
        if !verified {
            sess.stats.verify_failures += 1;
            self.core.metrics.verify_failures += 1;
        }
        self.core.metrics.runtime.buffer_minutes += 1.0;
        if sess.position >= length {
            // Not through the finish wake-up, which is still parked.
            self.finish_session(idx);
        }
    }

    /// The finish wake-up of enrolled session `idx` fired: the movie is
    /// over — unless a disk slowdown stalled the session at the head
    /// since the wake-up was parked, in which case it is re-armed for the
    /// new earliest finish.
    fn finish_enrolled(&mut self, idx: u32) {
        let sess = self.sessions.live_mut(idx);
        let SessionState::Shared(Enrolment { stream, .. }) = sess.state else {
            unreachable!("caller checked state")
        };
        let length = self.core.config.movies[sess.movie_idx].geometry.length;
        sess.sync(self.streams.live(stream.0).next_read, self.accounted);
        if sess.position >= length {
            self.finish_session(idx);
        } else {
            self.leave_cohort(idx);
            self.enrol(idx, stream, self.accounted);
        }
    }

    /// Consume via the session's dedicated lease; piggyback toward the
    /// preceding partition when enabled.
    fn consume_dedicated(&mut self, idx: u32) {
        let sess = self.sessions.live_mut(idx);
        let length = self.core.config.movies[sess.movie_idx].geometry.length;
        read_forward(&mut self.core, sess);
        // Optional piggyback catch-up segment.
        if self.core.config.piggyback.is_some() {
            sess.scheme.phase += 1;
            let due = sess.scheme.phase >= PiggybackConfig::CATCHUP_PERIOD
                && sess.position < length
                && matches!(sess.state, SessionState::Dedicated);
            if due {
                sess.scheme.phase = 0;
                read_forward(&mut self.core, sess);
            }
        }
        let (movie_idx, position) = (sess.movie_idx, sess.position);
        if position >= length {
            self.finish_session(idx);
            return;
        }
        // Merge back if a window now covers us (piggyback payoff).
        if let Some(stream) = self.joinable_stream(movie_idx, position) {
            let lease = self.sessions.live_mut(idx).lease.take();
            if let Some(lease) = lease {
                self.core.release_lease(lease);
                self.core.metrics.piggyback_merges += 1;
            }
            self.enrol(idx, stream, self.accounted);
        }
    }

    fn sweep_forward(&mut self, t: u64, idx: u32) {
        let sess = self.sessions.live_mut(idx);
        let length = self.core.config.movies[sess.movie_idx].geometry.length;
        let SessionState::Vcr { remaining, .. } = &mut sess.state else {
            unreachable!("caller checked state")
        };
        let steps = (*remaining).min(VCR_RATE);
        *remaining -= steps;
        let swept = *remaining == 0;
        for _ in 0..steps {
            read_forward(&mut self.core, sess);
        }
        if sess.position >= length {
            // FF ran to the end: the viewing is over (the model's P(end)).
            // Counted as a hit, matching the simulator's default
            // `count_ff_end_as_hit` convention.
            self.core.metrics.runtime.ff_end += 1;
            self.core
                .metrics
                .runtime
                .record_resume(VcrKind::FastForward, true);
            self.finish_session(idx);
            return;
        }
        if swept {
            self.resume(t, idx, VcrKind::FastForward);
        }
    }

    fn sweep_backward(&mut self, t: u64, idx: u32) {
        let sess = self.sessions.live_mut(idx);
        let movie = self.core.config.movies[sess.movie_idx].movie;
        let SessionState::Vcr { remaining, .. } = &mut sess.state else {
            unreachable!("caller checked state")
        };
        let steps = (*remaining).min(VCR_RATE).min(sess.position);
        // Both differences clamp at zero: `steps` is bounded by both
        // operands today, but a rewind past the start must never wrap
        // the residual sweep into billions of segments.
        *remaining = remaining
            .saturating_sub(steps)
            .min(sess.position.saturating_sub(steps));
        let swept = *remaining == 0;
        // Rewind with viewing displays segments in reverse order; each is
        // read through the dedicated lease.
        for _ in 0..steps {
            sess.position -= 1;
            let lease = sess.lease.as_ref();
            self.core
                .read_via_lease(lease, movie, sess.position, &mut sess.stats);
        }
        if swept || sess.position == 0 {
            self.resume(t, idx, VcrKind::Rewind);
        }
    }

    /// Resume to normal playback: join a covering partition (hit) or fall
    /// back to a dedicated stream (miss). Covered ⇒ hit, the rule the
    /// simulator applies through [`vod_runtime::PartitionWindows::covers`];
    /// the window probe is the live-stream join rule.
    fn resume(&mut self, t: u64, idx: u32, kind: VcrKind) {
        let sess = self.sessions.live(idx);
        let joinable = self.joinable_stream(sess.movie_idx, sess.position);
        self.core
            .metrics
            .runtime
            .record_resume(kind, joinable.is_some());
        if let Some(stream) = joinable {
            let lease = self.sessions.live_mut(idx).lease.take();
            if let Some(lease) = lease {
                self.core.release_lease(lease);
            }
            self.enrol(idx, stream, self.accounted);
            return;
        }
        // Miss: continue on a dedicated stream — the one a sweep holds. A
        // paused viewer must acquire one now; if none is free the resume
        // is starved: the session stays paused and retries the tick after
        // next (recovery policy — the simulator instead drops the viewer;
        // the *event* counted is the same).
        let sess = self.sessions.live_mut(idx);
        if sess.lease.is_none() {
            sess.lease = self.core.try_lease();
        }
        let next = if sess.lease.is_some() {
            SessionState::Dedicated
        } else {
            self.core.metrics.runtime.resume_starved += 1;
            SessionState::Paused { until: t + 2 }
        };
        self.transition(idx, next);
    }

    /// Any live stream of `movie_idx` a session at `position` can join:
    /// the first in slot order whose window holds it — the rule and the
    /// slot order of [`Self::joinable_stream_scan`], looked up in the
    /// movie's cover instead of walking any stream.
    fn joinable_stream(&self, movie_idx: usize, position: u32) -> Option<StreamId> {
        let found = self.join_cover[movie_idx]
            .get(position as usize)
            .copied()
            .flatten();
        debug_assert_eq!(
            found,
            self.joinable_stream_scan(movie_idx, position),
            "join cover drifted from the stream arena"
        );
        found
    }

    /// [`QuantizedGeometry::stream_join_covers`] applied to each live
    /// partition's actual `(front, filled)` state, in slot order, over
    /// the whole stream arena: the debug-build oracle of
    /// [`Self::joinable_stream`].
    fn joinable_stream_scan(&self, movie_idx: usize, position: u32) -> Option<StreamId> {
        let geometry = self.core.config.movies[movie_idx].geometry;
        self.streams
            .iter()
            .find(|(_, s)| {
                s.movie_idx == movie_idx
                    && s.partition.front_index().is_some_and(|front| {
                        geometry.stream_join_covers(front, s.partition.len() as u32, position)
                    })
            })
            .map(|(id, _)| StreamId(id))
    }

    /// Session `idx` reached the end of the movie.
    fn finish_session(&mut self, idx: u32) {
        self.detach(idx);
        self.core.finish(&mut self.sessions, idx);
    }
}

impl DeliveryBackend for VodServer {
    fn kind(&self) -> BackendKind {
        BackendKind::BatchingBuffering
    }

    fn core(&self) -> &ServerCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut ServerCore {
        &mut self.core
    }

    /// Open a session for `movie`. Joins the newest open enrollment window
    /// (type-2 viewer) or queues for the next restart (type-1).
    fn open_session(&mut self, movie: MovieId) -> Result<SessionId, ServerError> {
        let movie_idx = self.core.movie_idx(movie)?;
        let geometry = self.core.config.movies[movie_idx].geometry;
        if self.sessions.is_full() {
            return Err(ServerError::SessionIdsExhausted);
        }
        // The next restart instant ≥ now. A stream scheduled at `now` has
        // not started yet (ticks process start-of-minute events), so
        // `start_at == now` is valid and the session enrolls during the
        // coming tick.
        let t = geometry.restart_interval as u64;
        let start_at = self.core.now.div_ceil(t) * t;
        // A stream whose window will cover position 0 when this session
        // first consumes (the enrollment window of the paper's Figure 1).
        let (state, wait) = match self.joinable_stream(movie_idx, 0) {
            Some(stream) => {
                let cohort = self.enrolment(movie_idx, 0, stream, self.accounted);
                (SessionState::Shared(cohort), 0)
            }
            None => (SessionState::Waiting { start_at }, start_at - self.core.now),
        };
        let idx = admit(
            &mut self.sessions,
            movie_idx,
            0,
            state,
            Piggyback::default(),
        )?;
        self.core.startup_waits.push(wait as f64);
        self.place(idx);
        Ok(SessionId(idx))
    }

    /// Adopt a session displaced from another federation shard, resuming
    /// `movie` at `position`. A migration, not an admission: no
    /// startup-wait sample is recorded (the viewer already started
    /// elsewhere), and placement is immediate or refused — an in-window
    /// batch cohort when some live partition covers `position`
    /// ([`Adoption::CohortJoin`]), else a dedicated stream from the VCR
    /// reserve ([`Adoption::DedicatedStream`]), else
    /// [`ServerError::VcrDenied`] so the front tier's failover ledger
    /// backs off and retries.
    fn adopt_session(
        &mut self,
        movie: MovieId,
        position: u32,
    ) -> Result<(SessionId, Adoption), ServerError> {
        let movie_idx = self.core.adoptable(&self.sessions, movie, position)?;
        let (state, lease, how) = match self.joinable_stream(movie_idx, position) {
            Some(stream) => {
                let cohort = self.enrolment(movie_idx, position, stream, self.accounted);
                (SessionState::Shared(cohort), None, Adoption::CohortJoin)
            }
            None => {
                let lease = self.core.try_lease().ok_or_else(|| self.core.deny_vcr())?;
                (
                    SessionState::Dedicated,
                    Some(lease),
                    Adoption::DedicatedStream,
                )
            }
        };
        let idx = admit(
            &mut self.sessions,
            movie_idx,
            position,
            state,
            Piggyback::default(),
        )?;
        self.sessions.live_mut(idx).lease = lease;
        self.place(idx);
        Ok((SessionId(idx), how))
    }

    /// Issue a VCR operation on a playing session. `magnitude` is the
    /// movie minutes to sweep (FF/RW) or the pause duration in minutes.
    fn request_vcr(
        &mut self,
        id: SessionId,
        kind: VcrKind,
        magnitude: u32,
    ) -> Result<(), ServerError> {
        let sess = resolve(&self.sessions, id)?;
        if !matches!(
            sess.state,
            SessionState::Shared(_) | SessionState::Dedicated
        ) {
            return Err(ServerError::InvalidState { operation: "vcr" });
        }
        let idx = id.0;
        let length = self.core.config.movies[sess.movie_idx].geometry.length;
        // FF/RW with viewing need a dedicated stream for phase 1.
        let new_lease = if !matches!(kind, VcrKind::Pause) && sess.lease.is_none() {
            // Starvation policy: while degraded sessions wait for streams
            // or failed streams shrink the pool, new phase-1 grants are
            // refused outright — playback (and recovery) has priority
            // over fresh VCR service. Unreachable without injected
            // faults, so fault-free denial behavior is unchanged.
            if self.core.fault_mode()
                && (self.core.degraded_count > 0 || self.core.disk.failed() > 0)
            {
                self.core.metrics.vcr_denied_degraded += 1;
                return Err(self.core.deny_vcr());
            }
            // Issue-time Erlang loss: the viewer stays in the batch and
            // never retries this request.
            Some(self.core.try_lease().ok_or_else(|| self.core.deny_vcr())?)
        } else {
            None
        };
        // Leave the partition, if enrolled: the position below is current
        // from here on.
        self.leave_cohort(idx);
        let sess = self.sessions.live_mut(idx);
        if new_lease.is_some() {
            sess.lease = new_lease;
        }
        // A pause of `d` minutes shifts the viewing pattern by `d`: the
        // session skips the next `d` ticks and resumes on the one after.
        let span = vod_runtime::truncate_sweep(kind, magnitude, sess.position, length);
        let next = self.core.begin_vcr(sess, kind, magnitude, span);
        self.transition(idx, next);
        Ok(())
    }

    /// Status snapshot of a session.
    fn session_status(&self, id: SessionId) -> Result<SessionStatus, ServerError> {
        status_of(&self.sessions, id, self.core.now)
    }

    /// Session playback position (next segment to consume).
    fn session_position(&self, id: SessionId) -> Result<u32, ServerError> {
        let sess = resolve(&self.sessions, id)?;
        Ok(sess.position + self.owed(sess))
    }

    /// Advance one virtual minute.
    fn tick(&mut self) {
        let t = self.core.now;
        self.core.begin_tick();
        apply_faults(self);
        self.retire_streams();
        self.start_due_streams(t);
        self.advance_streams(t);
        self.advance_sessions(t);
        self.core.now = t + 1;
    }

    /// Check the server's conservation invariants and return a
    /// human-readable description of every violation (empty when
    /// healthy). The chaos harness calls this after every tick. The
    /// audit is a pure read that recounts everything from scratch and
    /// keeps nothing between calls, in time linear in the state it reads:
    /// one pass over the live sessions, two over the streams — nothing
    /// per session that has finished.
    ///
    /// Invariants: stream conservation (`in_use + free + failed ==
    /// provisioned`, and every in-use stream is held by exactly one
    /// lease); the VCR reserve's holds equal the session-held leases;
    /// buffer accounting (partition capacities sum to the pool's `used`,
    /// never overcommitted between ticks); every enrolled session's
    /// (derived) position lies inside its stream's window, and each
    /// stream's cohort table equals a recount of those positions; no
    /// session is lost (every one admitted is live or was retired, and
    /// the live records plus the retired totals are the deliveries the
    /// counters saw); the degraded population matches the states; the
    /// wheel holds one live entry per session plus the known stale ones.
    fn check_invariants(&self) -> Vec<String> {
        // Findings are gathered per pass, then reported in a fixed order:
        // resources, streams, sessions, scheduler.
        // The recount of every stream's cohort table, flattened: stream
        // slot `i`'s offsets start at `first[i]`.
        let mut first = Vec::with_capacity(self.streams.slot_count());
        let mut offsets = 0usize;
        for i in 0..self.streams.slot_count() {
            first.push(offsets);
            offsets += self.streams.at(i).map_or(0, |s| s.cohorts.len());
        }
        let mut readers = vec![0u32; offsets];
        let mut recount = Recount::default();
        let mut session_faults = Vec::new();
        for (idx, sess) in self.sessions.iter() {
            recount.see(idx, sess, false, &mut session_faults);
            let SessionState::Shared(Enrolment { stream, .. }) = sess.state else {
                continue;
            };
            let slot = stream.0.index();
            match self.streams.get(stream.0) {
                Some(s) => {
                    let head = s.next_read;
                    let owed = sess.owed(head, self.accounted);
                    recount.delivered.0 += u64::from(owed);
                    let position = sess.position + owed;
                    let filled = s.partition.len() as u32;
                    match head.checked_sub(position) {
                        Some(lag) if lag <= filled => {
                            readers[first[slot] + lag as usize] += 1;
                        }
                        _ => session_faults.push(format!(
                            "session {idx} at {position} outside stream {slot}'s window \
                             [{}, {head}]",
                            head.saturating_sub(filled)
                        )),
                    }
                }
                None => {
                    session_faults.push(format!("session {idx} enrolled in dead stream {slot}"))
                }
            }
        }
        let mut stream_leases = 0u32;
        let mut partition_segments = 0usize;
        let mut stream_faults = Vec::new();
        for (sid, s) in self.streams.iter() {
            stream_leases += u32::from(s.lease.is_some());
            partition_segments += s.partition.capacity();
            let i = sid.index();
            let counted = &readers[first[i]..][..s.cohorts.len()];
            for (lag, (&found, &held)) in counted.iter().zip(s.cohorts.iter()).enumerate() {
                if found != held {
                    stream_faults.push(format!(
                        "cohort drift on stream {i}: {found} readers {lag} behind the head vs \
                         cohort of {held}"
                    ));
                }
            }
        }

        let mut findings = Vec::new();
        if partition_segments != self.pool.used() {
            findings.push(format!(
                "buffer accounting broken: partitions total {partition_segments} segments, \
                 pool says {} used",
                self.pool.used()
            ));
        }
        if self.pool.overcommitted() != 0 {
            findings.push(format!(
                "buffer overcommitted between ticks: {} segments beyond budget",
                self.pool.overcommitted()
            ));
        }
        findings.append(&mut stream_faults);
        findings.append(&mut session_faults);
        let issued = self.sessions.issued();
        let mut v = self.core.audit(stream_leases, issued, recount, findings);
        // The wheel holds one live entry per session plus the known stale
        // ones.
        let live = self.sessions.len() as u64;
        if !self.reference_scan && live + self.wheel_stale != self.wakeups.len() as u64 {
            v.push(format!(
                "wheel population drift: {live} live + {} stale != {} scheduled",
                self.wheel_stale,
                self.wakeups.len()
            ));
        }
        v
    }

    fn buffer_segments(&self) -> u64 {
        self.core.config.buffer_budget as u64
    }

    fn live_sessions(&self) -> usize {
        self.sessions.len()
    }

    fn session_slots(&self) -> usize {
        self.sessions.resident_slots()
    }
}

impl FaultPolicy for VodServer {
    /// Mirror a capacity loss into the VCR reserve at once: the dedicated
    /// share shrinks before the playback pre-allocation does.
    const RESERVE_FAILS_FIRST: bool = true;

    fn leases_revoked(&mut self, revoked: &[u64]) -> u32 {
        // A playback stream that lost its lease loses its partition too.
        let dead: Vec<ArenaId> = self
            .streams
            .iter()
            .filter(|(_, s)| s.lease.as_ref().is_some_and(|l| l.revoked_in(revoked)))
            .map(|(sid, _)| sid)
            .collect();
        let mut final_heads = vec![None; self.streams.slot_count()];
        for &sid in &dead {
            final_heads[sid.index()] = self.retire_stream(sid);
        }
        // A dedicated or sweeping session loses its stream and re-queues.
        self.core.revoke_session_leases(&mut self.sessions, revoked);
        if !dead.is_empty() {
            self.degrade_orphans(&final_heads);
        }
        dead.len() as u32
    }

    fn buffer_resized(&mut self, grow: bool, segments: usize) -> bool {
        if grow {
            self.pool.grow(segments);
        } else {
            self.pool.shrink(segments);
            self.evict_partitions_to_fit();
        }
        true
    }
}

/// Audit-sensitivity tests: every string `check_invariants` can emit,
/// provoked by corrupting exactly the state it certifies.
#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy server at `now = 6` with one session of each kind:
    /// enrolled in stream 0, sweeping on a dedicated lease, and waiting
    /// for the `t = 6` restart.
    fn busy() -> (VodServer, [SessionId; 3]) {
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
        let mut s = VodServer::new(ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 40)
        });
        s.tick();
        let enrolled = s.open_session(MovieId(0)).unwrap();
        let sweeping = s.open_session(MovieId(0)).unwrap();
        s.run(4);
        s.request_vcr(sweeping, VcrKind::FastForward, 90).unwrap();
        s.tick();
        let waiting = s.open_session(MovieId(0)).unwrap();
        assert_eq!(s.session_status(enrolled).unwrap(), SessionStatus::Shared);
        assert_eq!(s.session_status(sweeping).unwrap(), SessionStatus::InVcr);
        assert_eq!(
            s.session_status(waiting).unwrap(),
            SessionStatus::Waiting(6)
        );
        assert_eq!(s.check_invariants(), Vec::<String>::new());
        (s, [enrolled, sweeping, waiting])
    }

    /// Session ids only grow, so they can run out: the last one is issued,
    /// the next admission is refused with a typed error — before it takes
    /// a stream — and nothing wraps round onto a live session.
    #[test]
    fn admission_ends_when_the_ids_run_out() {
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
        let mut s = VodServer::new(ServerConfig::provisioned(vec![movie], 4));
        s.sessions = SessionStore::starting_at(u32::MAX - 1);
        s.run(9);
        let last = s.open_session(MovieId(0)).unwrap();
        assert_eq!(last, SessionId(u32::MAX - 1));
        assert!(matches!(
            s.open_session(MovieId(0)),
            Err(ServerError::SessionIdsExhausted)
        ));
        // Position 100 is in no window: an adoption would take a stream.
        assert!(matches!(
            s.adopt_session(MovieId(0), 100),
            Err(ServerError::SessionIdsExhausted)
        ));
        assert_eq!(s.core.reserve.in_use(), 0);
        assert_eq!(s.live_sessions(), 1);
        assert!(matches!(
            s.session_status(SessionId(u32::MAX)),
            Err(ServerError::UnknownSession(_))
        ));
        assert_eq!(s.check_invariants(), Vec::<String>::new());
    }

    /// Every delivery of a corrupt ring entry counts, on the server and
    /// on its session, exactly as the session-by-session reference scan
    /// counts them — the cohort delivery finds the readers of a failed
    /// entry, at whatever offset of whichever stream — and no outcome
    /// outlives its tick.
    #[test]
    fn every_delivery_of_a_corrupt_ring_entry_counts() {
        for reference in [false, true] {
            let movies = [0, 1].map(|m| HostedMovie::from_allocation(MovieId(m), 120, 20, 100.0));
            let mut s = VodServer::new(ServerConfig::provisioned(movies.to_vec(), 4));
            s.set_reference_scan(reference);
            s.tick();
            // Movie 0: three viewers one segment behind the stream, one
            // two behind. Movie 1: one viewer at each of those offsets.
            let cohort: Vec<SessionId> = (0..3)
                .map(|_| s.open_session(MovieId(0)).unwrap())
                .collect();
            let other = s.open_session(MovieId(1)).unwrap();
            s.tick();
            let straggler = s.open_session(MovieId(0)).unwrap();
            let bystander = s.open_session(MovieId(1)).unwrap();
            s.run(2);
            let stream_of = |s: &VodServer, id: SessionId| match s.sessions.live(id.0).state {
                SessionState::Shared(Enrolment { stream, .. }) => stream,
                _ => panic!("enrolled"),
            };
            let (stream, other_stream) = (stream_of(&s, straggler), stream_of(&s, other));
            assert_ne!(stream, other_stream);
            for (id, position) in [(cohort[0], 3), (straggler, 2), (other, 3), (bystander, 2)] {
                assert_eq!(s.session_position(id).unwrap(), position);
            }
            assert_eq!(s.metrics().verify_failures, 0);
            // Entry 2 passed when the cohort read it last tick; it and
            // entry 3 go bad now, and so does the other stream's entry 3.
            let partition = &mut s.streams.live_mut(stream.0).partition;
            partition.corrupt(2);
            partition.corrupt(3);
            s.streams.live_mut(other_stream.0).partition.corrupt(3);
            s.tick();
            let failures = |s: &VodServer, id| s.session_stats(id).unwrap().verify_failures;
            for &id in cohort.iter().chain([&straggler, &other]) {
                assert_eq!(failures(&s, id), 1);
            }
            assert_eq!(failures(&s, bystander), 0, "entry 2 of its stream is sound");
            assert_eq!(s.metrics().verify_failures, 5, "one per delivery");
            // Entry 3 is repaired before the stragglers reach it: the
            // failures on it are not carried over either.
            s.streams.live_mut(stream.0).partition.corrupt(3);
            s.streams.live_mut(other_stream.0).partition.corrupt(3);
            s.tick();
            assert_eq!(s.metrics().verify_failures, 5);
            assert_eq!(failures(&s, bystander), 0);
            assert_eq!(s.session_stats(straggler).unwrap().from_buffer, 4);
        }
    }

    #[test]
    fn audit_sees_disk_and_lease_drift() {
        let (mut s, [_, sweeping, _]) = busy();
        s.core.disk.skew_failed(100);
        assert_eq!(
            s.check_invariants(),
            ["disk conservation broken: in_use 2 + free 0 + failed 100 != provisioned 62"]
        );
        let (mut s, _) = busy();
        // A session lease dropped without a release: the disk and the
        // reserve both still count it.
        s.sessions.live_mut(sweeping.0).lease = None;
        assert_eq!(
            s.check_invariants(),
            [
                "session 1 is serving without a lease",
                "lease accounting broken: 1 pre-allocated + 0 session-held != disk 2",
                "reserve accounting broken: sessions hold 0, reserve says 1",
            ]
        );
        // ... and one held where nothing is served through it.
        let (mut s, [enrolled, sweeping, _]) = busy();
        let lease = s.sessions.live_mut(sweeping.0).lease.take();
        s.sessions.live_mut(enrolled.0).lease = lease;
        assert_eq!(
            s.check_invariants(),
            [
                "session 0 holds a lease in a non-serving state",
                "session 1 is serving without a lease",
            ]
        );
    }

    #[test]
    fn audit_sees_buffer_drift() {
        let (mut s, _) = busy();
        assert!(s.pool.reserve(1));
        assert_eq!(
            s.check_invariants(),
            ["buffer accounting broken: partitions total 5 segments, pool says 6 used"]
        );
        let (mut s, _) = busy();
        // One 5-segment partition is live; leave a 2-segment budget.
        s.pool.shrink(s.pool.budget() - 2);
        assert_eq!(
            s.check_invariants(),
            ["buffer overcommitted between ticks: 3 segments beyond budget"]
        );
    }

    #[test]
    fn audit_sees_enrollment_and_population_drift() {
        let (mut s, [enrolled, _, _]) = busy();
        let SessionState::Shared(Enrolment { stream, .. }) = s.sessions.live(enrolled.0).state
        else {
            panic!("enrolled");
        };
        // The same slot, one generation on: a retired stream.
        let retired = ArenaId::from_parts(stream.0.index() as u32, stream.0.generation() + 1);
        if let SessionState::Shared(place) = &mut s.sessions.live_mut(enrolled.0).state {
            place.stream = StreamId(retired);
        }
        assert_eq!(
            s.check_invariants(),
            [
                "cohort drift on stream 0: 0 readers 1 behind the head vs cohort of 1",
                "session 0 enrolled in dead stream 0",
                // What it is owed cannot be worked out without the stream.
                "delivery record drift: sessions show 4 buffer + 3 disk segments (live and \
                 retired), the counters 9 + 3",
            ]
        );
        let (mut s, _) = busy();
        s.core.degraded_count += 1;
        assert_eq!(
            s.check_invariants(),
            ["degraded population drift: counted 0, tracked 1"]
        );
        // A session dropped behind the books' back: nothing is kept per
        // retired session, so the population clause is what sees it.
        let (mut s, [_, _, waiting]) = busy();
        s.sessions.retire(waiting.0);
        assert_eq!(
            s.check_invariants(),
            [
                "session population drift: 3 admitted != 2 live + 0 retired",
                "wheel population drift: 2 live + 1 stale != 4 scheduled",
            ]
        );
        // ... and one whose record went missing with it.
        let (mut s, [enrolled, _, _]) = busy();
        s.detach(enrolled.0);
        s.sessions.retire(enrolled.0);
        assert_eq!(
            s.check_invariants(),
            [
                "session population drift: 3 admitted != 2 live + 0 retired",
                "delivery record drift: sessions show 4 buffer + 3 disk segments (live and \
                 retired), the counters 9 + 3",
            ]
        );
    }

    /// The cohort table is what the stream phase delivers by; the audit
    /// recounts it from the sessions' own (derived) positions.
    #[test]
    fn audit_sees_cohort_drift() {
        let (mut s, [enrolled, _, _]) = busy();
        let SessionState::Shared(Enrolment { stream, .. }) = s.sessions.live(enrolled.0).state
        else {
            panic!("enrolled");
        };
        // The one reader trails the head by one segment.
        assert_eq!(s.session_position(enrolled).unwrap(), 5);
        assert_eq!(*s.streams.live(stream.0).cohorts, [0, 1, 0, 0, 0, 0]);
        s.streams.live_mut(stream.0).cohorts[3] += 1;
        assert_eq!(
            s.check_invariants(),
            ["cohort drift on stream 0: 0 readers 3 behind the head vs cohort of 1"]
        );
        // The right total at the wrong offset delivers the wrong segment.
        s.streams.live_mut(stream.0).cohorts[1] -= 1;
        assert_eq!(
            s.check_invariants(),
            [
                "cohort drift on stream 0: 1 readers 1 behind the head vs cohort of 0",
                "cohort drift on stream 0: 0 readers 3 behind the head vs cohort of 1",
            ]
        );
    }

    /// Reader counts alone never showed that a partition actually covers
    /// its readers.
    #[test]
    fn audit_sees_a_reader_outside_its_window() {
        for (position, derived) in [(7, 7), (0, 0)] {
            let (mut s, [enrolled, _, _]) = busy();
            let sess = s.sessions.live_mut(enrolled.0);
            sess.position = position;
            if let SessionState::Shared(place) = &mut sess.state {
                place.since = 6;
            }
            assert_eq!(
                s.check_invariants(),
                [
                    "cohort drift on stream 0: 0 readers 1 behind the head vs cohort of 1"
                        .to_string(),
                    format!("session 0 at {derived} outside stream 0's window [1, 6]"),
                    // Re-dating the enrolment dropped the five segments owed.
                    "delivery record drift: sessions show 4 buffer + 3 disk segments (live and \
                     retired), the counters 9 + 3"
                        .to_string(),
                ]
            );
        }
    }

    #[test]
    fn audit_sees_scheduler_drift() {
        // One live entry per session; the sweeping session's finish
        // wake-up, parked while it was enrolled, is the one stale entry.
        let (mut s, _) = busy();
        s.wheel_stale += 1;
        assert_eq!(
            s.check_invariants(),
            ["wheel population drift: 3 live + 2 stale != 4 scheduled"]
        );
        // A working session whose entry was taken off the wheel: the
        // sweeping session would never act again.
        let (mut s, [_, sweeping, _]) = busy();
        let mut old = std::mem::take(&mut s.wakeups);
        while let Some(due) = old.next_due() {
            for idx in old.drain_tick(due) {
                if (due, idx) != (6, sweeping.0) {
                    s.wakeups.schedule(due, idx);
                }
            }
        }
        assert_eq!(
            s.check_invariants(),
            ["wheel population drift: 3 live + 1 stale != 3 scheduled"]
        );
        // An extra entry no stale count accounts for.
        let (mut s, [enrolled, _, _]) = busy();
        s.wakeups.schedule(7, enrolled.0);
        assert_eq!(
            s.check_invariants(),
            ["wheel population drift: 3 live + 1 stale != 5 scheduled"]
        );
        // A paused session's wake-up is its live entry; the enrolled one
        // it left behind goes stale.
        let (mut s, [enrolled, sweeping, _]) = busy();
        s.request_vcr(enrolled, VcrKind::Pause, 3).unwrap();
        assert_eq!(s.check_invariants(), Vec::<String>::new());
        s.wheel_stale -= 1;
        assert_eq!(
            s.check_invariants(),
            ["wheel population drift: 3 live + 1 stale != 5 scheduled"]
        );
        // A working session that quits leaves its entry stale, accounted.
        s.wheel_stale += 1;
        s.close_session(sweeping).unwrap();
        assert_eq!(s.check_invariants(), Vec::<String>::new());
    }
}
