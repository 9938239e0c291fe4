//! Viewer sessions: the one life-cycle the three delivery schemes share.
//!
//! The paper follows one viewer: wait, play from something shared, VCR on
//! a stream of one's own (phase 1), resume as a hit back into the shared
//! resource or as a miss held on the stream (phase 2), release. The
//! schemes differ only in what "shared" is — a buffer partition behind a
//! batch stream (batching), the looping broadcast channels (pyramid),
//! nothing at all (dedicated) — so the session record ([`Session`]), its
//! states ([`SessionState`]) and the steps that do not depend on the
//! scheme (next to [`ServerCore`](crate::ServerCore)) are written once.
//! Time is integer minutes; one tick displays one segment.
//!
//! ```text
//! Waiting ─────────────────── start ────────▶ Shared(E) | Dedicated
//! Shared(E) | Dedicated ───── FF / RW ──────▶ Vcr
//! Shared(E) | Dedicated ───── PAU ──────────▶ Paused
//! Vcr | Paused ────────────── resume: hit ──▶ Shared(E)
//! Vcr | Paused ────────────── resume: miss ─▶ Dedicated   (refused a stream: Degraded)
//! Dedicated ───────────────── merge ────────▶ Shared(E)
//! Shared(E) | Dedicated | Vcr ── fault ─────▶ Degraded
//! Degraded ────────────────── rejoin ───────▶ Shared(E)
//! Degraded ────────────────── retry granted ▶ Dedicated
//! Degraded ────────────────── timeout ──────▶ Waiting     (dedicated only)
//! Shared(E) | Dedicated | Vcr ── end ───────▶ retired
//! ```
//!
//! | edge | batching | pyramid | dedicated |
//! |---|---|---|---|
//! | start | the next restart of the movie: enrols in the new stream's partition (a late arrival inside an enrolment window starts `Shared` at once) | the next segment-1 boundary: receives all channels | first in the FIFO when a stream is free: plays `Dedicated`, there is nothing to share |
//! | `Shared(E)` carries | `{stream, since, finish_at}` | `()` — the reception front is on the record | uninhabited ([`Infallible`](std::convert::Infallible)) |
//! | FF / RW | always on a lease (phase 1); every swept segment is read | free inside the received prefix, on a lease beyond the front; moves the position only | on the lease the viewing holds; moves the position only |
//! | PAU | gives the lease back, leaves the partition | gives the lease back, keeps receiving | gives the lease back |
//! | resume: hit | a live window covers the position | the position has been received | never |
//! | resume: miss | stays on the sweep's lease; a paused viewer takes one, or stays `Paused` two more ticks | catch-up on the sweep's lease; with none, takes one or degrades | stays on the lease; a paused viewer takes one or degrades |
//! | merge | piggyback into the window ahead | the front catches up with the position | never |
//! | fault | lease revoked; partition evicted or its stream lost | lease revoked | lease revoked |
//! | rejoin | a window covers the position (the only way back past the timeout) | the front covers it (likewise) | never |
//! | timeout | keeps waiting for a window | keeps waiting for the front | back into the FIFO |
//! | end | end of the movie, FF off it, `close_session` | end of the movie, FF off it | end of the movie, FF off it |
//!
//! A session that ends is retired the same tick: its memory given back,
//! its record published once (`ServerCore::finish`).
//!
//! Batching and pyramid construct `Degraded` only under an injected
//! [`vod_runtime::FaultPlan`], so their fault-free behavior is bitwise
//! what it was before faults existed; dedicated also degrades a paused
//! viewer who finds the whole pool taken at resume.

use vod_runtime::{ArenaId, RetryLedger, SessionStore};
use vod_workload::VcrKind;

use crate::disk::StreamLease;
use crate::server::ServerError;

/// Session identifier: the session's index in its server's
/// [`SessionStore`]. A server issues indices in admission order, `0, 1,
/// 2, …`, and never reuses one, so every id is in one of three states for
/// good: *live*; *retired* — the session finished or was closed, its
/// memory is gone, and the id answers [`SessionStatus::Done`] and refuses
/// everything else with [`ServerError::SessionFinished`]; or *never
/// issued* ([`ServerError::UnknownSession`]). An id held past the end of
/// its session can never alias a later admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u32);

/// Identifier of an active stream within the server: a generational
/// handle into the stream arena. Stream slots *are* reused as streams
/// retire, so a stale `StreamId` held across a retirement resolves to
/// `None` rather than the slot's new occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub ArenaId);

/// Where a session currently gets its frames. `E` is what the scheme
/// enrols a session *in* while it plays from the shared resource; see the
/// module docs for each scheme's reading of every state.
#[derive(Debug, Clone, Copy)]
pub enum SessionState<E> {
    /// Queued for a scheduled playback start.
    Waiting {
        /// Tick at which the session will start; for a session queued
        /// first-come first-served, the first tick it could.
        start_at: u64,
    },
    /// Playing from the shared resource (type-2 viewer or a post-resume
    /// hit), holding no stream of its own.
    Shared(E),
    /// Playing through a dedicated disk stream (post-miss playback,
    /// possibly on its way back into the shared resource).
    Dedicated,
    /// Sweeping (FF or RW with viewing).
    Vcr {
        /// Sweep direction; never [`VcrKind::Pause`].
        kind: VcrKind,
        /// Segments still to sweep.
        remaining: u32,
    },
    /// Paused: consumes nothing and holds no stream.
    Paused {
        /// Tick at which playback resumes.
        until: u64,
    },
    /// Lost its stream or its place in the shared resource to an injected
    /// fault (or was refused a stream at a resume); re-queued with bounded
    /// re-wait. Each tick the scheme first tries a free rejoin (the
    /// shared resource covering the position), then follows the retry
    /// ledger: past the policy's re-wait bound, dedicated-stream attempts
    /// under exponential backoff until the retry timeout. Playback
    /// position is preserved; the viewer is never dropped.
    Degraded(RetryLedger),
}

impl<E> SessionState<E> {
    /// The state in the vocabulary every scheme's callers share, asked at
    /// tick `now`: a start date never reads as already past.
    pub(crate) fn status(&self, now: u64) -> SessionStatus {
        match *self {
            SessionState::Waiting { start_at } => SessionStatus::Waiting(start_at.max(now)),
            SessionState::Shared(_) => SessionStatus::Shared,
            SessionState::Dedicated => SessionStatus::Dedicated,
            SessionState::Vcr { .. } | SessionState::Paused { .. } => SessionStatus::InVcr,
            SessionState::Degraded(_) => SessionStatus::Degraded,
        }
    }
}

/// One viewer's record: what every scheme keeps per session, plus the
/// scheme's own `X` (batching's piggyback phase, pyramid's reception
/// front, dedicated's admission stamp).
pub(crate) struct Session<E, X> {
    pub movie_idx: usize,
    /// Next segment to consume.
    pub position: u32,
    pub state: SessionState<E>,
    /// Dedicated disk lease, when holding one.
    pub lease: Option<StreamLease>,
    pub stats: DeliveryStats,
    pub scheme: X,
}

/// A backend's live sessions.
pub(crate) type Sessions<E, X> = SessionStore<Session<E, X>>;

/// Admit a session of `movie_idx` at `position`, born in `state` and
/// holding no stream yet: its id, unless every id has been issued.
pub(crate) fn admit<E, X>(
    sessions: &mut Sessions<E, X>,
    movie_idx: usize,
    position: u32,
    state: SessionState<E>,
    scheme: X,
) -> Result<u32, ServerError> {
    let stats = DeliveryStats::default();
    sessions
        .insert(Session {
            movie_idx,
            position,
            state,
            lease: None,
            stats,
            scheme,
        })
        .ok_or(ServerError::SessionIdsExhausted)
}

/// The live session behind `id`, or why there is none: it finished, or
/// `sessions` never issued the id.
pub(crate) fn resolve<T>(sessions: &SessionStore<T>, id: SessionId) -> Result<&T, ServerError> {
    sessions.get(id.0).ok_or(if sessions.was_issued(id.0) {
        ServerError::SessionFinished(id)
    } else {
        ServerError::UnknownSession(id)
    })
}

/// [`DeliveryBackend::session_status`](crate::DeliveryBackend::session_status)
/// over a store, asked at tick `now`; a retired id is
/// [`SessionStatus::Done`].
pub(crate) fn status_of<E, X>(
    sessions: &Sessions<E, X>,
    id: SessionId,
    now: u64,
) -> Result<SessionStatus, ServerError> {
    match resolve(sessions, id) {
        Ok(sess) => Ok(sess.state.status(now)),
        Err(ServerError::SessionFinished(_)) => Ok(SessionStatus::Done),
        Err(unknown) => Err(unknown),
    }
}

/// Per-session delivery accounting; the integration tests assert
/// `verify_failures == 0` — the data path must deliver byte-exact
/// segments no matter which source served them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Segments served from a buffer partition.
    pub from_buffer: u64,
    /// Segments served from a dedicated disk stream.
    pub from_disk: u64,
    /// Segments whose bytes did not match the canonical content.
    pub verify_failures: u64,
}

impl DeliveryStats {
    /// All segments delivered.
    pub fn total(&self) -> u64 {
        self.from_buffer + self.from_disk
    }
}

/// Public status snapshot of a session.
///
/// This is the *shared* vocabulary every
/// [`DeliveryBackend`](crate::DeliveryBackend) maps its internal states
/// onto, so the workload driver stays scheme-agnostic: batching reads
/// `Waiting` as "queued for the next restart", pyramid as "parked until
/// the next segment-1 boundary", dedicated as "queued for a free
/// stream"; `Shared` covers both partition playback and broadcast
/// reception; `Dedicated` covers a private stream, whether primary
/// (unicast baseline) or a catch-up beyond the broadcast front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Waiting for a scheduled playback start (tick at which it starts).
    Waiting(u64),
    /// Playing from a shared resource (partition or broadcast channel).
    Shared,
    /// Playing from a dedicated stream.
    Dedicated,
    /// Mid-VCR operation.
    InVcr,
    /// Re-queued after a fault took its stream or partition (degraded
    /// re-wait; playback resumes via window rejoin or a granted retry).
    Degraded,
    /// Completed (finished or closed early): the session has been
    /// retired and only its id is left.
    Done,
}
