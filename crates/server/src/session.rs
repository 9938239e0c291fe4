//! Viewer sessions: state machine types.
//!
//! The server (`crate::server`) drives these states tick by tick. Time is
//! integer minutes; one tick displays one segment at normal playback.
//!
//! ```text
//! Waiting ──restart──▶ Enrolled(stream) ──FF/RW──▶ VcrActive ──resume hit──▶ Enrolled
//!                         │       │                    │
//!                         │       └──PAU──▶ Paused ────┤
//!                         │                            └─resume miss──▶ Dedicated ──piggyback──▶ Enrolled
//!                         └──────────── end of movie ──▶ retired
//!
//! Enrolled/Dedicated/VcrActive ──fault (lost stream or partition)──▶ Degraded
//!     Degraded ──window rejoin──▶ Enrolled      (bounded re-wait, the free path)
//!     Degraded ──retry granted──▶ Dedicated     (backoff, stops at the timeout)
//! ```
//!
//! `Waiting`, `Enrolled` and `Paused` are *passive*: nothing about such a
//! session changes from one tick to the next except what the clock and
//! its stream's read head already say, so the server does not visit it
//! every tick. It parks one wake-up on the timer wheel — the restart
//! instant, the tick the movie ends, the tick the pause ends — and an
//! enrolled session's position and buffer count are worked out from
//! `(position, since)` when somebody asks. `Dedicated`, `VcrActive`
//! (a sweep) and `Degraded` sessions do work every minute and stay on
//! the server's active list.
//!
//! `Degraded` only arises under an injected [`vod_runtime::FaultPlan`];
//! a fault-free run never constructs it, so pre-fault behavior is
//! bitwise unchanged.

use vod_runtime::{ArenaId, RetryLedger, SessionStore};
use vod_workload::VcrKind;

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
/// over a store: `live` maps a live session's state onto the shared
/// vocabulary, and a retired id is [`SessionStatus::Done`].
pub(crate) fn status_of<T>(
    sessions: &SessionStore<T>,
    id: SessionId,
    live: impl FnOnce(&T) -> SessionStatus,
) -> Result<SessionStatus, ServerError> {
    match resolve(sessions, id) {
        Ok(sess) => Ok(live(sess)),
        Err(ServerError::SessionFinished(_)) => Ok(SessionStatus::Done),
        Err(unknown) => Err(unknown),
    }
}

/// Identifier of an active stream within the server: a generational
/// handle into the stream arena. Stream slots *are* reused as streams
/// retire, so a stale `StreamId` held across a retirement resolves to
/// `None` rather than the slot's new occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub ArenaId);

/// Where a session currently gets its frames.
#[derive(Debug)]
pub enum SessionState {
    /// Queued for the next restart of the movie (type-1 viewer).
    Waiting {
        /// Tick at which the session will start.
        start_at: u64,
    },
    /// Reading from a stream's buffer partition (type-2 viewer or a
    /// post-resume hit).
    Enrolled {
        /// The stream whose partition serves this session.
        stream: StreamId,
        /// First tick whose delivery the session's stored position and
        /// statistics do not include yet: since then it has consumed one
        /// segment per tick the server has accounted, held back only by
        /// the stream's read head.
        since: u64,
        /// Tick the session reaches the end of the movie if it never
        /// stalls; its wheel wake-up is live only on this tick.
        finish_at: u64,
    },
    /// Holding a dedicated disk stream (post-miss playback, possibly
    /// piggybacking its way back into a partition).
    Dedicated,
    /// Sweeping (FF or RW with viewing) on a dedicated stream.
    VcrActive {
        /// Sweep direction; never [`VcrKind::Pause`].
        kind: VcrKind,
        /// Segments still to sweep.
        remaining: u32,
    },
    /// Paused: consumes nothing and holds nothing.
    Paused {
        /// Tick at which playback resumes.
        until: u64,
    },
    /// Lost its stream or partition to an injected fault; re-queued with
    /// bounded re-wait. Each tick the server first tries a free batch
    /// rejoin (a live window covering the position), then follows the
    /// retry ledger: past the policy's re-wait bound, dedicated-stream
    /// attempts under exponential backoff until the retry timeout, after
    /// which only batch admission remains. Playback position is
    /// preserved; the viewer is never dropped.
    Degraded(RetryLedger),
}

impl SessionState {
    /// Does nothing about the session change until a wake-up or a
    /// request? (See the module docs.)
    pub(crate) fn is_passive(&self) -> bool {
        matches!(
            self,
            SessionState::Waiting { .. }
                | SessionState::Enrolled { .. }
                | SessionState::Paused { .. }
        )
    }

    /// Is a wheel wake-up firing on tick `t` the one this state parked?
    /// Anything else is a stale entry left behind by a state the session
    /// has since left.
    pub(crate) fn wakes_at(&self, t: u64) -> bool {
        match *self {
            SessionState::Waiting { start_at } => start_at == t,
            SessionState::Enrolled { finish_at, .. } => finish_at == t,
            SessionState::Paused { until } => until == t,
            _ => false,
        }
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
