//! The [`DeliveryBackend`] trait: the seam between workload drivers and
//! delivery schemes.
//!
//! The harness/chaos driver, the fault plans, and the workload scripts
//! only ever need a small surface from a server: open sessions, issue
//! VCR operations, advance virtual time, and read the shared
//! [`RuntimeMetrics`] vocabulary. This trait is that surface, and three
//! schemes implement it: the paper's batching+buffering [`VodServer`],
//! [`PyramidServer`] (fast broadcasting) and [`DedicatedServer`] (pure
//! unicast).
//!
//! What each backend owns behind the trait: admission shaping (batch
//! enrollment vs. boundary join vs. immediate grant), restart/segment
//! scheduling on the `TimerWheel`, per-tick buffer occupancy, and the
//! mapping of its internal states onto the shared [`SessionStatus`] and
//! metrics vocabulary. What no scheme owns — the clock, the stream pool
//! and its reserve, the counters, fault arming — lives in the
//! [`ServerCore`] each backend carries, and the trait answers those
//! questions from it. See DESIGN.md §12 for the full contract.

use vod_runtime::{BackendKind, DegradePolicy, FaultPlan, RuntimeMetrics};
use vod_workload::{VcrKind, Welford};

use crate::content::MovieId;
use crate::core::ServerCore;
use crate::dedicated::DedicatedServer;
use crate::pyramid::PyramidServer;
use crate::server::{ServerConfig, ServerError, VodServer};
use crate::session::{DeliveryStats, SessionId, SessionStatus};

/// How a backend re-admitted a displaced session
/// ([`DeliveryBackend::adopt_session`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adoption {
    /// Joined an existing batch/broadcast cohort whose window covers the
    /// session's position — free, no dedicated resources consumed.
    CohortJoin,
    /// Granted a dedicated stream from the backend's reserve (cross-shard
    /// borrowing when the front tier drives the adoption).
    DedicatedStream,
}

/// A delivery scheme a workload driver can run sessions against.
///
/// Contract (every implementor, pinned by the equivalence and proptest
/// suites):
///
/// * **Determinism** — same construction + same call sequence ⇒
///   bitwise-identical metrics and statuses. No wall clock, no ambient
///   randomness.
/// * **Liveness** — `open_session` on a hosted movie always succeeds;
///   backends that cannot start playback immediately queue the session
///   (status [`SessionStatus::Waiting`]) rather than erroring.
/// * **Accounting** — `runtime_metrics` uses each counter with the
///   exact meaning documented on [`RuntimeMetrics`]; `startup_waits`
///   gets one sample per opened session (minutes from open to scheduled
///   playback start; samples for still-queued sessions may be recorded
///   at start time).
/// * **Conservation** — `check_invariants` returns human-readable
///   violations of the backend's resource-conservation laws; it must be
///   a pure read, cheap enough to run after every tick.
/// * **Session lifetime** — a session is *retired* the tick it finishes
///   (or the moment it is closed): its memory is given back and its
///   final record published once through `finished_this_tick`. Ids are
///   issued in admission order and never reused, so from then on the id
///   answers [`SessionStatus::Done`] to `session_status` and
///   [`ServerError::SessionFinished`] to everything else, while an id
///   the backend never issued is [`ServerError::UnknownSession`]. State,
///   audits and fault handling cost `O(live sessions)`, never
///   `O(sessions ever admitted)`.
/// * **Ownership** — a backend owns everything it touches and shares no
///   state with another backend, so shards of one federation tick
///   independently of each other.
pub trait DeliveryBackend {
    /// Which scheme this is (names the row in comparison reports).
    fn kind(&self) -> BackendKind;

    /// The scheme-independent state this backend is built around.
    fn core(&self) -> &ServerCore;

    /// Mutable access to [`Self::core`].
    fn core_mut(&mut self) -> &mut ServerCore;

    /// Open a session for `movie`; queues if playback cannot start now.
    fn open_session(&mut self, movie: MovieId) -> Result<SessionId, ServerError>;

    /// Issue a VCR operation on a playing session (`magnitude` = minutes
    /// swept for FF/RW, pause duration for Pause).
    fn request_vcr(
        &mut self,
        id: SessionId,
        kind: VcrKind,
        magnitude: u32,
    ) -> Result<(), ServerError>;

    /// Current session status in the shared vocabulary; a retired id is
    /// [`SessionStatus::Done`].
    fn session_status(&self, id: SessionId) -> Result<SessionStatus, ServerError>;

    /// Playback position (whole minutes consumed) of a live session; the
    /// federation front tier snapshots it when draining a shard marked
    /// for outage.
    fn session_position(&self, id: SessionId) -> Result<u32, ServerError>;

    /// Adopt a session displaced from another shard, resuming `movie` at
    /// `position`. Unlike `open_session` this is a migration, not an
    /// admission: no startup-wait sample is recorded, and the backend
    /// must either place the session immediately (join a cohort whose
    /// window covers `position`, or grant a dedicated stream) or refuse
    /// with [`ServerError::VcrDenied`] so the caller's failover ledger
    /// can back off and retry. `position` past the movie end is an
    /// [`ServerError::InvalidState`]; a backend whose delivery scheme
    /// cannot start mid-movie may refuse every call.
    fn adopt_session(
        &mut self,
        movie: MovieId,
        position: u32,
    ) -> Result<(SessionId, Adoption), ServerError>;

    /// Advance one virtual minute.
    fn tick(&mut self);

    /// Conservation-invariant violations (empty when healthy).
    fn check_invariants(&self) -> Vec<String>;

    /// Provisioned server-side buffer `ΣB` in segments — the buffer term
    /// of the cost model.
    fn buffer_segments(&self) -> u64;

    /// Sessions admitted and not yet retired.
    fn live_sessions(&self) -> usize;

    /// Session slots resident in memory:
    /// [`SESSION_CHUNK`](vod_runtime::SESSION_CHUNK) for the chunk of ids
    /// being issued unless it is full and for each chunk with at least
    /// half its ids live, one per live session in any other — at most
    /// `2 × live + SESSION_CHUNK` and at most
    /// [`ScaleOutcome::slot_bound`](crate::ScaleOutcome::slot_bound), in
    /// whatever order sessions finished, however many have passed
    /// through.
    fn session_slots(&self) -> usize;

    /// The sessions retired since the current tick began — finished in
    /// it, or closed after it — with their final delivery records, in
    /// retirement order. This is the one place a finished viewer's record
    /// is published: the store keeps nothing per retired session, and the
    /// next `tick` clears the list. A front tier reads it after each tick
    /// to retire its own rows; a harness reads it to total what viewers
    /// received.
    fn finished_this_tick(&self) -> &[(SessionId, DeliveryStats)] {
        self.core().finished_this_tick()
    }

    /// Current virtual time in minutes.
    fn now(&self) -> u64 {
        self.core().now
    }

    /// Reset all counters and re-baseline the occupancy statistics at the
    /// current instant, so measurements exclude warm-up (the same
    /// discipline as `vod-sim`'s warm-up window).
    fn reset_metrics(&mut self) {
        self.core_mut().reset_metrics();
    }

    /// Snapshot of the shared mechanism counters with the reserve's
    /// occupancy statistics filled in — directly comparable (same fields,
    /// same meanings) to a `vod-sim` report's runtime metrics.
    fn runtime_metrics(&self) -> RuntimeMetrics {
        self.core().runtime_metrics()
    }

    /// Startup-wait samples since the last reset (one per session whose
    /// playback start has been scheduled).
    fn startup_waits(&self) -> &Welford {
        &self.core().startup_waits
    }

    /// Arm a deterministic fault schedule and degradation policy. Faults
    /// apply at the top of each tick, before anything else moves. An
    /// empty plan leaves behavior bitwise identical to a never-armed
    /// backend.
    fn inject_faults(&mut self, plan: FaultPlan, policy: DegradePolicy) {
        self.core_mut().inject_faults(plan, policy);
    }

    /// Sessions currently in a degraded/starved re-wait state.
    fn degraded_sessions(&self) -> u32 {
        self.core().degraded_count
    }

    /// Sessions that reached `Done` (finished or closed early) since the
    /// last metrics reset.
    fn sessions_finished(&self) -> u64 {
        let metrics = &self.core().metrics;
        metrics.sessions_done + metrics.sessions_closed_early
    }

    /// Byte-verification failures on the delivery path (must stay 0).
    fn verify_failures(&self) -> u64 {
        self.core().metrics.verify_failures
    }

    /// Provisioned I/O streams `Σn` — the stream term of the cost model
    /// `C = C_n(φΣB + Σn)`.
    fn io_streams(&self) -> u32 {
        self.core().config.disk_streams
    }
}

/// Build the backend of `kind` from one shared [`ServerConfig`]. The
/// config is the batching scheme's vocabulary (movies with quantized
/// `(T, b)` geometry, a disk-stream pool, a buffer budget); the other
/// backends re-derive their own provisioning from it so a comparison
/// holds the hosted catalog and the promised worst-case startup wait
/// fixed while the delivery scheme varies:
///
/// * `BatchingBuffering` — the config verbatim.
/// * `PyramidBroadcast` — per movie, the smallest channel count whose
///   segment-1 period ≤ the movie's batching `max_wait`; buffer shrinks
///   to one staging segment per channel.
/// * `DedicatedStream` — the same disk-stream pool, zero buffer; every
///   session needs its own stream.
pub fn make_backend(kind: BackendKind, config: &ServerConfig) -> Box<dyn DeliveryBackend> {
    match kind {
        BackendKind::BatchingBuffering => Box::new(VodServer::new(config.clone())),
        BackendKind::PyramidBroadcast => Box::new(PyramidServer::new(config.clone())),
        BackendKind::DedicatedStream => Box::new(DedicatedServer::new(config.clone())),
    }
}
