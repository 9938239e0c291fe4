//! The discrete-event engine.
//!
//! Models the *real* static-partitioning system of the paper's §2 —
//! including the boundary behaviors §4 lists as the sources of
//! model-vs-simulation discrepancy:
//!
//! * arrivals after the enrollment window closes coalesce into the "first
//!   viewer" of the next restart (type-1 viewers);
//! * a rewind truncated at the movie start *may* still hit (the latest
//!   stream's enrollment window), whereas the model counts it as a miss;
//! * viewer positions are whatever the dynamics produce — the model's
//!   uniformity assumptions are not imposed.
//!
//! The mechanism semantics — window membership, VCR sweep rules, the
//! dedicated reserve, the metric vocabulary — live in `vod-runtime`;
//! this engine is a thin event-loop driver over them: it owns the clock,
//! the event queue, and the viewer population, never the rules.

use std::collections::VecDeque;

use vod_dist::rng::{exponential, seeded, SeededRng};
use vod_runtime::{
    plan_vcr, Arena, ArenaId, BackendKind, FaultKind, PartitionWindows, PyramidGeometry,
    StreamReserve,
};
use vod_workload::{VcrKind, VcrTraceRecord};

use crate::queue::{Ev, EvKind, EventQueue};
use crate::{CatalogConfig, CatalogReport, SimConfig, SimReport};

/// A VCR operation in flight; the viewer resumes at `end_pos`. Where and
/// when it was issued stay in the viewer's playback base, which no one
/// reads while the sweep runs.
#[derive(Clone, Copy)]
struct Sweep {
    kind: VcrKind,
    magnitude: f64,
    end_pos: f64,
    /// FF ran off the end of the movie.
    reached_end: bool,
    /// RW was truncated at the movie start.
    truncated_start: bool,
}

/// Per-viewer playback state. While playing, the position at time `t` is
/// `pos_base + (t − t_base)`; during a sweep, `(pos_base, t_base)` is
/// where and when it was issued. A handler looks its viewer up once, in
/// [`Engine::run`], and works on that reference.
struct Viewer {
    /// The movie's index in the catalog (fewer than 2³² movies).
    movie: u32,
    pos_base: f64,
    t_base: f64,
    holds_dedicated: bool,
    /// When reception/playback first started. The pyramid backend
    /// measures its client's reception front from this instant; the
    /// dedicated backend uses it (pre-start) to measure queueing wait.
    joined_at: f64,
    /// Snapshot of the catalog stall integral at `joined_at`: a pyramid
    /// client's effective reception time is wall time minus the stall
    /// accrued since it joined (stall before the join is not its loss).
    stall_at_join: f64,
    /// The VCR operation whose `VcrEnd` is queued; a viewer has at most
    /// one in flight.
    sweep: Option<Sweep>,
}

struct Engine<'a> {
    cfg: &'a CatalogConfig,
    rng: SeededRng,
    queue: EventQueue,
    seq: u64,
    /// One window geometry per movie, in catalog order — the *live*
    /// geometry, reshaped by buffer faults.
    windows: Vec<PartitionWindows>,
    /// The configured (fault-free) geometry buffer faults deform.
    base_windows: Vec<PartitionWindows>,
    /// The shared dedicated-stream reserve.
    reserve: StreamReserve,
    /// Next unapplied event in `cfg.faults` (events are time-sorted).
    fault_cursor: usize,
    /// Pending outage recoveries: (due time, reserve streams to restore,
    /// pyramid channels to bring back up), in ascending due time and push
    /// order among equal ones — the order they apply in.
    recoveries: VecDeque<(f64, u32, u32)>,
    /// Buffer segments currently removed by shrink faults.
    buffer_delta: f64,
    /// Pyramid mirror of the server's per-channel degradation: total
    /// broadcast channels across the catalog, how many are currently
    /// down (stream faults spilling past the free reserve), the
    /// catalog-wide stall integral `∫ (1 − up·serve) dt` with its last
    /// advance instant, and the active slowdown window
    /// `(end, serve_fraction)`. All zero/idle unless the backend is
    /// `PyramidBroadcast`, so the other legs stay bitwise identical.
    pyr_channels_total: u32,
    pyr_channels_down: u32,
    pyr_stall_accum: f64,
    pyr_stall_at: f64,
    pyr_slow: Option<(f64, f64)>,
    /// Pyramid reception geometry per movie (empty unless the backend is
    /// `PyramidBroadcast`); segment-1 period matches the batching
    /// scheme's worst-case wait `T − b` for the same movie.
    geometries: Vec<PyramidGeometry>,
    /// Dedicated backend: viewers queued (FIFO) for a free stream, each
    /// with its movie and arrival instant. A granted viewer takes its
    /// stream when its `Start` pops.
    stream_queue: VecDeque<(ArenaId, usize, f64)>,
    warmed: bool,
    report: CatalogReport,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a CatalogConfig, seed: u64) -> Self {
        let windows: Vec<PartitionWindows> = cfg
            .movies
            .iter()
            .map(|m| PartitionWindows::from_params(&m.params))
            .collect();
        let geometries = if cfg.backend == BackendKind::PyramidBroadcast {
            windows
                .iter()
                .map(|w| {
                    PyramidGeometry::from_continuous(
                        w.movie_len(),
                        w.restart_interval() - w.window_len(),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        let pyr_channels_total = geometries.iter().map(PyramidGeometry::channels).sum();
        Self {
            cfg,
            rng: seeded(seed),
            queue: EventQueue::new(),
            seq: 0,
            base_windows: windows.clone(),
            windows,
            reserve: StreamReserve::new(cfg.dedicated_capacity),
            fault_cursor: 0,
            recoveries: VecDeque::new(),
            buffer_delta: 0.0,
            pyr_channels_total,
            pyr_channels_down: 0,
            pyr_stall_accum: 0.0,
            pyr_stall_at: 0.0,
            pyr_slow: None,
            geometries,
            stream_queue: VecDeque::new(),
            warmed: false,
            report: CatalogReport::with_movies(cfg.movies.len()),
        }
    }

    fn push(&mut self, time: f64, kind: EvKind) {
        self.seq += 1;
        self.queue.push(Ev::new(time, self.seq, kind));
    }

    fn run(mut self) -> CatalogReport {
        let horizon = self.cfg.horizon;
        // Viewer population. A viewer referenced by a scheduled event is
        // always live: viewers are removed only after `on_finish` and an
        // `on_vcr_end` that ends the viewing, which also stop scheduling
        // events for them — so the look-up goes through the arena's
        // panicking `live_mut` seam. Generational ids make slot reuse
        // safe: a stale id from a departed viewer can never alias whoever
        // took the slot.
        let mut viewers = Arena::new();
        for movie in 0..self.cfg.movies.len() {
            self.push(0.0, EvKind::Arrival { movie });
        }
        while let Some(ev) = self.queue.pop(horizon) {
            let t = ev.time;
            if t > horizon {
                break;
            }
            self.ensure_warm(t);
            let pushed = self.seq;
            self.apply_faults_until(t);
            if self.seq != pushed {
                // A recovery admitted a queued viewer at its due instant,
                // which may precede `ev`: file `ev` back (same `seq`, so
                // its place among equal times holds) and take the earliest.
                // Recoveries and faults still due apply at that pop.
                self.queue.push(ev);
                continue;
            }
            match ev.kind() {
                EvKind::Arrival { movie } => self.on_arrival(&mut viewers, t, movie),
                EvKind::Start { viewer } => self.on_start(t, viewer, viewers.live_mut(viewer)),
                EvKind::Vcr { viewer } => self.on_vcr(t, viewer, viewers.live_mut(viewer)),
                EvKind::VcrEnd { viewer } => {
                    if !self.on_vcr_end(t, viewer, viewers.live_mut(viewer)) {
                        viewers.remove(viewer);
                    }
                }
                EvKind::Finish { viewer } => {
                    self.on_finish(t, viewers.live_mut(viewer));
                    viewers.remove(viewer);
                }
            }
        }
        self.report.runtime.dedicated_avg = self.reserve.average(horizon);
        self.report.runtime.dedicated_peak = self.reserve.peak();
        self.report.runtime.denied_transient = self.reserve.denied_transient();
        self.report.runtime.denied_permanent = self.reserve.denied_permanent();
        self.report
    }

    /// Reset measurement baselines the first time the clock passes warmup.
    fn ensure_warm(&mut self, t: f64) {
        if !self.warmed && t >= self.cfg.warmup {
            self.warmed = true;
            self.reserve.rebaseline(self.cfg.warmup);
        }
    }

    fn measuring(&self) -> bool {
        self.warmed
    }

    // ---- fault mirror -------------------------------------------------------

    /// Apply every scheduled fault (and due outage recovery) with event
    /// time ≤ `t`. Faults only matter when something observes them — a
    /// resume classification or a stream acquisition — and those happen
    /// only at events, so applying lazily at each event pop is exact.
    /// Recoveries apply before new faults at the same instant, the same
    /// ordering the server's tick uses, and among themselves in due order.
    /// A recovery that admits a queued viewer is an event of its own: the
    /// pass stops there, so the reserve's clock never runs backwards and
    /// the FIFO queue is served in order.
    fn apply_faults_until(&mut self, t: f64) {
        while let Some(&(due, count, channels)) = self.recoveries.front() {
            if due > t {
                break;
            }
            self.recoveries.pop_front();
            if channels > 0 {
                self.pyr_advance(due);
                self.pyr_channels_down = self.pyr_channels_down.saturating_sub(channels);
            }
            self.reserve.recover_streams(count);
            if self.cfg.backend == BackendKind::DedicatedStream {
                // Each recovered stream can admit one queued viewer, at the
                // recovery instant — the continuous-time twin of the
                // server's drain-after-recover tick.
                let pushed = self.seq;
                for _ in 0..count {
                    self.grant_queued(due);
                }
                if self.seq != pushed {
                    // An admitted viewer starts at `due` and may act before
                    // `t` and before the next recovery: end the pass, and
                    // `run` takes events from the queue again.
                    return;
                }
            }
        }
        while let Some(ev) = self.cfg.faults.events().get(self.fault_cursor) {
            let at = ev.at as f64;
            if at > t {
                break;
            }
            self.fault_cursor += 1;
            if self.measuring() && !ev.kind.is_shard_event() {
                self.report.runtime.faults_injected += 1;
            }
            match ev.kind {
                FaultKind::DiskStreamLoss { count } => {
                    let failed = self.reserve.fail_streams(count);
                    self.take_channels_down(at, count.saturating_sub(failed));
                }
                FaultKind::DiskOutage {
                    count,
                    recover_after,
                } => {
                    let failed = self.reserve.fail_streams(count);
                    let spilled = self.take_channels_down(at, count.saturating_sub(failed));
                    if failed > 0 || spilled > 0 {
                        let due = at + recover_after.max(1) as f64;
                        let behind = self.recoveries.partition_point(|r| r.0 <= due);
                        self.recoveries.insert(behind, (due, failed, spilled));
                    }
                }
                FaultKind::DiskSlowdown { period, duration } => {
                    // Continuous time has no tick grid to stretch; under
                    // the pyramid backend the window instead scales the
                    // delivery rate (one tick in `period` unserved), and
                    // elsewhere the event is counted and a no-op.
                    if self.cfg.backend == BackendKind::PyramidBroadcast && period > 1 {
                        self.pyr_advance(at);
                        let serve = 1.0 - 1.0 / period as f64;
                        self.pyr_slow = Some((at + duration as f64, serve));
                    }
                }
                FaultKind::BufferShrink { segments } => {
                    self.pyr_advance(at);
                    self.buffer_delta += segments as f64;
                    self.reshape_windows();
                }
                FaultKind::BufferRestore { segments } => {
                    self.pyr_advance(at);
                    self.buffer_delta = (self.buffer_delta - segments as f64).max(0.0);
                    self.reshape_windows();
                }
                // Whole-shard events are interpreted by the federation
                // mirror (`run_federation_seeded` strips them into
                // per-shard capacity faults); inside a single-shard
                // engine they are inert and uncounted.
                FaultKind::ShardOutage { .. } | FaultKind::ShardRecovery { .. } => {}
            }
        }
        self.pyr_advance(t);
        debug_assert!(self.check_invariants(), "sim fault-ledger audit failed");
    }

    /// Ledger audit, the continuous-time twin of the server's per-tick
    /// `check_invariants`: the channel-outage ledger stays within the
    /// catalog's channel population and the fault cursor within the
    /// schedule. Pure reads, consumed by `debug_assert!` at the end of
    /// every fault application — free in release builds and incapable of
    /// perturbing the simulation.
    fn check_invariants(&self) -> bool {
        self.pyr_channels_down <= self.pyr_channels_total
            && self.fault_cursor <= self.cfg.faults.events().len()
    }

    /// Pyramid only: route the part of a stream fault that spilled past
    /// the free reserve into broadcast channels, mirroring the server's
    /// lease revocation. Returns how many channels actually went down.
    fn take_channels_down(&mut self, at: f64, spill: u32) -> u32 {
        if self.cfg.backend != BackendKind::PyramidBroadcast || spill == 0 {
            return 0;
        }
        self.pyr_advance(at);
        let headroom = self
            .pyr_channels_total
            .saturating_sub(self.pyr_channels_down);
        let taken = spill.min(headroom);
        self.pyr_channels_down += taken;
        taken
    }

    /// Advance the catalog-wide pyramid stall integral to `t` at the
    /// current channel-health rate `1 − up_frac · serve_frac`, splitting
    /// at the slowdown window's edge. Buffer shrink defunds staging
    /// slots, so removed segments count against `up_frac` exactly like
    /// downed channels. No-op for the other backends.
    fn pyr_advance(&mut self, t: f64) {
        if self.cfg.backend != BackendKind::PyramidBroadcast {
            return;
        }
        let mut from = self.pyr_stall_at;
        if t <= from {
            return;
        }
        let total = f64::from(self.pyr_channels_total);
        let down = f64::from(self.pyr_channels_down) + self.buffer_delta;
        let up_frac = if total > 0.0 {
            ((total - down) / total).clamp(0.0, 1.0)
        } else {
            1.0
        };
        if let Some((end, serve_frac)) = self.pyr_slow {
            if from < end {
                let upto = t.min(end);
                self.pyr_stall_accum += (upto - from) * (1.0 - up_frac * serve_frac);
                from = upto;
            }
            if t >= end {
                self.pyr_slow = None;
            }
        }
        self.pyr_stall_accum += (t - from) * (1.0 - up_frac);
        self.pyr_stall_at = t;
    }

    /// A pyramid client's effective reception time at `t`: wall time
    /// since its join boundary minus the stall integral accrued since.
    /// Reception geometry is phase-locked to the channel wheel, so a
    /// stalled stretch shifts the front back rather than punching holes —
    /// the continuous twin of the server's exact per-session bitmap.
    fn pyr_elapsed(&self, t: f64, v: &Viewer) -> f64 {
        ((t - v.joined_at) - (self.pyr_stall_accum - v.stall_at_join)).max(0.0)
    }

    /// Re-derive the live window geometry from the base geometry and the
    /// current shrink. The paper's mapping is `b = B/n`, so removing `s`
    /// segments from a movie's pool shortens each of its `n` windows by
    /// `s/n` minutes (clamped at pure batching, `b = 0`).
    fn reshape_windows(&mut self) {
        for (w, base) in self.windows.iter_mut().zip(&self.base_windows) {
            let n = base.movie_len() / base.restart_interval();
            *w = base.with_window_len(base.window_len() - self.buffer_delta / n);
        }
    }

    // ---- dedicated stream accounting ---------------------------------------

    /// Try to take a dedicated stream for `v` from the shared reserve.
    /// Returns `false` when the configured reserve is exhausted (the
    /// caller decides whether the operation is denied or the viewer
    /// abandons). Viewers already holding a stream always succeed.
    fn acquire_dedicated(&mut self, t: f64, v: &mut Viewer) -> bool {
        if v.holds_dedicated {
            return true;
        }
        if !self.take_stream(t) {
            return false;
        }
        v.holds_dedicated = true;
        true
    }

    /// One counted attempt on the reserve.
    fn take_stream(&mut self, t: f64) -> bool {
        if self.measuring() {
            self.report.runtime.acquisition_attempts += 1;
        }
        self.reserve.try_acquire(t)
    }

    fn release_dedicated(&mut self, t: f64, v: &mut Viewer) {
        if v.holds_dedicated {
            v.holds_dedicated = false;
            self.reserve.release(t);
            self.grant_queued(t);
        }
    }

    /// Dedicated backend only: hand a just-freed stream to the head of
    /// the FIFO start queue. Should the freed stream have vanished (a
    /// concurrent fault), the viewer stays at the head of the queue.
    fn grant_queued(&mut self, t: f64) {
        if self.cfg.backend != BackendKind::DedicatedStream {
            return;
        }
        if let Some(&(viewer, movie, arrived)) = self.stream_queue.front() {
            if self.take_stream(t) {
                self.stream_queue.pop_front();
                if self.measuring() {
                    let r = self.movie_report(movie);
                    r.type2_fraction.push(false);
                    r.wait.push(t - arrived);
                }
                self.push(t, EvKind::Start { viewer });
            }
        }
    }

    // ---- measurement helpers -----------------------------------------------

    /// Record one resume classification, per-movie and catalog-wide.
    fn record_resume(&mut self, movie: usize, kind: VcrKind, hit: bool) {
        self.report.runtime.record_resume(kind, hit);
        self.report.per_movie[movie]
            .runtime
            .record_resume(kind, hit);
    }

    /// Account the playback interval `[t_base, now]` to buffer or disk
    /// service, clipped to the measured window. Intervals still open at
    /// the horizon are dropped (a bounded-horizon approximation; the
    /// server counts delivered segments exactly).
    fn account_playback(&mut self, movie: usize, t_base: f64, now: f64, dedicated: bool) {
        let start = t_base.max(self.cfg.warmup);
        if !self.warmed || now <= start {
            return;
        }
        let minutes = now - start;
        if dedicated {
            self.report.runtime.disk_minutes += minutes;
            self.report.per_movie[movie].runtime.disk_minutes += minutes;
        } else {
            self.report.runtime.buffer_minutes += minutes;
            self.report.per_movie[movie].runtime.buffer_minutes += minutes;
        }
    }

    /// Account a completed FF/RW sweep's display: `swept` movie-minutes
    /// read through the dedicated stream.
    fn account_sweep(&mut self, movie: usize, swept: f64) {
        if self.measuring() && swept > 0.0 {
            self.report.runtime.disk_minutes += swept;
            self.report.per_movie[movie].runtime.disk_minutes += swept;
        }
    }

    // ---- event handlers ----------------------------------------------------

    fn movie_report(&mut self, movie: usize) -> &mut SimReport {
        &mut self.report.per_movie[movie]
    }

    fn on_arrival(&mut self, viewers: &mut Arena<Viewer>, t: f64, movie: usize) {
        // Schedule the next arrival first (Poisson process).
        let next = t + exponential(&mut self.rng, self.cfg.movies[movie].mean_interarrival);
        self.push(next, EvKind::Arrival { movie });

        if self.measuring() {
            self.movie_report(movie).viewers_arrived += 1;
        }
        let viewer = viewers.insert(Viewer {
            movie: movie as u32,
            pos_base: 0.0,
            t_base: t,
            holds_dedicated: false,
            joined_at: t,
            stall_at_join: self.pyr_stall_accum,
            sweep: None,
        });
        let v = viewers.live_mut(viewer);
        match self.cfg.backend {
            BackendKind::BatchingBuffering => {
                let windows = self.windows[movie];
                if windows.enrollment_open(t) {
                    // Type-2: the enrollment window is open; start
                    // immediately, reading position 0 from the buffer
                    // partition.
                    if self.measuring() {
                        let r = self.movie_report(movie);
                        r.type2_fraction.push(true);
                        r.wait.push(0.0);
                    }
                    self.begin_playback(t, viewer, v, 0.0);
                } else {
                    // Type-1: queue for the next restart.
                    let start = windows.next_restart_at(t);
                    if self.measuring() {
                        let r = self.movie_report(movie);
                        r.type2_fraction.push(false);
                        r.wait.push(start - t);
                    }
                    self.push(start, EvKind::Start { viewer });
                }
            }
            BackendKind::PyramidBroadcast => {
                // Reception starts at the next segment-1 boundary; wait
                // is bounded by one segment-1 period by construction.
                let start = self.geometries[movie].next_boundary_continuous(t);
                let wait = (start - t).max(0.0);
                let immediate = vod_dist::approx::exact_zero(wait);
                if self.measuring() {
                    let r = self.movie_report(movie);
                    r.type2_fraction.push(immediate);
                    r.wait.push(wait);
                }
                if immediate {
                    self.begin_playback(t, viewer, v, 0.0);
                } else {
                    self.push(start, EvKind::Start { viewer });
                }
            }
            BackendKind::DedicatedStream => {
                // Pure unicast: playback needs a private stream now; a
                // full reserve queues the viewer FIFO behind releases.
                if self.acquire_dedicated(t, v) {
                    if self.measuring() {
                        let r = self.movie_report(movie);
                        r.type2_fraction.push(true);
                        r.wait.push(0.0);
                    }
                    self.begin_playback(t, viewer, v, 0.0);
                } else {
                    self.reserve.record_denials(1, true);
                    self.stream_queue.push_back((viewer, movie, t));
                }
            }
        }
    }

    fn on_start(&mut self, t: f64, viewer: ArenaId, v: &mut Viewer) {
        // Pyramid reception (and queued dedicated playback) begins here,
        // not at arrival: re-anchor the reception clock and its stall
        // baseline. A queued dedicated viewer's `Start` is pushed by the
        // grant that took its stream.
        v.joined_at = t;
        v.stall_at_join = self.pyr_stall_accum;
        v.holds_dedicated = self.cfg.backend == BackendKind::DedicatedStream;
        self.begin_playback(t, viewer, v, 0.0);
    }

    /// (Re)enter normal playback at position `p`, scheduling the next
    /// interaction or the finish, whichever comes first.
    fn begin_playback(&mut self, t: f64, viewer: ArenaId, v: &mut Viewer, p: f64) {
        v.pos_base = p;
        v.t_base = t;
        let spec = &self.cfg.movies[v.movie as usize];
        let remaining = spec.params.movie_len() - p;
        let gap = spec.behavior.next_interaction_gap(&mut self.rng);
        if gap < remaining {
            self.push(t + gap, EvKind::Vcr { viewer });
        } else {
            self.push(t + remaining, EvKind::Finish { viewer });
        }
    }

    fn on_vcr(&mut self, t: f64, viewer: ArenaId, v: &mut Viewer) {
        let (movie, p) = (v.movie as usize, v.pos_base + (t - v.t_base));
        // The playback interval ends here; bill it to its source.
        self.account_playback(movie, v.t_base, t, v.holds_dedicated);
        let spec = &self.cfg.movies[movie];
        let req = spec.behavior.sample_request(&mut self.rng);
        let plan = plan_vcr(
            req.kind,
            req.magnitude,
            p,
            spec.params.movie_len(),
            spec.params.rates(),
        );
        // Who pays for phase 1 depends on the scheme: batching and the
        // unicast baseline sweep FF/RW on a dedicated stream (the
        // baseline already holds one); pyramid sweeps inside the
        // client's reception prefix for free and only an FF *beyond the
        // front* takes a stream. A paused viewer consumes nothing until
        // resume — and under pure unicast even frees its stream.
        if self.cfg.backend == BackendKind::DedicatedStream && matches!(req.kind, VcrKind::Pause) {
            self.release_dedicated(t, v);
        }
        let needs_stream = match self.cfg.backend {
            BackendKind::BatchingBuffering | BackendKind::DedicatedStream => {
                matches!(req.kind, VcrKind::FastForward | VcrKind::Rewind)
            }
            BackendKind::PyramidBroadcast => {
                matches!(req.kind, VcrKind::FastForward) && !plan.reached_end && {
                    let elapsed = self.pyr_elapsed(t, v);
                    !self.geometries[movie].received_by_continuous(elapsed, plan.end_pos)
                }
            }
        };
        if needs_stream && !self.acquire_dedicated(t, v) {
            // Reserve exhausted: the request is denied and the viewer
            // stays in his batch (Erlang loss semantics). Issue-time
            // denials are never retried, so they classify as permanent
            // (the reserve's tallies rebaseline with the warm-up).
            self.reserve.record_denials(1, false);
            if self.measuring() {
                self.report.runtime.vcr_denied += 1;
            }
            self.begin_playback(t, viewer, v, p);
            return;
        }
        v.pos_base = p;
        v.t_base = t;
        v.sweep = Some(Sweep {
            kind: req.kind,
            magnitude: req.magnitude,
            end_pos: plan.end_pos,
            reached_end: plan.reached_end,
            truncated_start: plan.truncated_start,
        });
        self.push(t + plan.duration, EvKind::VcrEnd { viewer });
    }

    /// Resume (or end) the viewing after its sweep. Returns whether the
    /// viewer plays on; `false` means it left the system.
    fn on_vcr_end(&mut self, t: f64, viewer: ArenaId, v: &mut Viewer) -> bool {
        let (movie, issued_pos, issued_at) = (v.movie as usize, v.pos_base, v.t_base);
        let Sweep {
            kind,
            magnitude,
            end_pos,
            reached_end,
            truncated_start,
        } = v
            .sweep
            .take()
            // vod-lint: allow(no-panic) — `on_vcr` parks the sweep right before it
            // queues the one `VcrEnd` that collects it.
            .expect("VcrEnd without a sweep in flight");
        // A sweep is disk traffic only when a dedicated stream served it;
        // pyramid sweeps inside the reception prefix are client-local.
        if v.holds_dedicated || self.cfg.backend != BackendKind::PyramidBroadcast {
            self.account_sweep(movie, (end_pos - issued_pos).abs());
        }
        if reached_end {
            // FF ran to the end: the viewing is over and phase-1 resources
            // are released (the model's P(end) path).
            self.release_dedicated(t, v);
            if self.measuring() {
                let hit = self.cfg.count_ff_end_as_hit;
                self.report.runtime.ff_end += 1;
                self.movie_report(movie).runtime.ff_end += 1;
                self.record_resume(movie, kind, hit);
                self.movie_report(movie).viewers_completed += 1;
                self.record_trace(movie, issued_at, issued_pos, kind, magnitude, hit);
            }
            return false;
        }

        // Real-system resume classification, per scheme: batching — a hit
        // iff the resume position is inside any live window, including
        // position 0 after a truncated rewind, where the latest stream's
        // enrollment window may still be open (the model counts those as
        // misses; see §4 of the paper). Pyramid — a hit iff the client's
        // reception front has passed the resume position. Unicast — every
        // resume re-seeks the private stream: always a miss.
        let hit = match self.cfg.backend {
            BackendKind::BatchingBuffering => self.windows[movie].covers(t, end_pos),
            BackendKind::PyramidBroadcast => {
                let elapsed = self.pyr_elapsed(t, v);
                self.geometries[movie].received_by_continuous(elapsed, end_pos)
            }
            BackendKind::DedicatedStream => false,
        };
        if truncated_start && self.measuring() {
            self.report.runtime.rw_truncated += 1;
            self.movie_report(movie).runtime.rw_truncated += 1;
        }
        if hit {
            self.release_dedicated(t, v);
        } else if !self.acquire_dedicated(t, v) {
            // A missed pause-resume with no free stream: the viewer is
            // cleared from the system (blocked customers cleared).
            if self.measuring() {
                self.record_resume(movie, kind, false);
                self.report.runtime.resume_starved += 1;
                self.record_trace(movie, issued_at, issued_pos, kind, magnitude, false);
            }
            return false;
        }
        if self.measuring() {
            self.record_resume(movie, kind, hit);
            self.record_trace(movie, issued_at, issued_pos, kind, magnitude, hit);
        }
        self.begin_playback(t, viewer, v, end_pos);
        true
    }

    /// The viewer reached the end of the movie; the caller removes it.
    fn on_finish(&mut self, t: f64, v: &mut Viewer) {
        let movie = v.movie as usize;
        if self.cfg.backend == BackendKind::PyramidBroadcast && self.measuring() {
            // The stall integral a finished client lived through — the
            // continuous twin of the server's per-session stall_minutes.
            let stalled = self.pyr_stall_accum - v.stall_at_join;
            self.report.runtime.stall_minutes += stalled;
            self.report.per_movie[movie].runtime.stall_minutes += stalled;
        }
        self.account_playback(movie, v.t_base, t, v.holds_dedicated);
        self.release_dedicated(t, v);
        if self.measuring() {
            self.movie_report(movie).viewers_completed += 1;
        }
    }

    fn record_trace(
        &mut self,
        movie: usize,
        issued_at: f64,
        position: f64,
        kind: VcrKind,
        magnitude: f64,
        hit: bool,
    ) {
        if self.cfg.collect_trace {
            self.report.per_movie[movie].trace.push(VcrTraceRecord {
                issued_at,
                position,
                kind,
                magnitude,
                hit,
            });
        }
    }
}

/// Run a catalog simulation with an explicit seed.
///
/// # Panics
///
/// Panics if `cfg.validate()` rejects the configuration; call
/// `validate()` first to handle configuration errors gracefully.
pub fn run_catalog_seeded(cfg: &CatalogConfig, seed: u64) -> CatalogReport {
    // vod-lint: allow(no-panic) — documented panic: an invalid config is a
    // caller bug, and callers can pre-check with `cfg.validate()`.
    cfg.validate().expect("invalid simulation configuration");
    Engine::new(cfg, seed).run()
}

/// Run one single-movie simulation with an explicit seed.
pub fn run_seeded(cfg: &SimConfig, seed: u64) -> SimReport {
    let catalog: CatalogConfig = cfg.clone().into();
    let mut report = run_catalog_seeded(&catalog, seed);
    // vod-lint: allow(no-panic) — the SimConfig→CatalogConfig conversion
    // above builds a catalog with exactly one movie.
    let mut movie = report.per_movie.pop().expect("one movie");
    // With one movie the catalog-wide aggregate *is* the movie's view,
    // and it additionally carries the shared-reserve counters.
    movie.runtime = report.runtime;
    movie
}

/// Run `replications` independent simulations (seeds `base_seed..`) and
/// aggregate.
pub fn run_replications(
    cfg: &SimConfig,
    base_seed: u64,
    replications: u32,
) -> crate::ReplicatedReport {
    let mut agg = crate::ReplicatedReport::default();
    for r in 0..replications {
        let report = run_seeded(cfg, base_seed.wrapping_add(r as u64));
        agg.push(&report);
    }
    agg
}
