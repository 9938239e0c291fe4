//! Delivery-backend vocabulary shared by the tick server, the event
//! simulator, the sizing layer, and the bench bins.
//!
//! The paper's batching+buffering scheme is one point in the delivery
//! design space; the cost model `C = C_n(φΣB + Σn)` prices any scheme
//! that can state its buffer and stream demand. [`BackendKind`] names the
//! schemes the repo implements, and [`PyramidGeometry`] carries the
//! integer-minute schedule mathematics of the fast-broadcasting backend
//! (geometric segment sizes over a small fixed set of channels), the way
//! [`crate::QuantizedGeometry`] carries the batching schedule.
//!
//! # Fast broadcasting in one paragraph
//!
//! Split an `l`-minute movie into `k` *segments* of geometrically growing
//! nominal lengths `d, 2d, 4d, …, 2^(k−1)·d` with `d = ⌈l / (2^k − 1)⌉`
//! (the trailing virtual minutes beyond `l` are padding). Channel `i`
//! loops its segment forever, one minute per tick, phase-locked to the
//! global clock: at tick `t` it broadcasts minute `start_i + (t mod
//! len_i)`. A client joins at the next multiple of `d` (so startup wait
//! ≤ one segment-1 period), records **all** channels concurrently, and
//! plays from its local buffer. Because every `len_i` divides the global
//! phase grid, each minute is received no later than its playout deadline
//! — the *channel-transition invariance* property pinned by
//! `tests/prop_pyramid.rs`: the schedule works for a join at **any**
//! boundary, with no per-viewer server state at all. Server cost is `k`
//! streams and `k` staging segments per movie, independent of load.

/// The delivery schemes a driver can run a workload against. The trait
/// objects themselves live in `vod-server` (`DeliveryBackend`); this enum
/// is the driver-agnostic name shared with `vod-sim` and the bench grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The paper's scheme: periodic restarts batch viewers onto shared
    /// streams, each dragging a pre-allocated partition window; VCR runs
    /// on a dedicated-stream reserve.
    BatchingBuffering,
    /// Fast (pyramid) broadcasting: every movie occupies a fixed set of
    /// looping segment channels; clients join at segment-1 boundaries and
    /// buffer ahead locally. Server resources are load-independent.
    PyramidBroadcast,
    /// Pure unicast baseline: every viewer holds a dedicated stream for
    /// the whole viewing. No shared windows, so every resume is a miss;
    /// cost grows linearly with concurrency.
    DedicatedStream,
}

impl BackendKind {
    /// All implemented backends, in comparison-table order.
    pub const ALL: [BackendKind; 3] = [
        BackendKind::BatchingBuffering,
        BackendKind::PyramidBroadcast,
        BackendKind::DedicatedStream,
    ];

    /// Stable snake_case name (JSON keys, CLI flags, table rows).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::BatchingBuffering => "batching_buffering",
            BackendKind::PyramidBroadcast => "pyramid_broadcast",
            BackendKind::DedicatedStream => "dedicated_stream",
        }
    }

    /// Parse a [`BackendKind::name`] back into the kind.
    pub fn parse(name: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Integer-minute schedule of one movie under fast (pyramid)
/// broadcasting; see the module docs for the scheme. All arithmetic is
/// exact integer arithmetic — the only rounding is `d = ⌈l/(2^k − 1)⌉`,
/// and the continuous constructor routes every float through this type's
/// blessed sites (the `quantize-cast` wall covers this file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PyramidGeometry {
    /// Movie length `l` in minutes (== segments).
    length: u32,
    /// Channel count `k` (also the per-movie stream demand).
    channels: u32,
    /// Segment-1 length `d` in minutes — the startup-wait bound and the
    /// join-boundary grid.
    unit: u32,
}

/// Cap on `k`: beyond `2^k − 1 ≥ l` extra channels cannot shrink `d`
/// below 1 minute, and 31 keeps every `d·2^(k−1)` product in `u32`.
const MAX_CHANNELS: u32 = 31;

impl PyramidGeometry {
    /// Build the schedule for an `l`-minute movie over `channels`
    /// looping channels. `channels` is clamped to `[1, k_max]` where
    /// `k_max` is the smallest `k` with `2^k − 1 ≥ l` (more channels
    /// cannot reduce the unit below one minute). A zero-length movie is
    /// rejected by debug assertion and treated as length 1.
    pub fn new(length: u32, channels: u32) -> Self {
        debug_assert!(length >= 1, "empty movie");
        let length = length.max(1);
        let k_max = (1..=MAX_CHANNELS)
            .find(|k| (1u64 << k) > u64::from(length))
            .unwrap_or(MAX_CHANNELS);
        let k = channels.clamp(1, k_max);
        let unit = u64::from(length).div_ceil((1u64 << k) - 1) as u32;
        Self {
            length,
            channels: k,
            unit,
        }
    }

    /// Smallest channel count whose segment-1 period (the startup-wait
    /// bound) does not exceed `max_wait` minutes: `k = min{k : ⌈l/(2^k −
    /// 1)⌉ ≤ max(w, 1)}`. This is the apples-to-apples constructor the
    /// backend comparison uses — the pyramid backend is provisioned to
    /// promise the same worst-case startup wait as the batching schedule
    /// it is compared against.
    pub fn for_target_wait(length: u32, max_wait: u32) -> Self {
        let target = u64::from(max_wait.max(1));
        let k = (1..=MAX_CHANNELS)
            .find(|&k| u64::from(length.max(1)).div_ceil((1u64 << k) - 1) <= target)
            .unwrap_or(MAX_CHANNELS);
        Self::new(length, k)
    }

    /// Continuous-parameter entry point for `vod-sim` and `vod-sizing`:
    /// quantize a continuous `(l, w)` design point onto the integer
    /// schedule. Rounds length to the nearest whole minute (at least 1)
    /// and floors the wait (a fractional promised wait must not loosen
    /// the integer bound).
    pub fn from_continuous(length_minutes: f64, max_wait_minutes: f64) -> Self {
        // vod-lint: allow(quantize-cast) — this IS the blessed rounding site:
        // every continuous caller funnels through here, like
        // `QuantizedGeometry::from_allocation`.
        let length = (length_minutes.max(1.0).round()) as u32;
        // vod-lint: allow(quantize-cast) — floor keeps the integer wait bound at
        // least as tight as the continuous promise.
        let wait = max_wait_minutes.max(0.0).floor() as u32;
        Self::for_target_wait(length, wait)
    }

    /// Movie length `l` in minutes.
    pub fn length(&self) -> u32 {
        self.length
    }

    /// Channel count `k` — also the per-movie I/O stream demand (each
    /// channel loops on its own stream) and the per-movie staging-buffer
    /// demand in segments (the minute each channel is broadcasting).
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// Segment-1 length `d`: the join-boundary grid and the worst-case
    /// startup wait.
    pub fn unit(&self) -> u32 {
        self.unit
    }

    /// Padded schedule length `(2^k − 1)·d ≥ l`; minutes in
    /// `[l, virtual_length)` are padding slots on the last channel(s)
    /// during which they broadcast nothing.
    pub fn virtual_length(&self) -> u32 {
        (((1u64 << self.channels) - 1) * u64::from(self.unit)) as u32
    }

    /// Nominal length of 0-based channel `c`'s segment: `d·2^c`.
    pub fn segment_len(&self, channel: u32) -> u32 {
        debug_assert!(channel < self.channels);
        ((1u64 << channel.min(MAX_CHANNELS)) * u64::from(self.unit)) as u32
    }

    /// First minute of 0-based channel `c`'s segment: `d·(2^c − 1)`.
    pub fn segment_start(&self, channel: u32) -> u32 {
        (((1u64 << channel.min(MAX_CHANNELS)) - 1) * u64::from(self.unit)) as u32
    }

    /// The channel whose segment carries `minute` (clamped into the
    /// padded range: padding minutes map to the last channel).
    pub fn channel_of(&self, minute: u32) -> u32 {
        (0..self.channels)
            .rev()
            .find(|&c| minute >= self.segment_start(c))
            .unwrap_or(0)
    }

    /// The movie minute channel `c` broadcasts at tick `t`, or `None`
    /// when the slot is padding (beyond the real movie length). The
    /// global phase lock `start_c + (t mod len_c)` is what makes joins
    /// channel-transition invariant: every `len_c` is a multiple of `d`,
    /// so a client aligned to the `d` grid meets every minute by its
    /// playout deadline.
    pub fn broadcast_minute(&self, channel: u32, t: u64) -> Option<u32> {
        let len = u64::from(self.segment_len(channel));
        let minute = self.segment_start(channel) + (t % len) as u32;
        (minute < self.length).then_some(minute)
    }

    /// Ticks from `t` to the next segment-1 boundary (the next multiple
    /// of `d`). Strictly less than `d`, hence at most one segment-1
    /// period — the invariance proptest pins this bound.
    pub fn startup_wait(&self, t: u64) -> u64 {
        let d = u64::from(self.unit);
        (d - t % d) % d
    }

    /// The next segment-1 boundary at or after tick `t`.
    pub fn next_boundary(&self, t: u64) -> u64 {
        t + self.startup_wait(t)
    }

    /// Continuous-time twin of [`PyramidGeometry::next_boundary`] for the
    /// event simulator: the smallest multiple of `d` at or after `t`.
    pub fn next_boundary_continuous(&self, t: f64) -> f64 {
        let d = f64::from(self.unit);
        // vod-lint: allow(quantize-cast) — blessed boundary-grid rounding for
        // the continuous driver; the integer twin is the source of truth.
        (t.max(0.0) / d).ceil() * d
    }

    /// Movie minutes fully buffered client-side as a contiguous prefix
    /// after `elapsed` ticks of reception: segment `c` is complete once
    /// one full cycle (`len_c` ticks) has been recorded, so the prefix is
    /// `Σ len_c` over the maximal prefix of channels with `len_c ≤
    /// elapsed` (clamped to `l`).
    pub fn complete_prefix(&self, elapsed: u64) -> u32 {
        let mut prefix = 0u32;
        for c in 0..self.channels {
            if u64::from(self.segment_len(c)) > elapsed {
                break;
            }
            prefix = prefix.saturating_add(self.segment_len(c));
        }
        prefix.min(self.length)
    }

    /// Has a client that joined `elapsed` ticks ago already received
    /// `minute`? True for the streamed prefix `minute < elapsed` (each
    /// minute arrives no later than its playout deadline — the invariance
    /// property) and for any fully cycled segment
    /// ([`PyramidGeometry::complete_prefix`]).
    pub fn received_by(&self, elapsed: u64, minute: u32) -> bool {
        minute < self.length
            && (u64::from(minute) < elapsed || minute < self.complete_prefix(elapsed))
    }

    /// Continuous-time twin of [`PyramidGeometry::received_by`] for the
    /// event simulator, with positions and elapsed reception time in
    /// fractional minutes.
    pub fn received_by_continuous(&self, elapsed: f64, position: f64) -> bool {
        if !(elapsed.is_finite() && position.is_finite()) || position < 0.0 {
            return false;
        }
        // vod-lint: allow(quantize-cast) — blessed conservative floor: a
        // partially elapsed minute never counts as received.
        let whole = elapsed.max(0.0).floor() as u64;
        position < elapsed.min(f64::from(self.length))
            || position < f64::from(self.complete_prefix(whole))
    }

    /// Worst-case client-side buffer in movie minutes: everything ahead
    /// of the playout point is at most the fully received prefix below
    /// the last segment, `Σ_{c < k−1} len_c = d·(2^(k−1) − 1)` (an upper
    /// bound; the bench reports it alongside the server-side cost, since
    /// fast broadcasting's trade is exactly server buffer → client
    /// buffer).
    pub fn client_buffer_bound(&self) -> u32 {
        self.segment_start(self.channels.saturating_sub(1))
            .min(self.length)
    }
}

/// Exact per-client reception bookkeeping for the broadcast backend: a
/// bitmap of the movie minutes actually received plus the contiguous
/// prefix front derived from it.
///
/// The closed-form [`PyramidGeometry::received_by`] is exact only for a
/// client whose reception ran uninterrupted from a segment-1 boundary.
/// Under per-channel faults (a dead channel, an off-period slowdown
/// tick, an unfunded staging slot) the real reception set develops holes
/// that no elapsed-time formula can reproduce — modeling an outage as a
/// global pause leaves the bookkept front leading the truly-broadcast
/// front by up to `d − 1` minutes after recovery. This type records
/// reality instead: [`record`](Self::record) marks each minute as the
/// broadcast delivers it, and [`front`](Self::front) is always the exact
/// contiguous prefix — it can never lead the schedule and never
/// regresses (bits are only ever set).
///
/// Playout decisions (consume, resume hit, merge, FF classification)
/// deliberately use the *contiguous* front ([`received`](Self::received)
/// is `minute < front`), not the raw bitmap: minutes received beyond a
/// hole are islands the client cannot play into without starving
/// mid-island, so QoS stays defined by the front alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceptionFront {
    length: u32,
    bits: Vec<u64>,
    front: u32,
}

impl ReceptionFront {
    /// Empty reception state for an `length`-minute movie.
    pub fn new(length: u32) -> Self {
        Self {
            length,
            bits: vec![0; (length as usize).div_ceil(64)],
            front: 0,
        }
    }

    /// Movie length this front tracks.
    pub fn length(&self) -> u32 {
        self.length
    }

    /// Record reception of `minute` (idempotent; out-of-range minutes
    /// are ignored) and advance the contiguous front over any newly
    /// connected run of received minutes.
    pub fn record(&mut self, minute: u32) {
        if minute >= self.length {
            return;
        }
        self.bits[(minute / 64) as usize] |= 1u64 << (minute % 64);
        self.advance_front();
    }

    /// [`record`](Self::record) for a whole tick's reception at once:
    /// `mask` is a bitset over the movie's minutes (bit `m % 64` of word
    /// `m / 64`), ORed in a word at a time; bits at or past the length
    /// are ignored.
    pub fn record_mask(&mut self, mask: &[u64]) {
        for (word, &m) in self.bits.iter_mut().zip(mask) {
            *word |= m;
        }
        if !self.length.is_multiple_of(64) {
            if let Some(last) = self.bits.last_mut() {
                *last &= (1u64 << (self.length % 64)) - 1;
            }
        }
        self.advance_front();
    }

    /// Walk the front over the received run it now touches, a word's
    /// run of ones at a time (no bit at or past the length is ever set,
    /// so the walk stops there).
    fn advance_front(&mut self) {
        while self.front < self.length {
            let run = (self.bits[(self.front / 64) as usize] >> (self.front % 64)).trailing_ones();
            self.front += run;
            if run == 0 || !self.front.is_multiple_of(64) {
                break;
            }
        }
    }

    /// Is `minute` inside the contiguous received prefix? This is the
    /// playout-safe notion of "received": true iff `minute <`
    /// [`front`](Self::front).
    pub fn received(&self, minute: u32) -> bool {
        minute < self.front
    }

    /// The exact contiguous reception front: every minute `< front` is
    /// received, minute `front` (if any) is not. Monotone non-decreasing
    /// over a session's lifetime.
    pub fn front(&self) -> u32 {
        self.front
    }

    /// Audit-sensitivity test hook for the backends that embed a front:
    /// overwrite the incremental front, leaving the bitmap as it is.
    #[doc(hidden)]
    pub fn force_front(&mut self, front: u32) {
        self.front = front;
    }

    /// Recompute the front from the raw bitmap, a word at a time. Audit
    /// seam: must always equal [`front`](Self::front) (the incremental
    /// walk is exact).
    pub fn audit_front(&self) -> u32 {
        let mut f = 0u32;
        for word in &self.bits {
            let run = word.trailing_ones();
            f += run;
            if run < u64::BITS {
                break;
            }
        }
        f.min(self.length)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert_eq!(BackendKind::parse("nope"), None);
    }

    #[test]
    fn geometry_pins_textbook_shape() {
        // l = 120, k = 4: d = ceil(120/15) = 8, segments 8/16/32/64,
        // virtual length 120 exactly (no padding).
        let g = PyramidGeometry::new(120, 4);
        assert_eq!((g.unit(), g.channels(), g.virtual_length()), (8, 4, 120));
        assert_eq!(
            (0..4).map(|c| g.segment_len(c)).collect::<Vec<_>>(),
            vec![8, 16, 32, 64]
        );
        assert_eq!(
            (0..4).map(|c| g.segment_start(c)).collect::<Vec<_>>(),
            vec![0, 8, 24, 56]
        );
        assert_eq!(g.channel_of(0), 0);
        assert_eq!(g.channel_of(23), 1);
        assert_eq!(g.channel_of(56), 3);
        assert_eq!(g.client_buffer_bound(), 56);
    }

    #[test]
    fn target_wait_picks_smallest_channel_count() {
        // l = 120: k=4 gives d=8 (too slow for w=1); k=7 gives
        // d=ceil(120/127)=1 ≤ 1.
        let g = PyramidGeometry::for_target_wait(120, 1);
        assert_eq!(g.unit(), 1);
        assert_eq!(g.channels(), 7);
        let loose = PyramidGeometry::for_target_wait(120, 10);
        assert_eq!(loose.channels(), 4);
        assert_eq!(loose.unit(), 8);
        // Wait 0 is clamped to 1 minute (the tick grid's floor).
        assert_eq!(PyramidGeometry::for_target_wait(120, 0).unit(), 1);
    }

    #[test]
    fn continuous_constructor_matches_integer_twin() {
        let a = PyramidGeometry::from_continuous(120.0, 6.0);
        let b = PyramidGeometry::for_target_wait(120, 6);
        assert_eq!(a, b);
        // Fractional wait floors (tighter, never looser).
        let c = PyramidGeometry::from_continuous(120.0, 1.9);
        assert_eq!(c, PyramidGeometry::for_target_wait(120, 1));
    }

    #[test]
    fn broadcast_schedule_loops_each_segment() {
        let g = PyramidGeometry::new(120, 4);
        // Channel 0 loops minutes 0..8 with period 8.
        for t in 0..32u64 {
            assert_eq!(g.broadcast_minute(0, t), Some((t % 8) as u32));
        }
        // Channel 3 starts at 56 with period 64.
        assert_eq!(g.broadcast_minute(3, 0), Some(56));
        assert_eq!(g.broadcast_minute(3, 63), Some(119));
        assert_eq!(g.broadcast_minute(3, 64), Some(56));
    }

    #[test]
    fn padding_slots_broadcast_nothing() {
        // l = 10, k = 3: d = 2, segments 2/4/8, virtual length 14; the
        // last channel's minutes 10..14 are padding.
        let g = PyramidGeometry::new(10, 3);
        assert_eq!(g.virtual_length(), 14);
        let mut real = 0;
        let mut padding = 0;
        for t in 0..8u64 {
            match g.broadcast_minute(2, t) {
                Some(m) => {
                    assert!((6..10).contains(&m));
                    real += 1;
                }
                None => padding += 1,
            }
        }
        assert_eq!((real, padding), (4, 4));
    }

    #[test]
    fn startup_wait_bounded_by_unit() {
        let g = PyramidGeometry::new(120, 4); // d = 8
        assert_eq!(g.startup_wait(0), 0);
        assert_eq!(g.startup_wait(1), 7);
        assert_eq!(g.startup_wait(8), 0);
        for t in 0..200u64 {
            assert!(g.startup_wait(t) < u64::from(g.unit()));
            assert_eq!(g.next_boundary(t) % u64::from(g.unit()), 0);
        }
        assert_eq!(g.next_boundary_continuous(8.5), 16.0);
        assert_eq!(g.next_boundary_continuous(16.0), 16.0);
    }

    #[test]
    fn reception_front_grows_with_elapsed() {
        let g = PyramidGeometry::new(120, 4); // segments 8/16/32/64
        assert_eq!(g.complete_prefix(7), 0);
        assert_eq!(g.complete_prefix(8), 8);
        assert_eq!(g.complete_prefix(16), 24);
        assert_eq!(g.complete_prefix(64), 120);
        // Streamed prefix: minute 30 received once elapsed > 30.
        assert!(!g.received_by(30, 30));
        assert!(g.received_by(31, 30));
        // Complete-segment prefix: after 16 ticks minutes 0..24 are all
        // buffered even though only 16 have played.
        assert!(g.received_by(16, 23));
        assert!(!g.received_by(16, 24));
        assert!(!g.received_by(1000, 120), "past the end is never received");
        assert!(g.received_by_continuous(16.5, 23.9));
        assert!(!g.received_by_continuous(16.5, 24.0));
    }

    #[test]
    fn reception_front_tracks_contiguous_prefix_only() {
        let mut rx = ReceptionFront::new(130);
        assert_eq!(rx.front(), 0);
        rx.record(0);
        rx.record(1);
        assert_eq!(rx.front(), 2);
        // An island beyond a hole is recorded but never "received".
        rx.record(5);
        rx.record(129);
        assert_eq!(rx.front(), 2);
        assert!(!rx.received(5) && !rx.received(129));
        // Filling the hole connects the island through in one step.
        rx.record(3);
        rx.record(4);
        assert_eq!(rx.front(), 2, "minute 2 still missing");
        rx.record(2);
        assert_eq!(rx.front(), 6, "front jumps across the connected run");
        assert!(rx.received(5));
        assert_eq!(rx.audit_front(), rx.front());
        // Idempotent and bounded.
        rx.record(2);
        rx.record(999);
        assert_eq!(rx.front(), 6);
        for m in 0..130 {
            rx.record(m);
        }
        assert_eq!(rx.front(), 130);
        assert!(!rx.received(130), "past the end is never received");
        assert_eq!(rx.audit_front(), 130);
    }

    #[test]
    fn reception_front_never_regresses() {
        let mut rx = ReceptionFront::new(64);
        let mut prev = 0;
        // Adversarial order: record minutes in a scrambled pattern.
        for step in 0..64u32 {
            rx.record((step * 37) % 64);
            assert!(rx.front() >= prev, "front regressed");
            assert_eq!(rx.audit_front(), rx.front());
            prev = rx.front();
        }
        assert_eq!(rx.front(), 64);
    }

    /// The audit must not go blind: clearing any bit below the front
    /// (state no public call can produce) makes the from-scratch recount
    /// stop exactly there, in either word and on the word boundary.
    #[test]
    fn audit_front_sees_a_cleared_bit_below_the_front() {
        for hole in [0u32, 5, 63, 64, 65, 129] {
            let mut rx = ReceptionFront::new(130);
            (0..130).for_each(|m| rx.record(m));
            assert_eq!((rx.front(), rx.audit_front()), (130, 130));
            rx.bits[(hole / 64) as usize] &= !(1u64 << (hole % 64));
            assert_eq!(rx.front(), 130, "the incremental front is now stale");
            assert_eq!(rx.audit_front(), hole);
        }
    }

    #[test]
    fn channel_count_clamps_to_useful_range() {
        // 2^7 − 1 = 127 ≥ 120: more than 7 channels cannot help.
        assert_eq!(PyramidGeometry::new(120, 31).channels(), 7);
        assert_eq!(PyramidGeometry::new(120, 0).channels(), 1);
        let single = PyramidGeometry::new(120, 1);
        assert_eq!(single.unit(), 120, "one channel loops the whole movie");
        assert_eq!(single.client_buffer_bound(), 0);
    }
}
