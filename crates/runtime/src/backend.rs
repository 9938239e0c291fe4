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

    /// Has a client that joined `elapsed` minutes ago (fractional, as the
    /// event simulator keeps time) already received the minute at
    /// `position`? True for the streamed prefix `position < elapsed` (each
    /// minute arrives no later than its playout deadline — the invariance
    /// property) and for any fully cycled segment
    /// ([`PyramidGeometry::complete_prefix`]); never past the movie end.
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
}

/// What one broadcast movie has put on the air: for each minute the last
/// tick it was staged, and the prefix minimum of those ticks.
///
/// Under channel-transition invariance every client of a movie records
/// the same channels from the tick it starts receiving, its `since`, so
/// it holds minute `m` iff `m` was on the air at some tick `≥ since`.
/// The closed form [`PyramidGeometry::received_by_continuous`] is exact
/// only for uninterrupted reception; under per-channel faults (a dead
/// channel, an off-period slowdown tick, an unfunded staging slot)
/// reception has holes no elapsed-time formula reproduces. This record
/// logs what was really staged, once per movie per tick, so the front it
/// reports for any client never leads the schedule and never regresses.
///
/// Playout decisions use the *contiguous* prefix
/// ([`received`](Self::received)): minutes received beyond a hole are
/// islands the client cannot play into without starving mid-island.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AirLog {
    /// Per minute, one more than the last tick it was on the air; 0 for
    /// never, which compares below every tick a client can join at.
    last: Vec<u64>,
    /// The running minimum of `last`: every minute up to `m` has been on
    /// the air since tick `prefix_min[m] − 1`. Never increases with `m`.
    prefix_min: Vec<u64>,
}

/// The running minimum of `last`, which `prefix_min` holds.
fn running_min(last: &[u64]) -> impl Iterator<Item = u64> + '_ {
    last.iter().scan(u64::MAX, |min, &tick| {
        *min = tick.min(*min);
        Some(*min)
    })
}

impl AirLog {
    /// Nothing on the air yet, for an `length`-minute movie.
    pub fn new(length: u32) -> Self {
        Self {
            last: vec![0; length as usize],
            prefix_min: vec![0; length as usize],
        }
    }

    /// Log the minutes on the air at `tick`, a later tick than any logged
    /// before (minutes past the length are ignored), and refresh the
    /// prefix minimum.
    pub fn log(&mut self, tick: u64, minutes: impl IntoIterator<Item = u32>) {
        for minute in minutes {
            if let Some(last) = self.last.get_mut(minute as usize) {
                *last = tick + 1;
            }
        }
        for (stored, min) in self.prefix_min.iter_mut().zip(running_min(&self.last)) {
            *stored = min;
        }
    }

    /// Was `minute` on the air at `tick`, the last tick logged?
    pub fn on_air(&self, tick: u64, minute: u32) -> bool {
        self.last.get(minute as usize) == Some(&(tick + 1))
    }

    /// Has every minute up to `minute` been on the air at some tick
    /// `≥ since`? The playout-safe "received" of a client receiving since
    /// tick `since`, in O(1): true iff `minute <`
    /// [`front(since)`](Self::front).
    pub fn received(&self, since: u64, minute: u32) -> bool {
        self.prefix_min
            .get(minute as usize)
            .is_some_and(|&on| on > since)
    }

    /// The contiguous reception front of a client receiving since tick
    /// `since`: every minute `< front` is received, minute `front` (if
    /// any) is not.
    pub fn front(&self, since: u64) -> u32 {
        self.prefix_min.partition_point(|&on| on > since) as u32
    }

    /// Audit seam: the first minute whose stored prefix minimum differs
    /// from a recount of the last-on-air ticks, if any.
    pub fn drift(&self) -> Option<u32> {
        let mut recount = running_min(&self.last).zip(&self.prefix_min);
        let first = recount.position(|(min, &stored)| min != stored);
        first.map(|m| m as u32)
    }

    /// Audit-sensitivity test hook: raise the stored prefix minimum at
    /// `minute`, leaving the last-on-air ticks as they are.
    #[doc(hidden)]
    pub fn skew(&mut self, minute: u32) {
        self.prefix_min[minute as usize] += 1;
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
        assert!(!g.received_by_continuous(30.0, 30.0));
        assert!(g.received_by_continuous(31.0, 30.0));
        // Complete-segment prefix: after 16 ticks minutes 0..24 are all
        // buffered even though only 16 have played.
        assert!(g.received_by_continuous(16.0, 23.0));
        assert!(!g.received_by_continuous(16.0, 24.0));
        assert!(
            !g.received_by_continuous(1000.0, 120.0),
            "past the end is never received"
        );
        assert!(g.received_by_continuous(16.5, 23.9));
        assert!(!g.received_by_continuous(16.5, 24.0));
    }

    #[test]
    fn channel_count_clamps_to_useful_range() {
        // 2^7 − 1 = 127 ≥ 120: more than 7 channels cannot help.
        assert_eq!(PyramidGeometry::new(120, 31).channels(), 7);
        assert_eq!(PyramidGeometry::new(120, 0).channels(), 1);
        let single = PyramidGeometry::new(120, 1);
        assert_eq!(single.unit(), 120, "one channel loops the whole movie");
    }
}
