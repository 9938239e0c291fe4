//! The engine's pending-event set: per-minute buckets on the one
//! scheduler, `vod_runtime::TimerWheel`.
//!
//! An event is filed once, into the bucket of the minute its time falls
//! in, and ordered only when the cursor reaches that minute. A push is
//! O(1); a minute is ordered in O(n) by a counting scatter over slices of
//! the minute. Pop order is exactly one global `BinaryHeap<Ev>`'s, pinned
//! push for push and pop for pop by this module's proptests.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use vod_runtime::{ArenaId, TimerWheel};

/// Scheduled event. Ordered by time then sequence number (FIFO ties).
/// 24 bytes (pinned by a test): every queue move copies one, and at 48
/// the sim segment of `serve-vcr` read 10 % slower than at 32.
#[derive(Clone, Copy)]
pub(crate) struct Ev {
    pub(crate) time: f64,
    /// The sequence number above the kind's [`TAG_BITS`]-bit tag. Each
    /// event has its own sequence number, so ordering by `order` is
    /// ordering by it.
    order: u64,
    /// The event's viewer; an arrival's movie, as the index.
    target: ArenaId,
}

/// Low bits of [`Ev::order`] that hold the kind.
const TAG_BITS: u32 = 3;

#[derive(Clone, Copy)]
pub(crate) enum EvKind {
    /// A new viewer for `movie` arrives (the next arrival of that movie
    /// is scheduled on pop).
    Arrival { movie: usize },
    /// A queued (type-1) viewer starts at a restart instant.
    Start { viewer: ArenaId },
    /// A playing viewer issues a VCR operation.
    Vcr { viewer: ArenaId },
    /// The viewer's VCR operation (its sweep) completes.
    VcrEnd { viewer: ArenaId },
    /// A viewer reaches the end of the movie in normal playback.
    Finish { viewer: ArenaId },
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so earliest time pops first.
        other.key().cmp(&self.key())
    }
}

impl Ev {
    /// The event `kind` at `time`, pushed `seq`-th (below 2⁶¹).
    pub(crate) fn new(time: f64, seq: u64, kind: EvKind) -> Self {
        debug_assert!(seq < 1 << (64 - TAG_BITS));
        let (tag, target) = match kind {
            // A catalog holds fewer than 2³² movies.
            EvKind::Arrival { movie } => (0, ArenaId::from_parts(movie as u32, 0)),
            EvKind::Start { viewer } => (1, viewer),
            EvKind::Vcr { viewer } => (2, viewer),
            EvKind::VcrEnd { viewer } => (3, viewer),
            EvKind::Finish { viewer } => (4, viewer),
        };
        Ev {
            time,
            order: seq << TAG_BITS | tag,
            target,
        }
    }

    /// The sequence number the event was pushed with.
    #[cfg(test)]
    pub(crate) fn seq(&self) -> u64 {
        self.order >> TAG_BITS
    }

    pub(crate) fn kind(&self) -> EvKind {
        let viewer = self.target;
        match self.order & ((1 << TAG_BITS) - 1) {
            0 => EvKind::Arrival {
                movie: viewer.index(),
            },
            1 => EvKind::Start { viewer },
            2 => EvKind::Vcr { viewer },
            3 => EvKind::VcrEnd { viewer },
            _ => EvKind::Finish { viewer },
        }
    }

    /// `(time, seq)` as one integer in the same order: `time`'s bits
    /// mapped as `f64::total_cmp` maps them, above `order`. One compare
    /// of two of these takes no branch.
    fn key(&self) -> u128 {
        let bits = self.time.to_bits() as i64;
        let ordered = (bits ^ (((bits >> 63) as u64) >> 1) as i64) as u64 ^ (1 << 63);
        u128::from(ordered) << 64 | u128::from(self.order)
    }
}

/// The integer minute a continuous event time falls in (floor; negative
/// or NaN times saturate to minute 0, times from 2⁶⁴ up to the last
/// minute, under Rust's float→int `as` semantics). This is which bucket
/// an event is filed in, not partition-geometry quantization.
pub(crate) fn tick_of(time: f64) -> u64 {
    time as u64
}

/// Which of `parts` equal slices of minute `tick` a continuous event time
/// falls in (floor; a time before the minute or NaN saturates to slice 0,
/// a time past it to the last slice). Monotone in `time`, so a caller
/// ordering one minute's events can scatter them by slice first.
pub(crate) fn slice_of(time: f64, tick: u64, parts: usize) -> usize {
    let slice = ((time - tick as f64) * parts as f64) as usize;
    slice.min(parts.saturating_sub(1))
}

/// Slices of a minute `order_run` scatters a bucket over, per event, at
/// least: few slices then hold two events or more, and only those are
/// sorted after the scatter.
const SLICES_PER_EVENT: usize = 2;
/// Buckets shorter than this are comparison-sorted whole: the scatter's
/// two passes over its counters cost more than they save.
const SCATTER_MIN: usize = 64;

/// Pops in ascending `(time, seq)`, exactly the order one global
/// `BinaryHeap<Ev>` would.
///
/// Every event past the minute the cursor is on waits in `future`, in
/// the bucket of its minute. An idle stretch costs one bitmap scan
/// however long it is; [`Self::pop`] still takes the horizon and never
/// moves the cursor to a minute past it. On each minute change the
/// drained bucket is copied once, in order, into `run`, and its buffer
/// goes back to the wheel for the next new bucket; only events pushed
/// into the minute already being played (or before it) go through the
/// small `late` heap. Ordering is preserved because every event in `run`
/// or `late` has `floor(time) ≤ minute` while every event in `future`
/// has `floor(time) > minute` — so the earlier of the two heads is the
/// global minimum.
pub(crate) struct EventQueue {
    /// Events of the minutes past `minute`, each minute in push order.
    future: TimerWheel<Ev>,
    /// The bucket of `minute`, latest first: `pop()` takes the earliest
    /// off the back.
    run: Vec<Ev>,
    /// The slice of the minute each event of the bucket being ordered
    /// falls in, in bucket order.
    slices: Vec<u32>,
    /// Per slice of that bucket, one past its last slot in `run`.
    ends: Vec<u32>,
    /// The slot ranges in `run` of its slices holding two events or more.
    crowded: Vec<(u32, u32)>,
    /// Events pushed into `minute` while it plays.
    late: BinaryHeap<Ev>,
    /// The minute bucket `run` was drained from.
    minute: u64,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        EventQueue {
            future: TimerWheel::new(),
            run: Vec::new(),
            slices: Vec::new(),
            ends: Vec::new(),
            crowded: Vec::new(),
            late: BinaryHeap::new(),
            minute: 0,
        }
    }

    /// `#[inline]`: every handler pushes, and the engine is another module,
    /// so possibly another codegen unit. Out of line, the sim segment of
    /// `serve-vcr` read ≈ 4 % slower.
    #[inline]
    pub(crate) fn push(&mut self, ev: Ev) {
        let tick = tick_of(ev.time);
        if tick <= self.minute {
            self.late.push(ev);
        } else {
            self.future.schedule(tick, ev);
        }
    }

    /// The earliest pending event, or `None` once every pending event
    /// lies in a minute past `horizon` (such an event stays queued).
    pub(crate) fn pop(&mut self, horizon: f64) -> Option<Ev> {
        if self.run.is_empty() && self.late.is_empty() {
            let due = self
                .future
                .next_due()
                .filter(|&due| due as f64 <= horizon)?;
            self.minute = due;
            let bucket = self.future.drain_tick(due);
            self.order_run(bucket);
        }
        // The greater head under the inverted order is the earlier.
        if self.late.peek() > self.run.last() {
            self.late.pop()
        } else {
            self.run.pop()
        }
    }

    /// Fill `run`, empty, with `bucket` — the bucket of `minute` as it
    /// was drained — ascending under the inverted `Ord for Ev`: latest
    /// first. A minute of a busy catalog holds hundreds of events spread
    /// evenly over it, so a counting scatter on the slice of the minute
    /// each falls in — a power of two, [`SLICES_PER_EVENT`] or more per
    /// event — copies every event once, into its slice's place in `run`,
    /// and leaves a sort only the few slices holding two events or more:
    /// O(n) where sorting the bucket whole was O(n log n) — and still
    /// that, not worse, should a whole bucket crowd into one slice.
    /// `(time, seq)` has one sorted order, so the result is the one
    /// `sort_unstable` on the whole bucket gives. The emptied buffer goes
    /// back to the wheel.
    fn order_run(&mut self, mut bucket: Vec<Ev>) {
        debug_assert!(self.run.is_empty());
        if bucket.len() < SCATTER_MIN {
            bucket.sort_unstable();
            let drained = std::mem::replace(&mut self.run, bucket);
            self.future.recycle(drained);
            return;
        }
        let parts = (bucket.len() * SLICES_PER_EVENT).next_power_of_two();
        // `ends[s]`: one past the last slot of slice `s`, later slices first.
        let ends = &mut self.ends;
        ends.clear();
        ends.resize(parts, 0);
        self.slices.clear();
        for ev in &bucket {
            let slice = slice_of(ev.time, self.minute, parts);
            ends[slice] += 1;
            // `slice_of` returns less than `parts`, under 2³² for any
            // bucket a `Vec` can hold.
            self.slices.push(slice as u32);
        }
        // The slots of each slice holding two events or more: only those
        // need ordering once the scatter is done. Written for every slice
        // and kept for those, so no branch guesses which.
        let crowded = &mut self.crowded;
        crowded.clear();
        crowded.resize(parts, (0, 0));
        let mut kept = 0;
        let mut end = 0;
        for count in ends.iter_mut().rev() {
            crowded[kept] = (end, end + *count);
            kept += usize::from(*count > 1);
            end += *count;
            *count = end;
        }
        // Each slice fills from its end: a bucket holds its minute in push
        // order, so events at one instant land latest `seq` first.
        self.run.resize(bucket.len(), bucket[0]);
        for (ev, &slice) in bucket.iter().zip(&self.slices) {
            let slot = &mut ends[slice as usize];
            *slot -= 1;
            self.run[*slot as usize] = *ev;
        }
        // The slices are in order; an event moves only within its own.
        for &(start, end) in &crowded[..kept] {
            self.run[start as usize..end as usize].sort_unstable();
        }
        self.future.recycle(bucket);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BinaryHeap;

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    use vod_runtime::ArenaId;

    use super::{slice_of, tick_of, Ev, EvKind, EventQueue};

    /// Every queue move copies an `Ev`; the sweep parameters ride in the
    /// `Viewer`, not in the event, and the kind rides below the sequence
    /// number.
    #[test]
    fn event_fits_half_a_cache_line() {
        assert!(std::mem::size_of::<Ev>() <= 24);
    }

    #[test]
    fn an_event_keeps_its_kind_and_sequence_number() {
        let viewer = ArenaId::from_parts(7, 3);
        for kind in [
            EvKind::Arrival { movie: 5 },
            EvKind::Start { viewer },
            EvKind::Vcr { viewer },
            EvKind::VcrEnd { viewer },
            EvKind::Finish { viewer },
        ] {
            let ev = Ev::new(2.5, (1 << 61) - 1, kind);
            assert_eq!(ev.seq(), (1 << 61) - 1);
            let same = match (ev.kind(), kind) {
                (EvKind::Arrival { movie: a }, EvKind::Arrival { movie: b }) => a == b,
                (EvKind::Start { viewer: a }, EvKind::Start { viewer: b })
                | (EvKind::Vcr { viewer: a }, EvKind::Vcr { viewer: b })
                | (EvKind::VcrEnd { viewer: a }, EvKind::VcrEnd { viewer: b })
                | (EvKind::Finish { viewer: a }, EvKind::Finish { viewer: b }) => a == b,
                _ => false,
            };
            assert!(same);
        }
    }

    #[test]
    fn tick_of_floors_and_saturates() {
        assert_eq!(tick_of(0.0), 0);
        assert_eq!(tick_of(41.999), 41);
        assert_eq!(tick_of(-3.0), 0);
    }

    #[test]
    fn slice_of_floors_and_saturates() {
        let slice = |time| slice_of(time, 41, 256);
        assert_eq!(slice(41.0), 0);
        assert_eq!(slice(41.5), 128);
        assert_eq!(slice(f64::from_bits(42.0f64.to_bits() - 1)), 255);
        assert_eq!(slice(42.0), 255);
        assert_eq!(slice(f64::INFINITY), 255);
        assert_eq!(slice(40.999), 0);
        assert_eq!(slice(f64::NAN), 0);
        // The saturated last minute holds every time from 2^64 up.
        assert_eq!(slice_of(1e300, u64::MAX, 256), 255);
    }

    fn ev(time: f64, seq: u64) -> Ev {
        Ev::new(time, seq, EvKind::Arrival { movie: 0 })
    }

    /// Times from 2⁶⁴ minutes up all fall in the last minute,
    /// `u64::MAX`, which a validated horizon of `1e300` reaches: the
    /// queue plays it, a push into it while it plays included, in order.
    #[test]
    fn the_last_minute_pops_in_order() {
        let mut queue = EventQueue::new();
        queue.push(ev(2e25, 1));
        queue.push(ev(1e25, 2));
        assert_eq!(queue.pop(1e300).map(|e| e.seq()), Some(2));
        queue.push(ev(1.5e25, 3));
        let rest: Vec<u64> = std::iter::from_fn(|| queue.pop(1e300))
            .map(|e| e.seq())
            .collect();
        assert_eq!(rest, vec![3, 1]);
    }

    /// The reference: one plain `BinaryHeap<Ev>` under the same `Ord`,
    /// given the same pushes and pops, compared pop for pop.
    struct Pair {
        queue: EventQueue,
        heap: BinaryHeap<Ev>,
        seq: u64,
        /// The event the last pop returned, until it is pushed back.
        popped: Option<Ev>,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                queue: EventQueue::new(),
                heap: BinaryHeap::new(),
                seq: 0,
                popped: None,
            }
        }

        fn push(&mut self, time: f64) {
            self.seq += 1;
            self.push_ev(ev(time, self.seq));
        }

        fn push_ev(&mut self, ev: Ev) {
            self.queue.push(ev);
            self.heap.push(ev);
        }

        /// Push the last popped event back, `seq` and all — what the
        /// engine does when handling it must wait for something earlier.
        fn push_back(&mut self) {
            if let Some(ev) = self.popped.take() {
                self.push_ev(ev);
            }
        }

        /// Pop both; the popped time when they agree.
        fn pop(&mut self) -> Result<Option<f64>, TestCaseError> {
            let (got, want) = (self.queue.pop(f64::INFINITY), self.heap.pop());
            prop_assert_eq!(got.map(|e| e.seq()), want.map(|e| e.seq()));
            self.popped = want;
            Ok(want.map(|e| e.time))
        }

        fn drain(&mut self) -> Result<(), TestCaseError> {
            while self.pop()?.is_some() {}
            prop_assert!(self.queue.pop(f64::INFINITY).is_none());
            Ok(())
        }
    }

    proptest! {
        /// A push lands, relative to the last popped time, in the past, at
        /// that very instant (ties fall to `seq`), inside the minute being
        /// played, inside the wheel's window, just past it (the far map,
        /// handed to the window within a few hundred minutes and into
        /// slots that held an earlier lap's minute) or 10⁶ minutes ahead — or it is the
        /// event just popped, pushed back. The engine's output is a
        /// function of pop order alone, so equal pop order is equal
        /// simulation.
        #[test]
        fn queue_pops_in_global_heap_order(
            ops in proptest::collection::vec((0u8..8, 0u8..7, 0.0f64..1.0), 400),
        ) {
            let mut pair = Pair::new();
            let mut now = 0.0f64;
            // The wheel's window, in minutes.
            let ring = 256.0;
            for (op, place, frac) in ops {
                if op < 5 {
                    match place {
                        0 => pair.push((now - 3.0 * frac).max(0.0)),
                        1 => pair.push(now),
                        2 => pair.push(now.floor() + frac),
                        3 => pair.push(now + 1.0 + (ring - 16.0) * frac),
                        4 => pair.push(now + ring + 300.0 * frac),
                        5 => pair.push(now + 1e6 * (1.0 + frac)),
                        _ => pair.push_back(),
                    }
                } else {
                    now = pair.pop()?.unwrap_or(now);
                }
            }
            pair.drain()?;
        }

        /// One minute holding thousands of events — the bucket the
        /// counting-sort scatter orders (the 400 operations above never
        /// file 64 into one minute): instants shared by many events,
        /// the minute's first instant and the last `f64` before the next
        /// minute, and pushes into the minute while it plays.
        #[test]
        fn a_crowded_minute_pops_in_global_heap_order(
            minute in prop_oneof![Just(7.0f64), Just(4800.0), Just(1e6)],
            times in proptest::collection::vec((0u8..6, 0.0f64..1.0), 2_500),
            late in proptest::collection::vec(0.0f64..1.0, 50),
        ) {
            let mut pair = Pair::new();
            let last = f64::from_bits((minute + 1.0).to_bits() - 1);
            let instant = |place: u8, frac: f64| match place {
                0 => minute,
                1 => last,
                // A few shared instants: ties fall to `seq`.
                2 => minute + (frac * 4.0).floor() / 4.0,
                _ => (minute + frac).min(last),
            };
            pair.push(0.5);
            for &(place, frac) in &times {
                pair.push(instant(place, frac));
            }
            pair.push(minute + 1.0);
            prop_assert_eq!(pair.pop()?, Some(0.5));
            for frac in late {
                // Each pop plays the crowded minute; the push lands in it,
                // before or after the playhead.
                pair.pop()?;
                pair.pop()?;
                pair.push(instant(3, frac));
            }
            pair.drain()?;
        }
    }
}
