//! Calendar ring keyed on the virtual-time tick grid: the one scheduler
//! both drivers use.
//!
//! "What happens at tick `t`" costs O(1) per item, not a scan of every
//! session or a heap of every future event: an item due fewer than
//! `RING` ticks past the cursor is filed once, into the bucket of its
//! tick (`due % RING`); one due later waits in a small ordered `far` map and
//! moves into its bucket, once, when the cursor comes within `RING`
//! ticks of it. A `RING`-bit occupancy bitmap makes "next scheduled tick"
//! a few `trailing_zeros` instructions, however long the idle stretch.
//!
//! # Determinism contract
//!
//! [`TimerWheel::drain_tick`] returns items in exactly the order a
//! `BTreeMap<u64, Vec<T>>` keyed by due tick would: ascending due tick,
//! FIFO within a tick. A bucket holds one tick in schedule order, and a
//! far entry reaches its bucket as the cursor moves — before any later
//! `schedule` can file into that bucket — so no entry carries a sequence
//! number and no bucket is sorted. A property test in
//! `tests/prop_wheel_arena.rs` pins this equivalence against the map
//! model under random schedules.

use std::collections::BTreeMap;
use std::mem;

/// Ticks the ring spans: an item due fewer than `RING` ticks past the
/// cursor goes straight into its tick's bucket.
const RING: u64 = 256;
/// `u64` words of the occupancy bitmap.
const WORDS: usize = (RING / 64) as usize;

/// Calendar ring over the integer virtual-time grid.
///
/// The cursor starts at tick 0 and only moves forward, one
/// [`TimerWheel::drain_tick`] call at a time. Scheduling in the past is
/// clamped to the cursor — the item fires on the very next drain — which
/// mirrors how the server treats "due now": start-of-minute events
/// scheduled at the current minute run within the current tick.
pub struct TimerWheel<T> {
    /// Next undrained tick; saturates at `u64::MAX`, which stays
    /// drainable.
    now: u64,
    /// Scheduled items not yet drained.
    len: usize,
    /// `ring[d % RING]`: the items due at `d`, for every
    /// `now ≤ d < now + RING`, in schedule order.
    ring: Box<[Vec<T>; RING as usize]>,
    /// Bit `s % 64` of word `s / 64` is set iff `ring[s]` is non-empty.
    occupied: [u64; WORDS],
    /// Items due `RING` or more ticks past the cursor, by due tick.
    far: BTreeMap<u64, Vec<T>>,
    /// One drained bucket's buffer, handed back through [`Self::recycle`]:
    /// the next bucket to receive its first item takes it over rather
    /// than grow from nothing. One, not one per slot, so the ring still
    /// holds no capacity for ticks with nothing pending.
    spare: Vec<T>,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with its cursor at tick 0.
    pub fn new() -> Self {
        Self {
            now: 0,
            len: 0,
            ring: Box::new(std::array::from_fn(|_| Vec::new())),
            occupied: [0; WORDS],
            far: BTreeMap::new(),
            spare: Vec::new(),
        }
    }

    /// Next undrained tick (the cursor).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Scheduled items not yet drained.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `item` for tick `due`. A `due` behind the cursor is
    /// clamped to the cursor, so the item fires on the next drain.
    #[inline]
    pub fn schedule(&mut self, due: u64, item: T) {
        let due = self.now.max(due);
        if due - self.now < RING {
            let slot = self.file(due);
            let bucket = &mut self.ring[slot];
            if bucket.capacity() == 0 {
                *bucket = mem::take(&mut self.spare);
            }
            bucket.push(item);
        } else {
            self.schedule_far(due, item);
        }
        self.len += 1;
    }

    /// The rare arm of [`Self::schedule`], out of line so the common one
    /// inlines into its caller.
    #[cold]
    #[inline(never)]
    fn schedule_far(&mut self, due: u64, item: T) {
        self.far.entry(due).or_default().push(item);
    }

    /// Mark the bucket of `due`, inside the window, occupied and return
    /// its slot.
    fn file(&mut self, due: u64) -> usize {
        let slot = (due % RING) as usize;
        self.occupied[slot / 64] |= 1 << (slot % 64);
        slot
    }

    /// Move the cursor to `now` (nothing due before it is left) and file
    /// each far item the window now covers into its bucket. Each such
    /// bucket last held a tick before `now`, already drained, so it is
    /// empty.
    fn advance_to(&mut self, now: u64) {
        self.now = now;
        while let Some(entry) = self.far.first_entry() {
            if entry.key().saturating_sub(now) >= RING {
                break;
            }
            let (due, items) = entry.remove_entry();
            let slot = self.file(due);
            let bucket = &mut self.ring[slot];
            debug_assert!(
                bucket.is_empty(),
                "a far item's bucket still holds an earlier lap"
            );
            *bucket = items;
        }
    }

    /// Remove and return every item due at or before tick `t`, in
    /// ascending due-tick order with FIFO schedule order within a tick
    /// (the `BTreeMap<u64, Vec<T>>` contract). Advances the cursor to
    /// `t + 1` (saturating); a `t` behind the cursor returns nothing and
    /// moves nothing. Visits only occupied buckets and far ticks, so a
    /// drain across an idle stretch costs the same however long it is.
    pub fn drain_tick(&mut self, t: u64) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(due) = self.next_due().filter(|&due| due <= t) {
            self.advance_to(due);
            let slot = (due % RING) as usize;
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            // Taken, not swapped: the emptied slot keeps no capacity, so
            // the ring holds no more memory than its pending items.
            let mut bucket = mem::take(&mut self.ring[slot]);
            self.len -= bucket.len();
            if out.is_empty() {
                out = bucket;
            } else {
                out.append(&mut bucket);
            }
        }
        if t >= self.now {
            self.advance_to(t.saturating_add(1));
        }
        out
    }

    /// Hand back a buffer [`Self::drain_tick`] returned, once its items
    /// are taken: it is emptied and kept as the spare, if it holds more
    /// than the spare already does. A caller that drains every tick saves
    /// each new bucket its regrowth.
    pub fn recycle(&mut self, mut buffer: Vec<T>) {
        if buffer.capacity() > self.spare.capacity() {
            buffer.clear();
            self.spare = buffer;
        }
    }

    /// Earliest scheduled due tick, if any: the first occupied bucket at
    /// or after the cursor's, going round the ring once, or else the far
    /// map's first tick. `drain_tick(next_due())` fast-forwards an idle
    /// wheel without walking empty ticks.
    pub fn next_due(&self) -> Option<u64> {
        let start = (self.now % RING) as usize;
        let low = !0u64 << (start % 64);
        for step in 0..=WORDS {
            let word = (start / 64 + step) % WORDS;
            let bits = match step {
                0 => self.occupied[word] & low,
                WORDS => self.occupied[word] & !low,
                _ => self.occupied[word],
            };
            if bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                let ahead = (slot + RING as usize - start) % RING as usize;
                return Some(self.now + ahead as u64);
            }
        }
        self.far.keys().next().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_due_then_fifo_order() {
        let mut w = TimerWheel::new();
        w.schedule(5, "a");
        w.schedule(3, "b");
        w.schedule(5, "c");
        w.schedule(0, "d");
        assert_eq!(w.len(), 4);
        assert_eq!(w.next_due(), Some(0));
        assert_eq!(w.drain_tick(0), vec!["d"]);
        assert_eq!(w.drain_tick(4), vec!["b"]);
        assert_eq!(w.next_due(), Some(5));
        assert_eq!(w.drain_tick(10), vec!["a", "c"]);
        assert!(w.is_empty());
    }

    #[test]
    fn past_due_clamps_to_cursor() {
        let mut w = TimerWheel::new();
        assert!(w.drain_tick(99).is_empty());
        w.schedule(3, "late");
        assert_eq!(w.next_due(), Some(100));
        assert_eq!(w.drain_tick(100), vec!["late"]);
    }

    #[test]
    fn drains_far_dues_in_order() {
        let mut w = TimerWheel::new();
        // One item inside the window, the rest one to many laps out.
        w.schedule(7, 7u64);
        w.schedule(300, 300);
        w.schedule(5_000, 5_000);
        w.schedule(300_000, 300_000);
        w.schedule(20_000_000, 20_000_000);
        let mut got = Vec::new();
        while let Some(due) = w.next_due() {
            for item in w.drain_tick(due) {
                got.push((due, item));
            }
        }
        assert_eq!(
            got,
            vec![
                (7, 7),
                (300, 300),
                (5_000, 5_000),
                (300_000, 300_000),
                (20_000_000, 20_000_000)
            ]
        );
    }

    #[test]
    fn fifo_survives_the_far_map() {
        let mut w = TimerWheel::new();
        // Same due tick reached two ways: one filed while the tick was
        // in the far map, one filed after the window reached it.
        w.schedule(300, "first");
        assert_eq!(w.drain_tick(127).len(), 0);
        w.schedule(300, "second");
        assert_eq!(w.drain_tick(300), vec!["first", "second"]);
    }

    /// A drain across a long idle stretch visits only what is scheduled,
    /// and the cursor saturates rather than overflow at the last tick.
    #[test]
    fn a_long_drain_skips_the_idle_stretch() {
        let mut w = TimerWheel::new();
        w.schedule(1 << 40, "far");
        assert_eq!(w.drain_tick(1 << 40), vec!["far"]);
        assert_eq!(w.now(), (1 << 40) + 1);
        w.schedule(u64::MAX, "last");
        assert_eq!(w.drain_tick(u64::MAX), vec!["last"]);
        assert_eq!(w.now(), u64::MAX);
        w.schedule(3, "clamped");
        assert_eq!(w.next_due(), Some(u64::MAX));
        assert_eq!(w.drain_tick(u64::MAX), vec!["clamped"]);
        assert!(w.is_empty());
    }

    /// A drained bucket is handed over whole: between laps the ring holds
    /// no capacity for ticks with nothing pending.
    #[test]
    fn a_drained_slot_keeps_no_capacity() {
        let mut w = TimerWheel::new();
        for item in 0..100u32 {
            w.schedule(5, item);
        }
        w.schedule(5 + RING, 100);
        let slot = (5 % RING) as usize;
        assert!(w.ring[slot].capacity() >= 100);
        assert_eq!(w.drain_tick(5), (0..100).collect::<Vec<_>>());
        // The cursor's move to tick 6 brings the far item into the window,
        // and into the slot tick 5 just emptied: the slot holds that
        // item's own buffer, not the hundred drained.
        assert_eq!(w.ring[slot].len(), 1);
        assert!(w.ring[slot].capacity() < 100);
        assert_eq!(w.drain_tick(5 + RING), vec![100]);
        assert_eq!(w.ring[slot].capacity(), 0);
        assert!(w.is_empty());
    }

    /// A recycled buffer is the one spare: the next bucket to receive
    /// its first item takes it, emptied; a smaller one does not replace it.
    #[test]
    fn a_recycled_buffer_serves_the_next_new_bucket() {
        let mut w = TimerWheel::new();
        w.recycle(Vec::with_capacity(100));
        w.recycle(vec![7u32; 10]);
        assert!(w.spare.capacity() >= 100 && w.spare.is_empty());
        w.schedule(3, 1);
        w.schedule(3, 2);
        let slot = (3 % RING) as usize;
        assert!(w.ring[slot].capacity() >= 100);
        assert_eq!(w.spare.capacity(), 0);
        // The bucket filed next grows on its own.
        w.schedule(4, 3);
        assert!(w.ring[(4 % RING) as usize].capacity() < 100);
        assert_eq!(w.drain_tick(4), vec![1, 2, 3]);
    }
}
