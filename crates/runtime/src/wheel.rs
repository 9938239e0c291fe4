//! Hierarchical timer wheel keyed on the virtual-time tick grid.
//!
//! The server's backends used to find "what happens at tick `t`" by
//! scanning every session. The wheel makes the schedule side of that
//! O(1): an item scheduled for tick `due` is filed into one of
//! [`LEVELS`] wheels of [`SLOTS`] slots each — level 0 resolves single
//! ticks, level `l` resolves runs of `64^l` ticks — and cascades down one
//! level each time the cursor crosses a level boundary (Varghese–Lauck
//! hashed wheels).
//! Per-level `u64` occupancy bitmaps make "next scheduled tick" a couple
//! of `trailing_zeros` instructions.
//!
//! # Determinism contract
//!
//! [`TimerWheel::drain_tick`] returns items in exactly the order a
//! `BTreeMap<u64, Vec<T>>` keyed by due tick would: ascending due tick,
//! FIFO within a tick. Cascading between levels can physically reorder
//! entries inside a slot, so every entry carries an internal monotone
//! sequence number and each drained slot is sorted by it before being
//! returned. A property test in `tests/prop_wheel_arena.rs` pins this
//! equivalence against the map model under random schedules.

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level (64, so one `u64` bitmap covers a level).
const SLOTS: u64 = 1 << SLOT_BITS;
/// Wheel levels; together they span `64^4 = 2^24` ticks before the
/// overflow list takes over.
const LEVELS: usize = 4;

/// One scheduled entry: payload plus its due tick and FIFO tiebreak.
struct Entry<T> {
    due: u64,
    seq: u64,
    item: T,
}

/// One wheel level: 64 buckets plus an occupancy bitmap (bit `i` set ⇔
/// bucket `i` non-empty).
struct Level<T> {
    occupied: u64,
    slots: Vec<Vec<Entry<T>>>,
}

impl<T> Level<T> {
    fn new() -> Self {
        Self {
            occupied: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }
}

/// Hierarchical timer wheel over the integer virtual-time grid.
///
/// The cursor starts at tick 0 and only moves forward, one
/// [`TimerWheel::drain_tick`] call at a time. Scheduling in the past is
/// clamped to the cursor — the item fires on the very next drain — which
/// mirrors how the server treats "due now": start-of-minute events
/// scheduled at the current minute run within the current tick.
pub struct TimerWheel<T> {
    /// Next undrained tick.
    now: u64,
    /// Monotone schedule counter; the FIFO tiebreak within a tick.
    seq: u64,
    /// Scheduled items not yet drained.
    len: usize,
    levels: Vec<Level<T>>,
    /// Items due beyond the top level's span; refiled as the top window
    /// rolls over.
    overflow: Vec<Entry<T>>,
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
            seq: 0,
            len: 0,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: Vec::new(),
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
    pub fn schedule(&mut self, due: u64, item: T) {
        let due = due.max(self.now);
        self.seq += 1;
        let entry = Entry {
            due,
            seq: self.seq,
            item,
        };
        self.file(entry);
        self.len += 1;
    }

    /// Smallest level whose current window contains `due`, or `None` for
    /// the overflow list.
    fn level_for(&self, due: u64) -> Option<usize> {
        (0..LEVELS).find(|&l| {
            let shift = SLOT_BITS * (l as u32 + 1);
            due >> shift == self.now >> shift
        })
    }

    /// File an entry into the level/slot its due tick selects at the
    /// current cursor position.
    fn file(&mut self, entry: Entry<T>) {
        match self.level_for(entry.due) {
            Some(l) => {
                let slot = ((entry.due >> (SLOT_BITS * l as u32)) & (SLOTS - 1)) as usize;
                self.levels[l].occupied |= 1 << slot;
                self.levels[l].slots[slot].push(entry);
            }
            None => self.overflow.push(entry),
        }
    }

    /// Move the cursor to `new_now`, cascading higher levels down when a
    /// level boundary is crossed. Callers never skip past an un-cascaded
    /// boundary: `new_now` stays within the current level-0 window plus
    /// its closing boundary.
    fn bump_to(&mut self, new_now: u64) {
        debug_assert!(new_now > self.now && new_now <= (self.now | (SLOTS - 1)) + 1);
        self.now = new_now;
        if self.now.is_multiple_of(SLOTS) {
            self.cascade();
        }
    }

    /// The cursor just landed on a level-0 window boundary: pull every
    /// level whose window also rolled over down one level (highest level
    /// first, so entries hop at most once per call), and refile the
    /// overflow list when the top window rolled.
    fn cascade(&mut self) {
        debug_assert!(self.now.is_multiple_of(SLOTS));
        if self.now.is_multiple_of(1 << (SLOT_BITS * LEVELS as u32)) {
            let overflow = std::mem::take(&mut self.overflow);
            for entry in overflow {
                self.file(entry);
            }
        }
        for l in (1..LEVELS).rev() {
            if !self.now.is_multiple_of(1 << (SLOT_BITS * l as u32)) {
                continue;
            }
            let slot = ((self.now >> (SLOT_BITS * l as u32)) & (SLOTS - 1)) as usize;
            if self.levels[l].occupied & (1 << slot) == 0 {
                continue;
            }
            self.levels[l].occupied &= !(1 << slot);
            let entries = std::mem::take(&mut self.levels[l].slots[slot]);
            for entry in entries {
                self.file(entry);
            }
        }
    }

    /// Remove and return every item due at or before tick `t`, in
    /// ascending due-tick order with FIFO schedule order within a tick
    /// (the `BTreeMap<u64, Vec<T>>` contract). Advances the cursor to
    /// `t + 1`; a `t` behind the cursor returns nothing and moves nothing.
    pub fn drain_tick(&mut self, t: u64) -> Vec<T> {
        let mut out = Vec::new();
        self.drain_tick_into(t, &mut out);
        out
    }

    /// [`TimerWheel::drain_tick`], appending to `out` so a per-tick
    /// caller can keep one buffer's capacity.
    pub fn drain_tick_into(&mut self, t: u64, out: &mut Vec<T>) {
        while self.now <= t {
            let base = self.now & !(SLOTS - 1);
            let cursor_bit = (self.now - base) as u32;
            let pending = self.levels[0].occupied & ((!0u64) << cursor_bit);
            let next_occupied = (pending != 0).then(|| base + u64::from(pending.trailing_zeros()));
            match next_occupied {
                Some(due) if due <= t => {
                    let slot = (due - base) as usize;
                    self.levels[0].occupied &= !(1 << slot);
                    let mut entries = std::mem::take(&mut self.levels[0].slots[slot]);
                    entries.sort_unstable_by_key(|e| e.seq);
                    self.len -= entries.len();
                    out.extend(entries.into_iter().map(|e| e.item));
                    self.now = due;
                    self.bump_to(due + 1);
                }
                _ => {
                    // Nothing more due inside this level-0 window.
                    let window_last = base + (SLOTS - 1);
                    if window_last > t {
                        // `t + 1 ≤ window_last`: same window, no cascade.
                        self.now = t + 1;
                    } else {
                        self.bump_to(window_last + 1);
                    }
                }
            }
        }
    }

    /// Earliest scheduled due tick, if any. `drain_tick(next_due())`
    /// fast-forwards an idle wheel without walking empty ticks one by one.
    pub fn next_due(&self) -> Option<u64> {
        let base = self.now & !(SLOTS - 1);
        let cursor_bit = (self.now - base) as u32;
        let pending = self.levels[0].occupied & ((!0u64) << cursor_bit);
        if pending != 0 {
            return Some(base + u64::from(pending.trailing_zeros()));
        }
        // Higher levels: slot index is monotone in due within the open
        // window, and level `l` entries are all earlier than level `l+1`
        // entries, so the first occupied slot of the first occupied level
        // holds the minimum.
        for level in &self.levels[1..] {
            if level.occupied != 0 {
                let slot = level.occupied.trailing_zeros() as usize;
                return level.slots[slot].iter().map(|e| e.due).min();
            }
        }
        self.overflow.iter().map(|e| e.due).min()
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
    fn cascades_across_level_boundaries() {
        let mut w = TimerWheel::new();
        // One item per level, plus overflow.
        w.schedule(7, 7u64);
        w.schedule(100, 100);
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
                (100, 100),
                (5_000, 5_000),
                (300_000, 300_000),
                (20_000_000, 20_000_000)
            ]
        );
    }

    #[test]
    fn fifo_survives_cascading() {
        let mut w = TimerWheel::new();
        // Same due tick reached via different initial levels: one filed
        // while the tick was in a level-1 window, one filed after the
        // cursor entered its level-0 window.
        w.schedule(130, "first");
        assert_eq!(w.drain_tick(127).len(), 0);
        w.schedule(130, "second");
        assert_eq!(w.drain_tick(130), vec!["first", "second"]);
    }
}
