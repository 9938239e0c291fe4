//! Calendar ring of due viewer interactions.
//!
//! The in-tree harness `drive` rescans every live session every tick; at
//! this benchmark's sizes (tens of thousands of live sessions) that scan
//! would make the load generator, not the server, the bottleneck. The
//! ring files each session under `due % SLOTS`, so a tick touches only
//! the sessions due now plus the few parked a whole lap (or more) ahead.

/// Slots in the ring. Interaction gaps are exponential with mean 30
/// ticks, so a gap past one lap is a 1-in-5000 event.
pub const SLOTS: usize = 256;

/// Items filed by the tick they are due at.
pub struct CalendarRing<T> {
    slots: Vec<Vec<(u64, T)>>,
}

impl<T: Copy> CalendarRing<T> {
    pub fn new() -> Self {
        Self {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }

    /// File `item` to fire at tick `due`. `due` must be later than the
    /// last drained tick, or the item waits a full lap.
    pub fn schedule(&mut self, due: u64, item: T) {
        self.slots[(due % SLOTS as u64) as usize].push((due, item));
    }

    /// Move every item due at `now` into `out` (in filing order); items
    /// sharing the slot from later laps stay. Call once per tick, with
    /// consecutive ticks.
    pub fn drain_due(&mut self, now: u64, out: &mut Vec<T>) {
        let slot = &mut self.slots[(now % SLOTS as u64) as usize];
        let mut kept = 0;
        for i in 0..slot.len() {
            let (due, item) = slot[i];
            if due <= now {
                out.push(item);
            } else {
                slot[kept] = (due, item);
                kept += 1;
            }
        }
        slot.truncate(kept);
    }

    /// Items still filed.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every interaction fires exactly once, on the tick it was due:
    /// never early, late or twice — including gaps past one lap.
    #[test]
    fn fires_exactly_once_on_the_due_tick() {
        let mut ring = CalendarRing::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let horizon = 2_000u64;
        let mut due_of: Vec<u64> = Vec::new();
        let mut fired: Vec<u32> = Vec::new();
        let mut out = Vec::new();
        for now in 0..horizon {
            for _ in 0..5 {
                // Gaps from 1 tick to almost three laps.
                let due = now + 1 + next() % (3 * SLOTS as u64 - 10);
                ring.schedule(due, due_of.len());
                due_of.push(due);
                fired.push(0);
            }
            out.clear();
            ring.drain_due(now, &mut out);
            for &id in &out {
                assert_eq!(due_of[id], now, "item {id} fired off its due tick");
                fired[id] += 1;
            }
        }
        for (id, &due) in due_of.iter().enumerate() {
            let want = u32::from(due < horizon);
            assert_eq!(fired[id], want, "item {id} due at {due}");
        }
        let pending = due_of.iter().filter(|&&d| d >= horizon).count();
        assert_eq!(ring.len(), pending);
    }

    #[test]
    fn same_tick_items_fire_in_filing_order() {
        let mut ring = CalendarRing::new();
        ring.schedule(7, 'a');
        ring.schedule(7 + SLOTS as u64, 'x');
        ring.schedule(7, 'b');
        let mut out = Vec::new();
        ring.drain_due(7, &mut out);
        assert_eq!(out, vec!['a', 'b']);
        out.clear();
        ring.drain_due(7 + SLOTS as u64, &mut out);
        assert_eq!(out, vec!['x']);
    }
}
