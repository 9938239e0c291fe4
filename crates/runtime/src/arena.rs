//! Generational slab arena for session/stream/viewer storage.
//!
//! A population kept in `Vec<Option<T>>` behind raw `usize` indices has
//! two scale problems at a million sessions: freed slots are either never
//! reused (unbounded growth) or reused with *dangling* indices — a stale
//! index silently resolves to whatever took the slot. [`Arena`] keeps the
//! dense `Vec` layout and the deterministic slot order but tags every
//! slot with a generation: an [`ArenaId`] captured before a
//! remove/reinsert can never alias the new occupant, it just stops
//! resolving.
//!
//! # Determinism contract
//!
//! [`Arena::insert`] reuses the **lowest-index** vacant slot (found via a
//! free-slot bitmap) and appends only when the arena is full — exactly
//! the order a linear `iter().find(|s| s.is_none())` scan produces. Code
//! that tiebreaks on slot index (the server's partition-eviction victim
//! order, the restart-enrollment scan) therefore behaves bitwise
//! identically on top of the arena.

/// Generational handle into an [`Arena`]: a slot index plus the slot's
/// generation at insert time. Stale handles (the slot was removed, and
/// possibly reused, since) safely resolve to `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArenaId {
    index: u32,
    generation: u32,
}

impl ArenaId {
    /// Slot index (stable for the lifetime of the occupant).
    pub fn index(self) -> usize {
        self.index as usize
    }

    /// Generation of the slot when this id was issued.
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// Assemble an id from raw parts. Intended for tests and diagnostics
    /// (e.g. probing an arena with an id it never issued); a fabricated
    /// id resolves only if a live slot happens to match both fields.
    pub fn from_parts(index: u32, generation: u32) -> Self {
        Self { index, generation }
    }
}

struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// Slab with generational ids, lowest-index-first slot reuse, and
/// index-ordered iteration. See the module docs for the determinism
/// contract.
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    /// Free-slot bitmap, one bit per slot, bit set ⇔ vacant. Scanned
    /// lowest-word-first on insert so reuse is lowest-index-first.
    free: Vec<u64>,
    /// Vacant-slot count; zero lets insert append without scanning.
    vacant: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            vacant: 0,
        }
    }

    /// An empty arena with room for `capacity` occupants before
    /// reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity.div_ceil(64)),
            vacant: 0,
        }
    }

    /// Live occupants.
    pub fn len(&self) -> usize {
        debug_assert!(self.vacant <= self.slots.len());
        self.slots.len() - self.vacant
    }

    /// True when no occupant is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever allocated (live + vacant). Index-order walks
    /// iterate `0..slot_count()` and skip vacants via [`Arena::at`].
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Insert `value` into the lowest-index vacant slot (appending a new
    /// slot only when none is vacant) and return its generational id.
    pub fn insert(&mut self, value: T) -> ArenaId {
        if self.vacant > 0 {
            for (w, word) in self.free.iter_mut().enumerate() {
                if *word == 0 {
                    continue;
                }
                let bit = word.trailing_zeros();
                *word &= !(1u64 << bit);
                self.vacant -= 1;
                let index = w * 64 + bit as usize;
                let slot = &mut self.slots[index];
                debug_assert!(slot.value.is_none());
                slot.value = Some(value);
                return ArenaId {
                    index: index as u32,
                    generation: slot.generation,
                };
            }
        }
        let index = self.slots.len();
        if index / 64 == self.free.len() {
            self.free.push(0);
        }
        self.slots.push(Slot {
            generation: 0,
            value: Some(value),
        });
        ArenaId {
            index: index as u32,
            generation: 0,
        }
    }

    /// Remove and return the occupant `id` refers to. The slot's
    /// generation advances, so `id` (and any copy of it) stops resolving;
    /// the slot becomes reusable. Stale or unknown ids return `None`.
    pub fn remove(&mut self, id: ArenaId) -> Option<T> {
        let slot = self.slots.get_mut(id.index())?;
        if slot.generation != id.generation {
            return None;
        }
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free[id.index() / 64] |= 1u64 << (id.index() % 64);
        self.vacant += 1;
        Some(value)
    }

    /// Shared access through a generational id; `None` if stale/unknown.
    pub fn get(&self, id: ArenaId) -> Option<&T> {
        self.slots
            .get(id.index())
            .filter(|s| s.generation == id.generation)
            .and_then(|s| s.value.as_ref())
    }

    /// Mutable access through a generational id; `None` if stale/unknown.
    pub fn get_mut(&mut self, id: ArenaId) -> Option<&mut T> {
        self.slots
            .get_mut(id.index())
            .filter(|s| s.generation == id.generation)
            .and_then(|s| s.value.as_mut())
    }

    /// Does `id` refer to a live occupant?
    pub fn contains(&self, id: ArenaId) -> bool {
        self.get(id).is_some()
    }

    /// Shared access by raw slot index; `None` for vacant or
    /// out-of-range slots. The deterministic index-order walk primitive.
    pub fn at(&self, index: usize) -> Option<&T> {
        self.slots.get(index).and_then(|s| s.value.as_ref())
    }

    /// The current generational id of the occupant at `index`, if live.
    pub fn id_at(&self, index: usize) -> Option<ArenaId> {
        self.slots
            .get(index)
            .filter(|s| s.value.is_some())
            .map(|s| ArenaId {
                index: index as u32,
                generation: s.generation,
            })
    }

    /// The seam the drivers' accounting paths go through: shared access
    /// that treats a dead id as a broken invariant.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not resolve — callers assert the id was
    /// observed live earlier in the same call chain, so a miss means the
    /// liveness invariant is broken and continuing would corrupt
    /// accounting.
    pub fn live(&self, id: ArenaId) -> &T {
        // vod-lint: allow(no-panic) — the liveness seam: a dead id here means the
        // caller's slot-liveness invariant is broken; abort loudly rather than
        // corrupt accounting.
        self.get(id).expect("live arena id")
    }

    /// Mutable twin of [`Arena::live`], same invariant.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not resolve; see [`Arena::live`].
    pub fn live_mut(&mut self, id: ArenaId) -> &mut T {
        // vod-lint: allow(no-panic) — same slot-liveness invariant as `live`.
        self.get_mut(id).expect("live arena id")
    }

    /// Iterate live occupants in ascending slot order.
    pub fn iter(&self) -> impl Iterator<Item = (ArenaId, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.value.as_ref().map(|v| {
                (
                    ArenaId {
                        index: i as u32,
                        generation: s.generation,
                    },
                    v,
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_is_lowest_index_first() {
        let mut a = Arena::new();
        let ids: Vec<ArenaId> = (0..5).map(|v| a.insert(v)).collect();
        assert_eq!(a.remove(ids[3]), Some(3));
        assert_eq!(a.remove(ids[1]), Some(1));
        assert_eq!(a.len(), 3);
        let r1 = a.insert(10);
        let r2 = a.insert(11);
        assert_eq!((r1.index(), r2.index()), (1, 3), "lowest vacant first");
        let r3 = a.insert(12);
        assert_eq!(r3.index(), 5, "append once full");
        assert_eq!(a.slot_count(), 6);
    }

    #[test]
    fn stale_ids_never_resolve() {
        let mut a = Arena::new();
        let id = a.insert("old");
        assert_eq!(a.remove(id), Some("old"));
        assert_eq!(a.get(id), None);
        assert_eq!(a.remove(id), None, "double remove is a no-op");
        let new_id = a.insert("new");
        assert_eq!(new_id.index(), id.index(), "slot reused");
        assert_ne!(new_id, id, "generation advanced");
        assert_eq!(a.get(id), None, "stale id cannot alias the new occupant");
        assert_eq!(a.get(new_id), Some(&"new"));
    }

    #[test]
    fn index_walk_skips_vacants() {
        let mut a = Arena::new();
        let ids: Vec<ArenaId> = (0..4).map(|v| a.insert(v)).collect();
        a.remove(ids[2]);
        let walked: Vec<i32> = (0..a.slot_count())
            .filter_map(|i| a.at(i).copied())
            .collect();
        assert_eq!(walked, vec![0, 1, 3]);
        assert_eq!(a.id_at(2), None);
        assert_eq!(a.id_at(1), Some(ids[1]));
        let all: Vec<i32> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(all, vec![0, 1, 3]);
    }
}
