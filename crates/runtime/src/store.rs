//! Order-preserving session store: monotone ids over fixed-size chunks.
//!
//! A delivery server's sessions have one lifetime rule — admitted, served,
//! finished — and every ordering argument in the drivers leans on the
//! admission order: the tick's ascending walk, the wheel's stale-entry
//! accounting, fault-victim order and the unicast FIFO all tiebreak on the
//! session index. [`Arena`](crate::Arena) keeps that order only while no
//! slot is ever reused, which is why the servers never gave a finished
//! session's slot back. [`SessionStore`] keeps the order *and* gives the
//! memory back:
//!
//! * ids are issued in insertion order, `0, 1, 2, …`, and **never
//!   reused** — a walk over the store is a walk in admission order, and an
//!   id held past its session's end can never alias a later one;
//! * slots live in boxed chunks of [`CHUNK`] consecutive ids; a chunk is
//!   freed the moment it is *sealed* (every id in it issued) and *empty*
//!   (every one retired), and no growing `Vec` of slots is ever
//!   reallocated;
//! * an id below the issue cursor whose slot is vacant is, by
//!   construction, a retired session — no tombstone is kept for it — and
//!   an id at or past the cursor was never issued
//!   ([`SessionStore::was_issued`] tells the two apart).
//!
//! What stays behind a retired chunk is its directory entry, one pointer
//! per [`CHUNK`] ids between the oldest live session and the cursor: a
//! viewer paused for ever pins its own chunk, not the window behind it.
//! A look-up is the directory entry, then the slot — one dependent load
//! more than indexing a flat `Vec`.
//!
//! A driver that keeps ids beside the store (a FIFO, an active walk, a
//! ledger) audits them with [`SessionStore::tally`]: how often the list
//! names each id, reconciled with the live sessions in one walk and no
//! sort.

use std::collections::VecDeque;

/// Ids per chunk. A chunk is the unit memory is taken and given back in.
pub const CHUNK: usize = 64;

/// [`CHUNK`] as an id stride.
const STRIDE: u32 = CHUNK as u32;

struct Chunk<T> {
    /// The chunk's slots in id order; the ones at and past the issue
    /// cursor are vacant.
    slots: [Option<T>; CHUNK],
    /// Occupied slots.
    live: u32,
}

/// Store of live sessions keyed by monotone, never-reused `u32` ids. See
/// the module docs.
pub struct SessionStore<T> {
    /// Directory of the chunks from `first_chunk` up to the one under the
    /// cursor; `None`: sealed, emptied and freed.
    chunks: VecDeque<Option<Box<Chunk<T>>>>,
    /// Chunk number of `chunks[0]`.
    first_chunk: u32,
    /// Issue cursor: the next id [`insert`](Self::insert) hands out.
    next: u32,
    /// Ids handed out so far.
    issued: u64,
    /// Occupied slots.
    live: usize,
    /// Chunks currently allocated.
    resident: usize,
}

impl<T> Default for SessionStore<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SessionStore<T> {
    /// An empty store whose first id is 0.
    pub fn new() -> Self {
        Self::starting_at(0)
    }

    /// An empty store whose first id is `first` (ids below it read as
    /// retired). For tests of the far end of the id space: the cursor is
    /// checked, and [`insert`](Self::insert) refuses once it is spent.
    #[doc(hidden)]
    pub fn starting_at(first: u32) -> Self {
        Self {
            chunks: VecDeque::new(),
            first_chunk: first / STRIDE,
            next: first,
            issued: 0,
            live: 0,
            resident: 0,
        }
    }

    /// Live sessions.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no session is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Sessions ever inserted (live + retired).
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Slots currently held in memory: resident chunks × [`CHUNK`] —
    /// exactly one chunk for each that holds a live id, plus the chunk
    /// under the issue cursor while it is not full, whatever
    /// [`issued`](Self::issued) says. A few laggards scattered over the
    /// ids pin a chunk each.
    pub fn resident_slots(&self) -> usize {
        self.resident * CHUNK
    }

    /// Was `id` ever handed out? With [`get`](Self::get) returning `None`
    /// this is the retired / never-issued distinction.
    pub fn was_issued(&self, id: u32) -> bool {
        id < self.next
    }

    /// How often `ids` names each id: an exact count per id of the span
    /// from the directory's first chunk up to the issue cursor — every
    /// live id lies inside it, none outside is live — plus the entries
    /// outside it. An audit reconciles a side list of ids (a FIFO, an
    /// active walk, a ledger) with the live sessions through it: its walk
    /// over the store [`take`](IdTally::take)s each live session's count
    /// once, and what is left are the [`strays`](IdTally::strays).
    pub fn tally<'a>(&self, ids: impl IntoIterator<Item = &'a u32>) -> IdTally {
        let base = self.first_chunk * STRIDE;
        let mut tally = IdTally {
            base,
            counts: vec![0; (base..self.next).len()],
            inside: 0,
            taken: 0,
            outside: Vec::new(),
        };
        for &id in ids {
            match tally.count_of(id) {
                Some(count) => {
                    *count += 1;
                    tally.inside += 1;
                }
                None => tally.outside.push(id),
            }
        }
        tally
    }

    /// Is the id space spent? [`insert`](Self::insert) refuses from here
    /// on; admission paths that take resources first check this first.
    pub fn is_full(&self) -> bool {
        self.next == u32::MAX
    }

    /// Store `value` under the next id. `None` (and `value` dropped) once
    /// the id space is spent — ids only grow, so this is the one counter a
    /// long-running server can wrap, and it does not.
    pub fn insert(&mut self, value: T) -> Option<u32> {
        if self.is_full() {
            return None;
        }
        let id = self.next;
        // The cursor's chunk is the directory's last entry, or one past it
        // when the cursor has just crossed into a new chunk.
        if self.directory_index(id) == Some(self.chunks.len()) {
            self.chunks.push_back(Some(Box::new(Chunk {
                slots: std::array::from_fn(|_| None),
                live: 0,
            })));
            self.resident += 1;
        }
        if let Some(Some(chunk)) = self.chunks.back_mut() {
            chunk.slots[(id % STRIDE) as usize] = Some(value);
            chunk.live += 1;
        }
        self.next += 1;
        self.issued += 1;
        self.live += 1;
        Some(id)
    }

    /// Remove and return session `id`, giving its chunk back once that is
    /// sealed and empty. `None` for a retired or never-issued id.
    pub fn retire(&mut self, id: u32) -> Option<T> {
        let k = self.directory_index(id)?;
        let chunk = self.chunks.get_mut(k)?.as_mut()?;
        let value = chunk.slots[(id % STRIDE) as usize].take()?;
        debug_assert!(chunk.live > 0 && self.live > 0 && self.resident > 0);
        chunk.live -= 1;
        self.live -= 1;
        // Sealed: the cursor has moved on to a later chunk.
        if chunk.live == 0 && id / STRIDE < self.next / STRIDE {
            self.chunks[k] = None;
            self.resident -= 1;
            while let Some(None) = self.chunks.front() {
                self.chunks.pop_front();
                self.first_chunk += 1;
            }
        }
        Some(value)
    }

    /// Position of `id`'s chunk in the directory, if not yet dropped off
    /// its front.
    #[inline]
    fn directory_index(&self, id: u32) -> Option<usize> {
        (id / STRIDE)
            .checked_sub(self.first_chunk)
            .map(|k| k as usize)
    }

    /// Shared access; `None` for a retired or never-issued id.
    #[inline]
    pub fn get(&self, id: u32) -> Option<&T> {
        let chunk = self.chunks.get(self.directory_index(id)?)?.as_ref()?;
        chunk.slots[(id % STRIDE) as usize].as_ref()
    }

    /// Mutable access; `None` for a retired or never-issued id.
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        let k = self.directory_index(id)?;
        let chunk = self.chunks.get_mut(k)?.as_mut()?;
        chunk.slots[(id % STRIDE) as usize].as_mut()
    }

    /// The seam the drivers' accounting paths go through: shared access
    /// that treats a missing session as a broken invariant.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live — callers observed it live earlier in
    /// the same call chain, so a miss means the liveness invariant is
    /// broken and continuing would corrupt accounting.
    #[inline]
    pub fn live(&self, id: u32) -> &T {
        // vod-lint: allow(no-panic) — the liveness seam: a retired id here means
        // the caller's liveness invariant is broken; abort loudly rather than
        // corrupt accounting.
        self.get(id).expect("live session id")
    }

    /// Mutable twin of [`SessionStore::live`], same invariant.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not live; see [`SessionStore::live`].
    #[inline]
    pub fn live_mut(&mut self, id: u32) -> &mut T {
        // vod-lint: allow(no-panic) — same liveness invariant as `live`.
        self.get_mut(id).expect("live session id")
    }

    /// The live sessions in id (admission) order. Costs the resident
    /// slots plus one directory entry per freed chunk in the window —
    /// nothing per session that ever passed through.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.chunks
            .iter()
            .zip(self.first_chunk..)
            .filter_map(|(chunk, number)| Some((chunk.as_ref()?, number)))
            .flat_map(|(chunk, number)| {
                chunk
                    .slots
                    .iter()
                    .zip(0..STRIDE)
                    .filter_map(move |(slot, at)| Some((number * STRIDE + at, slot.as_ref()?)))
            })
    }

    /// Mutable twin of [`SessionStore::iter`].
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut T)> {
        self.chunks
            .iter_mut()
            .zip(self.first_chunk..)
            .filter_map(|(chunk, number)| Some((chunk.as_mut()?, number)))
            .flat_map(|(chunk, number)| {
                chunk
                    .slots
                    .iter_mut()
                    .zip(0..STRIDE)
                    .filter_map(move |(slot, at)| Some((number * STRIDE + at, slot.as_mut()?)))
            })
    }
}

/// How often a list of ids names each id, built by
/// [`SessionStore::tally`].
pub struct IdTally {
    /// First id of the counted span.
    base: u32,
    /// Entries per id of the span; [`take`](Self::take) clears one.
    counts: Vec<u32>,
    /// Entries inside the span, and those taken so far.
    inside: u64,
    taken: u64,
    /// Entries outside the span, which name nobody live.
    outside: Vec<u32>,
}

impl IdTally {
    /// `id`'s count, inside the span. An id below `base` wraps past every
    /// index the span has.
    #[inline]
    fn count_of(&mut self, id: u32) -> Option<&mut u32> {
        self.counts.get_mut(id.wrapping_sub(self.base) as usize)
    }

    /// How often the list names live session `id`, cleared as it is read.
    /// Take each live session once, before [`strays`](Self::strays).
    #[inline]
    pub fn take(&mut self, id: u32) -> u32 {
        let n = self.count_of(id).map_or(0, std::mem::take);
        self.taken += u64::from(n);
        n
    }

    /// The entries left untaken — once every live session's count was
    /// taken, those that name no live session — ascending, with how often
    /// the list names each. When every entry inside the span was taken
    /// (every healthy audit), the span is not scanned.
    pub fn strays(mut self) -> Vec<(u32, u32)> {
        self.outside.sort_unstable();
        let mut strays: Vec<(u32, u32)> = self
            .outside
            .chunk_by(|a, b| a == b)
            .map(|run| (run[0], run.len() as u32))
            .collect();
        if self.taken < self.inside {
            let left = self.counts.iter().zip(self.base..);
            strays.extend(left.filter(|&(&n, _)| n > 0).map(|(&n, id)| (id, n)));
            strays.sort_unstable();
        }
        strays
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotone_and_never_reused() {
        let mut s = SessionStore::new();
        let ids: Vec<u32> = (0..5).map(|v| s.insert(v).unwrap()).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
        assert_eq!(s.retire(1), Some(1));
        assert_eq!(s.retire(3), Some(3));
        assert_eq!(s.retire(3), None, "double retire is a no-op");
        assert_eq!(s.insert(10), Some(5), "a vacant slot is not refilled");
        assert_eq!((s.len(), s.issued()), (4, 6));
        let walked: Vec<(u32, i32)> = s.iter().map(|(id, v)| (id, *v)).collect();
        assert_eq!(walked, [(0, 0), (2, 2), (4, 4), (5, 10)]);
    }

    #[test]
    fn retired_and_unknown_ids_are_told_apart() {
        let mut s = SessionStore::new();
        let id = s.insert("a").unwrap();
        assert_eq!(s.retire(id), Some("a"));
        assert!(s.get(id).is_none() && s.was_issued(id), "retired");
        assert!(s.get(7).is_none() && !s.was_issued(7), "never issued");
        assert!(s.get(u32::MAX).is_none() && !s.was_issued(u32::MAX));
    }

    #[test]
    fn a_sealed_empty_chunk_is_freed_and_a_pinned_one_is_not() {
        let mut s = SessionStore::new();
        for v in 0..3 * STRIDE {
            s.insert(v).unwrap();
        }
        assert_eq!(s.resident_slots(), 3 * CHUNK);
        // Everyone but session 0 leaves: chunk 0 stays for it, the sealed
        // chunks behind it go.
        for id in 1..3 * STRIDE {
            assert_eq!(s.retire(id), Some(id));
        }
        assert_eq!((s.len(), s.resident_slots()), (1, CHUNK));
        assert_eq!(s.get(0), Some(&0));
        // The directory has not moved past the pinned chunk; ids behind
        // it still resolve "retired", and new ones still land.
        let id = s.insert(999).unwrap();
        assert_eq!(id, 3 * STRIDE);
        assert_eq!(s.resident_slots(), 2 * CHUNK);
        assert_eq!(s.retire(0), Some(0));
        assert_eq!(s.resident_slots(), CHUNK, "only the open chunk is left");
        assert_eq!(s.get(id), Some(&999));
        assert!(s.get(5).is_none() && s.was_issued(5));
    }

    #[test]
    fn the_open_chunk_survives_being_emptied() {
        let mut s = SessionStore::new();
        let a = s.insert(1).unwrap();
        s.retire(a);
        assert_eq!(s.resident_slots(), CHUNK);
        assert_eq!(s.insert(2), Some(1));
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    fn the_cursor_is_checked() {
        let mut s = SessionStore::starting_at(u32::MAX - 2);
        assert_eq!(s.insert('a'), Some(u32::MAX - 2));
        assert!(!s.is_full());
        assert_eq!(s.insert('b'), Some(u32::MAX - 1));
        assert!(s.is_full());
        assert_eq!(s.insert('c'), None, "refused, not wrapped");
        assert_eq!((s.len(), s.issued()), (2, 2));
        assert_eq!(s.get(u32::MAX - 1), Some(&'b'));
        assert!(s.was_issued(0) && s.get(0).is_none(), "below the start");
        let walked: Vec<u32> = s.iter_mut().map(|(id, _)| id).collect();
        assert_eq!(walked, [u32::MAX - 2, u32::MAX - 1]);
    }
}
