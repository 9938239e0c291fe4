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
//! * a sealed chunk with fewer than half its ids live is *thinned*: it
//!   keeps a slot for each of those alone, and lays them out afresh
//!   whenever fewer than half of its slots are live, so the slots held
//!   are at most twice the live sessions plus the chunk being issued, in
//!   whatever order sessions finish;
//! * an id below the issue cursor whose slot is vacant is, by
//!   construction, a retired session — no tombstone is kept for it — and
//!   an id at or past the cursor was never issued
//!   ([`SessionStore::was_issued`] tells the two apart).
//!
//! What stays behind a retired chunk is its directory entry, one per
//! [`CHUNK`] ids between the oldest live session and the cursor: a viewer
//! paused for ever pins its own slot and directory entry, not the window
//! behind it. A look-up is the directory entry, then the slot — one
//! dependent load more than indexing a flat `Vec` (in a thinned chunk,
//! the slot's place is a count of the offsets with a slot below it).
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

/// A directory entry: the slots of [`CHUNK`] consecutive ids.
enum Chunk<T> {
    /// Sealed, emptied and given back.
    Freed,
    /// A slot per id: the chunk under the cursor, or a sealed one with
    /// at least half its ids live.
    Full(Box<Full<T>>),
    /// A sealed chunk with fewer than half its ids live: a slot for each
    /// offset `placed` marks, in id order, so a session's slot is the
    /// placed offsets below its own. Those were the live ones when the
    /// slots were laid out, and are again whenever `live` falls below
    /// half of them: the slots are at most twice the live sessions.
    Thin {
        placed: u64,
        live: u64,
        sessions: Box<[Option<T>]>,
    },
}

struct Full<T> {
    /// The chunk's slots in id order; the ones at and past the issue
    /// cursor are vacant.
    slots: [Option<T>; CHUNK],
    /// Occupied slots.
    live: u32,
}

/// Where offset `at`'s slot sits in a thinned chunk, if it has one.
#[inline]
fn rank(placed: u64, at: u32) -> Option<usize> {
    (placed >> at & 1 == 1).then(|| (placed & !(u64::MAX << at)).count_ones() as usize)
}

/// The slots of a thinned chunk's `live` sessions, taken out of `slots`,
/// in one allocation of exactly that many.
fn lay_out<T>(slots: &mut [Option<T>], live: usize) -> Box<[Option<T>]> {
    let mut sessions = Vec::with_capacity(live);
    sessions.extend(
        slots
            .iter_mut()
            .filter(|slot| slot.is_some())
            .map(Option::take),
    );
    sessions.into_boxed_slice()
}

impl<T> Chunk<T> {
    /// Slots held in memory.
    fn slots(&self) -> usize {
        match self {
            Chunk::Freed => 0,
            Chunk::Full(_) => CHUNK,
            Chunk::Thin { sessions, .. } => sessions.len(),
        }
    }

    /// The session at offset `at`.
    #[inline]
    fn get(&self, at: u32) -> Option<&T> {
        match self {
            Chunk::Full(full) => full.slots[at as usize].as_ref(),
            Chunk::Thin {
                placed, sessions, ..
            } => sessions[rank(*placed, at)?].as_ref(),
            Chunk::Freed => None,
        }
    }

    /// Mutable twin of [`Chunk::get`].
    #[inline]
    fn get_mut(&mut self, at: u32) -> Option<&mut T> {
        match self {
            Chunk::Full(full) => full.slots[at as usize].as_mut(),
            Chunk::Thin {
                placed, sessions, ..
            } => sessions[rank(*placed, at)?].as_mut(),
            Chunk::Freed => None,
        }
    }

    /// Take the session at offset `at` out.
    fn take(&mut self, at: u32) -> Option<T> {
        match self {
            Chunk::Full(full) => {
                let value = full.slots[at as usize].take()?;
                debug_assert!(full.live > 0);
                full.live -= 1;
                Some(value)
            }
            Chunk::Thin {
                placed,
                live,
                sessions,
            } => {
                let value = sessions[rank(*placed, at)?].take()?;
                *live &= !(1 << at);
                if 2 * live.count_ones() < sessions.len() as u32 {
                    *sessions = lay_out(sessions, live.count_ones() as usize);
                    *placed = *live;
                }
                Some(value)
            }
            Chunk::Freed => None,
        }
    }

    /// What a sealed chunk becomes: freed once empty, thinned below half.
    fn settle(&mut self) {
        match self {
            Chunk::Full(full) if full.live == 0 => *self = Chunk::Freed,
            Chunk::Thin { live: 0, .. } => *self = Chunk::Freed,
            Chunk::Full(full) if (full.live as usize) < CHUNK / 2 => {
                let live = (0..STRIDE)
                    .filter(|&at| full.slots[at as usize].is_some())
                    .fold(0, |live, at| live | 1 << at);
                *self = Chunk::Thin {
                    placed: live,
                    live,
                    sessions: lay_out(&mut full.slots, full.live as usize),
                };
            }
            _ => {}
        }
    }

    /// The sessions in it, by offset, in id order.
    fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        let (placed, slots): (u64, &[Option<T>]) = match self {
            Chunk::Full(full) => (u64::MAX, &full.slots),
            Chunk::Thin {
                placed, sessions, ..
            } => (*placed, sessions),
            Chunk::Freed => (0, &[]),
        };
        let slots = offsets(placed).zip(slots);
        slots.filter_map(|(at, slot)| Some((at, slot.as_ref()?)))
    }

    /// Mutable twin of [`Chunk::iter`].
    fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut T)> {
        let (placed, slots): (u64, &mut [Option<T>]) = match self {
            Chunk::Full(full) => (u64::MAX, &mut full.slots),
            Chunk::Thin {
                placed, sessions, ..
            } => (*placed, sessions),
            Chunk::Freed => (0, &mut []),
        };
        let slots = offsets(placed).zip(slots);
        slots.filter_map(|(at, slot)| Some((at, slot.as_mut()?)))
    }
}

/// The offsets a mask marks, ascending.
fn offsets(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let at = (mask != 0).then(|| mask.trailing_zeros())?;
        mask &= !(1 << at);
        Some(at)
    })
}

/// Store of live sessions keyed by monotone, never-reused `u32` ids. See
/// the module docs.
pub struct SessionStore<T> {
    /// Directory of the chunks from `first_chunk` up to the one under the
    /// cursor.
    chunks: VecDeque<Chunk<T>>,
    /// Chunk number of `chunks[0]`.
    first_chunk: u32,
    /// Issue cursor: the next id [`insert`](Self::insert) hands out.
    next: u32,
    /// Ids handed out so far.
    issued: u64,
    /// Occupied slots.
    live: usize,
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

    /// Slots currently held in memory, whatever [`issued`](Self::issued)
    /// says: [`CHUNK`] for the chunk under the issue cursor while it is
    /// not full and for each sealed chunk with at least half its ids live,
    /// and one per live session in each other chunk — at most
    /// `2 × len + CHUNK`. A few laggards scattered over the ids hold a
    /// slot each, not a chunk. Walks the directory.
    pub fn resident_slots(&self) -> usize {
        self.chunks.iter().map(Chunk::slots).sum()
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
            self.chunks.push_back(Chunk::Full(Box::new(Full {
                slots: std::array::from_fn(|_| None),
                live: 0,
            })));
        }
        if let Some(Chunk::Full(chunk)) = self.chunks.back_mut() {
            chunk.slots[(id % STRIDE) as usize] = Some(value);
            chunk.live += 1;
        }
        self.next += 1;
        self.issued += 1;
        self.live += 1;
        // The chunk's last id seals it.
        if self.next.is_multiple_of(STRIDE) {
            if let Some(chunk) = self.chunks.back_mut() {
                chunk.settle();
            }
        }
        Some(id)
    }

    /// Remove and return session `id`, thinning its chunk once that is
    /// sealed and under half live and giving it back once it is sealed and
    /// empty. `None` for a retired or never-issued id.
    pub fn retire(&mut self, id: u32) -> Option<T> {
        let k = self.directory_index(id)?;
        let chunk = self.chunks.get_mut(k)?;
        let value = chunk.take(id % STRIDE)?;
        debug_assert!(self.live > 0);
        self.live -= 1;
        // Sealed: the cursor has moved on to a later chunk.
        if id / STRIDE < self.next / STRIDE {
            chunk.settle();
            while let Some(Chunk::Freed) = self.chunks.front() {
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
        self.chunks.get(self.directory_index(id)?)?.get(id % STRIDE)
    }

    /// Mutable access; `None` for a retired or never-issued id.
    #[inline]
    pub fn get_mut(&mut self, id: u32) -> Option<&mut T> {
        let k = self.directory_index(id)?;
        self.chunks.get_mut(k)?.get_mut(id % STRIDE)
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
            .flat_map(|(chunk, number)| chunk.iter().map(move |(at, v)| (number * STRIDE + at, v)))
    }

    /// Mutable twin of [`SessionStore::iter`].
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut T)> {
        self.chunks
            .iter_mut()
            .zip(self.first_chunk..)
            .flat_map(|(chunk, number)| {
                chunk
                    .iter_mut()
                    .map(move |(at, v)| (number * STRIDE + at, v))
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
        // Everyone but session 0 leaves: chunk 0 stays for it, thinned to
        // its one slot, the sealed chunks behind it go.
        for id in 1..3 * STRIDE {
            assert_eq!(s.retire(id), Some(id));
        }
        assert_eq!((s.len(), s.resident_slots()), (1, 1));
        assert_eq!(s.get(0), Some(&0));
        // The directory has not moved past the pinned chunk; ids behind
        // it still resolve "retired", and new ones still land.
        let id = s.insert(999).unwrap();
        assert_eq!(id, 3 * STRIDE);
        assert_eq!(s.resident_slots(), 1 + CHUNK);
        assert_eq!(s.retire(0), Some(0));
        assert_eq!(s.resident_slots(), CHUNK, "only the open chunk is left");
        assert_eq!(s.get(id), Some(&999));
        assert!(s.get(5).is_none() && s.was_issued(5));
    }

    #[test]
    fn a_sealed_chunk_under_half_live_keeps_its_live_sessions_only() {
        let mut s = SessionStore::new();
        for v in 0..STRIDE {
            s.insert(v).unwrap();
        }
        // Sealed with every id live: the whole chunk, until half leave.
        let half = CHUNK / 2;
        for id in (0..STRIDE).step_by(2).take(half - 1) {
            s.retire(id);
        }
        assert_eq!((s.len(), s.resident_slots()), (half + 1, CHUNK));
        s.retire(62);
        assert_eq!((s.len(), s.resident_slots()), (half, CHUNK));
        s.retire(63);
        assert_eq!((s.len(), s.resident_slots()), (half - 1, half - 1));
        // Thinned: look-ups, writes, the walk and retirements still land.
        assert_eq!((s.get(1), s.get(2), s.get(61)), (Some(&1), None, Some(&61)));
        *s.get_mut(61).unwrap() += 100;
        let walked: Vec<(u32, u32)> = s.iter().map(|(id, v)| (id, *v)).collect();
        let odd = (1..62)
            .step_by(2)
            .map(|id| (id, id + if id == 61 { 100 } else { 0 }));
        assert_eq!(walked, odd.collect::<Vec<_>>());
        assert_eq!((s.retire(1), s.retire(1)), (Some(1), None));
        // A retired session's slot stays until fewer than half the slots
        // are live; then the live ones are laid out afresh.
        assert_eq!((s.len(), s.resident_slots()), (half - 2, half - 1));
        for id in (3..32).step_by(2) {
            assert_eq!(s.retire(id), Some(id));
        }
        assert_eq!((s.len(), s.resident_slots()), (15, 15));
        let walked: Vec<u32> = s.iter_mut().map(|(id, _)| id).collect();
        assert_eq!(walked, (33..62).step_by(2).collect::<Vec<_>>());
        assert_eq!(
            (s.get(31), s.get(33), s.get(61)),
            (None, Some(&33), Some(&161))
        );
        // A chunk already under half live when its last id is issued is
        // thinned then.
        let mut s = SessionStore::new();
        for v in 0..STRIDE {
            let id = s.insert(v).unwrap();
            if id < STRIDE - 1 && id % 4 != 0 {
                s.retire(id);
            }
        }
        assert_eq!((s.len(), s.resident_slots()), (17, 17));
        assert_eq!(s.insert(0), Some(STRIDE));
        assert_eq!(s.resident_slots(), 17 + CHUNK);
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
