//! Simulated disk subsystem: a bounded pool of concurrent I/O streams.
//!
//! Stands in for the paper's SCSI disk farm (Example 2: a $700 2 GB disk
//! sustains 10 concurrent 4 Mb/s streams). Capacity is expressed directly
//! in *streams*, the unit every result in the paper uses. Reads require a
//! stream lease, so exceeding provisioned bandwidth is a programming
//! error surfaced at the call site rather than silent oversubscription.

use std::collections::VecDeque;

use crate::content::{generate_segment, MovieId, Segment};

/// Lease on one disk I/O stream.
#[derive(Debug, PartialEq, Eq)]
pub struct StreamLease {
    id: u64,
}

impl StreamLease {
    /// Opaque lease id (diagnostics only).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Is this lease among `revoked`, the ids one
    /// [`DiskSubsystem::fail_streams`] call returned? They come newest
    /// first — strictly descending — so membership is a binary search and
    /// a holder scan after a fault costs `O(holders · log revoked)`.
    pub fn revoked_in(&self, revoked: &[u64]) -> bool {
        revoked.binary_search_by(|r| self.id.cmp(r)).is_ok()
    }
}

/// The live lease ids. Ids are handed out in increasing order and old
/// leases die, so the set is a bitmap over the id sequence with the dead
/// ids at either end trimmed off: membership — asked once per read — is a
/// shift and a mask, and the newest live lease is the highest bit of the
/// last word.
#[derive(Debug, Default)]
struct LeaseSet {
    /// Id of bit 0 of `words[0]`; a multiple of 64.
    base: u64,
    /// The first and the last word are nonzero (or there is none).
    words: VecDeque<u64>,
    live: u32,
}

impl LeaseSet {
    /// Word index and bit mask of `id`; `None` below the trimmed prefix.
    fn locate(&self, id: u64) -> Option<(usize, u64)> {
        let offset = id.checked_sub(self.base)?;
        Some(((offset / 64) as usize, 1 << (offset % 64)))
    }

    fn contains(&self, id: u64) -> bool {
        self.locate(id)
            .is_some_and(|(w, bit)| self.words.get(w).is_some_and(|word| word & bit != 0))
    }

    /// Add `id`, newer than every id added before.
    fn insert(&mut self, id: u64) {
        if self.words.is_empty() {
            self.base = id - id % 64;
        }
        debug_assert!(id >= self.base, "lease ids only grow");
        let w = ((id - self.base) / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (id % 64);
        self.live += 1;
    }

    /// Remove `id`; `false` when it was not in the set.
    fn remove(&mut self, id: u64) -> bool {
        let Some((w, bit)) = self.locate(id) else {
            return false;
        };
        match self.words.get_mut(w) {
            Some(word) if *word & bit != 0 => *word &= !bit,
            _ => return false,
        }
        debug_assert!(self.live > 0, "a set bit the count does not know");
        self.live -= 1;
        self.trim();
        true
    }

    /// Remove and return the newest id.
    fn pop_last(&mut self) -> Option<u64> {
        let last = self.words.len().checked_sub(1)?;
        let bit = u64::from(63 - self.words[last].leading_zeros());
        let id = self.base + last as u64 * 64 + bit;
        self.words[last] &= !(1 << bit);
        debug_assert!(self.live > 0, "a set bit the count does not know");
        self.live -= 1;
        self.trim();
        Some(id)
    }

    fn trim(&mut self) {
        while self.words.back() == Some(&0) {
            self.words.pop_back();
        }
        while self.words.front() == Some(&0) {
            self.words.pop_front();
            self.base += 64;
        }
    }
}

/// The disk subsystem.
#[derive(Debug)]
pub struct DiskSubsystem {
    capacity: u32,
    /// Live lease ids.
    active: LeaseSet,
    /// Streams removed from service by injected faults. Conservation —
    /// `in_use + available + failed == capacity` — holds at all times.
    failed: u32,
    next_lease: u64,
    /// Known movie lengths for bounds checking, dense by `MovieId.0`
    /// (catalog ids are small and contiguous); `None` = unregistered.
    lengths: Vec<Option<u32>>,
}

impl DiskSubsystem {
    /// Provision `capacity` concurrent streams.
    pub fn new(capacity: u32) -> Self {
        Self {
            capacity,
            active: LeaseSet::default(),
            failed: 0,
            next_lease: 0,
            lengths: Vec::new(),
        }
    }

    /// Register a movie (its length bounds reads).
    pub fn register_movie(&mut self, movie: MovieId, length_minutes: u32) {
        let slot = movie.0 as usize;
        if slot >= self.lengths.len() {
            self.lengths.resize(slot + 1, None);
        }
        self.lengths[slot] = Some(length_minutes);
    }

    /// Provisioned stream capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Streams currently leased.
    pub fn in_use(&self) -> u32 {
        self.active.live
    }

    /// Streams currently free (capacity less in-use and failed).
    pub fn available(&self) -> u32 {
        self.capacity
            .saturating_sub(self.in_use())
            .saturating_sub(self.failed)
    }

    /// Streams removed from service by injected faults.
    pub fn failed(&self) -> u32 {
        self.failed
    }

    /// The pool's own conservation law, for the backends' audits: `None`
    /// while `in_use + free + failed == provisioned`.
    pub fn conservation_violation(&self) -> Option<String> {
        let (in_use, free, failed) = (self.in_use(), self.available(), self.failed);
        (in_use + free + failed != self.capacity).then(|| {
            format!(
                "disk conservation broken: in_use {in_use} + free {free} + failed {failed} != \
                 provisioned {}",
                self.capacity
            )
        })
    }

    /// Acquire a stream lease; `None` while every provisioned stream is
    /// leased or failed.
    pub fn acquire(&mut self) -> Option<StreamLease> {
        if self.in_use() + self.failed >= self.capacity {
            return None;
        }
        self.next_lease += 1;
        self.active.insert(self.next_lease);
        Some(StreamLease {
            id: self.next_lease,
        })
    }

    /// Remove `count` streams from service (fault injection). Free
    /// streams fail first; any shortfall revokes in-use leases, newest
    /// lease first (a deterministic victim order — the most recently
    /// granted stream is the cheapest to lose). Returns the revoked lease
    /// ids — strictly descending, which [`StreamLease::revoked_in`]
    /// searches on — so the server can degrade their holders; reads
    /// through a revoked lease return `None` from here on.
    /// At most `capacity − failed` streams can fail in total.
    pub fn fail_streams(&mut self, count: u32) -> Vec<u64> {
        // Same total-order discipline as `StreamReserve`: every difference
        // in the count/failed/free arithmetic clamps at zero instead of
        // relying on the caller's ordering to keep `from_free ≤ total`. A
        // wrapped difference here would revoke ~4 billion leases. The
        // `as usize` below widens u32 → usize (lossless on every
        // supported target), so the clamp is the only place precision
        // can change.
        let total = count.min(self.capacity.saturating_sub(self.failed));
        let from_free = total.min(self.available());
        self.failed += from_free;
        let to_revoke = total.saturating_sub(from_free) as usize;
        let mut revoked = Vec::with_capacity(to_revoke);
        for _ in 0..to_revoke {
            let Some(newest) = self.active.pop_last() else {
                break;
            };
            revoked.push(newest);
            self.failed += 1;
        }
        revoked
    }

    /// Return up to `count` previously failed streams to service; returns
    /// how many actually recovered.
    pub fn recover_streams(&mut self, count: u32) -> u32 {
        let recovered = count.min(self.failed);
        self.failed -= recovered;
        recovered
    }

    /// Release a lease. Releasing a lease [`fail_streams`] already
    /// revoked is a silent no-op — its stream moved from `in_use` to
    /// `failed` at revocation and must not be freed a second time. The
    /// batching server relies on this when it retires a stream whose
    /// lease a fault just took.
    ///
    /// [`fail_streams`]: DiskSubsystem::fail_streams
    pub fn release(&mut self, lease: StreamLease) {
        self.active.remove(lease.id);
    }

    /// Read one segment through a lease; `None` through a released or
    /// revoked lease and past the end of the movie.
    ///
    /// `#[inline]`: the lease read verifies what it reads, and with the
    /// generator in view the caller pays for neither chain (see
    /// [`verify_segment`](crate::verify_segment)); that should not hinge
    /// on which codegen unit this lands in.
    #[inline]
    pub fn read(&mut self, lease: &StreamLease, movie: MovieId, index: u32) -> Option<Segment> {
        if !self.active.contains(lease.id) {
            return None;
        }
        // A movie never registered has no segments: length 0.
        let slot = self.lengths.get(movie.0 as usize);
        let length = slot.copied().flatten().unwrap_or(0);
        if index >= length {
            return None;
        }
        Some(generate_segment(movie, index))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::content::verify_segment;

    impl DiskSubsystem {
        /// Hook for the backends' audit-sensitivity tests: miscount the
        /// failed streams so `in_use + free + failed` stops adding up.
        pub(crate) fn skew_failed(&mut self, by: u32) {
            self.failed += by;
        }
    }

    #[test]
    fn capacity_enforced() {
        let mut d = DiskSubsystem::new(2);
        let a = d.acquire().unwrap();
        let _b = d.acquire().unwrap();
        assert_eq!(d.acquire(), None);
        assert_eq!(d.in_use(), 2);
        d.release(a);
        assert_eq!(d.available(), 1);
        assert!(d.acquire().is_some());
    }

    #[test]
    fn reads_serve_canonical_bytes() {
        let mut d = DiskSubsystem::new(1);
        d.register_movie(MovieId(7), 120);
        let lease = d.acquire().unwrap();
        let seg = d.read(&lease, MovieId(7), 55).unwrap();
        assert!(verify_segment(&seg));
        assert_eq!(seg.movie, MovieId(7));
        assert_eq!(seg.index, 55);
    }

    #[test]
    fn bounds_checked() {
        let mut d = DiskSubsystem::new(1);
        d.register_movie(MovieId(7), 120);
        let lease = d.acquire().unwrap();
        assert_eq!(d.read(&lease, MovieId(7), 120), None);
    }

    #[test]
    fn unregistered_movie_serves_nothing() {
        let mut d = DiskSubsystem::new(1);
        d.register_movie(MovieId(7), 120);
        let lease = d.acquire().unwrap();
        // Beyond the dense table, and a hole inside it.
        for movie in [MovieId(8), MovieId(3)] {
            assert_eq!(d.read(&lease, movie, 0), None);
        }
    }

    #[test]
    fn fail_prefers_free_streams_then_revokes_newest() {
        let mut d = DiskSubsystem::new(4);
        d.register_movie(MovieId(1), 10);
        let a = d.acquire().unwrap();
        let b = d.acquire().unwrap();
        // 2 free: failing 3 consumes both free streams, then revokes the
        // newest lease (b).
        let revoked = d.fail_streams(3);
        assert_eq!(revoked, vec![b.id()]);
        assert_eq!(d.failed(), 3);
        assert_eq!(d.in_use(), 1);
        assert_eq!(d.available(), 0);
        assert_eq!(d.in_use() + d.available() + d.failed(), d.capacity());
        assert_eq!(d.acquire(), None);
        assert_eq!(
            d.read(&b, MovieId(1), 0),
            None,
            "revoked lease must be dead"
        );
        assert!(d.read(&a, MovieId(1), 0).is_some(), "survivor still serves");
        assert_eq!(d.recover_streams(2), 2);
        assert!(d.acquire().is_some());
        assert_eq!(d.recover_streams(5), 1, "recovery capped at failed");
        assert_eq!(d.failed(), 0);
    }

    #[test]
    fn fail_capped_at_remaining_capacity() {
        let mut d = DiskSubsystem::new(2);
        let a = d.acquire().unwrap();
        let revoked = d.fail_streams(10);
        assert_eq!(revoked, vec![a.id()], "everything fails, nothing twice");
        assert_eq!(d.failed(), 2);
        assert_eq!(d.fail_streams(1), Vec::<u64>::new());
        assert_eq!(d.failed(), 2);
        assert_eq!(d.in_use() + d.available() + d.failed(), d.capacity());
    }

    /// Regression for the revocation-count arithmetic: interleave fails,
    /// partial recoveries, releases, and re-fails (shrinking the pool
    /// while `failed > 0` and leases are outstanding) and require
    /// conservation plus exact revocation counts at every step. Before
    /// `total - from_free` became saturating this path depended on
    /// cross-expression ordering to avoid a wrap to ~4G revocations.
    #[test]
    fn fail_recover_interleavings_conserve_streams() {
        let mut d = DiskSubsystem::new(6);
        d.register_movie(MovieId(1), 10);
        let conserved = |d: &DiskSubsystem| d.in_use() + d.available() + d.failed() == d.capacity();
        let a = d.acquire().unwrap();
        let b = d.acquire().unwrap();
        let c = d.acquire().unwrap();
        // Fail 4 of 6: three free go first, then the newest lease (c).
        assert_eq!(d.fail_streams(4), vec![c.id()]);
        assert_eq!((d.in_use(), d.available(), d.failed()), (2, 0, 4));
        assert!(conserved(&d));
        // Shrink further while failed > 0 and nothing is free: both
        // remaining fails must come from revocations, newest first.
        assert_eq!(d.fail_streams(2), vec![b.id(), a.id()]);
        assert_eq!((d.in_use(), d.available(), d.failed()), (0, 0, 6));
        assert!(conserved(&d));
        // Everything is failed; more fails are no-ops, not wraps.
        assert_eq!(d.fail_streams(3), Vec::<u64>::new());
        assert!(conserved(&d));
        // Partial recovery, new lease, then a fail burst larger than the
        // free pool with failed still > 0.
        assert_eq!(d.recover_streams(3), 3);
        let e = d.acquire().unwrap();
        assert_eq!((d.in_use(), d.available(), d.failed()), (1, 2, 3));
        assert_eq!(d.fail_streams(3), vec![e.id()]);
        assert_eq!((d.in_use(), d.available(), d.failed()), (0, 0, 6));
        assert!(conserved(&d));
        assert_eq!(d.read(&e, MovieId(1), 0), None);
        // Full recovery restores the whole pool.
        assert_eq!(d.recover_streams(u32::MAX), 6);
        assert_eq!((d.in_use(), d.available(), d.failed()), (0, 6, 0));
        assert!(conserved(&d));
    }

    #[test]
    fn stale_lease_rejected() {
        let mut d = DiskSubsystem::new(2);
        d.register_movie(MovieId(1), 10);
        let a = d.acquire().unwrap();
        let id_copy = StreamLease { id: a.id() };
        d.release(a);
        assert_eq!(d.read(&id_copy, MovieId(1), 0), None);
    }

    /// `kill_stream` in the batching server releases the very lease
    /// `fail_streams` just revoked. That release must be a no-op: the
    /// stream already moved from `in_use` to `failed`, and counting it
    /// again would free a stream the pool no longer has.
    #[test]
    fn release_of_a_revoked_lease_is_a_no_op() {
        let mut d = DiskSubsystem::new(3);
        let a = d.acquire().unwrap();
        let b = d.acquire().unwrap();
        assert_eq!(d.fail_streams(2), vec![b.id()], "one free, then newest");
        let before = (d.in_use(), d.available(), d.failed());
        assert_eq!(before, (1, 0, 2));
        d.release(b);
        assert_eq!((d.in_use(), d.available(), d.failed()), before);
        d.release(a);
        assert_eq!((d.in_use(), d.available(), d.failed()), (0, 1, 2));
    }

    /// Dead ids fall off both ends of the bitmap, and an emptied set starts
    /// over at the next id — which may share a word with ids long gone.
    #[test]
    fn lease_set_trims_dead_ids_at_both_ends() {
        let mut set = LeaseSet::default();
        for id in 1..=200 {
            set.insert(id);
        }
        assert_eq!((set.base, set.words.len(), set.live), (0, 4, 200));
        for id in 1..=130 {
            assert!(set.remove(id));
        }
        assert!(!set.remove(7), "already gone");
        assert_eq!((set.base, set.words.len(), set.live), (128, 2, 70));
        assert!(!set.contains(130) && set.contains(131) && !set.contains(201));
        for id in (192..=200).rev() {
            assert_eq!(set.pop_last(), Some(id));
        }
        assert_eq!((set.base, set.words.len(), set.live), (128, 1, 61));
        while set.pop_last().is_some() {}
        assert_eq!((set.words.len(), set.live), (0, 0));
        set.insert(201);
        assert_eq!((set.base, set.words.len(), set.live), (192, 1, 1));
        assert!(set.contains(201) && !set.contains(200) && !set.contains(131));
        assert_eq!(set.pop_last(), Some(201));
        assert_eq!(set.pop_last(), None);
    }

    /// The plain-`Vec` lease table, kept as the reference model: same
    /// admission rule, newest-first victims.
    #[derive(Default)]
    struct VecModel {
        active: Vec<u64>,
        failed: u32,
        next: u64,
    }

    impl VecModel {
        fn fail(&mut self, capacity: u32, count: u32) -> Vec<u64> {
            let total = count.min(capacity - self.failed);
            let free = capacity - self.active.len() as u32 - self.failed;
            let from_free = total.min(free);
            self.failed += from_free;
            self.active.sort_unstable();
            let mut revoked = Vec::new();
            for _ in 0..total - from_free {
                revoked.extend(self.active.pop());
                self.failed += 1;
            }
            revoked
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Acquire,
        /// Release the held lease at this (wrapped) position.
        Release(usize),
        Fail(u32),
        Recover(u32),
        /// Read through the lease (live, released or revoked) at this
        /// (wrapped) position in issue order.
        Read(usize),
    }

    fn any_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Acquire),
            Just(Op::Acquire),
            (0usize..64).prop_map(Op::Release),
            (0u32..6).prop_map(Op::Fail),
            (0u32..6).prop_map(Op::Recover),
            (0usize..64).prop_map(Op::Read),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random acquire/release/fail/recover/read sequences against the
        /// `Vec` model: same grants, same `in_use/available/failed`,
        /// same *order* of revoked ids, no read through a released or
        /// revoked lease.
        #[test]
        fn lease_table_matches_vec_model(
            capacity in 1u32..12,
            ops in proptest::collection::vec(any_op(), 200),
        ) {
            let mut d = DiskSubsystem::new(capacity);
            d.register_movie(MovieId(0), 10);
            let mut m = VecModel::default();
            // Every lease ever issued, by id, for stale reads.
            let mut issued: Vec<u64> = Vec::new();
            let mut held: Vec<StreamLease> = Vec::new();
            for op in ops {
                match op {
                    Op::Acquire => {
                        let full = m.active.len() as u32 + m.failed >= capacity;
                        match d.acquire() {
                            Some(lease) => {
                                prop_assert!(!full, "granted past capacity");
                                m.next += 1;
                                prop_assert_eq!(lease.id(), m.next);
                                m.active.push(m.next);
                                issued.push(m.next);
                                held.push(lease);
                            }
                            None => prop_assert!(full, "refused with room left"),
                        }
                    }
                    Op::Release(k) if !held.is_empty() => {
                        // May be a lease a fault already revoked: a no-op.
                        let lease = held.swap_remove(k % held.len());
                        m.active.retain(|&id| id != lease.id());
                        d.release(lease);
                    }
                    Op::Fail(n) => {
                        let revoked = d.fail_streams(n);
                        prop_assert_eq!(&revoked, &m.fail(capacity, n));
                        for lease in &held {
                            let dead = revoked.contains(&lease.id());
                            prop_assert_eq!(lease.revoked_in(&revoked), dead);
                        }
                    }
                    Op::Recover(n) => {
                        let recovered = n.min(m.failed);
                        m.failed -= recovered;
                        prop_assert_eq!(d.recover_streams(n), recovered);
                    }
                    Op::Read(k) if !issued.is_empty() => {
                        let id = issued[k % issued.len()];
                        let got = d.read(&StreamLease { id }, MovieId(0), (k % 12) as u32);
                        if !m.active.contains(&id) || k % 12 >= 10 {
                            prop_assert_eq!(got, None);
                        } else {
                            prop_assert_eq!(got, Some(generate_segment(MovieId(0), (k % 12) as u32)));
                        }
                    }
                    Op::Release(_) | Op::Read(_) => {}
                }
                prop_assert_eq!(d.in_use(), m.active.len() as u32);
                prop_assert_eq!(d.failed(), m.failed);
                prop_assert_eq!(d.available(), capacity - m.active.len() as u32 - m.failed);
            }
        }
    }
}
