//! Static partitioned buffer management (the paper's [12] substrate).
//!
//! Each I/O stream owns a *partition*: a ring of the most recent `B/n`
//! one-minute segments it displayed. Viewers enrolled in the partition
//! read those segments from memory instead of disk. A [`BufferPool`]
//! enforces the global budget `B` across all partitions (in segments ==
//! movie minutes, the paper's unit).

use std::collections::VecDeque;

use crate::content::{MovieId, Segment};

/// Global buffer accounting in segments (movie minutes).
#[derive(Debug)]
pub struct BufferPool {
    budget: usize,
    used: usize,
}

impl BufferPool {
    /// A pool of `budget` segments.
    pub fn new(budget: usize) -> Self {
        Self { budget, used: 0 }
    }

    /// Total budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Segments currently reserved by partitions.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Segments still unallocated (0 while overcommitted after a shrink).
    pub fn available(&self) -> usize {
        self.budget.saturating_sub(self.used)
    }

    /// Shrink the budget by up to `segments` (fault injection). Existing
    /// reservations are untouched, so the pool may be left overcommitted;
    /// the owner must evict partitions until
    /// [`BufferPool::overcommitted`] is 0 again. Returns the segments
    /// actually removed from the budget.
    pub fn shrink(&mut self, segments: usize) -> usize {
        let removed = segments.min(self.budget);
        self.budget -= removed;
        removed
    }

    /// Return `segments` to the budget (recovery from a shrink).
    pub fn grow(&mut self, segments: usize) {
        self.budget += segments;
    }

    /// Segments reserved beyond the current budget (nonzero only after a
    /// shrink, until the owner evicts partitions to fit again).
    pub fn overcommitted(&self) -> usize {
        self.used.saturating_sub(self.budget)
    }

    /// Reserve space for a partition of `capacity` segments; `false`, and
    /// nothing reserved, when fewer are available.
    pub fn reserve(&mut self, capacity: usize) -> bool {
        if capacity > self.available() {
            return false;
        }
        self.used += capacity;
        true
    }

    /// Return a partition's reservation.
    pub fn release(&mut self, capacity: usize) {
        debug_assert!(capacity <= self.used, "releasing more than reserved");
        self.used = self.used.saturating_sub(capacity);
    }
}

/// One stream's ring of recent segments.
#[derive(Debug)]
pub struct Partition {
    movie: MovieId,
    capacity: usize,
    /// Segments in display order; back = most recent (the stream front).
    ring: VecDeque<Segment>,
}

impl Partition {
    /// Empty partition for `movie` holding up to `capacity` segments.
    pub fn new(movie: MovieId, capacity: usize) -> Self {
        Self {
            movie,
            capacity,
            ring: VecDeque::with_capacity(capacity),
        }
    }

    /// Configured capacity in segments.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Segments currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no segments are retained yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Append the segment the stream just displayed, evicting the oldest
    /// when full. Panics if fed a segment for the wrong movie or out of
    /// order — partitions are strictly sequential by construction.
    pub fn advance(&mut self, seg: Segment) {
        assert_eq!(seg.movie, self.movie, "segment for wrong movie");
        if let Some(back) = self.front_index() {
            assert_eq!(
                seg.index,
                back + 1,
                "partition fed out of order: {} after {back}",
                seg.index
            );
        }
        if self.capacity == 0 {
            return; // pure batching: nothing is retained
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(seg);
    }

    /// The newest segment index retained (the stream's display front).
    pub fn front_index(&self) -> Option<u32> {
        self.ring.back().map(|s| s.index)
    }

    /// The oldest segment index retained (the trailing edge).
    pub fn tail_index(&self) -> Option<u32> {
        self.ring.front().map(|s| s.index)
    }

    /// Does the window currently cover `index`?
    pub fn covers(&self, index: u32) -> bool {
        match (self.tail_index(), self.front_index()) {
            (Some(lo), Some(hi)) => (lo..=hi).contains(&index),
            _ => false,
        }
    }

    /// Fetch segment `index` from the ring, if covered.
    pub fn get(&self, index: u32) -> Option<&Segment> {
        let lo = self.tail_index()?;
        if !self.covers(index) {
            return None;
        }
        self.ring.get((index - lo) as usize)
    }

    /// Test hook: flip one payload byte of the stored segment `index`.
    #[cfg(test)]
    pub(crate) fn corrupt(&mut self, index: u32) {
        let seg = self.ring.iter_mut().find(|s| s.index == index);
        seg.expect("covered").data[0] ^= 0xFF;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::generate_segment;

    fn seg(i: u32) -> Segment {
        generate_segment(MovieId(1), i)
    }

    #[test]
    fn pool_accounting() {
        let mut p = BufferPool::new(10);
        assert!(p.reserve(4));
        assert!(p.reserve(6));
        assert_eq!(p.available(), 0);
        assert!(!p.reserve(1));
        p.release(6);
        assert_eq!(p.available(), 6);
        assert_eq!(p.used(), 4);
    }

    #[test]
    fn shrink_and_grow_track_overcommit() {
        let mut p = BufferPool::new(10);
        assert!(p.reserve(8));
        assert_eq!(p.shrink(4), 4);
        assert_eq!(p.budget(), 6);
        assert_eq!(p.overcommitted(), 2);
        assert_eq!(p.available(), 0, "no headroom while overcommitted");
        assert!(!p.reserve(1));
        p.release(4); // evicting a partition clears the overcommit
        assert_eq!(p.overcommitted(), 0);
        assert_eq!(p.available(), 2);
        p.grow(4);
        assert_eq!(p.budget(), 10);
        assert_eq!(p.available(), 6);
        assert_eq!(p.shrink(100), 10, "shrink capped at the budget");
        assert_eq!(p.budget(), 0);
    }

    #[test]
    fn ring_evicts_in_order() {
        let mut part = Partition::new(MovieId(1), 3);
        for i in 0..5 {
            part.advance(seg(i));
        }
        assert_eq!(part.len(), 3);
        assert_eq!(part.tail_index(), Some(2));
        assert_eq!(part.front_index(), Some(4));
        assert!(part.covers(3));
        assert!(!part.covers(1));
        assert!(!part.covers(5));
        assert_eq!(part.get(3).unwrap().index, 3);
        assert!(part.get(1).is_none());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_feed_panics() {
        let mut part = Partition::new(MovieId(1), 3);
        part.advance(seg(0));
        part.advance(seg(2));
    }

    #[test]
    fn zero_capacity_retains_nothing() {
        let mut part = Partition::new(MovieId(1), 0);
        part.advance(seg(0));
        assert!(part.is_empty());
        assert!(!part.covers(0));
    }
}
