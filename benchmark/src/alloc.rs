//! Counting allocator for the traced pass.
//!
//! Wraps the system allocator; when counting is off (every untraced rep)
//! the cost is one relaxed flag load per call. Only the single benchmark
//! thread allocates while counting is on, so relaxed counters are exact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counters are
// plain atomics and never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        // SAFETY: `ptr`/`layout` describe a live block of this allocator
        // and the caller guarantees `new_size` is valid for the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What was allocated between [`start`] and [`stop`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// High-water mark of bytes live above the level at [`start`].
    pub peak_live_bytes: u64,
}

/// Zero the counters and start counting.
pub fn start() {
    ALLOCS.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
}

/// Stop counting and read the counters.
pub fn stop() -> AllocStats {
    ON.store(false, Relaxed);
    AllocStats {
        allocs: ALLOCS.load(Relaxed),
        peak_live_bytes: PEAK.load(Relaxed).max(0) as u64,
    }
}

/// Run `f` with counting on (no-op wrapper when `count` is false).
pub fn counted<R>(count: bool, f: impl FnOnce() -> R) -> (R, AllocStats) {
    if !count {
        return (f(), AllocStats::default());
    }
    start();
    let out = f();
    (out, stop())
}
