//! A counting global allocator for the heap-peak tests: each test binary
//! that declares `mod common;` runs on it.
//!
//! The counters are process-wide, so each peak test sits alone in its
//! own binary: another test's allocations would land in them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes live on the heap, and the most that were live since the last
/// reset. The counts publish no other data, so `Relaxed` suffices.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`], counting what is live.
struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; the counters do not touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` has a non-zero size, as `alloc` requires.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    /// Counted as `System` behaves: a shrink gives its tail back in place,
    /// a growth may hold the old block and the new one at once.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // vouches for `new_size` as `realloc` requires.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            let old = layout.size();
            if new_size > old {
                Self::grew(new_size);
                LIVE.fetch_sub(old, Relaxed);
            } else {
                LIVE.fetch_sub(old - new_size, Relaxed);
            }
        }
        new
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f` and return its result with the most bytes it held on the
/// heap at once beyond what was live before it.
pub fn transient_peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let r = f();
    (r, PEAK.load(Relaxed) - before)
}
