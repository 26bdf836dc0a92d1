//! A counting global allocator for the traced run's per-layer allocation
//! figures.  Counting is off unless a traced pass switches it on, so the
//! untraced run pays one relaxed load per allocation and nothing else.  The
//! counters are per thread: the traced replay runs on one thread, and
//! uncontended thread-local adds keep the counting itself out of the
//! layer timings as far as possible.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

// A switch that publishes no other data: `Relaxed` suffices.
static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialized and free of destructors, so reaching them from the
    // allocator neither allocates nor registers anything.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting calls and requested bytes.
pub struct CountingAllocator;

fn count(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.with(|calls| calls.set(calls.get() + 1));
        BYTES.with(|bytes| bytes.set(bytes.get() + size as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a static flag
// and const thread-locals and never allocates, so it cannot re-enter the
// allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Cumulative allocation calls and requested bytes of this thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Allocs {
    pub calls: u64,
    pub bytes: u64,
}

impl Allocs {
    /// This thread's counters now.
    pub fn now() -> Allocs {
        Allocs {
            calls: CALLS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    /// Allocations this thread made since `self`.
    pub fn since(self) -> Allocs {
        let now = Allocs::now();
        Allocs {
            calls: now.calls - self.calls,
            bytes: now.bytes - self.bytes,
        }
    }
}

/// Switches counting on or off.
pub fn set_counting(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}
