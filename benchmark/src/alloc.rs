//! A counting global allocator: measures how far live heap bytes rise
//! above their level at the start of a window. Outside a window it only
//! delegates to the system allocator (one relaxed load per call).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering::Relaxed, Ordering::SeqCst};

struct Counting;

#[global_allocator]
static ALLOC: Counting = Counting;

static ON: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since the window opened. Memory
/// allocated before the window and freed inside it makes this negative,
/// which is right: it tracks live bytes relative to the window's start.
static NET: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: usize) {
    if ON.load(Relaxed) {
        let now = NET.fetch_add(bytes as i64, Relaxed) + bytes as i64;
        PEAK.fetch_max(now, Relaxed);
    }
}

fn shrink(bytes: usize) {
    if ON.load(Relaxed) {
        NET.fetch_sub(bytes as i64, Relaxed);
    }
}

// SAFETY: every call delegates to `System` with the caller's arguments;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        p
    }
}

/// Run `f` and return its result with the peak of live heap bytes above
/// their level when `f` started (0 if they never rose). Counts every
/// thread's allocations; do not nest.
pub fn peak_growth<R>(f: impl FnOnce() -> R) -> (R, usize) {
    NET.store(0, SeqCst);
    PEAK.store(0, SeqCst);
    ON.store(true, SeqCst);
    let r = f();
    ON.store(false, SeqCst);
    (r, PEAK.load(SeqCst).max(0) as usize)
}
