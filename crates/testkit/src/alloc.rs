//! A counting global allocator for zero-allocation golden tests.
//!
//! Hot-path claims like "the zero-copy parse performs no heap allocation"
//! rot silently: one innocent `to_string()` added three layers down and the
//! claim is false with every test still green. The only trustworthy pin is
//! to count real allocator calls. [`CountingAlloc`] wraps the system
//! allocator and counts every `alloc`/`realloc`; a test binary installs it
//! with `#[global_allocator]` and asserts on [`allocations`] deltas. It also
//! tracks the bytes currently allocated ([`live_bytes`]), for tests that pin
//! what a structure costs to hold and that dropping it gives all of it back,
//! and the most they reached ([`peak_live_bytes`], restarted by
//! [`reset_peak`]), for tests that pin what a pass costs while it runs.
//!
//! The counter is process-global, so zero-allocation assertions belong in
//! a dedicated integration-test binary with a single `#[test]` — the
//! default multi-threaded test harness would otherwise bleed allocations
//! from unrelated tests into the window being measured.
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: testkit::alloc::CountingAlloc = testkit::alloc::CountingAlloc;
//!
//! let (value, allocs) = testkit::alloc::measure(|| hot_path(input));
//! assert_eq!(allocs, 0);
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Signed: a block allocated before the counter's first load may be freed
/// after it.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
/// The highest `LIVE_BYTES` since the last [`reset_peak`].
static PEAK_LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// A `GlobalAlloc` that forwards to the system allocator, counts every
/// allocation and reallocation (frees are not counted — a zero-alloc claim
/// is about acquiring memory, not releasing it) and tracks the requested
/// bytes currently live.
pub struct CountingAlloc;

fn acquired(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn released(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        acquired(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        released(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        acquired(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        released(layout.size());
        acquired(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocations since process start (0 unless [`CountingAlloc`] is
/// installed as the global allocator).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Requested bytes currently allocated, process-wide (0 unless
/// [`CountingAlloc`] is installed as the global allocator).
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The most bytes live at once since the last [`reset_peak`] (or process
/// start), process-wide.
pub fn peak_live_bytes() -> i64 {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restart [`peak_live_bytes`] from what is live now.
pub fn reset_peak() {
    PEAK_LIVE_BYTES.store(live_bytes(), Ordering::Relaxed);
}

/// Run `f` and return its result together with the number of allocations
/// performed while it ran (process-wide — see the module docs for why the
/// caller must control concurrency).
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let value = f();
    let after = allocations();
    (value, after - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Without installing the allocator the counter stays flat; `measure`
    // still reports a well-formed delta.
    #[test]
    fn measure_reports_a_delta() {
        let (value, allocs) = measure(|| 2 + 2);
        assert_eq!(value, 4);
        assert_eq!(allocs, 0);
    }
}
