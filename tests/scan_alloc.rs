//! Allocation regression test for the scan window engines: a window's
//! buffers are sized from its key budget up front, so the number of
//! allocations one window makes does not grow with the window.
//!
//! A counting global allocator tallies, per thread, every `alloc`,
//! `alloc_zeroed` and `realloc` (a `Vec` regrowing from empty makes
//! one per doubling). Each structure is scanned single-threaded at
//! quiescence, so no window retries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use conc_set::{ScanOpts, ScanStep};

struct Counting;

thread_local! {
    /// Allocation calls made by this thread; const-initialised, so
    /// reading it allocates nothing.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // Fails only during thread teardown, which no measurement spans.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The allocation count of every emitted window of one full scan of
/// `set` at `window` keys per window.
fn per_window_allocs(set: &dyn conc_set::ConcurrentOrderedSet, window: u64) -> Vec<u64> {
    let mut cursor = set.scan(0, conc_set::MAX_KEY, ScanOpts::windowed(window));
    let mut counts = Vec::new();
    loop {
        let before = allocs();
        match cursor.next_window(&mut |_, _| ()) {
            ScanStep::Emitted { .. } => counts.push(allocs() - before),
            ScanStep::Retry => panic!("{}: a quiescent window retried", set.name()),
            ScanStep::Done => return counts,
        }
    }
}

#[test]
fn window_allocations_do_not_grow_with_the_window() {
    const KEYS: u64 = 8_192;
    for name in ["chromatic", "bst", "patricia", "scx-multiset"] {
        let set = conc_set::factory_by_name(name)();
        // Distinct keys in a scrambled order (an odd multiplier is a
        // bijection mod 2^32), so the bst is not a spine.
        for i in 0..KEYS {
            set.insert(i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF, 1);
        }
        assert_eq!(set.len(), KEYS, "{name}");
        // Warm up: the first scan may register this thread's epoch slot.
        per_window_allocs(&*set, 16);
        let small = per_window_allocs(&*set, 16);
        let large = per_window_allocs(&*set, 1024);
        assert!(small.len() as u64 >= KEYS / 16, "{name}");
        assert!(large.len() as u64 >= KEYS / 1024, "{name}");
        let want = small[0];
        assert!(
            small.iter().chain(&large).all(|&n| n == want),
            "{name}: allocations per window grow with the window: \
             16-key windows {small:?}, 1024-key windows {large:?}"
        );
    }
}
