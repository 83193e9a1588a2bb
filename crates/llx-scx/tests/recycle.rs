//! The recycled Data-record path: `retire` and `dealloc` hand blocks
//! back to the per-thread record pool, and only a record of the same
//! layout ever reuses them. A retired block matures on the thread that
//! retired it, so the tests run in parallel: no other test thread can
//! land this thread's blocks on its own free list.

use std::alloc::Layout;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use llx_scx::{DataRecord, Domain};

#[test]
fn retired_and_deallocated_blocks_are_reused_by_the_same_thread() {
    // A layout no other test in this binary allocates.
    let domain: Domain<3, [u64; 5]> = Domain::new();

    // `dealloc` recycles at once: the very next allocation of the
    // layout on this thread gets the block back.
    let r = domain.alloc([0; 5], [0; 3]);
    unsafe { domain.dealloc(r) };
    let again = domain.alloc([1; 5], [1; 3]);
    assert_eq!(again, r, "dealloc did not recycle the block at once");
    assert_eq!(unsafe { &*again }.immutable(), &[1; 5]);
    unsafe { domain.dealloc(again) };

    // `retire` stages the record; once the epoch has expired its block
    // is back on the free list of the thread that retired it.
    let guard = llx_scx::pin();
    let retired: Vec<_> = (0..8u64).map(|i| domain.alloc([i; 5], [i; 3])).collect();
    for &r in &retired {
        unsafe { domain.retire(r, &guard) };
    }
    drop(guard);
    llx_scx::flush_reclamation();
    let next = domain.alloc([9; 5], [9; 3]);
    assert!(
        retired.contains(&next),
        "allocation after retire + flush missed the retired blocks"
    );
    unsafe { domain.dealloc(next) };
}

#[test]
fn blocks_are_never_reused_across_layouts() {
    let wide: Domain<2, [u64; 4]> = Domain::new();
    let narrow: Domain<1, u64> = Domain::new();
    assert_ne!(
        Layout::new::<DataRecord<2, [u64; 4]>>(),
        Layout::new::<DataRecord<1, u64>>()
    );

    // 64 wide blocks through each exit path; together they stay under
    // one free list's capacity, so none returns to the allocator.
    let guard = llx_scx::pin();
    let retired: Vec<_> = (0..64u64).map(|i| wide.alloc([i; 4], [i; 2])).collect();
    let deallocated: Vec<_> = (0..64u64).map(|i| wide.alloc([i; 4], [i; 2])).collect();
    for &r in &retired {
        unsafe { wide.retire(r, &guard) };
    }
    for &r in &deallocated {
        unsafe { wide.dealloc(r) };
    }
    drop(guard);
    llx_scx::flush_reclamation();
    let wide_blocks: HashSet<usize> = retired
        .iter()
        .chain(&deallocated)
        .map(|&r| r as usize)
        .collect();

    let narrows: Vec<_> = (0..256u64).map(|i| narrow.alloc(i, [i])).collect();
    for &r in &narrows {
        assert!(
            !wide_blocks.contains(&(r as usize)),
            "Domain<1, u64> received a block retired from Domain<2, [u64; 4]>"
        );
    }
    // The wide blocks are still pooled for their own layout.
    let wide_again = wide.alloc([0; 4], [0; 2]);
    assert!(wide_blocks.contains(&(wide_again as usize)));
    unsafe { wide.dealloc(wide_again) };
    for r in narrows {
        unsafe { narrow.dealloc(r) };
    }
}

/// Immutable payload whose drop increments a counter.
struct DropCounter(Arc<AtomicUsize>);
impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn records_staged_by_an_exited_thread_drop_exactly_once() {
    llx_scx::flush_reclamation();
    // Fewer than one 32-record batch: the records are still staged when
    // the thread exits, so they can only come back via the orphan list.
    const N: usize = 10;
    let drops = Arc::new(AtomicUsize::new(0));
    let domain: Domain<1, DropCounter> = Domain::new();
    let before = llx_scx::pool_stats();
    std::thread::scope(|s| {
        // An explicit join waits for the thread's TLS destructors, which
        // hand its staged records to the orphan list; the scope's
        // implicit join only waits for the closure to return.
        s.spawn(|| {
            let guard = llx_scx::pin();
            for _ in 0..N {
                let r = domain.alloc(DropCounter(Arc::clone(&drops)), [0]);
                unsafe { domain.retire(r, &guard) };
            }
        })
        .join()
        .unwrap();
    });
    llx_scx::flush_reclamation();
    assert_eq!(
        drops.load(Ordering::SeqCst),
        N,
        "orphaned records not dropped"
    );
    assert!(
        before.snapshot_delta().handoffs >= N as u64,
        "the records did not come back through the orphan list"
    );
    for _ in 0..64 {
        crossbeam_epoch::pin().flush();
    }
    llx_scx::flush_reclamation();
    assert_eq!(
        drops.load(Ordering::SeqCst),
        N,
        "a record was dropped twice"
    );
}
