//! The pool counters are per thread, and `pool_stats` sums them
//! exactly: every live thread's counters plus the totals that exited
//! threads folded in. The only test in its binary, because the sum
//! covers every thread of the process.

use std::sync::{Arc, Barrier};

use llx_scx::Domain;

const THREADS: usize = 4;
const ALLOCS: u64 = 1_000;

/// `THREADS` threads × `ALLOCS` allocations read `hits + misses ==
/// THREADS · ALLOCS`, both while the threads are alive and after they
/// exit.
#[test]
fn per_thread_counters_sum_exactly() {
    let before = llx_scx::pool_stats();
    let counted = Arc::new(Barrier::new(THREADS + 1));
    let exit = Arc::new(Barrier::new(THREADS + 1));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (counted, exit) = (Arc::clone(&counted), Arc::clone(&exit));
            std::thread::spawn(move || {
                let domain: Domain<1, u64> = Domain::new();
                for i in 0..ALLOCS {
                    let r = domain.alloc(i, [i]);
                    unsafe { domain.dealloc(r) };
                }
                counted.wait();
                exit.wait();
            })
        })
        .collect();
    let want = THREADS as u64 * ALLOCS;

    counted.wait();
    let live = before.snapshot_delta();
    assert_eq!(live.hits + live.misses, want, "live threads: {live:?}");
    assert!(live.hits > 0, "dealloc did not recycle: {live:?}");

    exit.wait();
    for h in handles {
        h.join().unwrap();
    }
    let exited = before.snapshot_delta();
    assert_eq!(
        exited.hits + exited.misses,
        want,
        "exited threads: {exited:?}"
    );
    assert_eq!(exited, live, "thread exit changed the totals");
}
