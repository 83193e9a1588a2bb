//! A retired block matures on the thread that retired it, so threads
//! that each allocate what they retire keep their blocks to themselves:
//! nothing crosses threads, and the free list holds what one epoch tick
//! matures. The only test in its binary, because the handoff counter
//! covers every thread of the process.

use std::sync::{Barrier, Mutex};

use llx_scx::Domain;

const THREADS: usize = 2;
const OPS: u64 = 20_000;

/// `THREADS` threads, each allocating and retiring its own records one
/// for one under one pin per `ops_per_pin` ops. Each first runs `OPS`
/// ops to fill its free list; returns the counter movement over the
/// next `OPS` ops of every thread.
///
/// The threads' pinned batches take turns under a lock. Unlocked, a
/// peer preempted while pinned holds the epoch back, and the other
/// thread misses until it runs again: one such stall made a whole
/// thread's phase miss. Under the lock the waiting thread is unpinned
/// and does no work, so the hit rate measures the pool, not the
/// scheduler.
fn balanced_phase(ops_per_pin: u64) -> llx_scx::PoolStats {
    let (warm, measured) = (Barrier::new(THREADS + 1), Barrier::new(THREADS + 1));
    let turn = Mutex::new(());
    let mut before = None;
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let (warm, measured, turn) = (&warm, &measured, &turn);
            s.spawn(move || {
                let domain: Domain<1, u64> = Domain::new();
                let run = || {
                    for batch in 0..OPS / ops_per_pin {
                        let _turn = turn.lock().unwrap();
                        let guard = llx_scx::pin();
                        for i in 0..ops_per_pin {
                            let r = domain.alloc(t, [batch * ops_per_pin + i]);
                            unsafe { domain.retire(r, &guard) };
                        }
                    }
                };
                run();
                warm.wait();
                measured.wait();
                run();
                // Mature everything here, so the exit orphans nothing.
                llx_scx::flush_reclamation();
            });
        }
        warm.wait();
        before = Some(llx_scx::pool_stats());
        measured.wait();
    });
    before.expect("taken between the phases").snapshot_delta()
}

/// One pin per op, and one pin per 16-op batch: the shape of a netsvc
/// session, whose 64-pin epoch tick matures ~1 000 ops' blocks at once.
/// Neither hands off a block, and the free list absorbs what a tick
/// matures.
#[test]
fn balanced_threads_hand_off_nothing() {
    for ops_per_pin in [1, 16] {
        let phase = balanced_phase(ops_per_pin);
        assert_eq!(phase.hits + phase.misses, THREADS as u64 * OPS);
        assert_eq!(
            phase.handoffs, 0,
            "balanced threads handed blocks over ({ops_per_pin} ops per pin): {phase:?}"
        );
        let rate = phase.hit_rate().expect("the threads allocated");
        assert!(
            rate >= 0.99,
            "retired blocks were not reused ({ops_per_pin} ops per pin): {phase:?}"
        );
    }
}
