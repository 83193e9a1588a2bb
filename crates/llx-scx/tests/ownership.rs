//! A retired block matures on the thread that retired it, so threads
//! that each allocate what they retire keep their blocks to themselves:
//! nothing crosses threads through the orphan list or the shard
//! handoff. The only test in its binary, because the handoff counter
//! covers every thread of the process.

use llx_scx::Domain;

const THREADS: u64 = 2;
const OPS: u64 = 20_000;

/// Two threads, each allocating and retiring its own records one for
/// one, hand off nothing.
#[test]
fn balanced_threads_hand_off_nothing() {
    let before = llx_scx::pool_stats();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let domain: Domain<1, u64> = Domain::new();
                for i in 0..OPS {
                    let guard = llx_scx::pin();
                    let r = domain.alloc(t, [i]);
                    unsafe { domain.retire(r, &guard) };
                }
                // Mature everything here, so the exit orphans nothing.
                llx_scx::flush_reclamation();
            });
        }
    });
    let phase = before.snapshot_delta();
    assert_eq!(phase.hits + phase.misses, THREADS * OPS);
    assert_eq!(
        phase.handoffs, 0,
        "balanced threads handed blocks over: {phase:?}"
    );
    let rate = phase.hit_rate().expect("the threads allocated");
    assert!(rate > 0.9, "retired blocks were not reused: {phase:?}");
}
