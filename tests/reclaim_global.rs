//! Whole-workspace reclamation check: every structure's SCXs reuse a
//! bounded set of descriptors.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use multiset::Multiset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Threads that can hold an SCX descriptor at once: four workers and
/// this one.
const PEAK_THREADS: usize = 5;

/// Churn on two structures grows the SCX descriptor table by at most
/// one slot per thread, however many SCXs it runs.
#[test]
fn no_scx_record_leak_across_structures() {
    let baseline = llx_scx::scx_descriptors();
    {
        let set = Arc::new(Multiset::<u64>::new());
        let tree = Arc::new(trees::ChromaticTree::<u64, u64>::new());
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let set = Arc::clone(&set);
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t);
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.random_range(0..64u64);
                    if rng.random_bool(0.5) {
                        set.insert(k, 1);
                        tree.insert(k, k);
                    } else {
                        set.remove(k, 1);
                        tree.remove(k);
                    }
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        set.check_invariants().unwrap();
        tree.check_balanced().unwrap();
    }
    // Drain deferred destructions, including batches stranded by the
    // exited workers.
    llx_scx::flush_reclamation();
    let grown = llx_scx::scx_descriptors() - baseline;
    assert!(
        grown <= PEAK_THREADS,
        "{grown} SCX descriptors for {PEAK_THREADS} threads"
    );
}
