//! CAS step counting for the kCAS side of the paper's §1/§2 cost
//! comparison (`3k + 1` CAS here, against an SCX's `k + 1`; asserted by
//! `uncontended_kcas_costs_3k_plus_1_cas` below).
//!
//! The counter is per thread: the test measures uncontended
//! single-threaded costs, differencing the counter around one operation
//! on the measuring thread, and a thread-local count cannot be moved by
//! a peer running kCAS concurrently (another test in the same binary,
//! say).

use std::cell::Cell;

thread_local! {
    static CAS_COUNT: Cell<u64> = const { Cell::new(0) };
}

#[inline]
pub(crate) fn bump_cas() {
    // `try_with`: a kCAS issued from a TLS destructor simply goes
    // uncounted.
    let _ = CAS_COUNT.try_with(|c| c.set(c.get() + 1));
}

/// CAS steps executed by the calling thread since its last reset.
pub fn kcas_cas_count() -> u64 {
    CAS_COUNT.with(Cell::get)
}

/// Reset the calling thread's CAS step counter to zero.
pub fn kcas_reset_cas_count() {
    CAS_COUNT.with(|c| c.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{kcas, KcasCell};

    #[test]
    fn uncontended_kcas_costs_3k_plus_1_cas() {
        // Harris-style kCAS: per word, one RDCSS install CAS + one RDCSS
        // completion CAS + one phase-2 CAS, plus the single status CAS.
        // (The paper's cited optimum [Sundell 2011] is 2k + 1.)
        for k in 1..=8usize {
            let cells: Vec<KcasCell> = (0..k).map(|_| KcasCell::new(0)).collect();
            let g = crossbeam_epoch::pin();
            let entries: Vec<_> = cells.iter().map(|c| (c, 0u64, 1u64)).collect();
            let before = kcas_cas_count();
            assert!(kcas(&entries, &g));
            let cost = kcas_cas_count() - before;
            assert_eq!(cost, (3 * k + 1) as u64, "k = {k}");
        }
    }

    #[test]
    fn peer_thread_kcas_does_not_move_this_threads_count() {
        let before = kcas_cas_count();
        std::thread::spawn(|| {
            let cells: Vec<KcasCell> = (0..4).map(|_| KcasCell::new(0)).collect();
            let g = crossbeam_epoch::pin();
            let entries: Vec<_> = cells.iter().map(|c| (c, 0u64, 1u64)).collect();
            assert!(kcas(&entries, &g));
            assert_eq!(kcas_cas_count(), 13);
        })
        .join()
        .unwrap();
        assert_eq!(kcas_cas_count(), before);
    }
}
