//! Fault-injection integration: the record pool's injected failure
//! mode (`scx.pool.alloc_miss`) is a pure performance event — with
//! every Data-record allocation forced off the fast path, SCX semantics
//! and reclamation must hold unchanged.
//!
//! `faultpoint` configuration is process-global, so a test in this
//! binary holds a mutex while it arms a point; the point is
//! semantically transparent, so the rest of the suite (separate
//! processes) is unaffected even while it is armed.

use std::sync::{Mutex, MutexGuard};

use llx_scx::{Domain, FieldId, ScxRequest};

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    match SERIAL.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// SCX descriptors the test may add: one for its own thread, and one
/// to spare.
const PEAK_THREADS: usize = 2;

/// Drive the epoch collector until deferred destructions have run.
fn drain_epochs() {
    llx_scx::flush_reclamation();
    for _ in 0..256 {
        crossbeam_epoch::pin().flush();
    }
}

/// Run a single-threaded update loop — each iteration allocates a node,
/// links it into a register by SCX and retires the node it replaced —
/// and return how many SCXs succeeded (sequentially, all of them must).
fn churn(iters: u64) -> u64 {
    let domain: Domain<1, u64> = Domain::new();
    let guard = llx_scx::pin();
    let reg = domain.alloc(0, [llx_scx::pack_ptr(domain.alloc(0, [0]))]);
    let reg_ref = unsafe { &*reg };
    let mut ok = 0;
    for i in 1..=iters {
        let s = domain.llx(reg_ref, &guard).snapshot().unwrap();
        let node = domain.alloc(i, [0]);
        if domain.scx(
            ScxRequest::new(&[s], FieldId::new(0, 0), llx_scx::pack_ptr(node)),
            &guard,
        ) {
            unsafe { domain.retire(llx_scx::unpack_ptr(s.value(0)), &guard) };
            ok += 1;
        }
    }
    let last = unsafe { domain.deref(reg_ref.read(0), &guard) };
    assert_eq!(*last.immutable(), iters, "updates all landed");
    unsafe {
        domain.retire(last, &guard);
        domain.retire(reg, &guard);
    }
    ok
}

#[test]
fn injected_alloc_misses_change_nothing_but_the_miss_counter() {
    let _g = lock();
    faultpoint::clear();
    drain_epochs();
    let baseline = llx_scx::scx_descriptors();
    let before = llx_scx::pool_stats();
    // Every Data-record allocation is forced to miss the pool and fall
    // through to the global allocator.
    faultpoint::configure("scx.pool.alloc_miss=every:1", faultpoint::DEFAULT_SEED).unwrap();
    let iters = 300u64;
    assert_eq!(churn(iters), iters, "sequential SCXs all succeed");
    let (hits, fires) = faultpoint::counters("scx.pool.alloc_miss").unwrap();
    faultpoint::clear();
    assert!(fires >= iters, "every alloc was injected: {hits}/{fires}");
    let delta = before.snapshot_delta();
    assert_eq!(delta.hits, 0, "no pool hit can survive every:1 misses");
    assert!(delta.misses >= iters, "{delta:?}");
    // The records still flow through the normal reclamation.
    drain_epochs();
    let grown = llx_scx::scx_descriptors() - baseline;
    assert!(
        grown <= PEAK_THREADS,
        "{grown} SCX descriptors for {PEAK_THREADS} threads"
    );
}
