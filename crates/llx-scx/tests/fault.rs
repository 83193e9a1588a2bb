//! Fault-injection integration: the SCX-record pool's injected failure
//! modes (`scx.pool.alloc_miss`, `scx.pool.steal_fail`) are pure
//! performance events — with every allocation forced off the fast path
//! and every handoff steal refused, SCX semantics, the reclamation
//! ledger, and the zero-leak invariant must hold unchanged.
//!
//! `faultpoint` configuration is process-global, so the tests in this
//! binary serialize on a mutex; these fault points are semantically
//! transparent, so the rest of the suite (separate processes) is
//! unaffected even while they are armed.

use std::sync::{Mutex, MutexGuard};

use llx_scx::{Domain, FieldId, ScxRequest};

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    match SERIAL.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Drive the epoch collector until deferred destructions have run.
fn drain_epochs() {
    llx_scx::flush_reclamation();
    for _ in 0..256 {
        crossbeam_epoch::pin().flush();
    }
}

/// Run a single-threaded LLX/SCX update loop and return how many SCXs
/// succeeded (sequentially, all of them must).
fn scx_loop(iters: u64) -> u64 {
    let domain: Domain<1, u64> = Domain::new();
    let guard = llx_scx::pin();
    let r = domain.alloc(0, [0]);
    let r_ref = unsafe { &*r };
    let mut ok = 0;
    for i in 1..=iters {
        let s = domain.llx(r_ref, &guard).snapshot().unwrap();
        if domain.scx(ScxRequest::new(&[s], FieldId::new(0, 0), i), &guard) {
            ok += 1;
        }
    }
    assert_eq!(r_ref.read(0), iters, "updates all landed");
    unsafe { domain.retire(r, &guard) };
    ok
}

#[test]
fn injected_alloc_misses_change_nothing_but_the_miss_counter() {
    let _g = lock();
    faultpoint::clear();
    drain_epochs();
    let baseline = llx_scx::live_scx_records();
    let before = llx_scx::pool_stats();
    // Every SCX-record allocation is forced to miss the pool and fall
    // through to the global allocator.
    faultpoint::configure("scx.pool.alloc_miss=every:1", faultpoint::DEFAULT_SEED).unwrap();
    let iters = 300u64;
    assert_eq!(scx_loop(iters), iters, "sequential SCXs all succeed");
    let (hits, fires) = faultpoint::counters("scx.pool.alloc_miss").unwrap();
    faultpoint::clear();
    assert!(fires >= iters, "every alloc was injected: {hits}/{fires}");
    let delta = before.snapshot_delta();
    assert_eq!(delta.hits, 0, "no pool hit can survive every:1 misses");
    assert!(delta.misses >= iters, "{delta:?}");
    // The records still flow through the normal two-stage reclamation.
    drain_epochs();
    if let (Some(b), Some(a)) = (baseline, llx_scx::live_scx_records()) {
        assert_eq!(a, b, "no SCX record leaked under injected misses");
    }
}

/// Park handoff shards: a producer thread leaves one SCX-record pinned
/// by each of `RECORDS` Data-records' `info` fields, then retires them
/// all, so the burst of matured blocks overflows the pool's 256-block
/// free list into 16-block shards. It flushes before exiting so the
/// shards are parked (not stranded in partial batches) when it is gone.
fn park_shards() {
    const RECORDS: u64 = 1_000;
    std::thread::spawn(|| {
        let domain: Domain<1, u64> = Domain::new();
        let guard = llx_scx::pin();
        let records: Vec<_> = (0..RECORDS).map(|i| domain.alloc(i, [0])).collect();
        for &r in &records {
            let s = domain.llx(unsafe { &*r }, &guard).snapshot().unwrap();
            assert!(domain.scx(ScxRequest::new(&[s], FieldId::new(0, 0), 1), &guard));
        }
        for r in records {
            unsafe { domain.retire(r, &guard) };
        }
        drop(guard);
        drain_epochs();
    })
    .join()
    .unwrap();
}

/// Run [`scx_loop`] on a fresh thread (empty free list, so its first
/// allocation misses locally and reaches the steal path) and return the
/// pool-counter movement over that thread's lifetime. The loop retires
/// fewer blocks than a free list holds, so the consumer parks nothing
/// itself.
fn fresh_consumer() -> llx_scx::PoolStats {
    let iters = 100u64;
    let before = llx_scx::pool_stats();
    std::thread::spawn(move || {
        assert_eq!(scx_loop(iters), iters, "sequential SCXs all succeed");
        drain_epochs();
    })
    .join()
    .unwrap();
    before.snapshot_delta()
}

#[test]
fn injected_steal_failures_leave_parked_shards_adoptable() {
    let _g = lock();
    faultpoint::clear();
    drain_epochs();
    let baseline = llx_scx::live_scx_records();
    park_shards();
    // Adopt anything the producer's exit orphaned, so the only handoffs
    // left to count below are shard steals.
    drain_epochs();
    // With every steal refused, a consumer that misses its free list
    // cannot adopt the parked shards — correctness must not care.
    faultpoint::configure("scx.pool.steal_fail=every:1", faultpoint::DEFAULT_SEED).unwrap();
    let refused = fresh_consumer();
    let (_hits, fires) = faultpoint::counters("scx.pool.steal_fail").unwrap();
    faultpoint::clear();
    assert!(
        fires > 0,
        "the consumer's local miss never reached the steal"
    );
    assert_eq!(refused.handoffs, 0, "a refused steal adopted blocks");
    // The refused shards stayed parked: the next consumer adopts them.
    let adopted = fresh_consumer();
    assert!(adopted.handoffs > 0, "parked shards were lost: {adopted:?}");
    drain_epochs();
    if let (Some(b), Some(a)) = (baseline, llx_scx::live_scx_records()) {
        assert_eq!(a, b, "no SCX record leaked under refused steals");
    }
}
