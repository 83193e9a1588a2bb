//! Deterministic schedule exploration of small LLX/SCX kernels.
//!
//! Compiled only under `--cfg llx_model` (ci.sh's `model` stage): the
//! concurrency crates' `sync` facades then route every atomic through the
//! `modelcheck` instrumented types, and the [`modelcheck::Explorer`]
//! enumerates every interleaving up to the preemption bound
//! (`LLX_MODEL_BOUND`, default 2).
//!
//! Two test families share the scenario kernels:
//!
//! * **Fixed semantics** (`not(llx_model_bugs)`): every schedule up to the
//!   bound must pass — the exhaustive counterpart of the soak tests.
//! * **Regression** (`llx_model_bugs`): the two PR-2 seed races are
//!   re-introduced by cfg gates in `llx-scx`/the epoch shim, and the
//!   explorer must find each one *deterministically* — same failing
//!   schedule on every run — within the default bound.
//!
//! Scenario hygiene: each execution's factory runs on the (uninstrumented)
//! controller thread and starts by draining process-global state —
//! `flush_reclamation` (epoch queue + orphans), `reset_pool_stats`,
//! `kcas_reset_cas_count` — so schedules are replayable and nothing bleeds
//! between executions.
#![cfg(llx_model)]
// The regression family only exercises the kernels the bug gates touch.
#![cfg_attr(llx_model_bugs, allow(dead_code))]

use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as O};
use std::sync::Arc;

use llx_scx::{Domain, FieldId, ScxRequest};
use modelcheck::{Execution, Explorer};

/// Reset process-global counters and drain reclamation state so every
/// execution starts from the same world. Runs uninstrumented (controller
/// thread holds no model TID).
fn reset_world() {
    llx_scx::flush_reclamation();
    llx_scx::reset_pool_stats();
    mwcas::kcas_reset_cas_count();
}

/// Send wrapper for raw pointers threaded into worker closures.
struct Ptr<T>(*const T);
unsafe impl<T> Send for Ptr<T> {}
impl<T> Clone for Ptr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Ptr<T> {}
impl<T> Ptr<T> {
    unsafe fn get(&self) -> &'static T {
        &*self.0
    }
}

// ---------------------------------------------------------------------------
// Kernel 1: 2-thread SCX conflict with helping
// ---------------------------------------------------------------------------

/// Both threads SCX the same single-record field; helping must ensure
/// lock-free progress (someone succeeds) and the final value must be the
/// last committed writer's, under every schedule.
fn scx_conflict() -> Execution {
    reset_world();
    let dom: Arc<Domain<1, ()>> = Arc::new(Domain::new());
    let rec = Ptr(dom.alloc((), [0]));
    let wins: Arc<StdAtomicUsize> = Arc::new(StdAtomicUsize::new(0));
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for val in [1u64, 2u64] {
        let dom = dom.clone();
        let wins = wins.clone();
        threads.push(Box::new(move || {
            let guard = llx_scx::pin();
            let r = unsafe { rec.get() };
            for _ in 0..16 {
                let Some(s) = dom.llx(r, &guard).snapshot() else {
                    continue;
                };
                if dom.scx(ScxRequest::new(&[s], FieldId::new(0, 0), val), &guard) {
                    wins.fetch_add(1, O::SeqCst);
                    return;
                }
            }
            panic!("SCX starved for 16 attempts under a bounded schedule");
        }));
    }
    Execution::new(threads).with_check(move || {
        assert_eq!(wins.load(O::SeqCst), 2, "both SCXs must eventually commit");
        let guard = llx_scx::pin();
        let v = unsafe { rec.get() }.read(0);
        drop(guard);
        assert!(v == 1 || v == 2, "final value {v} written by neither SCX");
    })
}

// ---------------------------------------------------------------------------
// Kernel 2: LLX -> VLX -> SCX against a racing freeze
// ---------------------------------------------------------------------------

/// T0 snapshots records `a` and `b`, validates with VLX, then SCXes
/// `b := a_snapshot + 10`. T1 races an SCX that changes `a` from 0 to 5.
/// Snapshot atomicity (paper Cor. 60): `b` must end as `0` (T0 lost),
/// `10` (T0 linked a = 0) or `15` (T0 linked a = 5) — never a mix.
fn llx_vlx_scx() -> Execution {
    reset_world();
    let dom: Arc<Domain<1, ()>> = Arc::new(Domain::new());
    let a = Ptr(dom.alloc((), [0]));
    let b = Ptr(dom.alloc((), [0]));
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    {
        let dom = dom.clone();
        threads.push(Box::new(move || {
            let guard = llx_scx::pin();
            let (ra, rb) = unsafe { (a.get(), b.get()) };
            for _ in 0..16 {
                let Some(sa) = dom.llx(ra, &guard).snapshot() else {
                    continue;
                };
                let Some(sb) = dom.llx(rb, &guard).snapshot() else {
                    continue;
                };
                if !dom.vlx(&[sa]) {
                    continue;
                }
                let new_b = sa.value(0) + 10;
                if dom.scx(
                    ScxRequest::new(&[sa, sb], FieldId::new(1, 0), new_b),
                    &guard,
                ) {
                    return;
                }
            }
            // Losing every retry is a legal (if extreme) outcome.
        }));
    }
    {
        let dom = dom.clone();
        threads.push(Box::new(move || {
            let guard = llx_scx::pin();
            let ra = unsafe { a.get() };
            for _ in 0..16 {
                let Some(sa) = dom.llx(ra, &guard).snapshot() else {
                    continue;
                };
                if dom.scx(ScxRequest::new(&[sa], FieldId::new(0, 0), 5), &guard) {
                    return;
                }
            }
            panic!("single-record SCX starved for 16 attempts");
        }));
    }
    Execution::new(threads).with_check(move || {
        let guard = llx_scx::pin();
        let va = unsafe { a.get() }.read(0);
        let vb = unsafe { b.get() }.read(0);
        drop(guard);
        assert_eq!(va, 5, "T1 must commit a := 5");
        assert!(
            vb == 0 || vb == 10 || vb == 15,
            "b = {vb}: SCX wrote a value derived from a torn snapshot"
        );
    })
}

// ---------------------------------------------------------------------------
// Kernel 3: pool recycle across a stalled helper (the PR-2 ABA shape)
// ---------------------------------------------------------------------------

/// T0 runs a two-record SCX over `[a, b]` and can stall between its two
/// freezing CASes, holding `b`'s old SCX-record address as an expected
/// value. T1 meanwhile displaces that SCX-record twice; with the
/// reclamation bug gates on (`llx_model_bugs`), the displaced record is
/// destroyed and its block recycled *immediately*, so T1's second SCX can
/// reinstall the same address and T0's stale freezing CAS succeeds
/// spuriously — caught by the generation-stamp debug assert in `help`.
/// With the real two-stage refcount protocol the address cannot be
/// recycled while T0 can still reach it, so every schedule passes.
fn pool_recycle() -> Execution {
    reset_world();
    let dom: Arc<Domain<1, ()>> = Arc::new(Domain::new());
    let a = Ptr(dom.alloc((), [0]));
    let b = Ptr(dom.alloc((), [0]));
    {
        // Give `b` a real (non-dummy) predecessor SCX-record, installed
        // uninstrumented: the recycling race needs a freeing CAS whose
        // expected value is a reclaimable record address.
        let guard = llx_scx::pin();
        let rb = unsafe { b.get() };
        let sb = dom
            .llx(rb, &guard)
            .snapshot()
            .expect("uncontended LLX cannot fail");
        assert!(dom.scx(ScxRequest::new(&[sb], FieldId::new(0, 0), 1), &guard));
    }
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    {
        let dom = dom.clone();
        threads.push(Box::new(move || {
            let guard = llx_scx::pin();
            let (ra, rb) = unsafe { (a.get(), b.get()) };
            for _ in 0..16 {
                let Some(sa) = dom.llx(ra, &guard).snapshot() else {
                    continue;
                };
                let Some(sb) = dom.llx(rb, &guard).snapshot() else {
                    continue;
                };
                // Freezes a first, then b: the window between the two
                // freezing CASes is where the helper "stalls".
                if dom.scx(ScxRequest::new(&[sa, sb], FieldId::new(0, 0), 7), &guard) {
                    return;
                }
            }
        }));
    }
    {
        let dom = dom.clone();
        threads.push(Box::new(move || {
            let guard = llx_scx::pin();
            let rb = unsafe { b.get() };
            // Two displacing SCXs on b: the first retires b's old
            // SCX-record, the second re-allocates (with the bug gates:
            // recycles) a block for the new one.
            for val in [2u64, 3u64] {
                for _ in 0..16 {
                    let Some(sb) = dom.llx(rb, &guard).snapshot() else {
                        continue;
                    };
                    if dom.scx(ScxRequest::new(&[sb], FieldId::new(0, 0), val), &guard) {
                        break;
                    }
                }
            }
        }));
    }
    Execution::new(threads).with_check(move || {
        let guard = llx_scx::pin();
        let vb = unsafe { b.get() }.read(0);
        drop(guard);
        assert!(
            vb == 2 || vb == 3 || vb == 7,
            "b = {vb}: committed SCX wrote none of the candidate values"
        );
    })
}

// ---------------------------------------------------------------------------
// Kernel 4: epoch pin/collect overlap (the PR-2 TOCTOU shape)
// ---------------------------------------------------------------------------

/// Poison sentinel a "reclaimed" victim is stamped with (the scenario
/// models reclamation as a poison store, keeping the probe well-defined
/// even when the checker's bug gates let the race fire).
const POISON: u64 = 0xdead;

/// T0 pins and dereferences a shared pointer; T1 swaps the pointer out
/// and defers "reclamation" (a poison store) of the old target; T2 is an
/// unpinned collector (`collect_now`) that can stall between its slot
/// scan and its queue detach. The fixed collector bounds the detach by
/// the epoch it installed, so a pin it missed stays protected; with the
/// `llx_model_bugs` gate that bound is dropped and some schedule frees
/// the victim under T0's pin.
fn pin_collect() -> Execution {
    reset_world();
    // Victims are *instrumented* atomics (every access is a preemption
    // point — the race needs reclamation to land between a reader's
    // pointer load and its dereference), leaked so the poison probe
    // stays defined even on buggy schedules that "free" under a reader.
    type MAtomic = modelcheck::sync::AtomicU64;
    use modelcheck::sync::Ordering as MO;
    let victim: &'static MAtomic = Box::leak(Box::new(MAtomic::new(42)));
    let replacement: &'static MAtomic = Box::leak(Box::new(MAtomic::new(43)));
    let ptr: Arc<MAtomic> = Arc::new(MAtomic::new(victim as *const MAtomic as usize as u64));
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    {
        let ptr = ptr.clone();
        threads.push(Box::new(move || {
            let guard = crossbeam_epoch::pin();
            let p = ptr.load(MO::SeqCst) as usize as *const MAtomic;
            let v = unsafe { &*p }.load(MO::SeqCst);
            drop(guard);
            assert_ne!(v, POISON, "epoch-protected read observed a reclaimed value");
        }));
    }
    {
        let ptr = ptr.clone();
        threads.push(Box::new(move || {
            let guard = crossbeam_epoch::pin();
            let old = ptr.swap(replacement as *const MAtomic as usize as u64, MO::SeqCst) as usize
                as *const MAtomic;
            let old = Ptr(old);
            // SAFETY: the "reclamation" is a poison store into a leaked
            // allocation; running it early is the bug under test, not UB.
            unsafe {
                guard.defer_unchecked(move || {
                    old.get().store(POISON, MO::SeqCst);
                });
            }
            // Push the deferred closure into the global queue (and run a
            // pinned collection, which must *not* reclaim it: this
            // thread's own pin is younger than the closure's tag).
            guard.flush();
        }));
    }
    threads.push(Box::new(move || {
        // The unpinned collector: its slot scan can miss a pin that
        // lands right after it.
        let _ = crossbeam_epoch::collect_now();
    }));
    Execution::new(threads)
}

// ---------------------------------------------------------------------------
// Kernel 6: stage-2 destroy-claim handshake vs a pending drop_shim
// (the PR-9 recycling UAF shape)
// ---------------------------------------------------------------------------

/// Bit layout of the packed stage-2 word, mirroring
/// `llx_scx::header::{RC_CLAIMED, RC_DEPS_RELEASED, RC_REFS_MASK}`.
const K6_CLAIMED: usize = 1 << (usize::BITS - 1);
const K6_DEPS: usize = 1 << (usize::BITS - 2);
const K6_REFS: usize = K6_DEPS - 1;

/// Shared state for the stage-2 handshake kernels: the header of a dead
/// SCX-record `u` that was claimed and staged for destruction, then had
/// its count resurrected to 1 by a successor's `info_fields` hold.
/// T0 models the successor's dependency stage releasing that final hold
/// (`release_common`); T1 models `drop_shim` running at the end of `u`'s
/// destruction epoch. Disposal is modeled as an immediate recycle of the
/// block into a live successor record (the pool's worst case: a freed
/// block round-trips to a peer's `alloc` within the same epoch), with
/// the fresh-header stores standing in for the allocator's unordered
/// `ptr::write`. The invariant under test:
/// once the block is recycled, no straggler of dead `u` may ever claim
/// (= retire) the live record occupying it, and exactly one party must
/// end up owning destruction.
struct K6 {
    /// Packed word (fixed shape) — refs | deps_released | claimed.
    rc: modelcheck::sync::AtomicUsize,
    /// Split fields (pre-fix shape; exercised only by the regression
    /// kernel under `llx_model_bugs`).
    #[cfg_attr(not(llx_model_bugs), allow(dead_code))]
    refs: modelcheck::sync::AtomicUsize,
    #[cfg_attr(not(llx_model_bugs), allow(dead_code))]
    deps_released: modelcheck::sync::AtomicBool,
    #[cfg_attr(not(llx_model_bugs), allow(dead_code))]
    claimed: modelcheck::sync::AtomicBool,
    /// Bookkeeping (uninstrumented): block recycled into live successor.
    live2: StdAtomicBool,
    /// Bookkeeping: a straggler of `u` retired the live successor.
    spurious: StdAtomicBool,
    /// Bookkeeping: destruction was legitimately re-staged for `u`.
    restaged: StdAtomicBool,
}

use std::sync::atomic::AtomicBool as StdAtomicBool;

impl K6 {
    fn new() -> &'static K6 {
        use modelcheck::sync as ms;
        Box::leak(Box::new(K6 {
            rc: ms::AtomicUsize::new(1 | K6_DEPS | K6_CLAIMED),
            refs: ms::AtomicUsize::new(1),
            deps_released: ms::AtomicBool::new(true),
            claimed: ms::AtomicBool::new(true),
            live2: StdAtomicBool::new(false),
            spurious: StdAtomicBool::new(false),
            restaged: StdAtomicBool::new(false),
        }))
    }

    /// A claim decision on this address after the block was recycled
    /// retires the *live successor*, not `u`.
    fn claim_won(&self) {
        if self.live2.load(O::SeqCst) {
            self.spurious.store(true, O::SeqCst);
        } else {
            self.restaged.store(true, O::SeqCst);
        }
    }
}

/// Fixed shape: the packed single-word protocol of `reclaim.rs` /
/// `pool.rs` — a releaser's decrement and destroy-claim commit in one
/// RMW, and `drop_shim` either observes a settled zero (dispose) or
/// un-claims in one RMW (hand ownership to the pending release). Every
/// schedule must keep the recycled block unmolested.
fn stage2_handshake() -> Execution {
    use modelcheck::sync::Ordering as MO;
    reset_world();
    let k = K6::new();
    let threads: Vec<Box<dyn FnOnce() + Send>> = vec![
        // T0: release_common — the final hold's release.
        Box::new(move || {
            let mut cur = k.rc.load(MO::SeqCst);
            loop {
                let mut next = cur - 1;
                let claim = next & K6_REFS == 0 && next & K6_DEPS != 0 && next & K6_CLAIMED == 0;
                if claim {
                    next |= K6_CLAIMED;
                }
                match k
                    .rc
                    .compare_exchange_weak(cur, next, MO::SeqCst, MO::SeqCst)
                {
                    Ok(_) => {
                        if claim {
                            k.claim_won();
                        }
                        return;
                    }
                    Err(now) => cur = now,
                }
            }
        }),
        // T1: drop_shim at the end of u's destruction epoch.
        Box::new(move || {
            let mut cur = k.rc.load(MO::SeqCst);
            loop {
                if cur & K6_REFS == 0 {
                    // Settled zero: dispose, block recycles into a live
                    // successor (fresh header = one word store).
                    k.live2.store(true, O::SeqCst);
                    k.rc.store(1, MO::SeqCst);
                    return;
                }
                match k
                    .rc
                    .compare_exchange_weak(cur, cur & !K6_CLAIMED, MO::SeqCst, MO::SeqCst)
                {
                    Ok(_) => return,
                    Err(now) => cur = now,
                }
            }
        }),
    ];
    Execution::new(threads).with_check(move || {
        assert!(
            !k.spurious.load(O::SeqCst),
            "a straggler of the dead record retired the live successor in its recycled block"
        );
        use modelcheck::sync::Ordering as MO;
        if k.live2.load(O::SeqCst) {
            assert!(
                !k.restaged.load(O::SeqCst),
                "double ownership: disposed AND re-staged"
            );
            assert_eq!(
                k.rc.load(MO::SeqCst),
                1,
                "straggler corrupted the recycled successor's header"
            );
        } else {
            assert!(
                k.restaged.load(O::SeqCst),
                "nobody ended up owning destruction (record orphaned)"
            );
        }
    })
}

/// Pre-fix shape (regression target): `refs`, `deps_released` and
/// `claimed` as three separate atomics. The final releaser evaluates
/// `fetch_sub == 1 && deps_released.load() && !claimed.swap(true)` —
/// two header touches *after* the decrement — while `drop_shim`
/// disposes the moment it owns the claim. Some schedule recycles the
/// block between the straggler's decrement and its trailing touches,
/// and the stale `claimed` swap retires the live successor.
#[cfg(llx_model_bugs)]
fn stage2_handshake_prefix() -> Execution {
    use modelcheck::sync::Ordering as MO;
    reset_world();
    let k = K6::new();
    // Models the block being reused by a peer's alloc immediately after
    // dispose: an unordered ptr::write of a fresh header.
    let recycle = move || {
        k.live2.store(true, O::SeqCst);
        k.claimed.store(false, MO::SeqCst);
        k.refs.store(1, MO::SeqCst);
        k.deps_released.store(false, MO::SeqCst);
    };
    let threads: Vec<Box<dyn FnOnce() + Send>> = vec![
        // T0: pre-fix release_common.
        Box::new(move || {
            if k.refs.fetch_sub(1, MO::SeqCst) == 1
                && k.deps_released.load(MO::SeqCst)
                && !k.claimed.swap(true, MO::SeqCst)
            {
                k.claim_won();
            }
        }),
        // T1: pre-fix drop_shim (re-arm, then dispose inline on winning
        // the claim back).
        Box::new(move || {
            if k.refs.load(MO::SeqCst) != 0 {
                k.claimed.store(false, MO::SeqCst);
                if k.refs.load(MO::SeqCst) != 0 || k.claimed.swap(true, MO::SeqCst) {
                    return;
                }
            }
            recycle();
        }),
    ];
    Execution::new(threads).with_check(move || {
        assert!(
            !k.spurious.load(O::SeqCst),
            "a straggler of the dead record retired the live successor in its recycled block"
        );
        use modelcheck::sync::Ordering as MO;
        if k.live2.load(O::SeqCst) {
            assert!(
                !k.claimed.load(MO::SeqCst),
                "straggler corrupted the recycled successor's claimed flag"
            );
        }
    })
}

// ---------------------------------------------------------------------------
// Kernel 5: 2-thread kCAS conflict (descriptor helping)
// ---------------------------------------------------------------------------

/// Two kCAS operations race over the same two cells with the same
/// expected values: exactly one must commit, and both cells must move
/// together (all-or-nothing), under every schedule.
fn kcas_conflict() -> Execution {
    reset_world();
    let c0 = Ptr(Box::leak(Box::new(mwcas::KcasCell::new(0))) as *const mwcas::KcasCell);
    let c1 = Ptr(Box::leak(Box::new(mwcas::KcasCell::new(0))) as *const mwcas::KcasCell);
    let wins: Arc<StdAtomicUsize> = Arc::new(StdAtomicUsize::new(0));
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    for val in [1u64, 2u64] {
        let wins = wins.clone();
        threads.push(Box::new(move || {
            let guard = crossbeam_epoch::pin();
            let (a, b) = unsafe { (c0.get(), c1.get()) };
            if mwcas::kcas(&[(a, 0, val), (b, 0, val)], &guard) {
                wins.fetch_add(1, O::SeqCst);
            }
        }));
    }
    Execution::new(threads).with_check(move || {
        let guard = crossbeam_epoch::pin();
        let (a, b) = unsafe { (c0.get(), c1.get()) };
        let (va, vb) = (a.read(&guard), b.read(&guard));
        drop(guard);
        assert_eq!(wins.load(O::SeqCst), 1, "exactly one racing kCAS must win");
        assert_eq!(va, vb, "kCAS tore: cells moved independently");
        assert!(va == 1 || va == 2, "cells hold neither candidate value");
    })
}

// ---------------------------------------------------------------------------
// Kernel 7: a splice undone by an uncopied promotion (patricia's §4.1 ABA)
// ---------------------------------------------------------------------------

/// A Patricia-shaped neighbourhood built directly on `Domain`: the entry
/// record `p` whose `LEFT` field holds the leaf `c`. T1 splices a new
/// internal node `i` over a new leaf `x` and `c` with `V=⟨p⟩`, and can
/// stall before its update CAS. T2 LLXes `p` (helping T1's SCX commit
/// if it finds `p` frozen for it) and then removes `x` again, putting
/// `i`'s other child back into `p.LEFT`: `c` itself with `V=⟨p, i, x⟩`
/// (`copy_sibling = false`) or a fresh copy of `c` with `V=⟨p, i, x, c⟩`
/// (`true`, the only shape `llx_scx::Tx` can express). Without the copy `p.LEFT` goes
/// `c → i → c` and T1's resumed update CAS wins a second time, which
/// debug builds of the library catch.
fn splice_promote(copy_sibling: bool) -> Execution {
    use llx_scx::{pack_ptr, DataRecord, NULL};
    const LEFT: usize = 0;
    reset_world();
    let dom: Arc<Domain<2, u8>> = Arc::new(Domain::new());
    let c = Ptr(dom.alloc(0, [NULL, NULL]));
    let c_word = pack_ptr(c.0);
    let p = Ptr(dom.alloc(0, [c_word, NULL]));
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    {
        let dom = dom.clone();
        threads.push(Box::new(move || {
            let guard = llx_scx::pin();
            for _ in 0..16 {
                let Some(sp) = dom.llx(unsafe { p.get() }, &guard).snapshot() else {
                    continue;
                };
                let x = dom.alloc(1, [NULL, NULL]);
                let i = dom.alloc(2, [pack_ptr(x), c_word]);
                if dom.scx(
                    ScxRequest::new(&[sp], FieldId::new(0, LEFT), pack_ptr(i)),
                    &guard,
                ) {
                    return;
                }
            }
        }));
    }
    {
        let dom = dom.clone();
        threads.push(Box::new(move || {
            let guard = llx_scx::pin();
            let rc = unsafe { c.get() };
            let rec = |w: u64| unsafe { &*(w as usize as *const DataRecord<2, u8>) };
            for _ in 0..16 {
                let Some(sp) = dom.llx(unsafe { p.get() }, &guard).snapshot() else {
                    continue;
                };
                if sp.value(LEFT) == c_word {
                    return; // the splice is not visible: nothing to remove
                }
                let Some(si) = dom.llx(rec(sp.value(LEFT)), &guard).snapshot() else {
                    continue;
                };
                let Some(sx) = dom.llx(rec(si.value(LEFT)), &guard).snapshot() else {
                    continue;
                };
                let committed = if copy_sibling {
                    let Some(sc) = dom.llx(rc, &guard).snapshot() else {
                        continue;
                    };
                    let copy = dom.alloc(*rc.immutable(), *sc.values());
                    let v = [sp, si, sx, sc];
                    let req = ScxRequest::new(&v, FieldId::new(0, LEFT), pack_ptr(copy));
                    dom.scx(req.finalize_mask(0b1110), &guard)
                } else {
                    let v = [sp, si, sx];
                    let req = ScxRequest::new(&v, FieldId::new(0, LEFT), c_word);
                    dom.scx(req.finalize_mask(0b110), &guard)
                };
                if committed {
                    return;
                }
            }
        }));
    }
    Execution::new(threads).with_check(move || {
        let guard = llx_scx::pin();
        let top = unsafe { p.get() }.read(LEFT) as usize as *const DataRecord<2, u8>;
        let linked_finalized = unsafe { &*top }.is_marked();
        drop(guard);
        assert!(!linked_finalized, "p.LEFT links a finalized record");
    })
}

/// Explorer pinned at bound >= 2: the regression tests must find their
/// races even when a quick run exports `LLX_MODEL_BOUND=1`.
fn detector() -> Explorer {
    let mut ex = Explorer::from_env();
    ex.bound = ex.bound.max(2);
    ex
}

/// Explore `factory` twice with [`detector`]; assert a failure is found,
/// on the same schedule both times, and return its message.
fn find_deterministically<F: FnMut() -> Execution + Copy>(name: &str, factory: F) -> String {
    let first = detector().explore(name, factory);
    assert!(
        !first.failures.is_empty(),
        "{name}: bound {} explored {} schedules without a failure",
        detector().bound,
        first.schedules
    );
    let again = detector().explore(name, factory);
    assert_eq!(
        first.failures[0].schedule, again.failures[0].schedule,
        "detection must be deterministic, not probabilistic"
    );
    println!(
        "{name}: found after {} schedules: {}",
        first.schedules, first.failures[0].message
    );
    first.failures[0].message.clone()
}

// ---------------------------------------------------------------------------
// Fixed-semantics suite: exhaustive up to the bound, zero failures
// ---------------------------------------------------------------------------

#[cfg(not(llx_model_bugs))]
mod fixed {
    use super::*;

    #[test]
    fn scx_conflict_exhaustive() {
        let r = Explorer::from_env().check("scx_conflict", scx_conflict);
        println!(
            "scx_conflict: {} schedules, {} abandoned, {} hb warnings",
            r.schedules,
            r.abandoned,
            r.warnings.len()
        );
    }

    #[test]
    fn llx_vlx_scx_exhaustive() {
        let r = Explorer::from_env().check("llx_vlx_scx", llx_vlx_scx);
        println!(
            "llx_vlx_scx: {} schedules, {} abandoned",
            r.schedules, r.abandoned
        );
    }

    #[test]
    fn pool_recycle_exhaustive() {
        let r = Explorer::from_env().check("pool_recycle", pool_recycle);
        println!(
            "pool_recycle: {} schedules, {} abandoned",
            r.schedules, r.abandoned
        );
    }

    #[test]
    fn pin_collect_exhaustive() {
        let r = Explorer::from_env().check("pin_collect", pin_collect);
        println!(
            "pin_collect: {} schedules, {} abandoned",
            r.schedules, r.abandoned
        );
    }

    #[test]
    fn kcas_conflict_exhaustive() {
        let r = Explorer::from_env().check("kcas_conflict", kcas_conflict);
        println!(
            "kcas_conflict: {} schedules, {} abandoned",
            r.schedules, r.abandoned
        );
    }

    /// Kernel 7 with the sibling copied: clean under every schedule.
    #[test]
    fn splice_promote_copied_exhaustive() {
        let r = detector().check("splice_promote[copy]", || splice_promote(true));
        println!(
            "splice_promote[copy]: {} schedules, {} abandoned",
            r.schedules, r.abandoned
        );
    }

    /// Kernel 7 with the sibling itself promoted: the library's
    /// update-CAS detector must name the second win, deterministically.
    /// This bug lives in the client, not behind a library cfg gate, so
    /// the test runs in the clean build.
    #[test]
    #[cfg(debug_assertions)]
    fn finds_uncopied_promotion_aba() {
        let msg = find_deterministically("splice_promote[uncopied]", || splice_promote(false));
        assert!(msg.contains("update CAS won twice"), "{msg}");
    }

    #[test]
    fn stage2_handshake_exhaustive() {
        let r = Explorer::from_env().check("stage2_handshake", stage2_handshake);
        println!(
            "stage2_handshake: {} schedules, {} abandoned",
            r.schedules, r.abandoned
        );
    }
}

// ---------------------------------------------------------------------------
// Regression suite: the PR-2 seed races must be found deterministically
// ---------------------------------------------------------------------------

#[cfg(llx_model_bugs)]
mod regression {
    use super::*;

    /// The SCX-record address-recycling ABA (PR 2, seed race A): with the
    /// `info_fields` holds and the epoch stage gated out, the explorer
    /// must find a schedule where a stalled helper's freezing CAS runs
    /// against a recycled block — and must find the *same* schedule every
    /// time.
    #[test]
    fn finds_scx_recycling_aba() {
        find_deterministically("pool_recycle[bugs]", pool_recycle);
    }

    /// The epoch-shim collect TOCTOU (PR 2, seed race B): with the
    /// `epoch_now` bound gated out of the shim's `collect`, some schedule
    /// reclaims under a pin the slot scan missed.
    #[test]
    fn finds_epoch_collect_toctou() {
        find_deterministically("pin_collect[bugs]", pin_collect);
    }

    /// The stage-2 recycling race (PR 9, pre-existing since the PR-5
    /// pool): with `refs`/`deps_released`/`claimed` as three separate
    /// atomics, a final releaser's trailing touches after its decrement
    /// race `drop_shim`'s dispose-and-recycle, and the stale `claimed`
    /// swap retires the live successor occupying the reused block. The
    /// explorer must find it deterministically; the packed-word protocol
    /// (`stage2_handshake`, fixed suite) must survive every schedule.
    #[test]
    fn finds_stage2_recycling_race() {
        find_deterministically("stage2_handshake[prefix]", stage2_handshake_prefix);
    }

    /// Sanity: kernels that don't exercise the gated code still pass with
    /// the bugs compiled in (the gates are narrow, not wholesale breakage).
    #[test]
    fn scx_conflict_still_clean_under_bug_cfg() {
        Explorer::from_env().check("scx_conflict[bugs]", scx_conflict);
    }
}
