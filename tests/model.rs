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
//! * **Regression** (`llx_model_bugs`): three races are re-introduced by
//!   cfg gates — in `llx-scx`, an info word without its `seq` (gate A)
//!   and a helper that skips its re-check after copying a descriptor
//!   (gate B); in the epoch shim, the collect TOCTOU — and the explorer
//!   must find each one *deterministically* — same failing schedule on
//!   every run — within its bound.
//!
//! Scenario hygiene: each execution's factory runs on the (uninstrumented)
//! controller thread and starts by draining process-global state —
//! `flush_reclamation` (the controller's own epoch queue and the orphans
//! that exited workers left; a worker's exit is a step of its schedule,
//! so it has always orphaned by then), `reset_pool_stats`,
//! `kcas_reset_cas_count` — so schedules are replayable and nothing bleeds
//! between executions. One piece of global state cannot be drained: the
//! epoch shim gives every live thread that has pinned a slot, and the
//! collector's slot scan makes one instrumented load per slot. A peer
//! test thread that pins, or exits, between a regression test's two
//! explorations changes that count and with it the failing schedule, so
//! run this binary with `--test-threads=1` (ci.sh's `model` stage does).
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
// Kernel 3: a stale freezing CAS against a reinstalled info word (the
// recycling ABA shape)
// ---------------------------------------------------------------------------

/// T1 runs two SCXs on `b` (`b := 2`, then `b := 3`), so its descriptor
/// installs an info word in `b.info` twice. T0 LLXes `a` and `b`, then
/// SCXes `a := b + 10` with `R = ⟨b⟩`, and can stall between its LLXs
/// and its freezing CASes. If T0 commits, `b` was unchanged from T0's
/// LLX until it was finalized (T1 cannot change it after), so
/// `a = b + 10` at the end. With gate A
/// (`llx_model_bugs`) the info word carries no `seq`: T1's second SCX
/// reinstalls the word T0 expects, T0's stale freezing CAS on `b`
/// succeeds, and `a` is computed from a value `b` no longer holds.
fn scx_recycling() -> Execution {
    reset_world();
    let dom: Arc<Domain<1, ()>> = Arc::new(Domain::new());
    let a = Ptr(dom.alloc((), [0]));
    let b = Ptr(dom.alloc((), [0]));
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    {
        let dom = dom.clone();
        threads.push(Box::new(move || {
            let guard = llx_scx::pin();
            let rb = unsafe { b.get() };
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
                let v = [sa, sb];
                let req = ScxRequest::new(&v, FieldId::new(0, 0), sb.value(0) + 10);
                if dom.scx(req.finalize(1), &guard) {
                    return;
                }
            }
        }));
    }
    Execution::new(threads).with_check(move || {
        let guard = llx_scx::pin();
        let (ra, rb) = unsafe { (a.get(), b.get()) };
        let (va, vb, finalized) = (ra.read(0), rb.read(0), rb.is_marked());
        drop(guard);
        if finalized {
            // T0 committed, after T1's first SCX, its second, or neither.
            assert!(matches!(vb, 0 | 2 | 3), "b = {vb}");
            assert_eq!(va, vb + 10, "a = {va} from a stale snapshot of b = {vb}");
        } else {
            assert_eq!((va, vb), (0, 3), "T0 gave up, so only T1's SCXs landed");
        }
    })
}

// ---------------------------------------------------------------------------
// Kernel 4: epoch pin/collect overlap (the PR-2 TOCTOU shape)
// ---------------------------------------------------------------------------

/// Poison sentinel a "reclaimed" victim is stamped with (the scenario
/// models reclamation as a poison store, keeping the probe well-defined
/// even when the checker's bug gates let the race fire).
const POISON: u64 = 0xdead;

/// T0 pins and dereferences a shared pointer; T1 swaps the pointer out,
/// defers "reclamation" (a poison store) of the old target and exits,
/// which orphans the closure; T2 is an unpinned collector
/// (`collect_now`) that can stall between its slot scan and its orphan
/// adoption. A thread runs only its own closures and the orphans, and an
/// owner's scan always sees a reader that reached what it retired, so the
/// race lives on the orphan path. The fixed collector bounds the
/// adoption by the epoch it installed, so a pin it missed stays
/// protected; with the `llx_model_bugs` gate that bound is dropped and
/// some schedule frees the victim under T0's pin.
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
            // Seal the deferred closure into this thread's queue (and run
            // a pinned collection, which must *not* reclaim it: this
            // thread's own pin is younger than the closure's tag). The
            // thread's exit, a step of this schedule, then orphans it.
            guard.flush();
        }));
    }
    threads.push(Box::new(move || {
        // The unpinned collector: its slot scan can miss a pin that
        // lands right after it, and its orphan adoption can come after
        // T1's exit.
        let _ = crossbeam_epoch::collect_now();
    }));
    Execution::new(threads)
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

// ---------------------------------------------------------------------------
// Kernel 8: a helper copying a descriptor while its owner reuses it
// ---------------------------------------------------------------------------

/// T0 runs two SCXs in its one descriptor: `a := 1` with `V = ⟨a⟩`, then
/// an increment of `b` with `V = ⟨b⟩`, retried until it commits. T1
/// LLXes `a` once, helping T0's first SCX if it finds it in progress,
/// and can stall while it copies T0's descriptor, across T0 finishing
/// that SCX and writing the next one's fields. The re-check after the
/// copy sends T1 away then. With gate B (`llx_model_bugs`) T1 helps the
/// first SCX with the second's fields: `b` is incremented for an SCX
/// that then aborts, and T0's retry increments it again. Reaching that
/// takes three preemptions (T0 mid-SCX, T1 mid-copy, T0 before it
/// publishes), so the regression test explores at bound 3.
fn descriptor_reuse() -> Execution {
    reset_world();
    let dom: Arc<Domain<1, ()>> = Arc::new(Domain::new());
    let a = Ptr(dom.alloc((), [0]));
    let b = Ptr(dom.alloc((), [0]));
    let commits: Arc<StdAtomicUsize> = Arc::new(StdAtomicUsize::new(0));
    let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
    {
        let dom = dom.clone();
        let commits = commits.clone();
        threads.push(Box::new(move || {
            let guard = llx_scx::pin();
            let (ra, rb) = unsafe { (a.get(), b.get()) };
            for _ in 0..16 {
                let Some(sa) = dom.llx(ra, &guard).snapshot() else {
                    continue;
                };
                if dom.scx(ScxRequest::new(&[sa], FieldId::new(0, 0), 1), &guard) {
                    break;
                }
            }
            for _ in 0..16 {
                let Some(sb) = dom.llx(rb, &guard).snapshot() else {
                    continue;
                };
                let v = [sb];
                if dom.scx(
                    ScxRequest::new(&v, FieldId::new(0, 0), sb.value(0) + 1),
                    &guard,
                ) {
                    commits.fetch_add(1, O::SeqCst);
                    return;
                }
            }
        }));
    }
    {
        let dom = dom.clone();
        threads.push(Box::new(move || {
            let guard = llx_scx::pin();
            let _ = dom.llx(unsafe { a.get() }, &guard);
        }));
    }
    Execution::new(threads).with_check(move || {
        let guard = llx_scx::pin();
        let (va, vb) = unsafe { (a.get().read(0), b.get().read(0)) };
        drop(guard);
        let commits = commits.load(O::SeqCst) as u64;
        assert_eq!(va, 1, "a = {va}: T0's first SCX did not land once");
        assert_eq!(vb, commits, "b = {vb} after {commits} committed increments");
    })
}

/// Explorer pinned at bound >= `min`: the regression tests must find
/// their races even when a quick run exports `LLX_MODEL_BOUND=1`.
fn detector(min: usize) -> Explorer {
    let mut ex = Explorer::from_env();
    ex.bound = ex.bound.max(min);
    ex
}

/// Explore `factory` twice with [`detector`]`(min_bound)`; assert a
/// failure is found, on the same schedule both times, and return its
/// message.
fn find_deterministically<F: FnMut() -> Execution + Copy>(
    name: &str,
    min_bound: usize,
    factory: F,
) -> String {
    let first = detector(min_bound).explore(name, factory);
    assert!(
        !first.failures.is_empty(),
        "{name}: bound {} explored {} schedules without a failure",
        detector(min_bound).bound,
        first.schedules
    );
    let again = detector(min_bound).explore(name, factory);
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
    fn scx_recycling_exhaustive() {
        let r = Explorer::from_env().check("scx_recycling", scx_recycling);
        println!(
            "scx_recycling: {} schedules, {} abandoned",
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
        let r = detector(2).check("splice_promote[copy]", || splice_promote(true));
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
        let msg = find_deterministically("splice_promote[uncopied]", 2, || splice_promote(false));
        assert!(msg.contains("update CAS won twice"), "{msg}");
    }

    /// At bound 3 at least: gate B's race needs three preemptions.
    #[test]
    fn descriptor_reuse_exhaustive() {
        let r = detector(3).check("descriptor_reuse", descriptor_reuse);
        println!(
            "descriptor_reuse: {} schedules, {} abandoned",
            r.schedules, r.abandoned
        );
    }
}

// ---------------------------------------------------------------------------
// Regression suite: each gated race must be found deterministically
// ---------------------------------------------------------------------------

#[cfg(llx_model_bugs)]
mod regression {
    use super::*;

    /// The recycling ABA (gate A): with the `seq` dropped from info
    /// words, a thread's next SCX reinstalls the word a stalled SCX's
    /// freezing CAS expects, and the explorer must find the schedule
    /// where that stale CAS succeeds — the *same* schedule every time.
    #[test]
    fn finds_scx_recycling_aba() {
        find_deterministically("scx_recycling[bugs]", 2, scx_recycling);
    }

    /// The torn descriptor copy (gate B): without the re-check after the
    /// copy, a helper of a finished SCX runs `Help` with the fields of
    /// the owner's next one.
    #[test]
    fn finds_torn_descriptor_copy() {
        find_deterministically("descriptor_reuse[bugs]", 3, descriptor_reuse);
    }

    /// The epoch-shim collect TOCTOU (PR 2, seed race B): with the
    /// `epoch_now` bound gated out of the shim's `collect`, some schedule
    /// reclaims under a pin the slot scan missed.
    #[test]
    fn finds_epoch_collect_toctou() {
        find_deterministically("pin_collect[bugs]", 2, pin_collect);
    }

    /// Sanity: kernels that don't exercise the gated code still pass with
    /// the bugs compiled in (the gates are narrow, not wholesale breakage).
    #[test]
    fn scx_conflict_still_clean_under_bug_cfg() {
        Explorer::from_env().check("scx_conflict[bugs]", scx_conflict);
    }
}
