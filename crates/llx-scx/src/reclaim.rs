//! Reference-counted, epoch-deferred reclamation of SCX-records.
//!
//! The paper assumes a safe garbage collector: "a memory location is not
//! reallocated while any process can reach it by following pointers"
//! (§1). For Data-records, `crossbeam-epoch` provides exactly that
//! guarantee and the data-structure layer retires nodes it unlinks. For
//! SCX-records two distinct pointer paths keep a record reachable:
//!
//! 1. **`info` fields** — a record `U` may be pointed at by several
//!    Data-records' `info` fields at once (every record it froze), plus
//!    the creating invocation until it returns. LLX snapshots validate
//!    by comparing these addresses.
//! 2. **successor `info_fields`** — the *next* SCX-record on the same
//!    Data-records stores `U`'s address as the expected value of its
//!    freezing CASes. A helper of that successor — possibly stalled for
//!    a long time — eventually executes `CAS(r.info, U, successor)`. If
//!    `U`'s block were recycled into a fresh SCX-record installed in the
//!    same `info` field, that stale CAS would succeed spuriously and
//!    corrupt the structure. This path is easy to miss: it is
//!    reachability through a *descriptor*, not through the structure.
//!
//! We track path 1 in [`ScxHeader::cas_refs`] (creator + installs) and
//! the union of both paths in [`ScxHeader::refs`] (`cas_refs` + one per
//! live successor holding `U` in its `info_fields`):
//!
//! * **creation** — `refs = cas_refs = 1`, owned by the creating SCX
//!   invocation and released when [`crate::Domain::scx`] returns. The
//!   creator also [`acquire_hold`]s every header it captured in the new
//!   record's `info_fields`.
//! * **install** — a helper *pre-increments* both counters before a
//!   freezing CAS that would install `U` into `r.info`, and decrements
//!   on CAS failure. Pre-incrementing closes the window in which an
//!   installed pointer would be unaccounted.
//! * **displace** — a successful freezing CAS that replaces `W` with a
//!   different SCX-record releases `W`'s install reference (by Lemma 14
//!   only the first freezing CAS per `(U, r)` succeeds, so each
//!   installed reference is displaced at most once).
//! * **record drop** — a retired Data-record releases the reference held
//!   by its `info` field.
//! * **`cas_refs` hits zero** — no process can newly reach `U` from
//!   shared memory, and (Lemma 25) no freezing CAS belonging to `U` will
//!   ever again succeed. Processes already holding `U` — stalled helpers
//!   included — are pinned, so one epoch later `U`'s freezing CASes can
//!   no longer *execute* either: that is the moment `U`'s holds on its
//!   `info_fields` predecessors are released (batched through the
//!   `pool`'s dependency stage, which is exactly that epoch delay).
//! * **`refs` hits zero with dependencies released** — `U` is
//!   unreachable by every path; it is retired into the `pool`'s
//!   destruction stage (another epoch-deferred batch) and its block
//!   becomes reusable.
//!
//! Destruction therefore happens at least one full epoch after the last
//! pointer to `U` disappeared from shared memory, which restores the
//! paper's GC assumption even though blocks are recycled. A debug-build
//! generation stamp, checked by `Domain::llx`, asserts exactly that.
//!
//! One hazard remains: a *late* helper can pre-increment a count that
//! already reached zero (it read `U` from `r.info` moments before the
//! displacement, under its own pinned guard, so the memory is still
//! live). Its freezing CAS then necessarily fails (`r.info` never
//! returns to an old value — Lemma 12) and its decrement returns the
//! count to zero a *second* time. The `deps_scheduled` and claimed
//! flags make both zero-crossing decisions idempotent.
//!
//! **Why the stage-2 state is one packed word.** The total count, the
//! deps-released flag and the claimed flag live together in
//! [`ScxHeader::rc`], manipulated only by single RMW operations: a
//! releaser's decrement *and* its destroy-claim decision commit
//! atomically, so the moment a thread gives up its last reference it is
//! already done touching the header. With three separate atomics the
//! final releaser evaluated `refs.fetch_sub(..) == 1 &&
//! deps_released.load(..) && !claimed.swap(true, ..)` — two header
//! touches *after* the decrement. A pending `drop_shim` (racing the
//! release of a resurrected successor hold) could observe the zero,
//! win the claim, and dispose-and-recycle the block between those
//! touches; the straggler's trailing `claimed` swap then landed on a
//! *live successor record* occupying the reused block and spuriously
//! retired it — a destruction epoch that began while the record was
//! still reachable, surfacing as a recycled-address freezing CAS and a
//! data-node use-after-free (the PR-9 reproducer). A single-word RMW
//! leaves no trailing touches to race.

use crossbeam_epoch::Guard;

use crate::header::{ScxHeader, RC_CLAIMED, RC_DEPS_RELEASED, RC_REFS_MASK};
use crate::scx_record::ScxRecord;

use crate::sync::Ordering;

/// Acquire an install reference before attempting to install `hdr` into
/// an `info` field. No-op for the dummy.
#[inline]
pub(crate) fn acquire(hdr: *const ScxHeader) {
    let h = unsafe { &*hdr };
    if h.is_dummy() {
        return;
    }
    let old = h.rc.fetch_add(1, Ordering::SeqCst); // ord: SC two-stage refcount; pairs with release()
    debug_assert!(old & RC_REFS_MASK < RC_REFS_MASK);
    h.cas_refs.fetch_add(1, Ordering::SeqCst); // ord: SC two-stage refcount; pairs with release()
}

/// Acquire a successor hold: `hdr` is being captured in a new
/// SCX-record's `info_fields`. Counts into the total only. No-op for the
/// dummy.
#[inline]
pub(crate) fn acquire_hold(hdr: *const ScxHeader) {
    let h = unsafe { &*hdr };
    if h.is_dummy() {
        return;
    }
    let old = h.rc.fetch_add(1, Ordering::SeqCst); // ord: SC helper refcount; pairs with release()
    debug_assert!(old & RC_REFS_MASK < RC_REFS_MASK);
}

/// Release one install reference (creator, `info` field, or a failed
/// pre-increment); the two zero-crossings drive the two reclamation
/// stages.
///
/// # Safety
///
/// `hdr` must point at the dummy or at the header of a live
/// `ScxRecord<M, I>` of the same domain, and the caller must hold a
/// pinned guard (passed in) protecting it.
#[inline]
pub(crate) unsafe fn release<const M: usize, I>(hdr: *const ScxHeader, guard: &Guard) {
    let h = &*hdr;
    if h.is_dummy() {
        return;
    }
    #[cfg(not(llx_model_bugs))]
    if h.cas_refs.fetch_sub(1, Ordering::SeqCst) == 1 // ord: SC stage-1 decrement; last-out schedules dep release
        && !h.deps_scheduled.swap(true, Ordering::SeqCst)
    // ord: SC claim flag; at-most-once dep scheduling
    {
        // Stage 1: schedule the epoch-deferred release of this record's
        // holds on its `info_fields` predecessors.
        crate::pool::schedule_dep_release(hdr as *mut ScxRecord<M, I>, guard);
    }
    // Bug gate: no `info_fields` holds were taken (see `ops::scx`), so
    // there is no dependency stage to schedule.
    #[cfg(llx_model_bugs)]
    h.cas_refs.fetch_sub(1, Ordering::SeqCst); // ord: SC stage-1 decrement (model bug gate: deps skipped)
    release_common::<M, I>(h, hdr, guard);
}

/// Release one successor hold (from the dependency stage of the record
/// that held `hdr`).
///
/// # Safety
///
/// As [`release`].
#[inline]
pub(crate) unsafe fn release_hold<const M: usize, I>(hdr: *const ScxHeader, guard: &Guard) {
    let h = &*hdr;
    if h.is_dummy() {
        return;
    }
    release_common::<M, I>(h, hdr, guard);
}

/// Shared stage-2 decrement: the last release with dependencies already
/// released claims the record — decrement and claim are ONE atomic RMW
/// on the packed word, so after it succeeds this thread never touches
/// the header again (except through `retire`, which it now owns).
#[inline]
unsafe fn release_common<const M: usize, I>(h: &ScxHeader, hdr: *const ScxHeader, guard: &Guard) {
    let mut cur = h.rc.load(Ordering::SeqCst); // ord: SC packed-rc read; CAS below re-validates
    loop {
        debug_assert!(cur & RC_REFS_MASK > 0, "release underflow");
        let mut next = cur - 1;
        let claim =
            next & RC_REFS_MASK == 0 && next & RC_DEPS_RELEASED != 0 && next & RC_CLAIMED == 0;
        if claim {
            next |= RC_CLAIMED;
        }
        match h
            .rc
            // ord: SC packed-rc RMW; decrement + destroy-claim commit together
            .compare_exchange_weak(cur, next, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {
                if claim {
                    crate::pool::retire_scx(hdr as *mut ScxRecord<M, I>, guard);
                }
                return;
            }
            Err(now) => cur = now,
        }
    }
}

/// Stage-1 maturation, run by the pool one epoch after `cas_refs` hit
/// zero: release the record's holds on its `info_fields` predecessors,
/// then retire the record itself if every reference is gone.
///
/// # Safety
///
/// `rec` must be a live `ScxRecord<M, I>` whose `cas_refs` reached zero
/// and whose dependency stage was scheduled exactly once; the caller
/// must hold a pinned guard.
pub(crate) unsafe fn mature_deps<const M: usize, I>(rec: *const ScxRecord<M, I>, guard: &Guard) {
    let r = &*rec;
    for hdr in r.info_fields.iter() {
        release_hold::<M, I>(hdr, guard);
    }
    let h = &r.hdr;
    let mut cur = h.rc.load(Ordering::SeqCst); // ord: SC packed-rc read; CAS below re-validates
    loop {
        let mut next = cur | RC_DEPS_RELEASED;
        let claim = next & RC_REFS_MASK == 0 && next & RC_CLAIMED == 0;
        if claim {
            next |= RC_CLAIMED;
        }
        match h
            .rc
            // ord: SC packed-rc RMW; deps publish + destroy-claim commit together
            .compare_exchange_weak(cur, next, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {
                if claim {
                    crate::pool::retire_scx(rec as *mut ScxRecord<M, I>, guard);
                }
                return;
            }
            Err(now) => cur = now,
        }
    }
}

/// Release the reference held by a Data-record's `info` field from the
/// record's `Drop` impl, which runs inside an epoch-deferred callback and
/// therefore has no guard of its own; pin a fresh one.
///
/// # Safety
///
/// Same as [`release`]; additionally the caller must be the unique owner
/// of the dropping record.
pub(crate) unsafe fn release_from_record_drop<const M: usize, I>(hdr: *const ScxHeader) {
    let h = &*hdr;
    if h.is_dummy() {
        return;
    }
    // crossbeam-epoch supports pinning (and deferring) from inside a
    // deferred function; the deferred destruction is scheduled for a
    // later epoch than the record drop itself.
    let guard = crossbeam_epoch::pin();
    release::<M, I>(hdr, &guard);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::DUMMY;

    #[test]
    fn dummy_is_exempt() {
        let guard = crossbeam_epoch::pin();
        // Must not underflow or attempt destruction.
        acquire(&DUMMY);
        acquire_hold(&DUMMY);
        unsafe { release::<1, ()>(&DUMMY, &guard) };
        unsafe { release_hold::<1, ()>(&DUMMY, &guard) };
        unsafe { release_from_record_drop::<1, ()>(&DUMMY) };
    }
}
