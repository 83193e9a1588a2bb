//! The LLX / SCX / VLX algorithm (paper Fig. 4), hosted by a [`Domain`].
//!
//! Code comments cite the pseudocode line numbers of Fig. 4 so the
//! implementation can be audited against the paper side by side. The
//! proof-named steps map to these sites:
//!
//! | paper step        | site                                   |
//! |-------------------|----------------------------------------|
//! | freezing CAS      | `help`, the `compare_exchange` on `r.info` (line 26) |
//! | frozen check step | `help`, `all_frozen` (line 29)          |
//! | abort step        | `help`, `set_state(Aborted)` (line 34)  |
//! | frozen step       | `help`, `set_all_frozen` (line 37)      |
//! | mark step         | `help`, `marked.store(true)` (line 38)  |
//! | update CAS        | `help`, `compare_exchange` on `fld` (line 39) |
//! | commit step       | `help`, `set_state(Committed)` (line 41)|
//!
//! SCX-records are not allocated: each thread reuses one descriptor
//! (see the `header` module), and `help` works on a private
//! [`ScxRecord`] copy of it.

use crate::sync::Ordering;
use std::fmt;
use std::marker::PhantomData;

use crossbeam_epoch::Guard;

use crate::handle::{Llx, LlxResult, ScxRequest};
use crate::header::{self, ScxState};
use crate::record::DataRecord;
use crate::scx_record::ScxRecord;
use crate::stats::{bump, Stats, StatsSnapshot};

/// A domain hosting Data-records with `M` mutable fields and immutable
/// payload `I`, and providing the LLX/SCX/VLX operations on them.
///
/// A domain fixes the record type, `(M, I)`. Helping is type-blind (an
/// SCX names its records through their common head), so one thread's
/// descriptor serves every domain. One data structure instance owns one
/// domain (see the `multiset` and `trees` crates for worked examples).
///
/// Domains are cheap; the only shared state is the optional stats block.
pub struct Domain<const M: usize, I> {
    pub(crate) stats: Option<Box<Stats>>,
    _marker: PhantomData<fn(I)>,
}

impl<const M: usize, I> Default for Domain<M, I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const M: usize, I> fmt::Debug for Domain<M, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Domain")
            .field("mutable_fields", &M)
            .field("stats_enabled", &self.stats.is_some())
            .finish()
    }
}

impl<const M: usize, I> Domain<M, I> {
    /// A new domain with step counting disabled.
    pub fn new() -> Self {
        Domain {
            stats: None,
            _marker: PhantomData,
        }
    }

    /// A new domain that counts algorithm steps; see [`Domain::stats`].
    pub fn with_stats() -> Self {
        Domain {
            stats: Some(Box::default()),
            _marker: PhantomData,
        }
    }

    /// A snapshot of the step counters, or `None` if this domain was not
    /// created with [`Domain::with_stats`].
    pub fn stats(&self) -> Option<StatsSnapshot> {
        self.stats.as_deref().map(Stats::snapshot)
    }

    /// Allocate a new Data-record with the given immutable payload and
    /// initial mutable field values. The record's `info` field names the
    /// dummy SCX-record and its `marked` bit is false (paper Fig. 1).
    ///
    /// The block comes from the calling thread's record pool (a block of
    /// the same layout that this thread retired earlier, else the
    /// allocator). The returned pointer is owned by the caller's
    /// data structure and may leave only through [`Domain::retire`]
    /// after unlinking or [`Domain::dealloc`] if it was never
    /// published. It is **not** a `Box` allocation: `Box::from_raw` on
    /// it is undefined behaviour.
    pub fn alloc(&self, immutable: I, init: [u64; M]) -> *const DataRecord<M, I> {
        crate::pool::alloc(DataRecord::new(immutable, init))
    }

    /// Reclaim a record once the data structure has unlinked it, deferred
    /// past the current epoch.
    ///
    /// The record is staged on the calling thread's destruction list;
    /// every 32 staged records share one epoch-deferred batch. When the
    /// epoch expires the record is dropped in place and its block
    /// recycled for the next allocation of the same layout.
    /// [`flush_reclamation`](crate::flush_reclamation) seals a partial
    /// batch. Debug builds panic at a second `retire`/`dealloc` of the
    /// same record.
    ///
    /// # Safety
    ///
    /// `record` must have been produced by [`Domain::alloc`] on this
    /// domain, must be unreachable for any thread that pins a *new*
    /// guard, and must be retired or deallocated at most once.
    pub unsafe fn retire(&self, record: *const DataRecord<M, I>, guard: &Guard) {
        crate::pool::retire_data(record as *mut DataRecord<M, I>, guard);
    }

    /// Immediately drop a record that is reachable by no other thread
    /// (e.g. a speculative node whose SCX failed, or every node of a
    /// structure being torn down) and recycle its block.
    ///
    /// # Safety
    ///
    /// `record` must have been produced by [`Domain::alloc`] on this
    /// domain, must be reachable by no other thread, and must be
    /// retired or deallocated at most once.
    pub unsafe fn dealloc(&self, record: *const DataRecord<M, I>) {
        crate::pool::dealloc_data(record as *mut DataRecord<M, I>);
    }

    /// Dereference a packed record pointer under a guard.
    ///
    /// # Safety
    ///
    /// `word` must be a non-null value packed with
    /// [`pack_ptr`](crate::pack_ptr) from a record of this domain that
    /// was reachable from the structure while `guard` was pinned.
    #[inline]
    pub unsafe fn deref<'g>(&self, word: u64, _guard: &'g Guard) -> &'g DataRecord<M, I> {
        debug_assert_ne!(word, 0, "dereferencing NULL record pointer");
        &*(word as usize as *const DataRecord<M, I>)
    }

    /// **LLX(r)** — take an atomic snapshot of `r`'s mutable fields
    /// (paper Fig. 4 lines 1–16).
    ///
    /// Returns [`LlxResult::Snapshot`] with the values, or
    /// [`LlxResult::Finalized`] if `r` was finalized by a committed SCX,
    /// or [`LlxResult::Fail`] if the LLX was concurrent with an SCX
    /// involving `r` (retry in that case).
    pub fn llx<'g>(&self, r: &'g DataRecord<M, I>, _guard: &'g Guard) -> LlxResult<'g, M, I> {
        let st = self.stats.as_deref();
        bump!(st, llx_attempts);
        let marked1 = r.head.marked.load(Ordering::SeqCst); // ord: SC (paper Fig. 4 line 3)
        let rinfo = r.load_info(); // line 4
        let state = header::state(rinfo); // line 5
        let marked2 = r.head.marked.load(Ordering::SeqCst); // ord: SC (paper Fig. 4 line 6)

        // line 7: was r frozen at line 5? An SCX that has finished reads
        // as committed, so `marked2` decides.
        if state == ScxState::Aborted || (state == ScxState::Committed && !marked2) {
            let mut values = [0u64; M];
            for (i, slot) in values.iter_mut().enumerate() {
                *slot = r.mutable[i].load(Ordering::SeqCst); // ord: SC (paper Fig. 4 line 8)
            }
            // line 9: info words never recur, so equality means no SCX
            // froze r since line 4.
            if r.load_info() == rinfo {
                bump!(st, llx_snapshots);
                // line 10's local table is replaced by the returned handle.
                return LlxResult::Snapshot(Llx {
                    record: r,
                    info: rinfo,
                    values,
                }); // line 11
            }
        }

        // line 12: marked1 means rinfo is the SCX that finalized r, which
        // committed however it reads.
        if settle(st, rinfo) && marked1 {
            bump!(st, llx_finalized);
            return LlxResult::Finalized; // line 13
        }

        // line 15
        settle(st, r.load_info());
        bump!(st, llx_fails);
        LlxResult::Fail // line 16
    }

    /// **SCX(V, R, fld, new)** — atomically verify that no record in `V`
    /// changed since the linked LLXs, store `new` into `fld`, and
    /// finalize every record in `R` (paper Fig. 4 lines 17–21).
    ///
    /// Returns `true` on success. On `false`, no change was made and the
    /// caller should re-read the structure (fresh LLXs) before retrying.
    ///
    /// # Usage constraints (paper §4.1)
    ///
    /// These cannot be checked by the library and must be guaranteed by
    /// the caller for the correctness proof to apply:
    ///
    /// 1. `new` must not be the initial value of `fld`, and no
    ///    `SCX(.., fld, new)` with the same `fld` and `new` may have been
    ///    linearized before the linked LLX of `fld`'s record (no ABA on
    ///    mutable fields). Storing pointers to freshly allocated records
    ///    always satisfies this; [`Tx`](crate::Tx) is the checked path
    ///    that stores nothing else. Debug builds panic if a broken
    ///    constraint lets an update CAS win twice.
    /// 2. Once the structure is quiescent, all `V` sequences passed to
    ///    subsequent SCXs must be consistent with one total order on
    ///    records (pass `V` in traversal order).
    pub fn scx(&self, req: ScxRequest<'_, '_, M, I>, _guard: &Guard) -> bool {
        header::with_own(|tid| self.scx_as(tid, req))
    }

    /// [`Domain::scx`] run in descriptor `tid`, which the caller owns.
    pub(crate) fn scx_as(&self, tid: usize, req: ScxRequest<'_, '_, M, I>) -> bool {
        let st = self.stats.as_deref();
        bump!(st, scx_attempts);
        debug_assert_ne!(
            req.v[req.fld.record].values[req.fld.field], req.new,
            "SCX constraint: `new` must differ from the value read by the linked LLX"
        );
        let (last, state) = header::descriptor(tid).latest();
        // A panic mid-SCX (a debug detector firing) can leave the last
        // SCX in progress: finish it before its fields are rewritten.
        if last > 0 && state == ScxState::InProgress {
            settle(None, header::info_word(tid, last));
        }
        // lines 19–21: fill this thread's descriptor and publish it.
        let u = ScxRecord::publish(tid, last + 1, &req);
        let result = help(st, &u);
        // The descriptor is rewritten only once its state word is final.
        debug_assert_ne!(u.desc.state(u.seq), ScxState::InProgress);
        if result {
            bump!(st, scx_commits);
        } else {
            bump!(st, scx_aborts);
        }
        result
    }

    /// **VLX(V)** — validate that no record in `V` changed since the
    /// linked LLXs (paper Fig. 4 lines 43–48). Costs `|V|` shared reads.
    pub fn vlx(&self, v: &[Llx<'_, M, I>]) -> bool {
        let st = self.stats.as_deref();
        bump!(st, vlx_attempts);
        for h in v {
            bump!(st, reads);
            if h.record.load_info() != h.info {
                return false; // line 47
            }
        }
        bump!(st, vlx_successes);
        true // line 48
    }
}

/// A record a test allocates and never publishes, deallocated when the
/// test ends, by unwinding too, so a `should_panic` test leaks nothing.
#[cfg(test)]
pub(crate) struct TestRecord<'d, const M: usize, I> {
    domain: &'d Domain<M, I>,
    ptr: *const DataRecord<M, I>,
}

#[cfg(test)]
impl<'d, const M: usize, I> TestRecord<'d, M, I> {
    pub(crate) fn new(domain: &'d Domain<M, I>, immutable: I, init: [u64; M]) -> Self {
        let ptr = domain.alloc(immutable, init);
        TestRecord { domain, ptr }
    }
}

#[cfg(test)]
impl<const M: usize, I> std::ops::Deref for TestRecord<'_, M, I> {
    type Target = DataRecord<M, I>;
    fn deref(&self) -> &DataRecord<M, I> {
        // SAFETY: allocated by `new`, freed only by `drop`.
        unsafe { &*self.ptr }
    }
}

#[cfg(test)]
impl<const M: usize, I> Drop for TestRecord<'_, M, I> {
    fn drop(&mut self) {
        // SAFETY: never published, so no other thread can reach it.
        unsafe { self.domain.dealloc(self.ptr) };
    }
}

/// Fig. 4 lines 12 and 15 for the SCX a non-dummy or dummy info word
/// names: help it if it is in progress, and report whether it committed.
/// An SCX that finished before it could be copied reads as committed.
fn settle(st: Option<&Stats>, word: u64) -> bool {
    if word == header::DUMMY {
        return false;
    }
    match ScxRecord::load(word) {
        Ok(u) => help(st, &u),
        Err(state) => state == ScxState::Committed,
    }
}

/// A frozen step or commit/abort step: a write by the owner, a
/// seq-guarded CAS by a helper.
macro_rules! step {
    ($st:expr, $u:expr, $write:ident) => {
        if $u.owner {
            bump!($st, $write);
        } else {
            bump!($st, helper_cas);
        }
    };
}

/// The cooperative `Help` routine (paper Fig. 4 lines 22–42). Run by the
/// SCX's owner and by any process that finds the SCX in progress.
fn help(st: Option<&Stats>, u: &ScxRecord) -> bool {
    bump!(st, helps);

    // lines 24–35: freeze all Data-records in u.v in order.
    for (r, rinfo) in u.v() {
        // SAFETY: records in V were reachable at their linked LLXs and
        // are protected by the owner's and the caller's guards.
        let r = unsafe { &*r };
        bump!(st, freezing_cas);
        // freezing CAS (line 26)
        let cas = r
            .info
            .compare_exchange(rinfo, u.word, Ordering::SeqCst, Ordering::SeqCst); // ord: freezing CAS; SC per paper Fig. 4
        match cas {
            Ok(_) => {}
            // cur == u: another helper already froze r for u.
            Err(cur) if cur == u.word => {}
            // line 27: r is frozen for another SCX.
            Err(_) => {
                // frozen check step (line 29): every record in V was
                // already frozen for u and the SCX has committed
                // (Lemma 53), or it has finished.
                if u.desc.all_frozen(u.seq) {
                    return true; // line 31
                }
                // abort step (line 34): atomically unfreeze all records
                // frozen for this SCX.
                step!(st, u, state_writes);
                u.desc.set_state(u.seq, ScxState::Aborted, u.owner);
                return false; // line 35
            }
        }
    }

    // frozen step (line 37): the SCX can no longer fail. A helper that
    // finds it finished stops.
    step!(st, u, frozen_writes);
    if !u.desc.set_all_frozen(u.seq, u.owner) {
        return true;
    }

    // mark steps (line 38): finalize every r in R.
    for (i, (r, _)) in u.v().enumerate() {
        if u.finalizes(i) {
            bump!(st, mark_writes);
            // SAFETY: as above.
            unsafe { (*r).marked.store(true, Ordering::SeqCst) }; // ord: mark step; SC per paper Fig. 4
        }
    }

    // update CAS (line 39): only the first one by any helper succeeds
    // (Lemma 54) unless §4.1 is broken, which debug builds catch.
    bump!(st, update_cas);
    // SAFETY: `fld` points into a record in V, protected as above.
    let won =
        unsafe { (*u.fld).compare_exchange(u.old, u.new, Ordering::SeqCst, Ordering::SeqCst) }; // ord: field-update CAS; SC per paper Fig. 4
    #[cfg(debug_assertions)]
    if won.is_ok() && u.desc.last_won_seq.swap(u.seq, Ordering::SeqCst) == u.seq {
        // ord: debug win detector; the swap's atomicity makes one of two winners see the other
        let (fld, old, new) = (u.fld, u.old, u.new);
        panic!("update CAS won twice (no-ABA broken): fld={fld:p} old={old:#x} new={new:#x}");
    }
    let _ = won;

    // commit step (line 41): finalize all r in R, unfreeze the rest.
    step!(st, u, state_writes);
    u.desc.set_state(u.seq, ScxState::Committed, u.owner);
    true // line 42
}

// A domain can be shared across threads: the algorithm synchronizes all
// shared state through atomics, and record payloads cross threads.
unsafe impl<const M: usize, I: Send + Sync> Send for Domain<M, I> {}
unsafe impl<const M: usize, I: Send + Sync> Sync for Domain<M, I> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::FieldId;

    fn snap<'g>(d: &Domain<2, u32>, r: &'g DataRecord<2, u32>, g: &'g Guard) -> Llx<'g, 2, u32> {
        d.llx(r, g).snapshot().expect("uncontended LLX")
    }

    #[test]
    fn llx_returns_initial_values() {
        let d: Domain<2, u32> = Domain::new();
        let g = crossbeam_epoch::pin();
        let r = d.alloc(9, [11, 22]);
        let s = snap(&d, unsafe { &*r }, &g);
        assert_eq!(s.values(), &[11, 22]);
        unsafe { d.retire(r, &g) };
    }

    #[test]
    fn scx_updates_single_field() {
        let d: Domain<2, u32> = Domain::new();
        let g = crossbeam_epoch::pin();
        let r = d.alloc(0, [1, 2]);
        let r_ref = unsafe { &*r };
        let s = snap(&d, r_ref, &g);
        assert!(d.scx(ScxRequest::new(&[s], FieldId::new(0, 1), 99), &g));
        assert_eq!(r_ref.read(0), 1);
        assert_eq!(r_ref.read(1), 99);
        unsafe { d.retire(r, &g) };
    }

    #[test]
    fn scx_fails_after_intervening_scx() {
        let d: Domain<2, u32> = Domain::new();
        let g = crossbeam_epoch::pin();
        let r = d.alloc(0, [1, 2]);
        let r_ref = unsafe { &*r };
        let s1 = snap(&d, r_ref, &g);
        let s2 = snap(&d, r_ref, &g);
        assert!(d.scx(ScxRequest::new(&[s2], FieldId::new(0, 0), 50), &g));
        // s1 is stale now: C4 requires this SCX to fail.
        assert!(!d.scx(ScxRequest::new(&[s1], FieldId::new(0, 0), 60), &g));
        assert_eq!(r_ref.read(0), 50);
        unsafe { d.retire(r, &g) };
    }

    #[test]
    fn finalized_record_reports_finalized_and_rejects_scx() {
        let d: Domain<2, u32> = Domain::new();
        let g = crossbeam_epoch::pin();
        let a = d.alloc(0, [1, 2]);
        let b = d.alloc(1, [3, 4]);
        let (a_ref, b_ref) = unsafe { (&*a, &*b) };
        let sa = snap(&d, a_ref, &g);
        let sb = snap(&d, b_ref, &g);
        // Store into a, finalize b (like removing b from a structure).
        assert!(d.scx(
            ScxRequest::new(&[sa, sb], FieldId::new(0, 0), 77).finalize(1),
            &g
        ));
        assert!(b_ref.is_marked());
        // P1: subsequent LLX(b) returns Finalized.
        assert!(d.llx(b_ref, &g).is_finalized());
        // And an SCX linked to a stale LLX of b must fail.
        assert!(!d.scx(ScxRequest::new(&[sb], FieldId::new(0, 0), 123), &g));
        assert_eq!(b_ref.read(0), 3, "finalized record never changes");
        unsafe {
            d.retire(a, &g);
            d.retire(b, &g);
        }
    }

    #[test]
    fn vlx_succeeds_when_unchanged_and_fails_after_change() {
        let d: Domain<2, u32> = Domain::new();
        let g = crossbeam_epoch::pin();
        let r = d.alloc(0, [1, 2]);
        let r_ref = unsafe { &*r };
        let s = snap(&d, r_ref, &g);
        assert!(d.vlx(&[s]));
        assert!(d.vlx(&[s]), "VLX does not invalidate the link");
        let s2 = snap(&d, r_ref, &g);
        assert!(d.scx(ScxRequest::new(&[s2], FieldId::new(0, 0), 5), &g));
        assert!(!d.vlx(&[s]), "VLX fails after an SCX froze the record");
        unsafe { d.retire(r, &g) };
    }

    #[test]
    fn multi_record_scx_depends_on_all_of_v() {
        let d: Domain<2, u32> = Domain::new();
        let g = crossbeam_epoch::pin();
        let a = d.alloc(0, [1, 2]);
        let b = d.alloc(1, [3, 4]);
        let (a_ref, b_ref) = unsafe { (&*a, &*b) };
        let sa = snap(&d, a_ref, &g);
        let sb = snap(&d, b_ref, &g);
        // Change b; then an SCX depending on (stale b, fresh a) must fail.
        let sb2 = snap(&d, b_ref, &g);
        assert!(d.scx(ScxRequest::new(&[sb2], FieldId::new(0, 1), 44), &g));
        assert!(!d.scx(ScxRequest::new(&[sa, sb], FieldId::new(0, 0), 10), &g));
        // With fresh LLXs on both it succeeds.
        let sa = snap(&d, a_ref, &g);
        let sb = snap(&d, b_ref, &g);
        assert!(d.scx(ScxRequest::new(&[sa, sb], FieldId::new(0, 0), 10), &g));
        assert_eq!(a_ref.read(0), 10);
        unsafe {
            d.retire(a, &g);
            d.retire(b, &g);
        }
    }

    #[test]
    fn uncontended_scx_step_complexity_matches_paper() {
        // §1: "If an SCX encounters no contention ... and finalizes f
        // Data-records, then a total of k + 1 CAS steps and f + 2 writes
        // are used for the SCX and the k LLXs on which it depends."
        for k in 1..=8usize {
            for f in 0..=k {
                let d: Domain<1, u64> = Domain::with_stats();
                let g = crossbeam_epoch::pin();
                let recs: Vec<_> = (0..k).map(|i| d.alloc(i as u64, [i as u64])).collect();
                let snaps: Vec<_> = recs
                    .iter()
                    .map(|&r| d.llx(unsafe { &*r }, &g).snapshot().unwrap())
                    .collect();
                let before = d.stats().unwrap();
                let mask = if f == 0 { 0 } else { (1u64 << f) - 1 };
                // Finalize the first f records; write into the last one
                // (which must not be finalized unless f == k... the paper
                // allows finalizing the modified record too).
                assert!(d.scx(
                    ScxRequest::new(&snaps, FieldId::new(k - 1, 0), u64::MAX).finalize_mask(mask),
                    &g
                ));
                let cost = d.stats().unwrap().diff(&before);
                assert_eq!(cost.total_cas(), (k + 1) as u64, "k={k} f={f}");
                assert_eq!(cost.total_writes(), (f + 2) as u64, "k={k} f={f}");
                for r in recs {
                    unsafe { d.retire(r, &g) };
                }
            }
        }
    }

    #[test]
    fn an_scx_left_in_progress_is_finished_before_reuse() {
        let d: Domain<1, u64> = Domain::new();
        let g = crossbeam_epoch::pin();
        let (a, b) = (d.alloc(0, [0]), d.alloc(1, [0]));
        let tid = header::acquire();
        let sa = d.llx(unsafe { &*a }, &g).snapshot().unwrap();
        // An owner that panicked right after publishing, before any
        // freezing CAS.
        let (last, _) = header::descriptor(tid).latest();
        ScxRecord::publish(
            tid,
            last + 1,
            &ScxRequest::new(&[sa], FieldId::new(0, 0), 5),
        );
        let sb = d.llx(unsafe { &*b }, &g).snapshot().unwrap();
        assert!(d.scx_as(tid, ScxRequest::new(&[sb], FieldId::new(0, 0), 6)));
        assert_eq!(unsafe { [(*a).read(0), (*b).read(0)] }, [5, 6]);
        header::release(tid);
        unsafe {
            d.retire(a, &g);
            d.retire(b, &g);
        }
    }

    #[test]
    fn vlx_costs_k_reads() {
        // §1: "A VLX on k Data-records only requires reading k words",
        // and nothing else: no CAS, no write.
        let d: Domain<1, u64> = Domain::with_stats();
        let g = crossbeam_epoch::pin();
        for k in [1usize, 2, 4, 8, 16, 32] {
            let recs: Vec<_> = (0..k).map(|i| d.alloc(i as u64, [0])).collect();
            let snaps: Vec<_> = recs
                .iter()
                .map(|&r| d.llx(unsafe { &*r }, &g).snapshot().unwrap())
                .collect();
            let before = d.stats().unwrap();
            assert!(d.vlx(&snaps));
            let cost = d.stats().unwrap().diff(&before);
            assert_eq!(cost.reads, k as u64, "k = {k}");
            assert_eq!(cost.total_cas(), 0, "k = {k}");
            assert_eq!(cost.total_writes(), 0, "k = {k}");
            for r in recs {
                unsafe { d.retire(r, &g) };
            }
        }
    }

    #[test]
    fn read_sees_last_committed_scx() {
        // C1: reads return the last value stored by a linearized SCX.
        let d: Domain<1, ()> = Domain::new();
        let g = crossbeam_epoch::pin();
        let r = d.alloc((), [0]);
        let r_ref = unsafe { &*r };
        for next in 1..10u64 {
            let s = snap1(&d, r_ref, &g);
            assert!(d.scx(ScxRequest::new(&[s], FieldId::new(0, 0), next), &g));
            assert_eq!(r_ref.read(0), next);
        }
        unsafe { d.retire(r, &g) };
    }

    fn snap1<'g>(d: &Domain<1, ()>, r: &'g DataRecord<1, ()>, g: &'g Guard) -> Llx<'g, 1, ()> {
        d.llx(r, g).snapshot().unwrap()
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "released twice")]
    fn second_retire_of_one_record_panics() {
        let d: Domain<1, u64> = Domain::new();
        let g = crossbeam_epoch::pin();
        let r = d.alloc(0, [0]);
        unsafe {
            d.retire(r, &g);
            d.retire(r, &g);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "released twice")]
    fn dealloc_after_dealloc_panics() {
        let d: Domain<1, u64> = Domain::new();
        let r = d.alloc(0, [0]);
        unsafe {
            d.dealloc(r);
            d.dealloc(r);
        }
    }

    #[test]
    fn domain_debug_and_default() {
        let d: Domain<1, ()> = Domain::default();
        let s = format!("{d:?}");
        assert!(s.contains("Domain"));
        assert!(d.stats().is_none());
        let d2: Domain<1, ()> = Domain::with_stats();
        assert!(d2.stats().is_some());
    }
}
