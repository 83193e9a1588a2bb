//! SCX-records (paper Fig. 1): the published descriptor of an SCX
//! operation that lets any process help it complete.

use crate::header::ScxHeader;
use crate::inline_vec::InlineVec;
use crate::record::DataRecord;

/// Maximum length of the `V` sequence of a single SCX.
///
/// The finalize set `R` is represented as a bitmask over `V`, which
/// bounds `|V|` at 64. Every data structure in the paper and its
/// follow-ups uses `|V| <= 7`, so this is not a practical restriction.
pub(crate) const MAX_V: usize = 64;

/// The full SCX-record. `#[repr(C)]` with the non-generic [`ScxHeader`]
/// first so that `info` fields can point at the header type; `help`
/// upcasts back to `ScxRecord<M, I>` (sound because a domain's records
/// only ever point at that domain's SCX-records).
#[repr(C)]
pub(crate) struct ScxRecord<const M: usize, I> {
    /// state / allFrozen / reclamation bookkeeping.
    pub(crate) hdr: ScxHeader,
    /// The sequence `V` of Data-records this SCX depends on. Inline
    /// capacity 8 keeps ordinary SCXs allocation-free beyond the record
    /// itself (every structure in this repository uses `|V| <= 5`).
    pub(crate) v: InlineVec<*const DataRecord<M, I>, 8>,
    /// Bitmask over `v`: bit `i` set means `v[i]` is in `R` (to be
    /// finalized).
    pub(crate) finalize_mask: u64,
    /// Pointer to the mutable field to be modified (`fld`).
    pub(crate) fld: *const crate::sync::AtomicU64,
    /// The value read from `fld` by the linked LLX (`old`).
    pub(crate) old: u64,
    /// The value to store into `fld` (`new`).
    pub(crate) new: u64,
    /// For each `r` in `v`, the value of `r.info` read by the linked
    /// LLX(`r`) (`infoFields`).
    pub(crate) info_fields: InlineVec<*const ScxHeader, 8>,
    /// Debug builds: the generation of each `info_fields` entry at its
    /// linked LLX; the freezing CAS asserts the record it displaces
    /// still carries it (no recycled-address ABA).
    #[cfg(debug_assertions)]
    pub(crate) info_gens: InlineVec<u64, 8>,
    /// Debug builds: update CASes won for this SCX (Lemma 54: one).
    #[cfg(debug_assertions)]
    pub(crate) update_wins: crate::sync::AtomicU8,
}

/// Net count of live (allocated, not yet destroyed) SCX-records across
/// all domains. Maintained only in debug builds; used by leak tests.
#[cfg(debug_assertions)]
pub(crate) static LIVE_SCX_RECORDS: crate::sync::AtomicIsize = crate::sync::AtomicIsize::new(0);

/// The number of SCX-records currently allocated, or `None` in release
/// builds (where the counter is compiled out).
///
/// After all operations have ceased, all records have been retired and
/// enough epochs have been flushed, this drains to zero — the test suite
/// uses it to prove the reclamation protocol (`reclaim` module) frees
/// every SCX-record exactly once.
pub fn live_scx_records() -> Option<isize> {
    #[cfg(debug_assertions)]
    {
        Some(LIVE_SCX_RECORDS.load(crate::sync::Ordering::SeqCst)) // ord: debug live-record count; SC so tests can assert exactly
    }
    #[cfg(not(debug_assertions))]
    {
        None
    }
}

#[cfg(debug_assertions)]
impl<const M: usize, I> Drop for ScxRecord<M, I> {
    fn drop(&mut self) {
        use crate::sync::Ordering::SeqCst;
        LIVE_SCX_RECORDS.fetch_sub(1, SeqCst); // ord: debug live-record count; SC so tests can assert exactly
        let (refs, deps_released, claimed) = self.hdr.rc_parts();
        debug_assert!(
            refs == 0,
            "SCX-record destroyed with outstanding references: refs={refs} cas_refs={} \
             deps_scheduled={} deps_released={deps_released} claimed={claimed} state={:?}",
            self.hdr.cas_refs.load(SeqCst), // ord: drop-time sanity read; record is quiescent here
            self.hdr.deps_scheduled.load(SeqCst), // ord: drop-time sanity read; record is quiescent here
            self.hdr.state(),
        );
    }
}

impl<const M: usize, I> ScxRecord<M, I> {
    pub(crate) fn header_ptr(&self) -> *mut ScxHeader {
        self as *const ScxRecord<M, I> as *const ScxHeader as *mut ScxHeader
    }

    /// Upcast an `info` pointer back to the full SCX-record.
    ///
    /// # Safety
    ///
    /// `hdr` must point at the header of an `ScxRecord<M, I>` (i.e. not
    /// at the dummy), still protected by the caller's epoch guard.
    pub(crate) unsafe fn from_header<'a>(hdr: *const ScxHeader) -> &'a ScxRecord<M, I> {
        debug_assert!(!(*hdr).is_dummy(), "the dummy SCX-record is never helped");
        &*(hdr as *const ScxRecord<M, I>)
    }

    /// Whether `v[i]` is in the finalize sequence `R`.
    #[inline]
    pub(crate) fn finalizes(&self, i: usize) -> bool {
        self.finalize_mask & (1u64 << i) != 0
    }
}

// SCX-records are shared between helping threads via `info` pointers.
// The raw pointers they contain refer to Data-records and SCX-records
// whose lifetime is managed by epoch reclamation; the algorithm only
// dereferences them under a pinned guard.
unsafe impl<const M: usize, I: Send + Sync> Send for ScxRecord<M, I> {}
unsafe impl<const M: usize, I: Send + Sync> Sync for ScxRecord<M, I> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_at_offset_zero() {
        // The upcast in `from_header` relies on the header being the
        // first field of the repr(C) layout.
        assert_eq!(std::mem::offset_of!(ScxRecord<2, u64>, hdr), 0);
    }

    #[test]
    fn finalize_mask_indexing() {
        let rec: ScxRecord<1, ()> = ScxRecord {
            hdr: ScxHeader::new_in_progress(),
            v: InlineVec::new(),
            finalize_mask: 0b101,
            fld: std::ptr::null(),
            old: 0,
            new: 0,
            info_fields: InlineVec::new(),
            #[cfg(debug_assertions)]
            info_gens: InlineVec::new(),
            #[cfg(debug_assertions)]
            update_wins: crate::sync::AtomicU8::new(0),
        };
        assert!(rec.finalizes(0));
        assert!(!rec.finalizes(1));
        assert!(rec.finalizes(2));
        assert!(!rec.finalizes(3));
        // This record was never published; release the creator reference
        // so the debug Drop assertion (refs == 0) holds, and balance the
        // live-record ledger that normally counts `Domain::scx` allocs.
        rec.hdr.rc.store(0, crate::sync::Ordering::SeqCst); // ord: re-arm before reuse; record is thread-local here
        #[cfg(debug_assertions)]
        LIVE_SCX_RECORDS.fetch_add(1, crate::sync::Ordering::SeqCst); // ord: debug live-record count; SC so tests can assert exactly
    }
}
