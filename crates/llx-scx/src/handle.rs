//! LLX result handles and SCX request descriptors.
//!
//! The paper's processes store LLX results in a per-process "local table"
//! (Fig. 4 line 10) that later SCX/VLX invocations consult. In Rust we
//! make the linking explicit: [`Llx`] is the snapshot handle returned by
//! a successful LLX, and an SCX/VLX is *linked* to the LLXs whose handles
//! are passed in its `V` slice. The definition of *linked* (paper
//! Definition 7) additionally requires that the process performs no
//! intervening LLX on the same record; passing the most recent handle for
//! each record satisfies this by construction.

use std::fmt;

use crate::header::MAX_V;
use crate::record::DataRecord;

/// A snapshot handle returned by a successful
/// [`Domain::llx`](crate::Domain::llx).
///
/// Holds the record, the `info` value observed (the record's "version"),
/// and a copy of all `M` mutable fields, which together form an atomic
/// snapshot (paper Corollary 60).
pub struct Llx<'g, const M: usize, I> {
    pub(crate) record: &'g DataRecord<M, I>,
    pub(crate) info: u64,
    pub(crate) values: [u64; M],
}

impl<'g, const M: usize, I> Llx<'g, M, I> {
    /// The snapshotted value of mutable field `field`.
    ///
    /// # Panics
    ///
    /// Panics if `field >= M`.
    #[inline]
    pub fn value(&self, field: usize) -> u64 {
        self.values[field]
    }

    /// All snapshotted mutable fields.
    #[inline]
    pub fn values(&self) -> &[u64; M] {
        &self.values
    }

    /// The record this snapshot was taken from.
    #[inline]
    pub fn record(&self) -> &'g DataRecord<M, I> {
        self.record
    }
}

// `Llx` is a value type; copies denote the same linked LLX.
impl<'g, const M: usize, I> Clone for Llx<'g, M, I> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'g, const M: usize, I> Copy for Llx<'g, M, I> {}

impl<'g, const M: usize, I: fmt::Debug> fmt::Debug for Llx<'g, M, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Llx")
            .field("record", &(self.record as *const DataRecord<M, I>))
            .field("values", &&self.values[..])
            .finish()
    }
}

/// The result of an LLX (paper §3).
#[derive(Debug, Clone, Copy)]
pub enum LlxResult<'g, const M: usize, I> {
    /// A snapshot of the record's mutable fields; usable as a linked LLX
    /// for a following SCX or VLX.
    Snapshot(Llx<'g, M, I>),
    /// The record has been finalized by a committed SCX and will never
    /// change again.
    Finalized,
    /// The LLX was concurrent with an SCX involving the record; retry.
    Fail,
}

impl<'g, const M: usize, I> LlxResult<'g, M, I> {
    /// The snapshot, if this result is one. Mirrors the common
    /// `localr ∉ {Fail, Finalized}` test in the paper's client code
    /// (Fig. 6).
    #[inline]
    pub fn snapshot(self) -> Option<Llx<'g, M, I>> {
        match self {
            LlxResult::Snapshot(s) => Some(s),
            _ => None,
        }
    }

    /// True if the record was finalized.
    #[inline]
    pub fn is_finalized(&self) -> bool {
        matches!(self, LlxResult::Finalized)
    }

    /// True if the LLX failed due to contention.
    #[inline]
    pub fn is_fail(&self) -> bool {
        matches!(self, LlxResult::Fail)
    }
}

/// Identifies the mutable field an SCX writes: field `field` of record
/// `V[record]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldId {
    pub(crate) record: usize,
    pub(crate) field: usize,
}

impl FieldId {
    /// Field `field` of the `record`-th entry of the SCX's `V` sequence.
    #[inline]
    pub fn new(record: usize, field: usize) -> Self {
        FieldId { record, field }
    }
}

/// Arguments to [`Domain::scx`](crate::Domain::scx): the sequences `V`
/// and `R`, the target field `fld` and the value `new` of the paper's
/// `SCX(V, R, fld, new)`.
///
/// `R` is specified as a bitmask over `V` via [`finalize_mask`] or the
/// convenience constructors.
///
/// [`finalize_mask`]: ScxRequest::finalize_mask
pub struct ScxRequest<'v, 'g, const M: usize, I> {
    pub(crate) v: &'v [Llx<'g, M, I>],
    pub(crate) finalize_mask: u64,
    pub(crate) fld: FieldId,
    pub(crate) new: u64,
}

impl<'v, 'g, const M: usize, I> ScxRequest<'v, 'g, M, I> {
    /// An SCX depending on the linked LLXs `v`, storing `new` into the
    /// field identified by `fld`, finalizing nothing. Combine with
    /// [`finalize_mask`](Self::finalize_mask) /
    /// [`finalize`](Self::finalize) to populate `R`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is empty, longer than 8, or `fld` is out of range.
    pub fn new(v: &'v [Llx<'g, M, I>], fld: FieldId, new: u64) -> Self {
        assert!(!v.is_empty(), "SCX requires at least one linked LLX");
        assert!(v.len() <= MAX_V, "SCX supports at most {MAX_V} linked LLXs");
        assert!(fld.record < v.len(), "fld.record out of range of V");
        assert!(fld.field < M, "fld.field out of range of the record");
        ScxRequest {
            v,
            finalize_mask: 0,
            fld,
            new,
        }
    }

    /// Set `R` explicitly: bit `i` finalizes `V[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the mask selects indices outside `V`.
    pub fn finalize_mask(mut self, mask: u64) -> Self {
        assert!(
            mask >> self.v.len() == 0,
            "finalize mask selects records outside V"
        );
        self.finalize_mask = mask;
        self
    }

    /// Add `V[index]` to the finalize sequence `R`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= |V|`.
    pub fn finalize(mut self, index: usize) -> Self {
        assert!(index < self.v.len(), "finalize index outside V");
        self.finalize_mask |= 1u64 << index;
        self
    }

    /// Explicitly finalize nothing (`R = ⟨⟩`); documents intent at call
    /// sites.
    pub fn finalize_none(mut self) -> Self {
        self.finalize_mask = 0;
        self
    }
}

impl<'v, 'g, const M: usize, I: fmt::Debug> fmt::Debug for ScxRequest<'v, 'g, M, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScxRequest")
            .field("v_len", &self.v.len())
            .field("finalize_mask", &self.finalize_mask)
            .field("fld", &self.fld)
            .field("new", &self.new)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::TestRecord;
    use crate::Domain;

    #[test]
    fn llx_result_accessors() {
        let domain: Domain<1, u32> = Domain::new();
        let guard = crossbeam_epoch::pin();
        let r = domain.alloc(1, [10]);
        let res = domain.llx(unsafe { &*r }, &guard);
        let snap = res.snapshot().expect("uncontended LLX succeeds");
        assert_eq!(snap.value(0), 10);
        assert_eq!(snap.values(), &[10]);
        assert!(!res.is_finalized());
        assert!(!res.is_fail());
        unsafe { domain.retire(r, &guard) };
    }

    #[test]
    #[should_panic(expected = "at least one linked LLX")]
    fn empty_v_panics() {
        let v: &[Llx<'_, 1, u32>] = &[];
        let _ = ScxRequest::new(v, FieldId::new(0, 0), 1);
    }

    #[test]
    #[should_panic(expected = "at most 8 linked LLXs")]
    fn nine_linked_llxs_panic() {
        let domain: Domain<1, u32> = Domain::new();
        let guard = crossbeam_epoch::pin();
        let r = TestRecord::new(&domain, 1, [10]);
        let snap = domain.llx(&r, &guard).snapshot().unwrap();
        let _ = ScxRequest::new(&[snap; 9], FieldId::new(0, 0), 1);
    }

    #[test]
    #[should_panic(expected = "fld.field out of range")]
    fn field_out_of_range_panics() {
        let domain: Domain<1, u32> = Domain::new();
        let guard = crossbeam_epoch::pin();
        let r = TestRecord::new(&domain, 1, [10]);
        let snap = domain.llx(&r, &guard).snapshot().unwrap();
        let _ = ScxRequest::new(&[snap], FieldId::new(0, 1), 1);
    }

    #[test]
    #[should_panic(expected = "outside V")]
    fn finalize_out_of_range_panics() {
        let domain: Domain<1, u32> = Domain::new();
        let guard = crossbeam_epoch::pin();
        let r = TestRecord::new(&domain, 1, [10]);
        let snap = domain.llx(&r, &guard).snapshot().unwrap();
        let _ = ScxRequest::new(&[snap], FieldId::new(0, 0), 1).finalize(1);
    }
}
