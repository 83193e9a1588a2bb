//! Data-records (paper Fig. 1).

#[cfg(debug_assertions)]
use crate::sync::AtomicU8;
use crate::sync::{AtomicBool, AtomicU64, Ordering};
use std::fmt;

use crate::header::DUMMY;

/// The two fields the algorithm itself keeps in every Data-record (paper
/// Fig. 1). It is the first field of every `DataRecord<M, I>`, so `Help`
/// reaches the records of any SCX through it, whatever their type.
#[derive(Debug)]
pub(crate) struct Head {
    /// The info word `(tid, seq)` of the last SCX that (tried to) freeze
    /// the record; initially the dummy.
    pub(crate) info: AtomicU64,
    /// The finalization bit; set by a mark step, never cleared.
    pub(crate) marked: AtomicBool,
}

/// A Data-record: the unit on which LLX/SCX/VLX operate.
///
/// A `DataRecord<M, I>` has `M` mutable single-word fields (indexed
/// `0..M`), an immutable payload of type `I`, and the two fields the
/// algorithm itself needs: the `info` word naming the last SCX that froze
/// this record, and the `marked` bit used to finalize it (paper Fig. 1).
///
/// Records are created through [`Domain::alloc`](crate::Domain::alloc)
/// in blocks of the per-thread record pool and live behind raw pointers
/// managed by the enclosing data structure. A record leaves only
/// through [`Domain::retire`](crate::Domain::retire) (epoch-deferred,
/// once unlinked) or [`Domain::dealloc`](crate::Domain::dealloc) (never
/// published); it is not a `Box` allocation.
///
/// Mutable fields are plain 64-bit words; use [`pack_ptr`](crate::pack_ptr)
/// / [`unpack_ptr`](crate::unpack_ptr) to store pointers to other records.
#[repr(C)]
pub struct DataRecord<const M: usize, I> {
    /// `info` and `marked`, first in the layout.
    pub(crate) head: Head,
    /// The user's mutable fields (`m_1 .. m_y` in the paper).
    pub(crate) mutable: [AtomicU64; M],
    /// The user's immutable fields (`i_1 .. i_z` in the paper).
    pub(crate) immutable: I,
    /// Debug builds: lifecycle state, [`LIVE`] from creation until the
    /// one `retire`/`dealloc` swaps it to [`RETIRED`]. A pooled block
    /// never returns to the allocator, so a second release of one record
    /// would otherwise go unnoticed and hand the block to two owners.
    #[cfg(debug_assertions)]
    life: AtomicU8,
}

/// Debug builds: [`DataRecord::life`] of a record not yet released.
#[cfg(debug_assertions)]
const LIVE: u8 = 1;
/// Debug builds: [`DataRecord::life`] after `retire`/`dealloc`.
#[cfg(debug_assertions)]
const RETIRED: u8 = 2;

impl<const M: usize, I> DataRecord<M, I> {
    pub(crate) fn new(immutable: I, init: [u64; M]) -> Self {
        DataRecord {
            head: Head {
                info: AtomicU64::new(DUMMY),
                marked: AtomicBool::new(false),
            },
            mutable: init.map(AtomicU64::new),
            immutable,
            #[cfg(debug_assertions)]
            life: AtomicU8::new(LIVE),
        }
    }

    /// Debug builds: record this record's one release (`retire` or
    /// `dealloc`); panic, naming the address, on a second.
    #[cfg(debug_assertions)]
    pub(crate) fn mark_released(&self) {
        let was = self.life.swap(RETIRED, Ordering::Relaxed); // ord: debug lifecycle check; the swap's atomicity alone catches a double release
        assert!(
            was == LIVE,
            "Data-record {self:p} released twice: second retire/dealloc of the same record"
        );
    }

    /// Debug builds: assert at maturation that the record was released.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_released(&self) {
        let life = self.life.load(Ordering::Relaxed); // ord: debug lifecycle check; the epoch orders it after the release
        assert!(
            life == RETIRED,
            "Data-record {self:p} matured in state {life}, not retired"
        );
    }

    /// Read one mutable field directly (paper §3: reads of individual
    /// mutable fields are permitted and cheaper than a full LLX when a
    /// snapshot is not required, e.g. during traversals).
    ///
    /// # Panics
    ///
    /// Panics if `field >= M`.
    #[inline]
    pub fn read(&self, field: usize) -> u64 {
        self.mutable[field].load(Ordering::SeqCst) // ord: SC mutable-field read (paper Fig. 4)
    }

    /// Access the immutable payload. Immutable fields never change after
    /// creation (paper Observation 37), so no synchronization is needed.
    #[inline]
    pub fn immutable(&self) -> &I {
        &self.immutable
    }

    /// Whether this record has been finalized by a committed SCX.
    ///
    /// This is a racy observation intended for assertions and tests; the
    /// linearizable way to learn a record is finalized is an LLX
    /// returning [`LlxResult::Finalized`](crate::LlxResult::Finalized).
    #[inline]
    pub fn is_marked(&self) -> bool {
        self.head.marked.load(Ordering::SeqCst) // ord: SC marked read (paper Fig. 4)
    }

    /// Hint the CPU to start loading this whole record into cache (every
    /// line its `size_of::<Self>()` bytes touch), so that a traversal
    /// about to LLX it overlaps that miss with the current one.
    ///
    /// A hint, not a step: it reads nothing the algorithm sees, so LLX,
    /// SCX and VLX step counts are unchanged. It does nothing off
    /// x86_64 and under `--cfg llx_model`.
    #[inline]
    pub fn prefetch(&self) {
        #[cfg(all(target_arch = "x86_64", not(llx_model)))]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            const LINE: usize = 64;
            let base = (self as *const Self).cast::<i8>();
            let size = std::mem::size_of::<Self>();
            // The record's first byte's line up to its last byte's line.
            let skew = base.addr() % LINE;
            let mut off = 0;
            while off < skew + size {
                // SAFETY: a prefetch never faults and has no
                // architectural effect; `wrapping_sub`/`wrapping_add`
                // keep the address arithmetic defined.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(base.wrapping_sub(skew).wrapping_add(off)) };
                off += LINE;
            }
        }
    }

    /// Number of mutable fields, `M`.
    #[inline]
    pub fn num_mutable_fields(&self) -> usize {
        M
    }

    #[inline]
    pub(crate) fn load_info(&self) -> u64 {
        self.head.info.load(Ordering::SeqCst) // ord: SC info-word read (paper Fig. 4)
    }
}

impl<const M: usize, I: fmt::Debug> fmt::Debug for DataRecord<M, I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields: Vec<u64> = (0..M).map(|i| self.read(i)).collect();
        f.debug_struct("DataRecord")
            .field("immutable", &self.immutable)
            .field("mutable", &fields)
            .field("marked", &self.is_marked())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_record_points_to_dummy_and_is_unmarked() {
        let r: DataRecord<2, u32> = DataRecord::new(7, [1, 2]);
        assert!(!r.is_marked());
        assert_eq!(r.read(0), 1);
        assert_eq!(r.read(1), 2);
        assert_eq!(*r.immutable(), 7);
        assert_eq!(r.num_mutable_fields(), 2);
        assert_eq!(r.load_info(), DUMMY);
    }

    #[test]
    fn zero_mutable_fields_is_allowed() {
        let r: DataRecord<0, &str> = DataRecord::new("imm", []);
        assert_eq!(r.num_mutable_fields(), 0);
        assert_eq!(*r.immutable(), "imm");
    }

    #[test]
    fn debug_is_nonempty() {
        let r: DataRecord<1, u8> = DataRecord::new(3, [9]);
        let s = format!("{r:?}");
        assert!(s.contains("DataRecord"));
        assert!(s.contains('9'));
    }
}
