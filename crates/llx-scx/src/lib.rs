//! LLX, SCX and VLX: pragmatic primitives for non-blocking data structures.
//!
//! This crate is a from-scratch Rust implementation of the primitives
//! introduced by Brown, Ellen and Ruppert in *"Pragmatic Primitives for
//! Non-blocking Data Structures"* (PODC 2013). The primitives generalize
//! load-link / store-conditional to multi-field *Data-records*:
//!
//! * [`Domain::llx`] takes an atomic snapshot of one record's mutable
//!   fields (or reports that the record is [`finalized`](LlxResult::Finalized)).
//! * [`Domain::scx`] atomically verifies that a set of records is
//!   unchanged since the caller's *linked* LLXs, writes one word into one
//!   mutable field, and *finalizes* a subset of the records so they can
//!   never change again.
//! * [`Domain::vlx`] validates that a set of records is unchanged, using
//!   only `|V|` reads.
//!
//! The implementation follows the paper's Figure 4 pseudocode line by
//! line (each algorithm step named by the proofs — freezing CAS, frozen
//! step, mark step, update CAS, commit/abort step — is an identifiable
//! site in [`ops`]). The paper assumes a safe garbage collector. Here
//! SCX-records need none: each thread reuses one SCX descriptor and
//! `info` fields hold `(tid, seq)` words that never recur (Arbel-Raviv &
//! Brown, "Reuse, Don't Recycle", DISC 2017; the `header` module).
//! Data-records are retired through `crossbeam-epoch` and their blocks
//! recycled through a per-thread pool (the `pool` module).
//!
//! # Example
//!
//! Build a two-node chain and atomically swing a pointer while
//! finalizing the removed node:
//!
//! ```
//! use llx_scx::{Domain, LlxResult, ScxRequest, FieldId};
//!
//! // Records with 1 mutable field (a pointer) and a `&str` immutable payload.
//! let domain: Domain<1, &str> = Domain::new();
//! let guard = llx_scx::pin();
//!
//! let b = domain.alloc("b", [llx_scx::NULL]);
//! let a = domain.alloc("a", [llx_scx::pack_ptr(b)]);
//! let a_ref = unsafe { &*a };
//!
//! // Snapshot `a`, then atomically clear its pointer.
//! let snap = match domain.llx(a_ref, &guard) {
//!     LlxResult::Snapshot(s) => s,
//!     _ => unreachable!("no contention in this example"),
//! };
//! assert_eq!(snap.value(0), llx_scx::pack_ptr(b));
//!
//! let ok = domain.scx(
//!     ScxRequest::new(&[snap], FieldId::new(0, 0), 777).finalize_none(),
//!     &guard,
//! );
//! assert!(ok);
//! assert_eq!(a_ref.read(0), 777);
//!
//! // Single-threaded teardown: reclaim both records immediately.
//! unsafe {
//!     domain.retire(a, &guard);
//!     domain.retire(b, &guard);
//! }
//! ```
//!
//! # Usage contract (paper §4.1)
//!
//! The implementation is correct only when two constraints hold; both are
//! the data structure designer's responsibility and are documented on
//! [`Domain::scx`]:
//!
//! 1. **No ABA on mutable fields**: an SCX must not store a value that
//!    the target field held before the linked LLX. [`Tx`] is the checked
//!    path: it stores only a [`Fresh`] record of the same attempt. Direct
//!    [`Domain::scx`] callers keep it by hand; debug builds panic when an
//!    update CAS wins twice, the symptom of breaking it.
//! 2. **Consistent freezing order**: once the structure stops changing,
//!    the `V` sequences of subsequent SCXs must be consistent with a
//!    total order on records (e.g. traversal order in a list or tree).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod field;
mod handle;
mod header;
pub mod ops;
mod pool;
mod record;
mod scx_record;
pub mod stats;
pub(crate) mod sync;
mod tx;

pub use field::{pack_ptr, unpack_ptr, NULL};
pub use handle::{FieldId, Llx, LlxResult, ScxRequest};
pub use header::{scx_descriptors, ScxState};
pub use ops::Domain;
pub use record::DataRecord;
pub use stats::StatsSnapshot;
pub use tx::{Fresh, Tx};

/// Re-export of [`crossbeam_epoch::Guard`]; all traversals and operations
/// happen under a pinned guard.
pub type Guard = crossbeam_epoch::Guard;

/// Pin the current thread's epoch. Convenience re-export of
/// [`crossbeam_epoch::pin`].
///
/// Every call to [`Domain::llx`], [`Domain::scx`], [`Domain::vlx`] and
/// every traversal of record pointers must happen while a guard returned
/// from this function is alive.
pub fn pin() -> Guard {
    crossbeam_epoch::pin()
}

/// Counters of the per-thread record pool (process-global, monotone):
/// each thread counts its own, and [`pool_stats`] sums them.
///
/// The pool holds Data-records only (SCX-records are never allocated:
/// each thread reuses one descriptor), so `hits + misses` is the number
/// of Data-records allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Data-record allocations served from the calling thread's free
    /// list (blocks that thread retired or deallocated), without the
    /// global allocator.
    pub hits: u64,
    /// Data-record allocations that fell through to the global
    /// allocator.
    pub misses: u64,
    /// Epoch-deferred closures issued, one per sealed batch of up to 32
    /// retired Data-records.
    pub defers: u64,
    /// Retired records handed across threads: the partial batches of
    /// exited threads, adopted by the next thread that seals a batch or
    /// calls [`flush_reclamation`]. No free block changes threads, so a
    /// thread that flushes before it exits hands off nothing.
    pub handoffs: u64,
}

impl PoolStats {
    /// The counter movement since `self` was taken: current counters
    /// minus this snapshot, saturating at zero if [`reset_pool_stats`]
    /// intervened.
    ///
    /// The counters are process-global, so a raw snapshot mixes every
    /// workload the process ever ran; deltas are how one phase is
    /// A/B-compared against another (e.g. background vs inline
    /// collection) without a process restart:
    ///
    /// ```
    /// let before = llx_scx::pool_stats();
    /// // … run one workload phase …
    /// let phase = before.snapshot_delta();
    /// let allocs = phase.hits + phase.misses;
    /// # assert_eq!(allocs, 0);
    /// ```
    pub fn snapshot_delta(&self) -> PoolStats {
        pool_stats().delta_since(self)
    }

    /// The counter movement from `earlier` to `self`, saturating at
    /// zero if [`reset_pool_stats`] intervened.
    pub fn delta_since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            defers: self.defers.saturating_sub(earlier.defers),
            handoffs: self.handoffs.saturating_sub(earlier.handoffs),
        }
    }

    /// Pool hit rate of this snapshot (or delta): hits over
    /// allocations, `None` when nothing was allocated.
    pub fn hit_rate(&self) -> Option<f64> {
        let allocs = self.hits + self.misses;
        (allocs > 0).then(|| self.hits as f64 / allocs as f64)
    }
}

/// A snapshot of the record pool counters; see [`PoolStats`]. Each
/// thread keeps its own counters; the snapshot sums every live thread's
/// with the totals of threads that exited.
pub fn pool_stats() -> PoolStats {
    let [hits, misses, defers, handoffs] = pool::stats();
    PoolStats {
        hits,
        misses,
        defers,
        handoffs,
    }
}

/// Zero the process-global pool counters. Prefer
/// [`PoolStats::snapshot_delta`] for phase comparisons — a reset
/// yanks the baseline out from under every other snapshot holder —
/// but a reset gives dedicated A/B harnesses clean absolute numbers.
pub fn reset_pool_stats() {
    pool::reset_stats();
}

/// Drive record reclamation to quiescence from the calling thread.
///
/// Seals this thread's partially filled batch of retired Data-records,
/// adopts records stranded by threads that exited mid-batch, and
/// repeatedly flushes the epoch shim, which runs this thread's own
/// deferred destructions and those orphaned by exited threads (a live
/// thread's batches mature only on that thread). Each `Guard::flush`
/// also waits for closures another thread's collection is still
/// running. So after all operations have ceased, all worker threads
/// have joined and this has been called, every retired Data-record has
/// been dropped and its block is back in a pool. SCX descriptors are
/// never reclaimed; [`scx_descriptors`] counts them.
///
/// Intended for tests and teardown paths; never required for safety.
pub fn flush_reclamation() {
    for _ in 0..16 {
        // Drain the backlog to empty (bounded: live threads can
        // legitimately keep it above zero — quiescence is only promised
        // once workers have stopped and exited). Each flush advances the
        // epoch, so work deferred by the closures we just ran becomes
        // ready on the following iteration.
        for _ in 0..64 {
            let guard = pin();
            pool::seal_current_thread(&guard);
            pool::drain_orphans(&guard);
            guard.flush();
            drop(guard);
            if crossbeam_epoch::queued_reclaims() == 0 {
                break;
            }
        }
    }
}
