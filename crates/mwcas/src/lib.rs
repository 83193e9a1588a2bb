//! Multi-word compare-and-swap (kCAS) from single-word CAS.
//!
//! This crate is the *baseline* the paper compares LLX/SCX against
//! (§2): a descriptor-based k-word CAS in the style of Harris, Fraser &
//! Pratt ("A practical multi-word compare-and-swap operation", DISC
//! 2002), built on RDCSS. The paper's claim is that the most efficient
//! kCAS [Sundell 2011] needs `2k + 1` CAS steps without contention,
//! whereas SCX needs `k + 1`; the Harris construction implemented here
//! needs `3k + 1` (each word costs an RDCSS install CAS *and* its
//! completion CAS, plus the phase-2 CAS, plus one status CAS). The
//! test `stats::tests::uncontended_kcas_costs_3k_plus_1_cas` asserts
//! that count for `k` up to 8, as the `llx-scx` crate's `ops::tests`
//! assert SCX's `k + 1`; Sundell's `2k + 1` is the paper's analytic
//! figure and is not implemented here.
//!
//! Values are limited to 62 bits: the two most significant bits
//! distinguish plain values from descriptor pointers (see [`KcasCell`]).
//!
//! # Example
//!
//! ```
//! use mwcas::{KcasCell, kcas};
//!
//! let a = KcasCell::new(1);
//! let b = KcasCell::new(2);
//! let guard = crossbeam_epoch::pin();
//! // Atomically a: 1 -> 10, b: 2 -> 20.
//! assert!(kcas(&[(&a, 1, 10), (&b, 2, 20)], &guard));
//! assert_eq!(a.read(&guard), 10);
//! // Fails atomically if any expectation is wrong.
//! assert!(!kcas(&[(&a, 1, 11), (&b, 20, 21)], &guard));
//! assert_eq!(b.read(&guard), 20);
//! ```
//!
//! # Reclamation
//!
//! A kCAS descriptor carries a reference count: its owner, each
//! helper, each cell it is installed in and each RDCSS descriptor
//! naming it hold one. The thread that drops the last reference claims
//! the descriptor once and frees it through a crossbeam-epoch
//! deferral, so a thread still pinned after reading its tagged word
//! can finish helping. An RDCSS descriptor needs no count: its creator
//! defers its free as soon as it has left its cell, and helpers reach
//! it only while pinned.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod stats;
pub(crate) mod sync;

pub use stats::{kcas_cas_count, kcas_reset_cas_count};

use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::fmt;

use crossbeam_epoch::Guard;

/// Tag in the MSB marking a kCAS descriptor pointer stored in a cell.
const KCAS_TAG: u64 = 1 << 63;
/// Tag in the next bit marking an RDCSS descriptor pointer.
const RDCSS_TAG: u64 = 1 << 62;
/// Maximum storable value.
pub const MAX_VALUE: u64 = RDCSS_TAG - 1;

#[inline]
fn is_kcas(word: u64) -> bool {
    word & KCAS_TAG != 0
}
#[inline]
fn is_rdcss(word: u64) -> bool {
    word & KCAS_TAG == 0 && word & RDCSS_TAG != 0
}

/// A 62-bit word updatable by [`kcas`].
///
/// Cells may be read individually with [`KcasCell::read`]; all
/// multi-word updates must go through [`kcas`].
#[derive(Debug)]
pub struct KcasCell {
    word: AtomicU64,
}

impl KcasCell {
    /// A cell holding `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `initial > MAX_VALUE`.
    pub fn new(initial: u64) -> Self {
        assert!(initial <= MAX_VALUE, "kCAS values are limited to 62 bits");
        KcasCell {
            word: AtomicU64::new(initial),
        }
    }

    /// Read the cell's current value, helping any operation in progress.
    pub fn read(&self, guard: &Guard) -> u64 {
        loop {
            let w = self.word.load(Ordering::SeqCst); // ord: SC read of the descriptor word; RDCSS proof assumes SC
            if is_kcas(w) {
                // SAFETY: tagged pointers reference live descriptors
                // (refcount + epoch; see `release_desc`).
                unsafe { help_kcas(desc_of(w), guard) };
            } else if is_rdcss(w) {
                unsafe { complete_rdcss(rdesc_of(w), guard) };
            } else {
                return w;
            }
        }
    }
}

/// One `(cell, expected, new)` entry of a kCAS.
pub type KcasEntry<'a> = (&'a KcasCell, u64, u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Status {
    Undecided = 0,
    Succeeded = 1,
    Failed = 2,
}

struct KcasDescriptor {
    status: AtomicU64,
    entries: Vec<(*const KcasCell, u64, u64)>,
    refs: AtomicUsize,
    claimed: AtomicBool,
}

struct RdcssDescriptor {
    /// The kCAS descriptor whose status gates the swap. Holds one
    /// counted reference on it for as long as this RDCSS descriptor is
    /// alive, so any thread that can reach the RDCSS descriptor can
    /// safely reach the kCAS descriptor.
    desc: *const KcasDescriptor,
    cell: *const KcasCell,
    expected: u64,
}

unsafe impl Send for KcasDescriptor {}
unsafe impl Sync for KcasDescriptor {}
unsafe impl Send for RdcssDescriptor {}
unsafe impl Sync for RdcssDescriptor {}

impl Drop for RdcssDescriptor {
    fn drop(&mut self) {
        // Chained release: this runs inside an epoch callback.
        unsafe {
            let guard = crossbeam_epoch::pin();
            release_desc(self.desc, &guard);
        }
    }
}

#[inline]
fn desc_of(word: u64) -> *const KcasDescriptor {
    (word & !KCAS_TAG) as usize as *const KcasDescriptor
}
#[inline]
fn word_of_desc(d: *const KcasDescriptor) -> u64 {
    d as usize as u64 | KCAS_TAG
}
#[inline]
fn rdesc_of(word: u64) -> *const RdcssDescriptor {
    (word & !RDCSS_TAG) as usize as *const RdcssDescriptor
}
#[inline]
fn word_of_rdesc(d: *const RdcssDescriptor) -> u64 {
    d as usize as u64 | RDCSS_TAG
}

#[inline]
fn acquire_desc(d: *const KcasDescriptor) {
    unsafe { &*d }.refs.fetch_add(1, Ordering::SeqCst); // ord: SC descriptor refcount; pairs with dec_refs
}

/// Release one reference; destroy (epoch-deferred) when the last drops.
///
/// # Safety
///
/// `d` must be a live descriptor protected by `guard`.
unsafe fn release_desc(d: *const KcasDescriptor, guard: &Guard) {
    let r = &*d;
    if r.refs.fetch_sub(1, Ordering::SeqCst) == 1 && !r.claimed.swap(true, Ordering::SeqCst) {
        // ord: SC descriptor refcount + at-most-once claim
        let p = d as *mut KcasDescriptor;
        guard.defer_unchecked(move || drop(Box::from_raw(p)));
    }
}

/// RDCSS: store a tagged pointer to `desc` into `cell` iff the cell
/// holds `expected` *and* `desc.status` is still `Undecided`. Returns
/// the cell content observed (a plain value or `desc`'s tagged word).
///
/// # Safety
///
/// `desc` must be live and protected by `guard`; the caller must hold a
/// counted reference on it (helper-entry reference).
unsafe fn rdcss(
    desc: *const KcasDescriptor,
    cell: *const KcasCell,
    expected: u64,
    guard: &Guard,
) -> u64 {
    // The RDCSS descriptor takes a counted reference on `desc`,
    // released when the RDCSS descriptor is destroyed.
    acquire_desc(desc);
    let rd = Box::into_raw(Box::new(RdcssDescriptor {
        desc,
        cell,
        expected,
    }));
    let rd_word = word_of_rdesc(rd);
    let result = loop {
        stats::bump_cas();
        match (*cell)
            .word
            .compare_exchange(expected, rd_word, Ordering::SeqCst, Ordering::SeqCst) // ord: RDCSS install CAS; SC per Harris et al.
        {
            Ok(_) => {
                // Installed: finish the double compare.
                complete_rdcss(rd, guard);
                break expected;
            }
            Err(cur) if is_rdcss(cur) => {
                // Help the other RDCSS and retry.
                complete_rdcss(rdesc_of(cur), guard);
                continue;
            }
            Err(cur) => break cur,
        }
    };
    // The descriptor is out of every cell by now (complete() removes it
    // before returning) and is never reinstalled; readers that saw it
    // pinned before this point.
    guard.defer_unchecked(move || drop(Box::from_raw(rd)));
    result
}

/// Finish an installed RDCSS: replace the descriptor by the kCAS
/// descriptor's tagged word if its status is still undecided, or back
/// out to the expected value otherwise.
///
/// # Safety
///
/// `rd` must be live and protected by `guard`.
unsafe fn complete_rdcss(rd: *const RdcssDescriptor, guard: &Guard) {
    let r = &*rd;
    // SAFETY: `r.desc` is kept alive by the RDCSS descriptor's counted
    // reference.
    let undecided = (*r.desc).status.load(Ordering::SeqCst) == Status::Undecided as u64; // ord: SC status read decides RDCSS completion
    let new_word = if undecided {
        word_of_desc(r.desc)
    } else {
        r.expected
    };
    if undecided {
        // Pre-acquire for the potential install of `desc` into the cell.
        acquire_desc(r.desc);
    }
    stats::bump_cas();
    let installed = (*r.cell)
        .word
        .compare_exchange(
            word_of_rdesc(rd),
            new_word,
            Ordering::SeqCst, // ord: RDCSS complete CAS; SC per Harris et al.
            Ordering::SeqCst, // ord: RDCSS complete CAS; SC per Harris et al.
        )
        .is_ok();
    if undecided && !installed {
        release_desc(r.desc, guard);
    }
}

/// Atomically: if every `cell` holds its `expected` value, store every
/// `new` value; otherwise change nothing. Returns whether it succeeded.
///
/// Entries are processed in address order internally (livelock
/// avoidance), so the caller may pass them in any order.
///
/// # Panics
///
/// Panics if `entries` is empty, contains duplicate cells, or any value
/// exceeds [`MAX_VALUE`].
pub fn kcas(entries: &[KcasEntry<'_>], guard: &Guard) -> bool {
    assert!(!entries.is_empty(), "kCAS requires at least one entry");
    let mut sorted: Vec<(*const KcasCell, u64, u64)> = entries
        .iter()
        .map(|&(c, o, n)| {
            assert!(o <= MAX_VALUE && n <= MAX_VALUE, "kCAS values are 62-bit");
            (c as *const KcasCell, o, n)
        })
        .collect();
    sorted.sort_by_key(|&(c, _, _)| c as usize);
    assert!(
        sorted.windows(2).all(|w| w[0].0 != w[1].0),
        "kCAS entries must reference distinct cells"
    );
    let desc = Box::into_raw(Box::new(KcasDescriptor {
        status: AtomicU64::new(Status::Undecided as u64),
        entries: sorted,
        refs: AtomicUsize::new(1), // the owner's reference
        claimed: AtomicBool::new(false),
    }));
    // SAFETY: freshly allocated; owner reference held.
    let ok = unsafe { help_kcas(desc, guard) };
    unsafe { release_desc(desc, guard) };
    ok
}

/// The cooperative completion routine: phase 1 installs the descriptor
/// into every cell via RDCSS; the status CAS decides; phase 2 replaces
/// the descriptor with the final values.
///
/// # Safety
///
/// `desc` must be live and protected by `guard`.
unsafe fn help_kcas(desc: *const KcasDescriptor, guard: &Guard) -> bool {
    // Helper-entry reference: keeps the descriptor (and, transitively,
    // any RDCSS descriptors we create) counted while we work.
    acquire_desc(desc);
    let d = &*desc;
    if d.status.load(Ordering::SeqCst) == Status::Undecided as u64 {
        // ord: SC status read; k-CAS decision point
        // Phase 1: install into each cell in address order.
        let mut status = Status::Succeeded;
        'phase1: for &(cell, expected, _new) in &d.entries {
            loop {
                let seen = rdcss(desc, cell, expected, guard);
                if is_kcas(seen) {
                    if seen == word_of_desc(desc) {
                        break; // already installed for this operation
                    }
                    // Help the conflicting kCAS, then retry this cell.
                    help_kcas(desc_of(seen), guard);
                    continue;
                }
                if seen == expected {
                    break; // we installed it
                }
                status = Status::Failed;
                break 'phase1;
            }
        }
        stats::bump_cas();
        let _ = d.status.compare_exchange(
            Status::Undecided as u64,
            status as u64,
            Ordering::SeqCst, // ord: k-CAS status-decide CAS; SC
            Ordering::SeqCst, // ord: k-CAS status-decide CAS; SC
        );
    }

    // Phase 2: swap the descriptor out of every cell.
    let succeeded = d.status.load(Ordering::SeqCst) == Status::Succeeded as u64; // ord: SC status read after decide
    for &(cell, expected, new) in &d.entries {
        let final_val = if succeeded { new } else { expected };
        stats::bump_cas();
        if (*cell)
            .word
            .compare_exchange(
                word_of_desc(desc),
                final_val,
                Ordering::SeqCst, // ord: k-CAS unlock CAS; SC
                Ordering::SeqCst, // ord: k-CAS unlock CAS; SC
            )
            .is_ok()
        {
            // Displaced the installed reference.
            release_desc(desc, guard);
        }
    }
    release_desc(desc, guard); // helper-entry reference
    succeeded
}

impl fmt::Debug for KcasDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KcasDescriptor")
            .field("k", &self.entries.len())
            .finish()
    }
}

impl fmt::Debug for RdcssDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RdcssDescriptor")
            .field("expected", &self.expected)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_word_kcas_behaves_like_cas() {
        let c = KcasCell::new(5);
        let g = crossbeam_epoch::pin();
        assert!(kcas(&[(&c, 5, 6)], &g));
        assert_eq!(c.read(&g), 6);
        assert!(!kcas(&[(&c, 5, 7)], &g));
        assert_eq!(c.read(&g), 6);
    }

    #[test]
    fn multi_word_success_and_failure_are_atomic() {
        let a = KcasCell::new(1);
        let b = KcasCell::new(2);
        let c = KcasCell::new(3);
        let g = crossbeam_epoch::pin();
        assert!(kcas(&[(&a, 1, 10), (&b, 2, 20), (&c, 3, 30)], &g));
        assert_eq!((a.read(&g), b.read(&g), c.read(&g)), (10, 20, 30));
        // One stale expectation fails the whole operation.
        assert!(!kcas(&[(&a, 10, 100), (&b, 2, 200), (&c, 30, 300)], &g));
        assert_eq!((a.read(&g), b.read(&g), c.read(&g)), (10, 20, 30));
    }

    #[test]
    fn entries_may_be_passed_in_any_order() {
        let a = KcasCell::new(0);
        let b = KcasCell::new(0);
        let g = crossbeam_epoch::pin();
        assert!(kcas(&[(&b, 0, 2), (&a, 0, 1)], &g));
        assert_eq!((a.read(&g), b.read(&g)), (1, 2));
    }

    #[test]
    #[should_panic(expected = "distinct cells")]
    fn duplicate_cells_panic() {
        let a = KcasCell::new(0);
        let g = crossbeam_epoch::pin();
        let _ = kcas(&[(&a, 0, 1), (&a, 0, 2)], &g);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn empty_entries_panic() {
        let g = crossbeam_epoch::pin();
        let _ = kcas(&[], &g);
    }

    #[test]
    #[should_panic(expected = "62-bit")]
    fn oversized_value_panics() {
        let a = KcasCell::new(0);
        let g = crossbeam_epoch::pin();
        let _ = kcas(&[(&a, 0, u64::MAX)], &g);
    }

    #[test]
    fn concurrent_pair_increments_conserve_total() {
        use std::sync::Arc;
        let cells: Arc<Vec<KcasCell>> = Arc::new((0..4).map(|_| KcasCell::new(0)).collect());
        let per_thread = 2000u64;
        let threads = 4;
        let mut handles = Vec::new();
        for t in 0..threads {
            let cells = Arc::clone(&cells);
            handles.push(std::thread::spawn(move || {
                let mut rng = (t + 1u64).wrapping_mul(0x9E3779B97F4A7C15);
                let mut done = 0u64;
                while done < per_thread {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let i = (rng % 4) as usize;
                    let j = ((rng >> 8) % 4) as usize;
                    if i == j {
                        continue;
                    }
                    let g = crossbeam_epoch::pin();
                    let vi = cells[i].read(&g);
                    let vj = cells[j].read(&g);
                    // Atomically bump both cells.
                    if kcas(&[(&cells[i], vi, vi + 1), (&cells[j], vj, vj + 1)], &g) {
                        done += 1;
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let g = crossbeam_epoch::pin();
        let total: u64 = cells.iter().map(|c| c.read(&g)).sum();
        assert_eq!(total, 2 * threads * per_thread);
    }
}
