//! The update template: one LLX → alloc → SCX attempt.
//!
//! The paper frames its primitives as "a restricted kind of
//! transaction, in which each transaction can perform any number of
//! reads followed by a single write and then finalize any number of
//! words" (§2). Brown, Ellen & Ruppert's tree template (PPoPP 2014)
//! makes that one update attempt, [`Tx`]: [`Tx::llx`] a neighbourhood
//! top-down, build its replacement from [`Tx::alloc`]ed nodes, then
//! [`Tx::commit`] one pointer of `V[0]` to it, finalizing and retiring
//! the rest of `V`. `commit` stores only a [`Fresh`] node of the same
//! attempt, so §4.1's no-ABA constraint holds by construction.
//!
//! ```
//! use llx_scx::{Domain, Tx};
//!
//! // A register whose one field points at an immutable value node.
//! let domain: Domain<1, u64> = Domain::new();
//! let guard = llx_scx::pin();
//! let one = domain.alloc(1, [llx_scx::NULL]);
//! let reg = domain.alloc(0, [llx_scx::pack_ptr(one)]);
//!
//! // Increment: LLX the register and its value node, link a new node.
//! let tx = Tx::new(&domain, &guard);
//! tx.llx(unsafe { &*reg }).expect("uncontended");
//! let old = tx.llx(unsafe { &*one }).expect("uncontended");
//! let two = tx.alloc(old.record().immutable() + 1, [llx_scx::NULL]);
//! let two_word = two.word();
//! // SAFETY: R = ⟨one⟩, and the SCX unlinks it from `reg`.
//! assert!(unsafe { tx.commit(0, two, None) });
//! assert_eq!(unsafe { &*reg }.read(0), two_word);
//! assert!(unsafe { &*one }.is_marked()); // finalized and retired
//! ```

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::mem::MaybeUninit;

use crossbeam_epoch::Guard;

use crate::handle::{FieldId, Llx, LlxResult, ScxRequest};
use crate::ops::Domain;
use crate::record::DataRecord;

/// Capacity of `V` and of the fresh nodes (chromatic W-FAR LLXes five).
const CAP: usize = 5;

/// One update attempt: linked LLXs, fresh nodes and one SCX. Dropping
/// it before a commit deallocates its fresh nodes.
#[derive(Debug)]
pub struct Tx<'d, 'g, const M: usize, I> {
    domain: &'d Domain<M, I>,
    guard: &'g Guard,
    /// `V`; the first `v_len` slots are initialised.
    v: UnsafeCell<[MaybeUninit<Llx<'g, M, I>>; CAP]>,
    v_len: Cell<usize>,
    /// Nodes allocated by this attempt and not yet published.
    fresh: [Cell<*const DataRecord<M, I>>; CAP],
    fresh_len: Cell<usize>,
}

/// A node allocated by [`Tx::alloc`], the only `new` value
/// [`Tx::commit`] stores. It cannot outlive its `Tx`.
#[derive(Debug)]
pub struct Fresh<'t, const M: usize, I> {
    ptr: *const DataRecord<M, I>,
    _tx: PhantomData<&'t ()>,
}

impl<const M: usize, I> Fresh<'_, M, I> {
    /// The node's pointer word, to link it below another fresh node.
    pub fn word(&self) -> u64 {
        crate::pack_ptr(self.ptr)
    }
}

impl<'d, 'g, const M: usize, I> Tx<'d, 'g, M, I> {
    /// Begin an attempt on `domain` under `guard`.
    pub fn new(domain: &'d Domain<M, I>, guard: &'g Guard) -> Self {
        Tx {
            domain,
            guard,
            v: UnsafeCell::new([const { MaybeUninit::uninit() }; CAP]),
            v_len: Cell::new(0),
            fresh: std::array::from_fn(|_| Cell::new(std::ptr::null())),
            fresh_len: Cell::new(0),
        }
    }

    /// LLX `record` and append it to `V`, which must follow a
    /// traversal-consistent order (§4.1). `None` if the record is being
    /// updated or was finalized: abandon the attempt and retry. Panics
    /// if `V` already holds five records.
    pub fn llx(&self, record: &'g DataRecord<M, I>) -> Option<Llx<'g, M, I>> {
        let LlxResult::Snapshot(s) = self.domain.llx(record, self.guard) else {
            return None;
        };
        let n = self.v_len.get();
        assert!(n < CAP, "a Tx links at most {CAP} LLXs");
        // SAFETY: no reference into `v` outlives a method call, and `Tx`
        // is not `Sync`.
        unsafe { (*self.v.get())[n].write(s) };
        self.v_len.set(n + 1);
        Some(s)
    }

    /// Allocate a node that only this attempt can publish. Panics if
    /// five nodes are already pending.
    pub fn alloc(&self, immutable: I, init: [u64; M]) -> Fresh<'_, M, I> {
        let n = self.fresh_len.get();
        assert!(n < CAP, "a Tx allocates at most {CAP} nodes");
        let ptr = self.domain.alloc(immutable, init);
        self.fresh[n].set(ptr);
        self.fresh_len.set(n + 1);
        let _tx = PhantomData;
        Fresh { ptr, _tx }
    }

    /// **SCX(V, R, field `dir` of V\[0\], new)** with `R` every record of
    /// `V` after `V[0]` but `keep`. Retires `R`, last first, if it commits,
    /// else deallocates the fresh nodes; either way the `Tx` is empty again.
    ///
    /// # Safety
    ///
    /// If it commits, the SCX must unlink every record of `R` from the
    /// structure and publish every fresh node of this attempt.
    ///
    /// # Panics
    ///
    /// Panics if `V` is empty, `dir >= M`, `keep` is not in `V` or
    /// `new` was not allocated by this `Tx`.
    pub unsafe fn commit(
        &self,
        dir: usize,
        new: Fresh<'_, M, I>,
        keep: Option<&DataRecord<M, I>>,
    ) -> bool {
        let fresh = &self.fresh[..self.fresh_len.get()];
        assert!(
            fresh.iter().any(|c| c.get() == new.ptr),
            "commit: `new` was not allocated by this Tx"
        );
        // SAFETY: `llx` initialised the first `v_len` slots.
        let v: &[Llx<'g, M, I>] =
            unsafe { std::slice::from_raw_parts(self.v.get().cast(), self.v_len.get()) };
        let mut r = ((1u64 << v.len()) - 1) & !1;
        if let Some(keep) = keep {
            let i = v.iter().position(|s| std::ptr::eq(s.record, keep));
            r &= !(1 << i.expect("commit: the kept record is not in V"));
        }
        let req = ScxRequest::new(v, FieldId::new(0, dir), new.word()).finalize_mask(r);
        let ok = self.domain.scx(req, self.guard);
        if ok {
            // Bottom-up: with the pool's LIFO reuse, top-down made tree gets ~20 % slower.
            for i in (0..v.len()).rev().filter(|i| r & (1 << i) != 0) {
                // SAFETY: unlinked (caller's contract), finalized by this SCX.
                unsafe { self.domain.retire(v[i].record, self.guard) };
            }
            self.fresh_len.set(0);
        } else {
            self.dealloc_fresh();
        }
        self.v_len.set(0);
        ok
    }

    fn dealloc_fresh(&self) {
        for c in &self.fresh[..self.fresh_len.replace(0)] {
            // SAFETY: allocated by this attempt and never published.
            unsafe { self.domain.dealloc(c.get()) };
        }
    }
}

impl<const M: usize, I> Drop for Tx<'_, '_, M, I> {
    fn drop(&mut self) {
        self.dealloc_fresh();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    fn retire_all<const M: usize, I>(d: &Domain<M, I>, rs: &[*const DataRecord<M, I>]) {
        let guard = crossbeam_epoch::pin();
        rs.iter().for_each(|&r| unsafe { d.retire(r, &guard) });
    }

    struct Counted<'a>(&'a AtomicUsize);
    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Relaxed); // ord: test drop counter; no sync role
        }
    }

    #[test]
    fn commit_links_fresh_node_and_retires_the_rest_of_v() {
        let domain: Domain<2, u8> = Domain::new();
        let guard = crossbeam_epoch::pin();
        let (a, b) = (domain.alloc(1, [0; 2]), domain.alloc(2, [0; 2]));
        let p = domain.alloc(0, [crate::pack_ptr(a), crate::pack_ptr(b)]);
        let tx = Tx::new(&domain, &guard);
        assert_eq!(tx.llx(unsafe { &*p }).unwrap().value(1), crate::pack_ptr(b));
        tx.llx(unsafe { &*b }).unwrap();
        let c = tx.alloc(3, [0; 2]);
        let c_ptr = c.ptr;
        assert!(unsafe { tx.commit(1, c, None) });
        assert_eq!(
            unsafe { [(*p).read(0), (*p).read(1)] },
            [a, c_ptr].map(crate::pack_ptr)
        );
        assert!(unsafe { (*b).is_marked() && !(*p).is_marked() });
        assert!(tx.llx(unsafe { &*b }).is_none(), "finalized record");
        retire_all(&domain, &[c_ptr, a, p]);
    }

    #[test]
    fn conflicting_write_aborts_commit() {
        let drops = AtomicUsize::new(0);
        let domain: Domain<1, Option<Counted<'_>>> = Domain::new();
        let guard = crossbeam_epoch::pin();
        let a = domain.alloc(None, [0]);
        let tx = Tx::new(&domain, &guard);
        tx.llx(unsafe { &*a }).unwrap();
        // An interleaved attempt wins; the original's SCX then fails.
        let other = Tx::new(&domain, &guard);
        other.llx(unsafe { &*a }).unwrap();
        let won = other.alloc(None, [0]);
        let won_ptr = won.ptr;
        assert!(unsafe { other.commit(0, won, None) });
        let leaf = tx.alloc(Some(Counted(&drops)), [0]);
        let top = tx.alloc(Some(Counted(&drops)), [leaf.word()]);
        assert!(!unsafe { tx.commit(0, top, None) });
        assert_eq!(drops.load(Relaxed), 2); // ord: test drop counter; no sync role
        let _ = other.alloc(Some(Counted(&drops)), [0]);
        drop(other);
        assert_eq!(drops.load(Relaxed), 3); // ord: test drop counter; no sync role
        retire_all(&domain, &[won_ptr, a]);
    }

    #[test]
    fn kept_record_stays_out_of_r() {
        let domain: Domain<1, ()> = Domain::new();
        let guard = crossbeam_epoch::pin();
        let b = domain.alloc((), [0]);
        let p = domain.alloc((), [crate::pack_ptr(b)]);
        let tx = Tx::new(&domain, &guard);
        tx.llx(unsafe { &*p }).unwrap();
        tx.llx(unsafe { &*b }).unwrap();
        let c = tx.alloc((), [crate::pack_ptr(b)]);
        let c_ptr = c.ptr;
        assert!(unsafe { tx.commit(0, c, Some(&*b)) });
        assert!(!unsafe { &*b }.is_marked(), "b moved below c, live");
        retire_all(&domain, &[c_ptr, b, p]);
    }

    #[test]
    #[should_panic(expected = "not allocated by this Tx")]
    fn foreign_fresh_node_panics() {
        let domain: Domain<1, ()> = Domain::new();
        let guard = crossbeam_epoch::pin();
        let a = crate::ops::TestRecord::new(&domain, (), [0]);
        let (tx, other) = (Tx::new(&domain, &guard), Tx::new(&domain, &guard));
        tx.llx(&a).unwrap();
        unsafe { tx.commit(0, other.alloc((), [0]), None) };
    }
}
