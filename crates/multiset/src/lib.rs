//! A linearizable, non-blocking multiset built from LLX/SCX.
//!
//! This is the worked example of the paper's §5 (pseudocode Fig. 6,
//! update shapes Fig. 5, proofs Appendix C): a multiset of keys stored in
//! a singly-linked list of nodes sorted by key, bracketed by −∞/+∞
//! sentinels. Each node is a Data-record with an immutable `key`, a
//! mutable `count` (occurrences of `key`), and a mutable `next` pointer.
//!
//! * [`Multiset::get`] returns the number of occurrences of a key.
//! * [`Multiset::insert`] adds `count` occurrences.
//! * [`Multiset::remove`] deletes `count` occurrences if present
//!   (the paper's `Delete`).
//!
//! All three are linearizable and the implementation is non-blocking
//! (paper Theorem 6). Searches use plain reads — no LLX — and are
//! linearized via Proposition 2 of the paper.
//!
//! # Example
//!
//! ```
//! use multiset::Multiset;
//!
//! let set = Multiset::new();
//! set.insert(5, 3);
//! set.insert(7, 1);
//! assert_eq!(set.get(5), 3);
//! assert!(set.remove(5, 2));
//! assert_eq!(set.get(5), 1);
//! assert!(!set.remove(5, 2), "only one occurrence left");
//! assert!(set.remove(5, 1));
//! assert_eq!(set.get(5), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod key;

pub use key::SentinelKey;

use std::fmt;

use llx_scx::{DataRecord, Domain, FieldId, Guard, LlxResult, ScxRequest};

/// Mutable field indices of a node (paper Fig. 6 `type Node`).
const COUNT: usize = 0;
const NEXT: usize = 1;

/// A scan window's buffers are sized up front for at most this many
/// keys, so an atomic scan (`max_keys = usize::MAX`) grows past it
/// instead of reserving for the whole key space.
const SCAN_PRESIZE_KEYS: usize = 1024;

type Node<K> = DataRecord<2, SentinelKey<K>>;

/// A linearizable, non-blocking multiset of keys (paper §5).
///
/// Keys must be `Copy + Ord`; counts are `u64`. The structure is a
/// sorted singly-linked list of [`llx_scx::DataRecord`]s whose updates
/// are performed with SCX, exactly as in the paper's Figure 6.
pub struct Multiset<K> {
    domain: Domain<2, SentinelKey<K>>,
    head: *const Node<K>,
}

unsafe impl<K: Send + Sync> Send for Multiset<K> {}
unsafe impl<K: Send + Sync> Sync for Multiset<K> {}

impl<K: Copy + Ord> Default for Multiset<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Ord> Multiset<K> {
    /// An empty multiset: `head(−∞) -> tail(+∞)` (paper Fig. 6 header).
    pub fn new() -> Self {
        Self::with_domain(Domain::new())
    }

    /// An empty multiset whose domain counts algorithm steps
    /// ([`llx_scx::Domain::with_stats`]); used by the benchmark harness.
    pub fn new_with_stats() -> Self {
        Self::with_domain(Domain::with_stats())
    }

    fn with_domain(domain: Domain<2, SentinelKey<K>>) -> Self {
        let tail = domain.alloc(SentinelKey::PosInf, [0, llx_scx::NULL]);
        let head = domain.alloc(SentinelKey::NegInf, [0, llx_scx::pack_ptr(tail)]);
        Multiset { domain, head }
    }

    /// The step counters of the underlying domain, if enabled.
    pub fn stats(&self) -> Option<llx_scx::StatsSnapshot> {
        self.domain.stats()
    }

    /// `Search(key)` (Fig. 6 lines 6–13): returns `(r, p)` with
    /// `p.key < key <= r.key`, traversing by plain reads of `next`.
    fn search<'g>(&self, key: &K, guard: &'g Guard) -> (&'g Node<K>, &'g Node<K>) {
        // SAFETY: `head` is the entry point and never retired while
        // `self` is alive; successors are protected by `guard`.
        let mut p: &Node<K> = unsafe { &*self.head };
        let mut r: &Node<K> = unsafe { self.domain.deref(p.read(NEXT), guard) };
        while *r.immutable() < SentinelKey::Key(*key) {
            p = r;
            r = unsafe { self.domain.deref(r.read(NEXT), guard) };
        }
        (r, p)
    }

    /// `Get(key)` (Fig. 6 lines 1–5): the number of occurrences of `key`.
    pub fn get(&self, key: K) -> u64 {
        let guard = llx_scx::pin();
        let (r, _p) = self.search(&key, &guard);
        if *r.immutable() == key {
            r.read(COUNT)
        } else {
            0
        }
    }

    /// Whether the multiset contains at least one occurrence of `key`.
    pub fn contains(&self, key: K) -> bool {
        self.get(key) > 0
    }

    /// `Insert(key, count)` (Fig. 6 lines 14–24): add `count`
    /// occurrences of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` (the paper's precondition `count > 0`).
    pub fn insert(&self, key: K, count: u64) {
        assert!(count > 0, "Insert precondition: count > 0");
        loop {
            let guard = llx_scx::pin();
            let (r, p) = self.search(&key, &guard); // line 16
            if *r.immutable() == key {
                // line 17: key present — raise r.count (Fig. 5(b)).
                if let LlxResult::Snapshot(localr) = self.domain.llx(r, &guard) {
                    // line 20
                    let new_count = localr.value(COUNT) + count;
                    if self.domain.scx(
                        ScxRequest::new(&[localr], FieldId::new(0, COUNT), new_count),
                        &guard,
                    ) {
                        return;
                    }
                }
            } else {
                // line 21: key absent — splice a new node (Fig. 5(a)).
                if let LlxResult::Snapshot(localp) = self.domain.llx(p, &guard) {
                    // line 23: check p still points to r.
                    if localp.value(NEXT) == llx_scx::pack_ptr(r as *const Node<K>) {
                        let node = self.domain.alloc(
                            SentinelKey::Key(key),
                            [count, llx_scx::pack_ptr(r as *const Node<K>)],
                        );
                        // line 24
                        if self.domain.scx(
                            ScxRequest::new(
                                &[localp],
                                FieldId::new(0, NEXT),
                                llx_scx::pack_ptr(node),
                            ),
                            &guard,
                        ) {
                            return;
                        }
                        // Never published: free immediately.
                        // SAFETY: allocated above, SCX failed, not shared.
                        unsafe { self.domain.dealloc(node) };
                    }
                }
            }
        }
    }

    /// `Delete(key, count)` (Fig. 6 lines 25–36): remove `count`
    /// occurrences of `key` if at least that many are present; returns
    /// whether it did.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` (the paper's precondition `count > 0`).
    pub fn remove(&self, key: K, count: u64) -> bool {
        assert!(count > 0, "Delete precondition: count > 0");
        loop {
            let guard = llx_scx::pin();
            let (r, p) = self.search(&key, &guard); // line 27
            let localp = self.domain.llx(p, &guard); // line 28
            let localr = self.domain.llx(r, &guard); // line 29
            let (LlxResult::Snapshot(localp), LlxResult::Snapshot(localr)) = (localp, localr)
            else {
                continue;
            };
            // line 30: p must still point to r.
            if localp.value(NEXT) != llx_scx::pack_ptr(r as *const Node<K>) {
                continue;
            }
            // line 31
            if *r.immutable() != key || localr.value(COUNT) < count {
                return false;
            }
            if localr.value(COUNT) > count {
                // line 32–33: replace r by a copy with a reduced count
                // (Fig. 5(d)); finalizes r.
                let replacement = self.domain.alloc(
                    SentinelKey::Key(key),
                    [localr.value(COUNT) - count, localr.value(NEXT)],
                );
                if self.domain.scx(
                    ScxRequest::new(
                        &[localp, localr],
                        FieldId::new(0, NEXT),
                        llx_scx::pack_ptr(replacement),
                    )
                    .finalize(1),
                    &guard,
                ) {
                    // r was removed from the list; reclaim it.
                    // SAFETY: unlinked by the committed SCX, retired once.
                    unsafe { self.domain.retire(r as *const Node<K>, &guard) };
                    return true;
                }
                // SAFETY: never published.
                unsafe { self.domain.dealloc(replacement) };
            } else {
                // line 34–36: exact count — unlink r entirely, replacing
                // rnext by a copy to avoid the ABA problem in p.next
                // (Fig. 5(c)); finalizes r and rnext.
                // r.key == key != +∞, so r.next is a node (Invariant 3).
                let rnext: &Node<K> = unsafe { self.domain.deref(localr.value(NEXT), &guard) };
                let LlxResult::Snapshot(localrnext) = self.domain.llx(rnext, &guard) else {
                    continue; // line 35
                };
                let copy = self.domain.alloc(
                    *rnext.immutable(),
                    [localrnext.value(COUNT), localrnext.value(NEXT)],
                );
                // line 36: V = ⟨p, r, rnext⟩, R = ⟨r, rnext⟩.
                if self.domain.scx(
                    ScxRequest::new(
                        &[localp, localr, localrnext],
                        FieldId::new(0, NEXT),
                        llx_scx::pack_ptr(copy),
                    )
                    .finalize(1)
                    .finalize(2),
                    &guard,
                ) {
                    // SAFETY: both unlinked by the committed SCX.
                    unsafe {
                        self.domain.retire(r as *const Node<K>, &guard);
                        self.domain.retire(rnext as *const Node<K>, &guard);
                    }
                    return true;
                }
                // SAFETY: never published.
                unsafe { self.domain.dealloc(copy) };
            }
        }
    }

    /// Atomically read the counts of several keys.
    ///
    /// Unlike issuing separate [`Multiset::get`] calls, the returned
    /// counts all held *simultaneously* at one linearization point.
    /// This is the paper's intended use of **VLX** (§3): perform an LLX
    /// on each involved node, then validate the whole set with a VLX —
    /// `k` reads — and retry on failure.
    ///
    /// `keys` must be strictly ascending (the VLX `V`-sequence must be
    /// in traversal order, paper §4.1).
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty, not strictly ascending, or longer
    /// than 64.
    pub fn get_many(&self, keys: &[K]) -> Vec<u64> {
        assert!(!keys.is_empty(), "get_many requires at least one key");
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly ascending"
        );
        'retry: loop {
            let guard = llx_scx::pin();
            let mut counts = Vec::with_capacity(keys.len());
            let mut snaps = Vec::with_capacity(keys.len());
            for key in keys {
                let (r, p) = self.search(key, &guard);
                if *r.immutable() == *key {
                    // Present: the node itself decides the count; its
                    // removal would finalize it and fail the VLX.
                    let LlxResult::Snapshot(s) = self.domain.llx(r, &guard) else {
                        continue 'retry;
                    };
                    counts.push(s.value(COUNT));
                    snaps.push(s);
                } else {
                    // Absent: the *predecessor* decides — as long as
                    // `p.next` still skips from below `key` to `r`
                    // (whose key is above `key`), no node with `key`
                    // exists. An insert of `key` would change `p.next`
                    // and fail the VLX; a removal of `p` would finalize
                    // `p` and fail it too.
                    let LlxResult::Snapshot(s) = self.domain.llx(p, &guard) else {
                        continue 'retry;
                    };
                    if s.value(NEXT) != llx_scx::pack_ptr(r as *const Node<K>) {
                        continue 'retry;
                    }
                    counts.push(0);
                    snaps.push(s);
                }
            }
            // Deduplicate (two absent keys can share a successor node;
            // VLX V-sequences must not repeat records).
            snaps.dedup_by(|a, b| std::ptr::eq(a.record(), b.record()));
            if self.domain.vlx(&snaps) {
                return counts;
            }
        }
    }

    /// Total number of occurrences across all keys.
    ///
    /// This is a traversal, not an atomic snapshot: concurrent updates
    /// may or may not be reflected. Each `(key, count)` pair visited was
    /// in the multiset at some time during the call (Proposition 2).
    pub fn len(&self) -> u64 {
        self.fold(0u64, |acc, _k, c| acc + c)
    }

    /// True if a traversal finds no keys.
    pub fn is_empty(&self) -> bool {
        let guard = llx_scx::pin();
        let head: &Node<K> = unsafe { &*self.head };
        let first: &Node<K> = unsafe { self.domain.deref(head.read(NEXT), &guard) };
        first.immutable().is_sentinel()
    }

    /// Fold over `(key, count)` pairs in ascending key order.
    ///
    /// Same traversal semantics as [`Multiset::len`].
    pub fn fold<A, F: FnMut(A, K, u64) -> A>(&self, init: A, mut f: F) -> A {
        let guard = llx_scx::pin();
        let mut acc = init;
        let mut cur: &Node<K> = unsafe { &*self.head };
        loop {
            let next_word = cur.read(NEXT);
            if next_word == llx_scx::NULL {
                return acc;
            }
            let next: &Node<K> = unsafe { self.domain.deref(next_word, &guard) };
            if let SentinelKey::Key(k) = next.immutable() {
                acc = f(acc, *k, next.read(COUNT));
            }
            cur = next;
        }
    }

    /// One snapshot-scan attempt over `[from, hi]` (`from <= hi`,
    /// `max_keys > 0`): collect up to `max_keys` `(key, count)` pairs,
    /// ascending — LLXing the predecessor of `from` and every collected
    /// node along *snapshotted* `next` pointers — and validate just
    /// that chain prefix with one VLX.
    ///
    /// This generalizes [`Multiset::get_many`] from a key set to a key
    /// interval, with the same VLX discipline (paper §3). On success
    /// the pairs are the exact contents of `[from, hi]` (when the
    /// returned flag is `true`: the range is exhausted) or of
    /// `[from, last collected key]` (`false`: the key budget ran out)
    /// at the VLX's linearization point: any insert into that interval
    /// must change a snapshotted `next` field and any removal must
    /// finalize a snapshotted node. `None` means a conflicting update
    /// was detected; the *caller* decides whether to retry.
    /// `max_keys = usize::MAX` is the whole-range atomic scan.
    pub fn try_scan_window(
        &self,
        from: K,
        hi: K,
        max_keys: usize,
    ) -> Option<(Vec<(K, u64)>, bool)> {
        debug_assert!(from <= hi && max_keys > 0, "an empty scan window");
        let guard = llx_scx::pin();
        let (_r, p) = self.search(&from, &guard);
        let LlxResult::Snapshot(mut cur) = self.domain.llx(p, &guard) else {
            return None;
        };
        // Sized from the key budget (the predecessor plus one snapshot
        // per collected node), capped so an atomic scan grows instead.
        let budget = max_keys.min(SCAN_PRESIZE_KEYS);
        let mut snaps = Vec::with_capacity(budget + 1);
        snaps.push(cur);
        let mut out: Vec<(K, u64)> = Vec::with_capacity(budget);
        let mut end = true;
        loop {
            let next_word = cur.value(NEXT);
            if next_word == llx_scx::NULL {
                break; // walked onto the +inf sentinel
            }
            // SAFETY: reached via a snapshotted next pointer under
            // `guard`; node reclamation is epoch-deferred.
            let next: &Node<K> = unsafe { self.domain.deref(next_word, &guard) };
            match next.immutable() {
                SentinelKey::Key(k) if *k <= hi => {
                    let LlxResult::Snapshot(s) = self.domain.llx(next, &guard) else {
                        return None;
                    };
                    // Nodes below `from` can appear if an insert raced
                    // the initial search; they extend the validated
                    // chain but are not part of the answer.
                    if *k >= from {
                        out.push((*k, s.value(COUNT)));
                    }
                    snaps.push(s);
                    cur = s;
                    if out.len() >= max_keys {
                        // Budget spent: the validated chain prefix
                        // certifies [from, *k]; later keys are all
                        // strictly greater (sorted list).
                        end = false;
                        break;
                    }
                }
                // First node beyond the range: its immutable key bounds
                // the walk and `cur`'s validated next pointer pins its
                // identity; no LLX needed.
                _ => break,
            }
        }
        self.domain.vlx(&snaps).then_some((out, end))
    }

    /// Collect the `(key, count)` pairs in ascending key order.
    ///
    /// Same traversal semantics as [`Multiset::len`].
    pub fn to_vec(&self) -> Vec<(K, u64)> {
        self.fold(Vec::new(), |mut v, k, c| {
            v.push((k, c));
            v
        })
    }

    /// Structural invariants of Appendix C (Invariant 3 / Corollary 104):
    /// head's key is −∞, keys strictly increase along `next` pointers,
    /// the list ends at the +∞ sentinel, and no reachable node is
    /// finalized. Intended for tests; call during quiescence.
    pub fn check_invariants(&self) -> Result<(), String> {
        let guard = llx_scx::pin();
        let head: &Node<K> = unsafe { &*self.head };
        if *head.immutable() != SentinelKey::NegInf {
            return Err("head key must be -inf".into());
        }
        let mut cur = head;
        let mut steps = 0usize;
        loop {
            if cur.is_marked() {
                return Err(format!("reachable node at position {steps} is finalized"));
            }
            let next_word = cur.read(NEXT);
            if next_word == llx_scx::NULL {
                return if *cur.immutable() == SentinelKey::PosInf {
                    Ok(())
                } else {
                    Err("list must end at the +inf sentinel".into())
                };
            }
            let next: &Node<K> = unsafe { self.domain.deref(next_word, &guard) };
            if next.immutable() <= cur.immutable() {
                return Err(format!("keys not strictly increasing at position {steps}"));
            }
            if next.immutable().key().is_some() && next.read(COUNT) == 0 {
                return Err(format!("zero-count node at position {steps}"));
            }
            cur = next;
            steps += 1;
        }
    }
}

impl<K> Drop for Multiset<K> {
    fn drop(&mut self) {
        // Exclusive access: free the whole chain immediately.
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: nodes are owned by the list; traversal under &mut.
            let next = unsafe { (*cur).read(NEXT) } as usize as *const Node<K>;
            unsafe { self.domain.dealloc(cur) };
            cur = next;
        }
    }
}

impl<K: Copy + Ord + fmt::Debug> fmt::Debug for Multiset<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.to_vec()).finish()
    }
}

impl<K: Copy + Ord> FromIterator<(K, u64)> for Multiset<K> {
    fn from_iter<T: IntoIterator<Item = (K, u64)>>(iter: T) -> Self {
        let set = Multiset::new();
        for (k, c) in iter {
            if c > 0 {
                set.insert(k, c);
            }
        }
        set
    }
}

impl<K: Copy + Ord> Extend<(K, u64)> for Multiset<K> {
    fn extend<T: IntoIterator<Item = (K, u64)>>(&mut self, iter: T) {
        for (k, c) in iter {
            if c > 0 {
                self.insert(k, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_multiset() {
        let s: Multiset<i64> = Multiset::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.get(1), 0);
        assert!(!s.contains(1));
        assert!(!s.remove(1, 1));
        s.check_invariants().unwrap();
    }

    /// Fig. 5(a): Insert(c, 5) with key absent splices a new node.
    #[test]
    fn fig5a_insert_new_key() {
        let s = Multiset::new();
        s.insert('a', 7);
        s.insert('d', 2);
        s.insert('f', 1);
        s.insert('c', 5);
        assert_eq!(s.to_vec(), vec![('a', 7), ('c', 5), ('d', 2), ('f', 1)]);
        s.check_invariants().unwrap();
    }

    /// Fig. 5(b): Insert(d, 4) with key present raises the count.
    #[test]
    fn fig5b_insert_existing_key() {
        let s = Multiset::new();
        s.insert('a', 7);
        s.insert('d', 2);
        s.insert('f', 1);
        s.insert('d', 4);
        assert_eq!(s.to_vec(), vec![('a', 7), ('d', 6), ('f', 1)]);
        s.check_invariants().unwrap();
    }

    /// Fig. 5(c): Delete(d, 2) removing all copies unlinks the node and
    /// replaces its successor with a copy.
    #[test]
    fn fig5c_delete_all_copies() {
        let s = Multiset::new();
        s.insert('a', 7);
        s.insert('d', 2);
        s.insert('f', 1);
        assert!(s.remove('d', 2));
        assert_eq!(s.to_vec(), vec![('a', 7), ('f', 1)]);
        assert_eq!(s.get('d'), 0);
        s.check_invariants().unwrap();
    }

    /// Fig. 5(d): Delete(d, 1) with copies remaining replaces the node
    /// with a reduced-count copy.
    #[test]
    fn fig5d_delete_some_copies() {
        let s = Multiset::new();
        s.insert('a', 7);
        s.insert('d', 2);
        s.insert('f', 1);
        assert!(s.remove('d', 1));
        assert_eq!(s.to_vec(), vec![('a', 7), ('d', 1), ('f', 1)]);
        s.check_invariants().unwrap();
    }

    #[test]
    fn delete_more_than_present_returns_false() {
        let s = Multiset::new();
        s.insert(10, 3);
        assert!(!s.remove(10, 4));
        assert_eq!(s.get(10), 3);
        assert!(!s.remove(11, 1));
        s.check_invariants().unwrap();
    }

    #[test]
    fn delete_last_key_next_to_tail() {
        // Removing the largest key exercises the rnext == tail case:
        // the tail sentinel itself is finalized and replaced by a copy.
        let s = Multiset::new();
        s.insert(1, 1);
        s.insert(2, 1);
        assert!(s.remove(2, 1));
        assert_eq!(s.to_vec(), vec![(1, 1)]);
        s.check_invariants().unwrap();
        // The structure still works after the tail was copied.
        s.insert(3, 2);
        assert_eq!(s.to_vec(), vec![(1, 1), (3, 2)]);
        s.check_invariants().unwrap();
    }

    #[test]
    fn interleaved_inserts_and_deletes() {
        let s = Multiset::new();
        for k in 0..50 {
            s.insert(k % 10, 1);
        }
        for k in 0..10 {
            assert_eq!(s.get(k), 5);
        }
        assert_eq!(s.len(), 50);
        for k in 0..10 {
            assert!(s.remove(k, 3));
        }
        assert_eq!(s.len(), 20);
        for k in 0..10 {
            assert_eq!(s.get(k), 2);
            assert!(s.remove(k, 2));
        }
        assert!(s.is_empty());
        s.check_invariants().unwrap();
    }

    #[test]
    fn scan_window_snapshots_subranges() {
        let s = Multiset::new();
        for (k, c) in [(1i64, 2u64), (3, 1), (5, 4), (9, 1)] {
            s.insert(k, c);
        }
        let scan = |lo, hi, max| s.try_scan_window(lo, hi, max).expect("quiescent");
        let all = vec![(1, 2), (3, 1), (5, 4), (9, 1)];
        assert_eq!(scan(0, 10, usize::MAX), (all.clone(), true));
        assert_eq!(scan(i64::MIN, i64::MAX, usize::MAX), (all, true));
        assert_eq!(scan(2, 5, usize::MAX), (vec![(3, 1), (5, 4)], true));
        assert_eq!(scan(3, 3, usize::MAX), (vec![(3, 1)], true), "single key");
        assert_eq!(scan(4, 4, usize::MAX), (vec![], true), "empty interior");
        // A spent key budget stops the window at the last collected key.
        assert_eq!(scan(0, 10, 2), (vec![(1, 2), (3, 1)], false));
        assert_eq!(scan(4, 10, 2), (vec![(5, 4), (9, 1)], false));
        assert_eq!(scan(10, 20, 2), (vec![], true));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut s: Multiset<u32> = [(1u32, 2u64), (3, 1)].into_iter().collect();
        assert_eq!(s.get(1), 2);
        s.extend([(1u32, 1u64), (4, 4)]);
        assert_eq!(s.get(1), 3);
        assert_eq!(s.get(4), 4);
        s.check_invariants().unwrap();
    }

    #[test]
    fn debug_format_lists_entries() {
        let s = Multiset::new();
        s.insert(2, 1);
        let txt = format!("{s:?}");
        assert!(txt.contains('2'));
    }

    #[test]
    #[should_panic(expected = "count > 0")]
    fn insert_zero_count_panics() {
        Multiset::new().insert(1, 0);
    }

    #[test]
    #[should_panic(expected = "count > 0")]
    fn delete_zero_count_panics() {
        Multiset::new().remove(1, 0);
    }
}
