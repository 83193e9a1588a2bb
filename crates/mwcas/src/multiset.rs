//! A multiset built on kCAS, as the paper's §2 comparison implies.
//!
//! The paper argues: "If k Data-records are removed from a data
//! structure by a multi-word CAS, then the multi-word CAS must depend on
//! every mutable field of these records to prevent another process from
//! concurrently updating any of them." This module realizes that design
//! so the benchmark harness can compare it against the LLX/SCX multiset:
//!
//! * removing a node is a 3-word kCAS — the predecessor's `next` plus
//!   *both* mutable fields of the removed node, which are overwritten
//!   with a `DEAD` poison standing in for SCX's finalization;
//! * operations that find a poisoned field fail and restart, mirroring
//!   LLX returning `Finalized`.
//!
//! Keys are `u64` values strictly below [`u64::MAX`] (the tail
//! sentinel's key); counts are limited to [`crate::MAX_VALUE`].

use std::fmt;

use crossbeam_epoch::Guard;

use crate::{kcas, KcasCell};

/// Poison written into the mutable fields of removed nodes; the kCAS
/// analogue of SCX finalization.
const DEAD: u64 = crate::MAX_VALUE;

struct KNode {
    /// Immutable key; `u64::MAX` marks the tail sentinel.
    key: u64,
    count: KcasCell,
    next: KcasCell,
}

impl KNode {
    fn alloc(key: u64, count: u64, next: u64) -> *const KNode {
        Box::into_raw(Box::new(KNode {
            key,
            count: KcasCell::new(count),
            next: KcasCell::new(next),
        }))
    }
}

#[inline]
fn pack(p: *const KNode) -> u64 {
    p as usize as u64
}

/// A multiset on a sorted singly-linked list whose updates are k-word
/// CAS operations (the paper's §2 baseline design).
///
/// Semantically equivalent to [`multiset`'s
/// `Multiset<u64>`](https://docs.rs/multiset) as specified in paper §5;
/// the difference is the synchronization substrate and its step costs.
pub struct KcasMultiset {
    head: *const KNode,
}

unsafe impl Send for KcasMultiset {}
unsafe impl Sync for KcasMultiset {}

impl Default for KcasMultiset {
    fn default() -> Self {
        Self::new()
    }
}

impl KcasMultiset {
    /// An empty multiset (`head -> tail` sentinels).
    pub fn new() -> Self {
        let tail = KNode::alloc(u64::MAX, 0, 0);
        let head = KNode::alloc(0, 0, pack(tail));
        KcasMultiset { head }
    }

    /// Find `(r, p)` with `p.key < key <= r.key`, restarting if a
    /// removed (poisoned) node is traversed.
    fn search<'g>(&self, key: u64, guard: &'g Guard) -> (&'g KNode, &'g KNode) {
        'restart: loop {
            // SAFETY: head never retired; successors epoch-protected.
            let mut p: &KNode = unsafe { &*self.head };
            let mut r_word = p.next.read(guard);
            loop {
                if r_word == DEAD {
                    continue 'restart;
                }
                let r: &KNode = unsafe { &*(r_word as usize as *const KNode) };
                if r.key >= key {
                    return (r, p);
                }
                p = r;
                r_word = r.next.read(guard);
            }
        }
    }

    /// Number of occurrences of `key`.
    pub fn get(&self, key: u64) -> u64 {
        assert!(key < u64::MAX, "u64::MAX is reserved for the tail sentinel");
        loop {
            let guard = crossbeam_epoch::pin();
            let (r, _p) = self.search(key, &guard);
            if r.key != key {
                return 0;
            }
            let c = r.count.read(&guard);
            if c != DEAD {
                return c;
            }
            // r was removed mid-lookup; retry.
        }
    }

    /// Add `count` occurrences of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `key == u64::MAX`.
    pub fn insert(&self, key: u64, count: u64) {
        assert!(count > 0, "Insert precondition: count > 0");
        assert!(key < u64::MAX, "u64::MAX is reserved for the tail sentinel");
        loop {
            let guard = crossbeam_epoch::pin();
            let (r, p) = self.search(key, &guard);
            if r.key == key {
                let c = r.count.read(&guard);
                if c == DEAD {
                    continue; // removed concurrently; retry
                }
                if kcas(&[(&r.count, c, c + count)], &guard) {
                    return;
                }
            } else {
                let node = KNode::alloc(key, count, pack(r as *const KNode));
                if kcas(&[(&p.next, pack(r as *const KNode), pack(node))], &guard) {
                    return;
                }
                // SAFETY: never published.
                unsafe { drop(Box::from_raw(node as *mut KNode)) };
            }
        }
    }

    /// Remove `count` occurrences of `key` if at least `count` are
    /// present; returns whether it did.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `key == u64::MAX`.
    pub fn remove(&self, key: u64, count: u64) -> bool {
        assert!(count > 0, "Delete precondition: count > 0");
        assert!(key < u64::MAX, "u64::MAX is reserved for the tail sentinel");
        loop {
            let guard = crossbeam_epoch::pin();
            let (r, p) = self.search(key, &guard);
            if r.key != key {
                return false;
            }
            let c = r.count.read(&guard);
            if c == DEAD {
                continue;
            }
            if c < count {
                return false;
            }
            if c > count {
                // In-place decrement; a plain CAS race on the counter.
                if kcas(&[(&r.count, c, c - count)], &guard) {
                    return true;
                }
            } else {
                // Unlink r: the kCAS depends on (and poisons) both of
                // r's mutable fields — the paper's §2 argument.
                let rnext = r.next.read(&guard);
                if rnext == DEAD {
                    continue;
                }
                if kcas(
                    &[
                        (&p.next, pack(r as *const KNode), rnext),
                        (&r.count, c, DEAD),
                        (&r.next, rnext, DEAD),
                    ],
                    &guard,
                ) {
                    let ptr = r as *const KNode as *mut KNode;
                    // SAFETY: unlinked by the committed kCAS; retired once.
                    unsafe { guard.defer_unchecked(move || drop(Box::from_raw(ptr))) };
                    return true;
                }
            }
        }
    }

    /// One snapshot-scan attempt over `[from, hi]` (`from <= hi`,
    /// `max_keys > 0`): collect up to `max_keys` `(key, count)` pairs,
    /// ascending, plus whether the range is exhausted, and validate
    /// them with an **identity kCAS** (every `new == expected`) over
    /// the predecessor's `next` plus both mutable fields of every
    /// collected node.
    ///
    /// This is the kCAS analogue of the LLX/SCX multiset's VLX-validated
    /// scan, and it shows the paper's §2 cost argument from the read
    /// side: `2m + 1` CAS-installed cells for an `m`-key window, where
    /// VLX pays `2m + 1` plain reads. On success the pairs are the
    /// exact contents of the covered interval (`[from, hi]` if
    /// exhausted, else `[from, last key]`) at the kCAS's linearization
    /// point: removed nodes fail it through their `DEAD` poison,
    /// inserts through the snapshotted `next` chain. `None` means a
    /// conflict; the caller decides whether to retry.
    /// `max_keys = usize::MAX` is the whole-range atomic scan.
    pub fn try_scan_window(
        &self,
        from: u64,
        hi: u64,
        max_keys: usize,
    ) -> Option<(Vec<(u64, u64)>, bool)> {
        debug_assert!(from <= hi && max_keys > 0, "an empty scan window");
        let guard = crossbeam_epoch::pin();
        // Plain-read traversal to the predecessor of `from`.
        // SAFETY: head never retired; successors epoch-protected.
        let mut p: &KNode = unsafe { &*self.head };
        let mut r_word = p.next.read(&guard);
        loop {
            if r_word == DEAD {
                return None; // walked onto a removed node
            }
            let r: &KNode = unsafe { &*(r_word as usize as *const KNode) };
            if r.key >= from {
                break;
            }
            p = r;
            r_word = r.next.read(&guard);
        }
        // Collect the window, recording every cell the snapshot depends
        // on as an identity entry.
        let mut entries: Vec<crate::KcasEntry<'_>> = vec![(&p.next, r_word, r_word)];
        let mut out = Vec::new();
        let mut end = true;
        let mut cur_word = r_word;
        loop {
            let cur: &KNode = unsafe { &*(cur_word as usize as *const KNode) };
            if cur.key == u64::MAX || cur.key > hi {
                break; // the terminator's identity is pinned by the
                       // predecessor's validated `next` cell
            }
            let c = cur.count.read(&guard);
            let next_word = cur.next.read(&guard);
            if c == DEAD || next_word == DEAD {
                return None; // removed mid-walk
            }
            entries.push((&cur.count, c, c));
            entries.push((&cur.next, next_word, next_word));
            out.push((cur.key, c));
            if out.len() >= max_keys {
                // Budget spent: the validated cells certify
                // [from, cur.key]; later keys are strictly greater.
                end = false;
                break;
            }
            cur_word = next_word;
        }
        kcas(&entries, &guard).then_some((out, end))
    }

    /// Collect `(key, count)` pairs in ascending key order (traversal
    /// semantics, not a snapshot).
    pub fn to_vec(&self) -> Vec<(u64, u64)> {
        loop {
            let guard = crossbeam_epoch::pin();
            let mut out = Vec::new();
            let mut cur: &KNode = unsafe { &*self.head };
            let ok = loop {
                let next_word = cur.next.read(&guard);
                if next_word == DEAD {
                    break false;
                }
                let next: &KNode = unsafe { &*(next_word as usize as *const KNode) };
                if next.key == u64::MAX {
                    break true;
                }
                let c = next.count.read(&guard);
                if c != DEAD && c > 0 {
                    out.push((next.key, c));
                }
                cur = next;
            };
            if ok {
                return out;
            }
        }
    }

    /// Total occurrences across all keys (traversal semantics).
    pub fn len(&self) -> u64 {
        self.to_vec().iter().map(|&(_, c)| c).sum()
    }

    /// True if a traversal finds no keys.
    pub fn is_empty(&self) -> bool {
        self.to_vec().is_empty()
    }
}

impl Drop for KcasMultiset {
    fn drop(&mut self) {
        let guard = crossbeam_epoch::pin();
        let mut cur = self.head;
        while !cur.is_null() {
            let node = unsafe { Box::from_raw(cur as *mut KNode) };
            let next = node.next.read(&guard);
            cur = if node.key == u64::MAX {
                std::ptr::null()
            } else {
                next as usize as *const KNode
            };
        }
    }
}

impl fmt::Debug for KcasMultiset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.to_vec()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn basic_insert_get_delete() {
        let s = KcasMultiset::new();
        assert!(s.is_empty());
        s.insert(3, 2);
        s.insert(1, 1);
        s.insert(3, 1);
        assert_eq!(s.get(3), 3);
        assert_eq!(s.get(1), 1);
        assert_eq!(s.to_vec(), vec![(1, 1), (3, 3)]);
        assert!(s.remove(3, 1));
        assert_eq!(s.get(3), 2);
        assert!(s.remove(3, 2));
        assert_eq!(s.get(3), 0);
        assert!(!s.remove(3, 1));
        assert_eq!(s.to_vec(), vec![(1, 1)]);
    }

    #[test]
    fn delete_more_than_present_fails() {
        let s = KcasMultiset::new();
        s.insert(5, 2);
        assert!(!s.remove(5, 3));
        assert_eq!(s.get(5), 2);
    }

    #[test]
    fn concurrent_ledger_conservation() {
        let s = Arc::new(KcasMultiset::new());
        let stop = Arc::new(AtomicBool::new(false));
        const KEYS: u64 = 8;
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut rng = (t + 1).wrapping_mul(0x9E3779B97F4A7C15);
                let mut ledger = vec![0i64; KEYS as usize];
                while !stop.load(Ordering::Relaxed) {
                    // ord: test stop flag; no data ordering
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let key = rng % KEYS;
                    match (rng >> 16) % 3 {
                        0 => {
                            s.insert(key, 1);
                            ledger[key as usize] += 1;
                        }
                        1 => {
                            if s.remove(key, 1) {
                                ledger[key as usize] -= 1;
                            }
                        }
                        _ => {
                            let _ = s.get(key);
                        }
                    }
                }
                ledger
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed); // ord: test stop flag; no data ordering
        let mut expected = vec![0i64; KEYS as usize];
        for h in handles {
            for (k, v) in h.join().unwrap().into_iter().enumerate() {
                expected[k] += v;
            }
        }
        for k in 0..KEYS {
            assert_eq!(s.get(k), expected[k as usize] as u64, "key {k}");
        }
    }
}
