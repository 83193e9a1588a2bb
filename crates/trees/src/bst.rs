//! Non-blocking leaf-oriented binary search tree on LLX/SCX.
//!
//! The unbalanced dictionary of the paper's §6 follow-up (Brown, Ellen &
//! Ruppert, PPoPP 2014, §4): every update is one SCX over a constant-size
//! neighborhood.
//!
//! * `Insert(k)` replaces leaf `l` with a new internal node holding the
//!   new leaf and a fresh copy of `l` — `SCX(V=⟨p, l⟩, R=⟨l⟩, p.child, new)`.
//! * `Delete(k)` unlinks leaf `l` and its parent `p`, promoting the
//!   sibling — `SCX(V=⟨gp, p, l⟩, R=⟨p, l⟩, gp.child, s)`. No copy of the
//!   sibling is needed: a node is only ever stored into a child field it
//!   has never inhabited, so the paper's no-ABA constraint (§4.1) holds.

use std::fmt;

use llx_scx::{FieldId, Guard, ScxRequest};

use crate::node::{dir_of, is_leaf, Node, NodeInfo, TreeDomain, TreeKey, LEFT, RIGHT};

/// The result of the leaf search: the leaf and up to two ancestors.
pub(crate) struct SearchResult<'g, K, V> {
    pub(crate) gp: Option<&'g Node<K, V>>,
    pub(crate) p: &'g Node<K, V>,
    pub(crate) l: &'g Node<K, V>,
}

/// A linearizable, non-blocking set/map on an external BST (paper §6
/// technique, unbalanced).
///
/// Keys must be `Copy + Ord`; values `Clone`. `insert` is
/// insert-if-absent; `remove` deletes and returns the stored value.
pub struct Bst<K, V> {
    pub(crate) domain: TreeDomain<K, V>,
    pub(crate) root: *const Node<K, V>,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for Bst<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for Bst<K, V> {}

impl<K: Copy + Ord, V: Clone> Default for Bst<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

pub(crate) fn new_root<K, V>(domain: &TreeDomain<K, V>) -> *const Node<K, V> {
    let left = domain.alloc(
        NodeInfo {
            key: TreeKey::Inf1,
            weight: 1,
            value: None,
        },
        [llx_scx::NULL, llx_scx::NULL],
    );
    let right = domain.alloc(
        NodeInfo {
            key: TreeKey::Inf2,
            weight: 1,
            value: None,
        },
        [llx_scx::NULL, llx_scx::NULL],
    );
    domain.alloc(
        NodeInfo {
            key: TreeKey::Inf2,
            weight: 1,
            value: None,
        },
        [llx_scx::pack_ptr(left), llx_scx::pack_ptr(right)],
    )
}

/// Search from `root` to the leaf for `key`, recording parent and
/// grandparent (Ellen et al. search; plain reads only, linearized via
/// the paper's Proposition 2).
pub(crate) fn search_leaf<'g, K: Copy + Ord, V>(
    domain: &TreeDomain<K, V>,
    root: *const Node<K, V>,
    key: &TreeKey<K>,
    guard: &'g Guard,
) -> SearchResult<'g, K, V> {
    // SAFETY: the root entry point is never retired; children are
    // protected by `guard`.
    let mut gp: Option<&'g Node<K, V>> = None;
    let mut p: &'g Node<K, V> = unsafe { &*root };
    let mut l: &'g Node<K, V> = unsafe { domain.deref(p.read(dir_of(key, p)), guard) };
    while !is_leaf(l) {
        gp = Some(p);
        p = l;
        l = unsafe { domain.deref(l.read(dir_of(key, l)), guard) };
    }
    SearchResult { gp, p, l }
}

impl<K: Copy + Ord, V: Clone> Bst<K, V> {
    /// An empty tree: `root(∞₂) → {leaf(∞₁), leaf(∞₂)}`.
    pub fn new() -> Self {
        let domain = TreeDomain::new();
        let root = new_root(&domain);
        Bst { domain, root }
    }

    /// The value associated with `key`, if present.
    pub fn get(&self, key: K) -> Option<V> {
        let guard = llx_scx::pin();
        let k = TreeKey::Key(key);
        let res = search_leaf(&self.domain, self.root, &k, &guard);
        let info = res.l.immutable();
        if info.key == k {
            info.value.clone()
        } else {
            None
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: K) -> bool {
        self.get(key).is_some()
    }

    /// Insert `key -> value` if `key` is absent; returns whether it
    /// inserted.
    pub fn insert(&self, key: K, value: V) -> bool {
        let k = TreeKey::Key(key);
        loop {
            let guard = llx_scx::pin();
            let res = search_leaf(&self.domain, self.root, &k, &guard);
            let l_info = res.l.immutable();
            if l_info.key == k {
                return false;
            }
            let (Some(sp), Some(sl)) = (
                self.domain.llx(res.p, &guard).snapshot(),
                self.domain.llx(res.l, &guard).snapshot(),
            ) else {
                continue;
            };
            // The leaf must still be p's child on the search side.
            let d = dir_of(&k, res.p);
            if sp.value(d) != llx_scx::pack_ptr(res.l as *const Node<K, V>) {
                continue;
            }
            // Build: internal(max-ish key){leaf(k), copy of l} ordered.
            let new_leaf = self.domain.alloc(
                NodeInfo {
                    key: k,
                    weight: 1,
                    value: Some(value.clone()),
                },
                [llx_scx::NULL, llx_scx::NULL],
            );
            let l_copy = self.domain.alloc(
                NodeInfo {
                    key: l_info.key,
                    weight: 1,
                    value: l_info.value.clone(),
                },
                [llx_scx::NULL, llx_scx::NULL],
            );
            let (lc, rc, ikey) = if k < l_info.key {
                (new_leaf, l_copy, l_info.key)
            } else {
                (l_copy, new_leaf, k)
            };
            let internal = self.domain.alloc(
                NodeInfo {
                    key: ikey,
                    weight: 1,
                    value: None,
                },
                [llx_scx::pack_ptr(lc), llx_scx::pack_ptr(rc)],
            );
            if self.domain.scx(
                ScxRequest::new(&[sp, sl], FieldId::new(0, d), llx_scx::pack_ptr(internal))
                    .finalize(1),
                &guard,
            ) {
                // SAFETY: l was unlinked by the committed SCX.
                unsafe { self.domain.retire(res.l as *const Node<K, V>, &guard) };
                return true;
            }
            // SAFETY: never published.
            unsafe {
                self.domain.dealloc(internal);
                self.domain.dealloc(new_leaf);
                self.domain.dealloc(l_copy);
            }
        }
    }

    /// Remove `key`, returning its value if it was present.
    pub fn remove(&self, key: K) -> Option<V> {
        let k = TreeKey::Key(key);
        loop {
            let guard = llx_scx::pin();
            let res = search_leaf(&self.domain, self.root, &k, &guard);
            if res.l.immutable().key != k {
                return None;
            }
            let Some(gp) = res.gp else {
                // User keys always have a grandparent (sentinel layout).
                unreachable!("user-key leaf at depth 1");
            };
            let (Some(sgp), Some(sp), Some(sl)) = (
                self.domain.llx(gp, &guard).snapshot(),
                self.domain.llx(res.p, &guard).snapshot(),
                self.domain.llx(res.l, &guard).snapshot(),
            ) else {
                continue;
            };
            // Validate links from the snapshots.
            let gd = dir_of(&k, gp);
            let pd = dir_of(&k, res.p);
            if sgp.value(gd) != llx_scx::pack_ptr(res.p as *const Node<K, V>)
                || sp.value(pd) != llx_scx::pack_ptr(res.l as *const Node<K, V>)
            {
                continue;
            }
            // Promote the sibling.
            let sibling_word = sp.value(1 - pd);
            let value = res.l.immutable().value.clone();
            if self.domain.scx(
                ScxRequest::new(&[sgp, sp, sl], FieldId::new(0, gd), sibling_word)
                    .finalize(1)
                    .finalize(2),
                &guard,
            ) {
                // SAFETY: both unlinked by the committed SCX.
                unsafe {
                    self.domain.retire(res.p as *const Node<K, V>, &guard);
                    self.domain.retire(res.l as *const Node<K, V>, &guard);
                }
                return value;
            }
        }
    }

    /// The smallest user key and its value (traversal semantics).
    pub fn first_key_value(&self) -> Option<(K, V)> {
        let guard = llx_scx::pin();
        crate::node::extreme_leaf(&self.domain, self.root, LEFT, &guard)
    }

    /// The largest user key and its value (traversal semantics).
    pub fn last_key_value(&self) -> Option<(K, V)> {
        let guard = llx_scx::pin();
        crate::node::extreme_leaf(&self.domain, self.root, RIGHT, &guard)
    }

    /// Number of user keys (traversal semantics, not a snapshot).
    pub fn len(&self) -> usize {
        self.fold(0, |acc, _, _| acc + 1)
    }

    /// True if a traversal finds no user keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fold over `(key, value)` pairs in ascending key order (traversal
    /// semantics).
    pub fn fold<A, F: FnMut(A, K, &V) -> A>(&self, init: A, mut f: F) -> A {
        let guard = llx_scx::pin();
        let mut acc = init;
        let mut stack: Vec<&Node<K, V>> = vec![unsafe { &*self.root }];
        while let Some(n) = stack.pop() {
            if is_leaf(n) {
                let info = n.immutable();
                if let (TreeKey::Key(k), Some(v)) = (&info.key, &info.value) {
                    acc = f(acc, *k, v);
                }
            } else {
                // Right first so lefts pop first (ascending order).
                stack.push(unsafe { self.domain.deref(n.read(RIGHT), &guard) });
                stack.push(unsafe { self.domain.deref(n.read(LEFT), &guard) });
            }
        }
        acc
    }

    /// One snapshot-scan attempt over `[from, hi]` (`from <= hi`,
    /// `max_keys > 0`): an in-order walk that LLXs every visited node,
    /// prunes subtrees disjoint from the range, stops after `max_keys`
    /// keys and validates the visited set with one VLX (see the `scan`
    /// module docs). On success returns the `(key, value)` pairs,
    /// ascending, plus whether the range is exhausted: the pairs are
    /// the exact contents of `[from, hi]` (exhausted) or of
    /// `[from, last key]` (budget spent) at the VLX's linearization
    /// point. `None` means a conflicting update was detected; the
    /// caller decides whether to retry. `max_keys = usize::MAX` is the
    /// whole-range atomic scan.
    pub fn try_scan_window(&self, from: K, hi: K, max_keys: usize) -> Option<(Vec<(K, V)>, bool)> {
        crate::scan::try_window_bstlike(&self.domain, self.root, from, hi, max_keys)
    }

    /// Collect `(key, value)` pairs in ascending key order (traversal
    /// semantics).
    pub fn to_vec(&self) -> Vec<(K, V)> {
        self.fold(Vec::new(), |mut v, k, val| {
            v.push((k, val.clone()));
            v
        })
    }

    /// Structural validation for tests: BST order, leaf-orientation,
    /// sentinel placement, no reachable finalized nodes.
    pub fn check_invariants(&self) -> Result<(), String> {
        crate::validate::check_structure(&self.domain, self.root, false)
    }

    /// Height of the tree (edges from root to deepest leaf).
    pub fn height(&self) -> usize {
        crate::validate::height(&self.domain, self.root)
    }
}

impl<K, V> Drop for Bst<K, V> {
    fn drop(&mut self) {
        // Exclusive access: free every reachable node.
        let mut stack = vec![self.root];
        while let Some(p) = stack.pop() {
            // SAFETY: owned, exclusive.
            let node = unsafe { &*p };
            for f in [LEFT, RIGHT] {
                let w = node.read(f);
                if w != llx_scx::NULL {
                    stack.push(w as usize as *const Node<K, V>);
                }
            }
            unsafe { self.domain.dealloc(p) };
        }
    }
}

impl<K: Copy + Ord + fmt::Debug, V: Clone + fmt::Debug> fmt::Debug for Bst<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.to_vec()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t: Bst<u64, u64> = Bst::new();
        assert!(t.is_empty());
        assert_eq!(t.get(5), None);
        assert_eq!(t.remove(5), None);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_get_remove() {
        let t: Bst<u64, &str> = Bst::new();
        assert!(t.insert(5, "five"));
        assert!(t.insert(3, "three"));
        assert!(t.insert(8, "eight"));
        assert!(!t.insert(5, "dup"), "insert-if-absent");
        assert_eq!(t.get(5), Some("five"));
        assert_eq!(t.get(3), Some("three"));
        assert_eq!(t.get(9), None);
        assert_eq!(t.to_vec(), vec![(3, "three"), (5, "five"), (8, "eight")]);
        t.check_invariants().unwrap();
        assert_eq!(t.remove(5), Some("five"));
        assert_eq!(t.remove(5), None);
        assert_eq!(t.to_vec(), vec![(3, "three"), (8, "eight")]);
        t.check_invariants().unwrap();
        assert_eq!(t.remove(3), Some("three"));
        assert_eq!(t.remove(8), Some("eight"));
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn many_keys_sorted_iteration() {
        let t: Bst<u64, u64> = Bst::new();
        let mut keys: Vec<u64> = (0..200).map(|i| (i * 37) % 1000).collect();
        for &k in &keys {
            t.insert(k, k * 2);
        }
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            t.to_vec(),
            keys.iter().map(|&k| (k, k * 2)).collect::<Vec<_>>()
        );
        t.check_invariants().unwrap();
        for &k in &keys {
            assert_eq!(t.remove(k), Some(k * 2));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn concurrent_disjoint_ranges() {
        use std::sync::Arc;
        let t: Arc<Bst<u64, u64>> = Arc::new(Bst::new());
        let mut handles = Vec::new();
        for tid in 0..4u64 {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..300u64 {
                    let k = tid * 1000 + i;
                    assert!(t.insert(k, k));
                }
                for i in 0..300u64 {
                    let k = tid * 1000 + i;
                    assert_eq!(t.get(k), Some(k));
                }
                for i in (0..300u64).step_by(2) {
                    let k = tid * 1000 + i;
                    assert_eq!(t.remove(k), Some(k));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 4 * 150);
    }

    #[test]
    fn concurrent_same_key_contention() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let t: Arc<Bst<u64, u64>> = Arc::new(Bst::new());
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for tid in 0..4u64 {
            let t = Arc::clone(&t);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut net = 0i64;
                let mut rng = (tid + 1).wrapping_mul(0x9E3779B97F4A7C15);
                while !stop.load(Ordering::Relaxed) {
                    // ord: test stop flag; no data ordering
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let k = rng % 8;
                    if rng & 0x100 == 0 {
                        if t.insert(k, k) {
                            net += 1;
                        }
                    } else if t.remove(k).is_some() {
                        net -= 1;
                    }
                }
                net
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed); // ord: test stop flag; no data ordering
        let net: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        t.check_invariants().unwrap();
        assert_eq!(t.len() as i64, net);
    }
}

#[cfg(test)]
mod extreme_tests {
    use super::*;

    #[test]
    fn first_and_last_key_value() {
        let t: Bst<u64, &str> = Bst::new();
        assert_eq!(t.first_key_value(), None);
        assert_eq!(t.last_key_value(), None);
        t.insert(5, "five");
        assert_eq!(t.first_key_value(), Some((5, "five")));
        assert_eq!(t.last_key_value(), Some((5, "five")));
        t.insert(2, "two");
        t.insert(9, "nine");
        assert_eq!(t.first_key_value(), Some((2, "two")));
        assert_eq!(t.last_key_value(), Some((9, "nine")));
        t.remove(9);
        assert_eq!(t.last_key_value(), Some((5, "five")));
    }
}
