//! Non-blocking leaf-oriented binary search tree on LLX/SCX.
//!
//! The unbalanced dictionary of the paper's §6 follow-up (Brown, Ellen &
//! Ruppert, PPoPP 2014, §4): every update is one SCX over a constant-size
//! neighborhood.
//!
//! * `Insert(k)` replaces leaf `l` with a new internal node holding the
//!   new leaf and a fresh copy of `l` — `SCX(V=⟨p, l⟩, R=⟨l⟩, p.child, new)`.
//! * `Delete(k)` unlinks leaf `l` and its parent `p` and puts a copy of
//!   the sibling `s` in their place —
//!   `SCX(V=⟨gp, p, l, s⟩, R=⟨p, l, s⟩, gp.child, copy of s)`.
//!
//! Both run through [`llx_scx::Tx`], whose `commit` stores only a node
//! that the same attempt allocated. So every SCX's `new` is fresh, no
//! child field ever receives a value it held before, and the paper's
//! no-ABA constraint (§4.1) holds by construction. Removal pays one
//! copy for it: promoting the sibling itself is legal here (a node only
//! moves up), but the Patricia trie's removal would move a node back
//! into a field its splice took it out of.

use std::fmt;

use llx_scx::{Guard, Tx};

use crate::node::{
    copy, dir_of, internal, is_leaf, leaf, llx_pair, Node, NodeInfo, TreeDomain, TreeKey, LEFT,
    RIGHT,
};

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

/// Whether a node of weight `weight` stored under `parent` creates a
/// chromatic violation (overweight, or red under red).
fn violation<K, V>(weight: u32, parent: &Node<K, V>) -> bool {
    weight >= 2 || (weight == 0 && parent.immutable().weight == 0)
}

/// One insert attempt for the absent key `k` at the leaf `res.l`:
/// replace `l` by an internal node over a new leaf and a copy of `l`,
/// `SCX(V=⟨p, l⟩, R=⟨l⟩)`. The internal node weighs `weight(p is the
/// entry point, w(l))`. `None` means retry; `Some(v)` means committed,
/// with `v` whether it created a violation.
pub(crate) fn insert_at<'g, K: Copy + Ord, V: Clone>(
    domain: &TreeDomain<K, V>,
    root: *const Node<K, V>,
    res: &SearchResult<'g, K, V>,
    k: TreeKey<K>,
    value: &V,
    weight: impl Fn(bool, u32) -> u32,
    guard: &'g Guard,
) -> Option<bool> {
    let tx = Tx::new(domain, guard);
    let sp = tx.llx(res.p)?;
    tx.llx(res.l)?;
    // The leaf must still be p's child on the search side.
    let d = dir_of(&k, res.p);
    if sp.value(d) != llx_scx::pack_ptr(res.l as *const Node<K, V>) {
        return None;
    }
    let l_info = res.l.immutable();
    let w = weight(std::ptr::eq(res.p, root), l_info.weight);
    let new_leaf = leaf(&tx, k, Some(value.clone()));
    let l_copy = leaf(&tx, l_info.key, l_info.value.clone());
    let n = if k < l_info.key {
        internal(&tx, l_info.key, w, [new_leaf.word(), l_copy.word()])
    } else {
        internal(&tx, k, w, [l_copy.word(), new_leaf.word()])
    };
    // SAFETY: R = ⟨l⟩, which `n` replaces.
    unsafe { tx.commit(d, n, None) }.then(|| violation(w, res.p))
}

/// One remove attempt of the leaf `res.l` holding `k`: replace its
/// parent `p` by a copy of the sibling `s`, `SCX(V=⟨gp, p, l, s⟩,
/// R=⟨p, l, s⟩)` with `l` and `s` in left-to-right order. The copy
/// weighs `weight(gp is the entry point, w(p), w(s))`. Returns as
/// [`insert_at`] does.
pub(crate) fn remove_at<'g, K: Copy + Ord, V: Clone>(
    domain: &TreeDomain<K, V>,
    root: *const Node<K, V>,
    res: &SearchResult<'g, K, V>,
    k: &TreeKey<K>,
    weight: impl Fn(bool, u32, u32) -> u32,
    guard: &'g Guard,
) -> Option<bool> {
    // User keys always have a grandparent (sentinel layout).
    let gp = res.gp.expect("user-key leaf always has a grandparent");
    let tx = Tx::new(domain, guard);
    let sgp = tx.llx(gp)?;
    let sp = tx.llx(res.p)?;
    let gd = dir_of(k, gp);
    let pd = dir_of(k, res.p);
    if sgp.value(gd) != llx_scx::pack_ptr(res.p as *const Node<K, V>)
        || sp.value(pd) != llx_scx::pack_ptr(res.l as *const Node<K, V>)
    {
        return None;
    }
    // SAFETY: a child of a snapshotted node, protected by `guard`.
    let s: &Node<K, V> = unsafe { domain.deref(sp.value(1 - pd), guard) };
    let (_, ss) = llx_pair(&tx, res.l, pd, s)?;
    let at_entry = std::ptr::eq(gp, root);
    let w = weight(at_entry, res.p.immutable().weight, s.immutable().weight);
    let n = copy(&tx, &ss, w);
    // SAFETY: R = ⟨p, l, s⟩, which `n` replaces.
    unsafe { tx.commit(gd, n, None) }.then(|| violation(w, gp))
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
            if res.l.immutable().key == k {
                return false;
            }
            if insert_at(&self.domain, self.root, &res, k, &value, |_, _| 1, &guard).is_some() {
                return true;
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
            // The sibling's copy keeps its weight.
            if remove_at(&self.domain, self.root, &res, &k, |_, _, ws| ws, &guard).is_some() {
                return res.l.immutable().value.clone();
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
