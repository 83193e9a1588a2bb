//! A non-blocking Patricia trie on LLX/SCX.
//!
//! The paper's §2 cites Shafiei's non-blocking Patricia tries [15] as a
//! sibling application of the cooperative technique; with LLX/SCX the
//! structure falls out of the same *replace-a-constant-neighborhood*
//! templates as the trees:
//!
//! * the trie is binary and leaf-oriented over `u64` keys; internal
//!   nodes carry the branch bit (bits strictly decrease downward);
//! * `insert` splices one fresh internal node above the first edge whose
//!   subtree first differs from the new key at the branch bit — one SCX
//!   on the parent, nothing finalized (the displaced subtree is
//!   re-linked below the new node);
//! * `remove` unlinks the leaf and its parent and puts a copy of the
//!   sibling in their place — `SCX(V=⟨gp, p, l, s⟩, R=⟨p, l, s⟩)`, as the
//!   chromatic tree's delete;
//! * the empty trie is a fresh *empty sentinel* node, only ever the
//!   entry point's child: a splice never lands above it.
//!
//! Every update runs through [`llx_scx::Tx`], so every SCX's `new` is a
//! node the same attempt allocated and no field ever receives a value
//! it held before (§4.1). The sibling copy is what this costs: a splice
//! moves a subtree `c` down from `p.fld`, and promoting the sibling
//! would move `c` back, so `p.fld` would go `c → I → c` and a helper
//! stalled before the splice's update CAS could apply it a second time.
//!
//! Unlike the comparison-based trees, depth is bounded by the key width
//! (≤ 64) regardless of adversarial insertion order, with no
//! rebalancing at all.

use std::fmt;

use llx_scx::{DataRecord, Guard, Tx};

use crate::node::{llx_pair, sides, LEFT, RIGHT};

/// Payload of a trie node.
#[derive(Debug, Clone)]
pub struct PatInfo<V> {
    /// Leaf: the full key. Internal: any key in the subtree (used to
    /// compute differing bits). Empty sentinel: 0.
    key: u64,
    kind: PatKind<V>,
}

#[derive(Debug, Clone)]
enum PatKind<V> {
    /// The empty-trie sentinel.
    Empty,
    /// A leaf holding the value for `key`.
    Leaf(V),
    /// An internal node branching on `bit` (0..=63; children disagree at
    /// that bit, all agree above it).
    Internal { bit: u32 },
}

type Node<V> = DataRecord<2, PatInfo<V>>;
type PatDomain<V> = llx_scx::Domain<2, PatInfo<V>>;

/// A non-blocking Patricia trie mapping `u64` keys to values.
///
/// Same API shape as [`crate::Bst`]; `O(min(64, n))` depth guaranteed
/// structurally.
pub struct PatriciaTrie<V> {
    domain: PatDomain<V>,
    /// Entry point; its `LEFT` field points at the trie top (a leaf,
    /// internal node, or the empty sentinel). `RIGHT` is unused.
    root: *const Node<V>,
}

unsafe impl<V: Send + Sync> Send for PatriciaTrie<V> {}
unsafe impl<V: Send + Sync> Sync for PatriciaTrie<V> {}

impl<V: Clone> Default for PatriciaTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bit_of(key: u64, bit: u32) -> usize {
    if key >> bit & 1 == 0 {
        LEFT
    } else {
        RIGHT
    }
}

/// The child field `key` routes to below `n`: the branch bit's side at
/// an internal node, `LEFT` at the entry point.
#[inline]
fn child_dir<V>(n: &Node<V>, key: u64) -> usize {
    match n.immutable().kind {
        PatKind::Internal { bit } => bit_of(key, bit),
        _ => LEFT,
    }
}

impl<V: Clone> PatriciaTrie<V> {
    /// An empty trie.
    pub fn new() -> Self {
        let domain = PatDomain::new();
        let empty = domain.alloc(
            PatInfo {
                key: 0,
                kind: PatKind::Empty,
            },
            [llx_scx::NULL, llx_scx::NULL],
        );
        let root = domain.alloc(
            PatInfo {
                key: 0,
                kind: PatKind::Empty,
            },
            [llx_scx::pack_ptr(empty), llx_scx::NULL],
        );
        PatriciaTrie { domain, root }
    }

    /// Descend to the leaf (or empty sentinel) the key routes to,
    /// tracking the parent and grandparent.
    fn search<'g>(
        &self,
        key: u64,
        guard: &'g Guard,
    ) -> (Option<&'g Node<V>>, &'g Node<V>, &'g Node<V>) {
        let mut gp: Option<&'g Node<V>> = None;
        // SAFETY: root never retired; children guard-protected.
        let mut p: &'g Node<V> = unsafe { &*self.root };
        let mut l: &'g Node<V> = unsafe { self.domain.deref(p.read(LEFT), guard) };
        while let PatKind::Internal { bit } = l.immutable().kind {
            gp = Some(p);
            p = l;
            l = unsafe { self.domain.deref(l.read(bit_of(key, bit)), guard) };
        }
        (gp, p, l)
    }

    /// The edge a splice for `key` takes when `key` first differs from
    /// the trie at bit `d`: the first node `c` on `key`'s path that does
    /// not branch above `d`, its parent `p` and the field of `p` holding
    /// it. `None` (retry) unless `c` still first differs from `key` at
    /// `d` — and always for the empty sentinel, which must stay the
    /// entry point's only child (the insert's empty branch replaces it).
    fn insertion_edge<'g>(
        &self,
        key: u64,
        d: u32,
        guard: &'g Guard,
    ) -> Option<(&'g Node<V>, usize, &'g Node<V>)> {
        // SAFETY: root never retired; children guard-protected.
        let mut p: &'g Node<V> = unsafe { &*self.root };
        let mut fld = LEFT;
        let mut c: &'g Node<V> = unsafe { self.domain.deref(p.read(fld), guard) };
        while let PatKind::Internal { bit } = c.immutable().kind {
            if bit < d {
                break;
            }
            p = c;
            fld = bit_of(key, bit);
            c = unsafe { self.domain.deref(c.read(fld), guard) };
        }
        let diff = c.immutable().key ^ key;
        let empty = matches!(c.immutable().kind, PatKind::Empty);
        (!empty && diff != 0 && 63 - diff.leading_zeros() == d).then_some((p, fld, c))
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: u64) -> Option<V> {
        let guard = llx_scx::pin();
        let (_, _, l) = self.search(key, &guard);
        match &l.immutable().kind {
            PatKind::Leaf(v) if l.immutable().key == key => Some(v.clone()),
            _ => None,
        }
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Insert `key -> value` if absent; returns whether it inserted.
    pub fn insert(&self, key: u64, value: V) -> bool {
        loop {
            let guard = llx_scx::pin();
            if let Some(inserted) = self.try_insert(key, &value, &guard) {
                return inserted;
            }
        }
    }

    /// One insert attempt: `Some(false)` if `key` is present,
    /// `Some(true)` once inserted, `None` to retry.
    fn try_insert(&self, key: u64, value: &V, guard: &Guard) -> Option<bool> {
        let (_, _, l) = self.search(key, guard);
        let (p, fld, c) = match &l.immutable().kind {
            PatKind::Leaf(_) if l.immutable().key == key => return Some(false),
            // SAFETY: the entry point is never retired.
            PatKind::Empty => (unsafe { &*self.root }, LEFT, l),
            _ => {
                let diff = l.immutable().key ^ key;
                self.insertion_edge(key, 63 - diff.leading_zeros(), guard)?
            }
        };
        let empty = matches!(c.immutable().kind, PatKind::Empty);
        let tx = Tx::new(&self.domain, guard);
        let sp = tx.llx(p)?;
        if empty {
            tx.llx(c)?;
        }
        let c_word = llx_scx::pack_ptr(c as *const Node<V>);
        if sp.value(fld) != c_word {
            return None;
        }
        let kind = PatKind::Leaf(value.clone());
        let leaf = tx.alloc(PatInfo { key, kind }, [llx_scx::NULL, llx_scx::NULL]);
        let n = if empty {
            // The first leaf replaces the sentinel: V = ⟨root, c⟩,
            // R = ⟨c⟩.
            leaf
        } else {
            // Splice a new internal node above `c`: V = ⟨p⟩, R = ⟨⟩.
            // `c` is re-linked, not modified; any concurrent
            // replacement of `c` must modify `p` and conflicts there.
            let d = 63 - (c.immutable().key ^ key).leading_zeros();
            let kind = PatKind::Internal { bit: d };
            let children = sides(bit_of(key, d), leaf.word(), c_word);
            tx.alloc(PatInfo { key, kind }, children)
        };
        // SAFETY: R is the sentinel `n` replaces, or empty.
        unsafe { tx.commit(fld, n, None) }.then_some(true)
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&self, key: u64) -> Option<V> {
        loop {
            let guard = llx_scx::pin();
            let (gp, p, l) = self.search(key, &guard);
            let PatKind::Leaf(v) = &l.immutable().kind else {
                return None;
            };
            if l.immutable().key != key {
                return None;
            }
            if self.try_remove(key, gp, p, l, &guard).is_some() {
                return Some(v.clone());
            }
        }
    }

    /// One attempt to unlink the leaf `l` (parent `p`, grandparent
    /// `gp`); `None` to retry.
    fn try_remove<'g>(
        &self,
        key: u64,
        gp: Option<&'g Node<V>>,
        p: &'g Node<V>,
        l: &'g Node<V>,
        guard: &'g Guard,
    ) -> Option<()> {
        let tx = Tx::new(&self.domain, guard);
        let l_word = llx_scx::pack_ptr(l as *const Node<V>);
        let Some(gp) = gp else {
            // The only leaf (p is the entry point): replace it with a
            // fresh empty sentinel, V = ⟨root, l⟩, R = ⟨l⟩.
            let sp = tx.llx(p)?;
            tx.llx(l)?;
            if sp.value(LEFT) != l_word {
                return None;
            }
            let kind = PatKind::Empty;
            let empty = tx.alloc(PatInfo { key: 0, kind }, [llx_scx::NULL, llx_scx::NULL]);
            // SAFETY: R = ⟨l⟩, which `empty` replaces.
            return unsafe { tx.commit(LEFT, empty, None) }.then_some(());
        };
        // Unlink l and p and put a copy of the sibling s in their place.
        let sgp = tx.llx(gp)?;
        let sp = tx.llx(p)?;
        let (gd, pd) = (child_dir(gp, key), child_dir(p, key));
        if sgp.value(gd) != llx_scx::pack_ptr(p as *const Node<V>) || sp.value(pd) != l_word {
            return None;
        }
        // SAFETY: a child of a snapshotted node, protected by `guard`.
        let s: &Node<V> = unsafe { self.domain.deref(sp.value(1 - pd), guard) };
        let (_, ss) = llx_pair(&tx, l, pd, s)?;
        let s_copy = tx.alloc(s.immutable().clone(), *ss.values());
        // SAFETY: R = ⟨p, l, s⟩, which `s_copy` replaces.
        unsafe { tx.commit(gd, s_copy, None) }.then_some(())
    }

    /// Fold over `(key, value)` pairs in ascending key order (traversal
    /// semantics, like the other structures).
    pub fn fold<A, F: FnMut(A, u64, &V) -> A>(&self, init: A, mut f: F) -> A {
        let guard = llx_scx::pin();
        let mut acc = init;
        let root: &Node<V> = unsafe { &*self.root };
        let mut stack: Vec<&Node<V>> = vec![unsafe { self.domain.deref(root.read(LEFT), &guard) }];
        while let Some(n) = stack.pop() {
            match &n.immutable().kind {
                PatKind::Empty => {}
                PatKind::Leaf(v) => acc = f(acc, n.immutable().key, v),
                PatKind::Internal { .. } => {
                    stack.push(unsafe { self.domain.deref(n.read(RIGHT), &guard) });
                    stack.push(unsafe { self.domain.deref(n.read(LEFT), &guard) });
                }
            }
        }
        acc
    }

    /// One snapshot-scan attempt over `[from, hi]` (`from <= hi`,
    /// `max_keys > 0`) through the shared tree-scan engine (`scan`
    /// module); see `Bst::try_scan_window` for the contract.
    ///
    /// The walk descends by *prefix pruning*: an internal node branching
    /// on `bit` covers exactly the keys that agree with its
    /// (immutable) representative key above `bit`, a contiguous
    /// interval, so disjoint subtrees are skipped without being read —
    /// for a range that is a prefix interval this is precisely the
    /// trie's `O(bits)` prefix descent. Every node actually visited is
    /// LLXed, children are followed through the snapshots, and the
    /// visited set is validated with one VLX; `None` means an LLX
    /// failed, a visited node was finalized, or the VLX rejected the
    /// visited set.
    pub fn try_scan_window(
        &self,
        from: u64,
        hi: u64,
        max_keys: usize,
    ) -> Option<(Vec<(u64, V)>, bool)> {
        use crate::scan::Visit;
        debug_assert!(from <= hi, "an empty scan window");
        let guard = &llx_scx::pin();
        let root = self.root;
        // Prune at push time, before the child is ever LLXed: an
        // internal node branching on `bit` covers exactly the keys that
        // agree with its (immutable) representative above `bit` — the
        // interval [min, max] — so disjoint subtrees are skipped
        // unread; the trie invariant on immutable keys makes the
        // pruning decision stable. Leaves and the empty sentinel are
        // always visited (their keys decide membership under the VLX).
        let overlapping = |child: &Node<V>| -> bool {
            match &child.immutable().kind {
                PatKind::Internal { bit } => {
                    let hi_mask = if *bit >= 63 { 0 } else { !0u64 << (bit + 1) };
                    let min = child.immutable().key & hi_mask;
                    let max = min | !hi_mask;
                    max >= from && min <= hi
                }
                PatKind::Leaf(_) | PatKind::Empty => true,
            }
        };
        // SAFETY: the root entry point is never retired; children come
        // from validated snapshots and are protected by `guard`.
        let start: &Node<V> = unsafe { &*root };
        crate::scan::try_collect_window(&self.domain, start, max_keys, guard, &mut |n, s| {
            if std::ptr::eq(n, root) {
                // The entry point: kind Empty, but its LEFT child is
                // the trie top.
                // SAFETY: snapshotted child under `guard`.
                let top: &Node<V> = unsafe { self.domain.deref(s.value(LEFT), guard) };
                return Visit::Push([None, overlapping(top).then_some(top)]);
            }
            match &n.immutable().kind {
                PatKind::Empty => Visit::Leaf(None),
                PatKind::Leaf(v) => {
                    let k = n.immutable().key;
                    Visit::Leaf((from <= k && k <= hi).then(|| (k, v.clone())))
                }
                PatKind::Internal { .. } => {
                    // SAFETY: snapshotted children under `guard`.
                    let right: &Node<V> = unsafe { self.domain.deref(s.value(RIGHT), guard) };
                    let left: &Node<V> = unsafe { self.domain.deref(s.value(LEFT), guard) };
                    // Right before left so lefts pop first (ascending).
                    Visit::Push([
                        overlapping(right).then_some(right),
                        overlapping(left).then_some(left),
                    ])
                }
            }
        })
    }

    /// Collect `(key, value)` pairs in ascending key order.
    pub fn to_vec(&self) -> Vec<(u64, V)> {
        self.fold(Vec::new(), |mut v, k, val| {
            v.push((k, val.clone()));
            v
        })
    }

    /// Collect all `(key, value)` pairs whose key starts with the
    /// `bits`-bit prefix `prefix` (the high `bits` bits of the key),
    /// in ascending key order.
    ///
    /// This is the query Patricia tries exist for: the trie's branch
    /// structure locates the covering subtree in `O(bits)` steps, then
    /// only matching keys are enumerated. Traversal semantics as for
    /// [`PatriciaTrie::fold`].
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 64` (use `fold` for "all keys").
    pub fn keys_with_prefix(&self, prefix: u64, bits: u32) -> Vec<(u64, V)> {
        assert!((1..=64).contains(&bits), "prefix length must be in 1..=64");
        let low = 64 - bits; // lowest bit index covered by the prefix
        let mask = if bits == 64 { u64::MAX } else { !0u64 << low };
        let want = prefix & mask;
        let guard = llx_scx::pin();
        let root: &Node<V> = unsafe { &*self.root };
        let mut n: &Node<V> = unsafe { self.domain.deref(root.read(LEFT), &guard) };
        // Descend while the branch bit is above the prefix: the subtree
        // containing all `want`-prefixed keys lies on `want`'s side.
        loop {
            match n.immutable().kind {
                PatKind::Internal { bit } if bit >= low => {
                    n = unsafe { self.domain.deref(n.read(bit_of(want, bit)), &guard) };
                }
                _ => break,
            }
        }
        // `n` now covers (at most) the prefix subtree; verify its
        // representative actually matches and enumerate.
        if n.immutable().key & mask != want {
            if let PatKind::Leaf(_) | PatKind::Internal { .. } = n.immutable().kind {
                return Vec::new();
            }
        }
        let mut out = Vec::new();
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            match &m.immutable().kind {
                PatKind::Empty => {}
                PatKind::Leaf(v) => {
                    if m.immutable().key & mask == want {
                        out.push((m.immutable().key, v.clone()));
                    }
                }
                PatKind::Internal { .. } => {
                    stack.push(unsafe { self.domain.deref(m.read(RIGHT), &guard) });
                    stack.push(unsafe { self.domain.deref(m.read(LEFT), &guard) });
                }
            }
        }
        out
    }

    /// Number of keys (traversal semantics).
    pub fn len(&self) -> usize {
        self.fold(0, |a, _, _| a + 1)
    }

    /// True if a traversal finds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Structural validation: branch bits strictly decrease downward,
    /// every leaf's key matches its path, no reachable node finalized,
    /// the empty sentinel appears only alone at the top.
    pub fn check_invariants(&self) -> Result<(), String> {
        let guard = llx_scx::pin();
        let root: &Node<V> = unsafe { &*self.root };
        let top: &Node<V> = unsafe { self.domain.deref(root.read(LEFT), &guard) };
        self.check_node(top, 64, 0, 0, &guard)
    }

    fn check_node(
        &self,
        n: &Node<V>,
        parent_bit: u32,
        path_bits: u64,
        path_mask: u64,
        guard: &Guard,
    ) -> Result<(), String> {
        if n.is_marked() {
            return Err("reachable node is finalized".into());
        }
        match &n.immutable().kind {
            PatKind::Empty => {
                if parent_bit != 64 {
                    return Err("empty sentinel below the top".into());
                }
                Ok(())
            }
            PatKind::Leaf(_) => {
                let key = n.immutable().key;
                if key & path_mask != path_bits {
                    return Err(format!("leaf key {key:#x} disagrees with its path"));
                }
                Ok(())
            }
            PatKind::Internal { bit } => {
                if *bit >= parent_bit {
                    return Err(format!(
                        "branch bit {bit} does not decrease below parent bit {parent_bit}"
                    ));
                }
                let l: &Node<V> = unsafe { self.domain.deref(n.read(LEFT), guard) };
                let r: &Node<V> = unsafe { self.domain.deref(n.read(RIGHT), guard) };
                let mask = path_mask | (1u64 << bit);
                self.check_node(l, *bit, path_bits, mask, guard)?;
                self.check_node(r, *bit, path_bits | (1u64 << bit), mask, guard)
            }
        }
    }

    /// Depth in edges of the deepest leaf below the entry point.
    pub fn depth(&self) -> usize {
        let guard = llx_scx::pin();
        fn go<V>(t: &PatriciaTrie<V>, n: &Node<V>, guard: &Guard) -> usize
        where
            V: Clone,
        {
            match n.immutable().kind {
                PatKind::Internal { .. } => {
                    let l: &Node<V> = unsafe { t.domain.deref(n.read(LEFT), guard) };
                    let r: &Node<V> = unsafe { t.domain.deref(n.read(RIGHT), guard) };
                    1 + go(t, l, guard).max(go(t, r, guard))
                }
                _ => 0,
            }
        }
        let root: &Node<V> = unsafe { &*self.root };
        let top: &Node<V> = unsafe { self.domain.deref(root.read(LEFT), &guard) };
        go(self, top, &guard)
    }
}

impl<V> Drop for PatriciaTrie<V> {
    fn drop(&mut self) {
        let mut stack = vec![self.root];
        while let Some(ptr) = stack.pop() {
            // SAFETY: exclusive during drop.
            let node = unsafe { &*ptr };
            for f in [LEFT, RIGHT] {
                let w = node.read(f);
                if w != llx_scx::NULL {
                    stack.push(w as usize as *const Node<V>);
                }
            }
            unsafe { self.domain.dealloc(ptr) };
        }
    }
}

impl<V: Clone + fmt::Debug> fmt::Debug for PatriciaTrie<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.to_vec()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The empty sentinel has key 0, so "first differs from `key` at
    /// bit `d`" holds for it whenever `msb(key) == d`. Taking it as an
    /// insertion edge would splice the sentinel under an internal node,
    /// where no insert can ever replace it.
    #[test]
    fn insertion_edge_refuses_the_empty_sentinel() {
        let t: PatriciaTrie<()> = PatriciaTrie::new();
        let guard = llx_scx::pin();
        assert!(t.insertion_edge(0b1000, 3, &guard).is_none());
        drop(guard);
        // And the fresh sentinel a removal of the last key leaves.
        assert!(t.insert(7, ()));
        assert_eq!(t.remove(7), Some(()));
        let guard = llx_scx::pin();
        assert!(t.insertion_edge(0b1000, 3, &guard).is_none());
    }

    /// A real leaf with key 0 passes the same test the sentinel fails.
    #[test]
    fn insertion_edge_of_a_single_leaf() {
        let t: PatriciaTrie<()> = PatriciaTrie::new();
        assert!(t.insert(0, ()));
        let guard = llx_scx::pin();
        let (p, fld, c) = t
            .insertion_edge(0b1000, 3, &guard)
            .expect("msb(0b1000) == 3");
        assert!(std::ptr::eq(p, t.root));
        assert_eq!((fld, c.immutable().key), (LEFT, 0));
        assert!(t.insertion_edge(0b1000, 2, &guard).is_none(), "wrong bit");
        drop(guard);
        assert!(t.insert(0b1000, ()));
        assert_eq!(t.to_vec(), vec![(0, ()), (0b1000, ())]);
        t.check_invariants().unwrap();
    }
}
