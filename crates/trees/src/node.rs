//! Shared node machinery for the LLX/SCX trees.
//!
//! Both trees are *leaf-oriented* (external): every key in the set is in
//! a leaf; internal nodes carry routing keys. A node is a Data-record
//! with two mutable fields (`LEFT`, `RIGHT`, null in leaves) and an
//! immutable payload carrying the key, the chromatic weight and an
//! optional user value (leaves only).
//!
//! The key space is extended with two infinities (following Ellen,
//! Fatourou, Ruppert & van Breugel and the paper's §6 follow-up): the
//! root holds `Inf2`, the initial leaves hold `Inf1`/`Inf2`, and every
//! user key compares below both.

use llx_scx::{DataRecord, Fresh, Llx, Tx};

/// Mutable field index of the left child pointer.
pub(crate) const LEFT: usize = 0;
/// Mutable field index of the right child pointer.
pub(crate) const RIGHT: usize = 1;

/// A user key extended with the two sentinel infinities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeKey<K> {
    /// A user key; compares below the infinities.
    Key(K),
    /// The first infinity: key of the initial left leaf.
    Inf1,
    /// The second infinity: key of the root and of the right leaf.
    Inf2,
}

impl<K: Ord> PartialOrd for TreeKey<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord> Ord for TreeKey<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use std::cmp::Ordering::*;
        use TreeKey::*;
        match (self, other) {
            (Key(a), Key(b)) => a.cmp(b),
            (Key(_), _) => Less,
            (_, Key(_)) => Greater,
            (Inf1, Inf1) | (Inf2, Inf2) => Equal,
            (Inf1, Inf2) => Less,
            (Inf2, Inf1) => Greater,
        }
    }
}

/// Immutable payload of a tree node.
#[derive(Debug, Clone)]
pub struct NodeInfo<K, V> {
    /// Routing key (internal nodes) or element key (leaves).
    pub key: TreeKey<K>,
    /// Chromatic weight; `0` is red. Unused (always 1) in the plain BST.
    pub weight: u32,
    /// The user value; `Some` only in leaves holding user keys.
    pub value: Option<V>,
}

/// A tree node: Data-record with `LEFT`/`RIGHT` mutable pointers.
pub type Node<K, V> = DataRecord<2, NodeInfo<K, V>>;

/// Shorthand for the LLX/SCX domain of a tree.
pub type TreeDomain<K, V> = llx_scx::Domain<2, NodeInfo<K, V>>;

/// An update attempt on a tree (see [`llx_scx::Tx`]).
pub(crate) type TreeTx<'d, 'g, K, V> = Tx<'d, 'g, 2, NodeInfo<K, V>>;

/// A node allocated by a [`TreeTx`].
pub(crate) type FreshNode<'t, K, V> = Fresh<'t, 2, NodeInfo<K, V>>;

/// A linked LLX of a tree node.
pub(crate) type Snap<'g, K, V> = Llx<'g, 2, NodeInfo<K, V>>;

/// A fresh leaf of weight 1.
pub(crate) fn leaf<'t, K, V>(
    tx: &'t TreeTx<'_, '_, K, V>,
    key: TreeKey<K>,
    value: Option<V>,
) -> FreshNode<'t, K, V> {
    let info = NodeInfo {
        key,
        weight: 1,
        value,
    };
    tx.alloc(info, [llx_scx::NULL, llx_scx::NULL])
}

/// A fresh internal node with children `[left, right]`.
pub(crate) fn internal<'t, K, V>(
    tx: &'t TreeTx<'_, '_, K, V>,
    key: TreeKey<K>,
    weight: u32,
    children: [u64; 2],
) -> FreshNode<'t, K, V> {
    debug_assert!(children.iter().all(|&c| c != llx_scx::NULL));
    let info = NodeInfo {
        key,
        weight,
        value: None,
    };
    tx.alloc(info, children)
}

/// A fresh copy of a snapshotted node, children from the snapshot,
/// with weight `weight`.
pub(crate) fn copy<'t, K: Copy, V: Clone>(
    tx: &'t TreeTx<'_, '_, K, V>,
    s: &Snap<'_, K, V>,
    weight: u32,
) -> FreshNode<'t, K, V> {
    let info = s.record().immutable();
    let info = NodeInfo {
        key: info.key,
        weight,
        value: info.value.clone(),
    };
    tx.alloc(info, *s.values())
}

/// Children `[left, right]` with `a` on side `dir` and `b` on the other:
/// writes a transformation once for both mirror images.
#[inline]
pub(crate) fn sides(dir: usize, a: u64, b: u64) -> [u64; 2] {
    if dir == LEFT {
        [a, b]
    } else {
        [b, a]
    }
}

/// LLX two children of one parent, `a` on side `a_dir` and `b` on the
/// other, in left-to-right order (the traversal order `V` follows);
/// returns the snapshots of `a` and `b`.
pub(crate) fn llx_pair<'g, const M: usize, I>(
    tx: &Tx<'_, 'g, M, I>,
    a: &'g DataRecord<M, I>,
    a_dir: usize,
    b: &'g DataRecord<M, I>,
) -> Option<(Llx<'g, M, I>, Llx<'g, M, I>)> {
    if a_dir == LEFT {
        let sa = tx.llx(a)?;
        Some((sa, tx.llx(b)?))
    } else {
        let sb = tx.llx(b)?;
        Some((tx.llx(a)?, sb))
    }
}

/// Whether a node is a leaf. Leaves are created with null children and
/// children never become null, so this is a stable property.
#[inline]
pub(crate) fn is_leaf<K, V>(n: &Node<K, V>) -> bool {
    n.read(LEFT) == llx_scx::NULL
}

/// The child direction `key` takes at an internal node: left iff
/// `key < node.key`.
#[inline]
pub(crate) fn dir_of<K: Ord, V>(key: &TreeKey<K>, node: &Node<K, V>) -> usize {
    if key < &node.immutable().key {
        LEFT
    } else {
        RIGHT
    }
}

/// The extreme (leftmost / rightmost) *user-key* leaf below `root`.
///
/// Descends along `dir`, backtracking past the sentinel leaves (which
/// occupy the rightmost positions): at each node the `dir` subtree is
/// preferred, falling back to the other side when a subtree holds only
/// sentinels. `O(height)` on the preferred spine plus the fallback hops.
pub(crate) fn extreme_leaf<K: Copy + Ord, V: Clone>(
    domain: &TreeDomain<K, V>,
    root: *const Node<K, V>,
    dir: usize,
    guard: &llx_scx::Guard,
) -> Option<(K, V)> {
    fn go<K: Copy + Ord, V: Clone>(
        domain: &TreeDomain<K, V>,
        n: &Node<K, V>,
        dir: usize,
        guard: &llx_scx::Guard,
    ) -> Option<(K, V)> {
        if is_leaf(n) {
            let info = n.immutable();
            if let (TreeKey::Key(k), Some(v)) = (&info.key, &info.value) {
                return Some((*k, v.clone()));
            }
            return None;
        }
        // SAFETY: children of a reachable internal node, guard-protected.
        let preferred: &Node<K, V> = unsafe { domain.deref(n.read(dir), guard) };
        go(domain, preferred, dir, guard).or_else(|| {
            let other: &Node<K, V> = unsafe { domain.deref(n.read(1 - dir), guard) };
            go(domain, other, dir, guard)
        })
    }
    // SAFETY: the entry point is never retired.
    go(domain, unsafe { &*root }, dir, guard)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_key_ordering() {
        use TreeKey::*;
        let k1: TreeKey<u32> = Key(1);
        let k2: TreeKey<u32> = Key(u32::MAX);
        assert!(k1 < k2);
        assert!(k2 < Inf1);
        assert!(Inf1::<u32> < Inf2);
        assert!(k1 < Inf2);
        assert_eq!(Inf1::<u32>.cmp(&Inf1), std::cmp::Ordering::Equal);
    }

    #[test]
    fn leaf_detection() {
        let d: TreeDomain<u32, ()> = TreeDomain::new();
        let leaf = d.alloc(
            NodeInfo {
                key: TreeKey::Key(1),
                weight: 1,
                value: Some(()),
            },
            [llx_scx::NULL, llx_scx::NULL],
        );
        let inner = d.alloc(
            NodeInfo {
                key: TreeKey::Key(2),
                weight: 1,
                value: None,
            },
            [llx_scx::pack_ptr(leaf), llx_scx::pack_ptr(leaf)],
        );
        unsafe {
            assert!(is_leaf(&*leaf));
            assert!(!is_leaf(&*inner));
            let g = llx_scx::pin();
            d.retire(inner, &g);
            d.retire(leaf, &g);
        }
    }

    #[test]
    fn direction_routing() {
        let d: TreeDomain<u32, ()> = TreeDomain::new();
        let node = d.alloc(
            NodeInfo {
                key: TreeKey::Key(10),
                weight: 1,
                value: None,
            },
            [1, 1], // placeholder non-null children
        );
        let n = unsafe { &*node };
        assert_eq!(dir_of(&TreeKey::Key(5), n), LEFT);
        assert_eq!(dir_of(&TreeKey::Key(10), n), RIGHT);
        assert_eq!(dir_of(&TreeKey::Key(15), n), RIGHT);
        assert_eq!(dir_of(&TreeKey::Inf1, n), RIGHT);
        unsafe {
            let g = llx_scx::pin();
            d.retire(node, &g);
        }
    }
}
