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
//!   subtree disagrees with the new key at the branch bit — one SCX on
//!   the parent, nothing finalized (the displaced subtree is re-linked);
//! * `remove` unlinks the leaf and its parent, promoting the sibling —
//!   the same `SCX(V=⟨gp, p, l⟩, R=⟨p, l⟩)` shape as the BST delete;
//! * the empty trie is a fresh *empty sentinel* node (never a repeated
//!   null pointer — the §4.1 no-ABA contract again).
//!
//! Unlike the comparison-based trees, depth is bounded by the key width
//! (≤ 64) regardless of adversarial insertion order, with no
//! rebalancing at all.

use std::fmt;

use llx_scx::{DataRecord, FieldId, Guard, ScxRequest};

const LEFT: usize = 0;
const RIGHT: usize = 1;

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

    fn alloc_leaf(&self, key: u64, value: V) -> *const Node<V> {
        self.domain.alloc(
            PatInfo {
                key,
                kind: PatKind::Leaf(value),
            },
            [llx_scx::NULL, llx_scx::NULL],
        )
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
            let (_gp, _p, l) = self.search(key, &guard);
            match &l.immutable().kind {
                PatKind::Leaf(_) if l.immutable().key == key => return false,
                PatKind::Empty => {
                    // Replace the empty sentinel with the first leaf.
                    let root: &Node<V> = unsafe { &*self.root };
                    let (Some(sr), Some(se)) = (
                        self.domain.llx(root, &guard).snapshot(),
                        self.domain.llx(l, &guard).snapshot(),
                    ) else {
                        continue;
                    };
                    if sr.value(LEFT) != llx_scx::pack_ptr(l as *const Node<V>) {
                        continue;
                    }
                    let leaf = self.alloc_leaf(key, value.clone());
                    if self.domain.scx(
                        ScxRequest::new(&[sr, se], FieldId::new(0, LEFT), llx_scx::pack_ptr(leaf))
                            .finalize(1),
                        &guard,
                    ) {
                        // SAFETY: sentinel unlinked by the committed SCX.
                        unsafe { self.domain.retire(l as *const Node<V>, &guard) };
                        return true;
                    }
                    // SAFETY: never published.
                    unsafe { self.domain.dealloc(leaf) };
                }
                _ => {
                    // Splice a new internal node at the first edge whose
                    // subtree branches below the differing bit.
                    let diff = l.immutable().key ^ key;
                    debug_assert_ne!(diff, 0);
                    let d = 63 - diff.leading_zeros();
                    // Re-descend to the insertion edge: parent `p`,
                    // child `c` with (c leaf or c.bit < d).
                    let mut p: &Node<V> = unsafe { &*self.root };
                    let mut fld = LEFT;
                    let mut c: &Node<V> = unsafe { self.domain.deref(p.read(fld), &guard) };
                    while let PatKind::Internal { bit } = c.immutable().kind {
                        if bit < d {
                            break;
                        }
                        p = c;
                        fld = bit_of(key, bit);
                        c = unsafe { self.domain.deref(c.read(fld), &guard) };
                    }
                    let Some(sp) = self.domain.llx(p, &guard).snapshot() else {
                        continue;
                    };
                    if sp.value(fld) != llx_scx::pack_ptr(c as *const Node<V>) {
                        continue;
                    }
                    // The subtree `c` must still disagree with `key` at
                    // bit d (it can have been replaced by the time we
                    // re-descended; the key field check catches that).
                    if (c.immutable().key ^ key) >> d == 0
                        || 63 - ((c.immutable().key ^ key).leading_zeros()) != d
                    {
                        continue;
                    }
                    let leaf = self.alloc_leaf(key, value.clone());
                    let (lw, rw) = if bit_of(key, d) == LEFT {
                        (
                            llx_scx::pack_ptr(leaf),
                            llx_scx::pack_ptr(c as *const Node<V>),
                        )
                    } else {
                        (
                            llx_scx::pack_ptr(c as *const Node<V>),
                            llx_scx::pack_ptr(leaf),
                        )
                    };
                    let internal = self.domain.alloc(
                        PatInfo {
                            key,
                            kind: PatKind::Internal { bit: d },
                        },
                        [lw, rw],
                    );
                    // V = ⟨p⟩: the displaced subtree `c` is re-linked,
                    // not modified; any concurrent replacement of `c`
                    // must modify `p` and therefore conflicts on `p`.
                    if self.domain.scx(
                        ScxRequest::new(&[sp], FieldId::new(0, fld), llx_scx::pack_ptr(internal)),
                        &guard,
                    ) {
                        return true;
                    }
                    // SAFETY: never published.
                    unsafe {
                        self.domain.dealloc(internal);
                        self.domain.dealloc(leaf);
                    }
                }
            }
        }
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&self, key: u64) -> Option<V> {
        loop {
            let guard = llx_scx::pin();
            let (gp, p, l) = self.search(key, &guard);
            match &l.immutable().kind {
                PatKind::Leaf(_) if l.immutable().key == key => {}
                _ => return None,
            }
            let value = match &l.immutable().kind {
                PatKind::Leaf(v) => Some(v.clone()),
                _ => unreachable!(),
            };
            if std::ptr::eq(p, self.root as *const Node<V>) {
                // The only leaf: replace it with a fresh empty sentinel
                // (never reuse a pointer value — §4.1).
                let (Some(sp), Some(sl)) = (
                    self.domain.llx(p, &guard).snapshot(),
                    self.domain.llx(l, &guard).snapshot(),
                ) else {
                    continue;
                };
                if sp.value(LEFT) != llx_scx::pack_ptr(l as *const Node<V>) {
                    continue;
                }
                let empty = self.domain.alloc(
                    PatInfo {
                        key: 0,
                        kind: PatKind::Empty,
                    },
                    [llx_scx::NULL, llx_scx::NULL],
                );
                if self.domain.scx(
                    ScxRequest::new(&[sp, sl], FieldId::new(0, LEFT), llx_scx::pack_ptr(empty))
                        .finalize(1),
                    &guard,
                ) {
                    // SAFETY: unlinked by the committed SCX.
                    unsafe { self.domain.retire(l as *const Node<V>, &guard) };
                    return value;
                }
                // SAFETY: never published.
                unsafe { self.domain.dealloc(empty) };
                continue;
            }
            // General case: unlink l and p, promote the sibling
            // (identical template to the BST delete).
            let gp = gp.expect("non-root parent implies grandparent");
            let (Some(sgp), Some(sp), Some(sl)) = (
                self.domain.llx(gp, &guard).snapshot(),
                self.domain.llx(p, &guard).snapshot(),
                self.domain.llx(l, &guard).snapshot(),
            ) else {
                continue;
            };
            let gd = if std::ptr::eq(gp, self.root as *const Node<V>) {
                LEFT
            } else {
                match gp.immutable().kind {
                    PatKind::Internal { bit } => bit_of(key, bit),
                    _ => unreachable!("grandparent is internal"),
                }
            };
            let pd = match p.immutable().kind {
                PatKind::Internal { bit } => bit_of(key, bit),
                _ => unreachable!("parent is internal"),
            };
            if sgp.value(gd) != llx_scx::pack_ptr(p as *const Node<V>)
                || sp.value(pd) != llx_scx::pack_ptr(l as *const Node<V>)
            {
                continue;
            }
            let sibling = sp.value(1 - pd);
            if self.domain.scx(
                ScxRequest::new(&[sgp, sp, sl], FieldId::new(0, gd), sibling)
                    .finalize(1)
                    .finalize(2),
                &guard,
            ) {
                // SAFETY: both unlinked by the committed SCX.
                unsafe {
                    self.domain.retire(p as *const Node<V>, &guard);
                    self.domain.retire(l as *const Node<V>, &guard);
                }
                return value;
            }
        }
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
