//! Non-blocking chromatic tree on LLX/SCX (paper §6).
//!
//! A chromatic tree (Nurmi & Soisalon-Soininen; rebalancing operations
//! after Boyar & Larsen) is a relaxed red-black tree: every node carries
//! a *weight* (`0` = red, `1` = black, `>= 2` = overweight), and two
//! kinds of *violations* may exist transiently:
//!
//! * a **red-red violation** at a red node with a red parent;
//! * an **overweight violation** at a node with weight `>= 2`.
//!
//! When no violations exist the tree is a red-black tree, so its height
//! is `O(log n)`. Updates are exactly the paper's follow-up design
//! (Brown, Ellen & Ruppert, PPoPP 2014): each `Insert`/`Delete` performs
//! one SCX over a constant-size neighborhood and then *cleans up* any
//! violation it created by walking from the entry point toward its key
//! and applying local transformations, each again one SCX.
//!
//! **Weighted path sums are preserved exactly by every update and every
//! transformation** — this is the central invariant; it holds at every
//! instant, not just at quiescence, and it makes the overweight case
//! analysis below total (impossible weight combinations are genuinely
//! unreachable). The validator `validate::check_balanced` verifies path
//! sums, violation freedom and the red-black height bound after
//! quiescence.
//!
//! Transformations implemented (with left/right mirrors, following
//! Boyar–Larsen's catalogue):
//!
//! | name | trigger | effect |
//! |------|---------|--------|
//! | `BLK` | red-red at `u`, red uncle | blacken parent+uncle, pull weight from grandparent (may move violation up) |
//! | `RB1` | red-red at `u` (outside), black uncle | single rotation |
//! | `RB2` | red-red at `u` (inside), black uncle | double rotation |
//! | `PUSH` | overweight `u`, sibling weight `>= 2`, or `== 1` with black nephews | move one weight unit from `u` and sibling up to parent |
//! | `W-FAR` | overweight `u`, sibling black, far nephew red | single rotation |
//! | `W-NEAR` | overweight `u`, sibling black, near nephew red (far black) | double rotation |
//! | `W-RED` | overweight `u`, sibling red (black nephews, black parent) | rotation making the sibling black |
//! | `RR-SIB` | overweight `u` blocked by a red-red in the sibling area | the matching `BLK`/`RB1`/`RB2` |
//! | root recolor | violation at the entry point's child | copy with weight 1 (uniform path shift) |

use std::fmt;

use llx_scx::{Guard, Tx};

use crate::bst::{insert_at, new_root, remove_at, search_leaf};
use crate::node::{
    copy, dir_of, internal, is_leaf, llx_pair, sides, Node, Snap, TreeDomain, TreeKey, LEFT, RIGHT,
};

/// A linearizable, non-blocking balanced dictionary: the chromatic tree
/// of the paper's §6 follow-up.
///
/// Same API as [`crate::Bst`], plus balance: after updates quiesce and
/// their cleanup completes, the tree satisfies the red-black invariants
/// (checked by [`ChromaticTree::check_balanced`]).
pub struct ChromaticTree<K, V> {
    domain: TreeDomain<K, V>,
    root: *const Node<K, V>,
}

unsafe impl<K: Send + Sync, V: Send + Sync> Send for ChromaticTree<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for ChromaticTree<K, V> {}

impl<K: Copy + Ord, V: Clone> Default for ChromaticTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Ord, V: Clone> ChromaticTree<K, V> {
    /// An empty tree: `root(∞₂, w=1) → {leaf(∞₁, 1), leaf(∞₂, 1)}`.
    pub fn new() -> Self {
        let domain = TreeDomain::new();
        let root = new_root(&domain);
        ChromaticTree { domain, root }
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

    /// Insert `key -> value` if absent; returns whether it inserted.
    ///
    /// Replaces the reached leaf `l` (weight `wl`) by an internal node of
    /// weight `wl - 1` with two fresh leaves of weight 1 (weight 1 when
    /// the new internal node becomes the entry point's child) — weighted
    /// path sums are preserved exactly. Cleans up any created violation.
    pub fn insert(&self, key: K, value: V) -> bool {
        let k = TreeKey::Key(key);
        let weight = |at_entry, wl: u32| if at_entry { 1 } else { wl.saturating_sub(1) };
        loop {
            let guard = llx_scx::pin();
            let res = search_leaf(&self.domain, self.root, &k, &guard);
            if res.l.immutable().key == k {
                return false;
            }
            let attempt = insert_at(&self.domain, self.root, &res, k, &value, weight, &guard);
            let Some(violation) = attempt else { continue };
            drop(guard);
            if violation {
                self.cleanup(&k);
            }
            return true;
        }
    }

    /// Remove `key`, returning its value if present.
    ///
    /// Unlinks leaf `l` and its parent `p`, replacing them with a copy of
    /// the sibling `s` carrying weight `w(p) + w(s)` (weight 1 when it
    /// becomes the entry point's child) — path sums preserved exactly.
    /// Cleans up any created violation.
    pub fn remove(&self, key: K) -> Option<V> {
        let k = TreeKey::Key(key);
        let weight = |at_entry, wp, ws| if at_entry { 1 } else { wp + ws };
        loop {
            let guard = llx_scx::pin();
            let res = search_leaf(&self.domain, self.root, &k, &guard);
            if res.l.immutable().key != k {
                return None;
            }
            let attempt = remove_at(&self.domain, self.root, &res, &k, weight, &guard);
            let Some(violation) = attempt else { continue };
            let value = res.l.immutable().value.clone();
            drop(guard);
            if violation {
                self.cleanup(&k);
            }
            return value;
        }
    }

    /// Walk from the entry point toward `key`, fixing every violation
    /// found on the path, until a walk reaches a leaf cleanly.
    ///
    /// Transformations move violations toward the root along this path,
    /// so the violation this operation created stays on its own path
    /// until eliminated (Boyar–Larsen's potential argument gives
    /// termination; contention failures just re-walk).
    fn cleanup(&self, key: &TreeKey<K>) {
        'walk: loop {
            let guard = llx_scx::pin();
            // Window of the last four nodes on the path: n0 (great-
            // grandparent), n1, n2, n3 (current).
            let mut n0: Option<&Node<K, V>> = None;
            let mut n1: Option<&Node<K, V>> = None;
            let mut n2: &Node<K, V> = unsafe { &*self.root };
            let mut n3: &Node<K, V> =
                unsafe { self.domain.deref(n2.read(dir_of(key, n2)), &guard) };
            loop {
                let w3 = n3.immutable().weight;
                let at_entry_child = std::ptr::eq(n2, self.root as *const Node<K, V>);
                if w3 >= 2 || (w3 == 0 && n2.immutable().weight == 0 && !at_entry_child) {
                    // A violation at n3 (overweight, or red-red).
                    let fixed = if at_entry_child {
                        // Entry point's child: recolor to weight 1; a
                        // uniform shift of every real path sum.
                        self.recolor_entry_child(n3, &guard)
                    } else if w3 >= 2 {
                        self.fix_overweight(n0, n1.expect("n2 below entry"), n2, n3, &guard)
                    } else {
                        // Red-red: n1 exists because n2 (red) is below
                        // the entry point. n1 is black (a higher red-red
                        // would have been fixed earlier on this walk).
                        let gp = n1.expect("red n2 is below the entry child");
                        if std::ptr::eq(gp, self.root as *const Node<K, V>) {
                            // Grandparent is the immutable entry point:
                            // blacken the (red) entry-point child
                            // instead, a uniform path shift.
                            self.recolor_entry_child(n2, &guard)
                        } else {
                            self.fix_red_red(n0, gp, n2, n3, &guard)
                        }
                    };
                    let _ = fixed; // committed or stale: re-walk
                    continue 'walk;
                }
                if is_leaf(n3) {
                    return; // path is clean
                }
                n0 = n1;
                n1 = Some(n2);
                n2 = n3;
                n3 = unsafe { self.domain.deref(n3.read(dir_of(key, n3)), &guard) };
            }
        }
    }

    /// Replace the entry point's child by a copy with weight 1 (fixes a
    /// violation at the top by shifting all real path sums uniformly).
    /// `None` means the attempt found stale state or its SCX failed.
    fn recolor_entry_child<'g>(&self, u: &'g Node<K, V>, guard: &'g Guard) -> Option<()> {
        // SAFETY: the entry point is never retired.
        let root: &Node<K, V> = unsafe { &*self.root };
        let tx = Tx::new(&self.domain, guard);
        let sr = tx.llx(root)?;
        let su = tx.llx(u)?;
        if sr.value(LEFT) != llx_scx::pack_ptr(u as *const Node<K, V>) {
            return None;
        }
        let n = copy(&tx, &su, 1);
        // SAFETY: R = ⟨u⟩, which `n` replaces.
        unsafe { tx.commit(LEFT, n, None) }.then_some(())
    }

    /// Which child slot of `parent` (per its snapshot) holds `child`?
    fn side_of(s: &Snap<'_, K, V>, child: &Node<K, V>) -> Option<usize> {
        let w = llx_scx::pack_ptr(child as *const Node<K, V>);
        if s.value(LEFT) == w {
            Some(LEFT)
        } else if s.value(RIGHT) == w {
            Some(RIGHT)
        } else {
            None
        }
    }

    /// Fix a red-red violation at `u` (red) whose parent `p` is red;
    /// `gp` is black, `holder` is `gp`'s parent (pointer owner).
    ///
    /// Chooses `BLK` (red uncle), `RB1` (black uncle, `u` outside) or
    /// `RB2` (black uncle, `u` inside). Every case replaces `gp`, `p`
    /// (and the uncle or `u`) by fresh nodes: `V` is `holder`, `gp`,
    /// then the replaced nodes top-down and left to right, and `R` is
    /// all of `V` but `holder`. Returns as `recolor_entry_child`.
    fn fix_red_red<'g>(
        &self,
        holder: Option<&'g Node<K, V>>,
        gp: &'g Node<K, V>,
        p: &'g Node<K, V>,
        u: &'g Node<K, V>,
        guard: &'g Guard,
    ) -> Option<()> {
        let holder = holder?; // stale: gp always has a parent here
        let tx = Tx::new(&self.domain, guard);
        let sh = tx.llx(holder)?;
        let sgp = tx.llx(gp)?;
        let pd = Self::side_of(&sgp, p)?;
        // SAFETY: children of a snapshotted node, protected by `guard`.
        let uncle: &Node<K, V> = unsafe { self.domain.deref(sgp.value(1 - pd), guard) };
        let (sp, sun) = if uncle.immutable().weight == 0 {
            let (sp, sun) = llx_pair(&tx, p, pd, uncle)?;
            (sp, Some(sun))
        } else {
            (tx.llx(p)?, None)
        };
        let hd = Self::side_of(&sh, gp)?;
        let ud = Self::side_of(&sp, u)?;
        let wgp = gp.immutable().weight;
        if wgp == 0 || p.immutable().weight != 0 || u.immutable().weight != 0 {
            return None; // stale weights (nodes replaced since detection)
        }
        let at_entry = std::ptr::eq(holder, self.root as *const Node<K, V>);
        let clamp = |w: u32| if at_entry { w.max(1) } else { w };
        let (uncle_w, c_w) = (sgp.value(1 - pd), sp.value(1 - ud)); // c: p's other child
        let n = if let Some(sun) = sun {
            // BLK: blacken p and uncle, pull one weight from gp.
            let p_copy = copy(&tx, &sp, 1);
            let un_copy = copy(&tx, &sun, 1);
            let children = sides(pd, p_copy.word(), un_copy.word());
            internal(&tx, gp.immutable().key, clamp(wgp - 1), children)
        } else if pd == ud {
            // RB1: single rotation; gp moves down to p's other side.
            let g2 = internal(&tx, gp.immutable().key, 0, sides(pd, c_w, uncle_w));
            let children = sides(pd, sp.value(ud), g2.word());
            internal(&tx, p.immutable().key, clamp(wgp), children)
        } else {
            // RB2: double rotation; u's children are redistributed.
            let su = tx.llx(u)?;
            let p2 = internal(&tx, p.immutable().key, 0, sides(pd, c_w, su.value(pd)));
            let g2 = internal(&tx, gp.immutable().key, 0, sides(pd, su.value(ud), uncle_w));
            let children = sides(pd, p2.word(), g2.word());
            internal(&tx, u.immutable().key, clamp(wgp), children)
        };
        // SAFETY: R = V[1..], every record of which `n` replaces.
        unsafe { tx.commit(hd, n, None) }.then_some(())
    }

    /// Fix an overweight violation at `u` (`w(u) >= 2`): `p` is the
    /// parent, `pp` its parent (pointer owner), `ppp` one level above
    /// (needed only when the fix degenerates to a red-red fix around the
    /// sibling).
    ///
    /// Case analysis over the sibling `s` and its children (weighted
    /// path sums make it exhaustive — see module docs). `V` is `pp`,
    /// `p`, `p`'s children left to right, then a nephew for W-FAR and
    /// W-NEAR; `R` is all of `V` but `pp` (and but `u` for W-RED).
    /// Returns as `recolor_entry_child`.
    fn fix_overweight<'g>(
        &self,
        ppp: Option<&'g Node<K, V>>,
        pp: &'g Node<K, V>,
        p: &'g Node<K, V>,
        u: &'g Node<K, V>,
        guard: &'g Guard,
    ) -> Option<()> {
        let tx = Tx::new(&self.domain, guard);
        let spp = tx.llx(pp)?;
        let sp = tx.llx(p)?;
        let ppd = Self::side_of(&spp, p)?;
        let ud = Self::side_of(&sp, u)?;
        let wu = u.immutable().weight;
        let wp = p.immutable().weight;
        if wu < 2 {
            return None; // stale
        }
        // SAFETY: children of snapshotted nodes, protected by `guard`.
        let s: &Node<K, V> = unsafe { self.domain.deref(sp.value(1 - ud), guard) };
        let (su, ss) = llx_pair(&tx, u, ud, s)?;
        let ws = s.immutable().weight;
        let at_entry = std::ptr::eq(pp, self.root as *const Node<K, V>);
        let clamp = |w: u32| if at_entry { w.max(1) } else { w };
        let child = |word| -> &'g Node<K, V> { unsafe { self.domain.deref(word, guard) } };
        // Nephews: near on u's side of s, far on the other.
        let (near_w, far_w) = (ss.value(ud), ss.value(1 - ud));

        if ws == 0 {
            // Sibling red ⇒ internal (leaves always weigh >= 1).
            if is_leaf(s) {
                return None; // unreachable in a sum-valid tree; stale
            }
            if wp == 0 {
                // Red-red (p, s): fix it first; u (overweight) is the
                // uncle and is black, so RB1/RB2 applies at s.
                return self.fix_red_red(ppp, pp, p, s, guard);
            }
            for nephew in [child(ss.value(LEFT)), child(ss.value(RIGHT))] {
                if nephew.immutable().weight == 0 {
                    // Red-red at the nephew: gp = p, parent = s.
                    return self.fix_red_red(Some(pp), p, s, nephew, guard);
                }
            }
            // W-RED: rotate so u's sibling becomes black; u's violation
            // persists (one level deeper) and the next walk fixes it.
            // u left: t = (s.key, wp){ (p.key, 0){u, near}, far }.
            let inner = internal(&tx, p.immutable().key, 0, sides(ud, sp.value(ud), near_w));
            let children = sides(ud, inner.word(), far_w);
            let t = internal(&tx, s.immutable().key, clamp(wp), children);
            // u moves under `inner` unchanged, so it stays out of R.
            // SAFETY: R = ⟨p, s⟩, which `t` replaces.
            return unsafe { tx.commit(ppd, t, Some(u)) }.then_some(());
        }
        // Sibling black. Nephew colors decide.
        let push = ws >= 2 || {
            if is_leaf(s) {
                return None; // unreachable in a sum-valid tree; stale
            }
            child(near_w).immutable().weight != 0 && child(far_w).immutable().weight != 0
        };
        let t = if push {
            // PUSH: u - 1, s - 1, p + 1.
            let u_copy = copy(&tx, &su, wu - 1);
            let s_copy = copy(&tx, &ss, ws - 1);
            let children = sides(ud, u_copy.word(), s_copy.word());
            internal(&tx, p.immutable().key, clamp(wp + 1), children)
        } else if child(far_w).immutable().weight == 0 {
            // W-FAR: single rotation towards u; far nephew gets weight
            // 1; u loses one. u left: t = (s.key, wp){ (p.key, 1){u',
            // near}, far' }.
            let sfar = tx.llx(child(far_w))?;
            let u_copy = copy(&tx, &su, wu - 1);
            let far_copy = copy(&tx, &sfar, 1);
            let n1 = internal(&tx, p.immutable().key, 1, sides(ud, u_copy.word(), near_w));
            let children = sides(ud, n1.word(), far_copy.word());
            internal(&tx, s.immutable().key, clamp(wp), children)
        } else {
            // W-NEAR: double rotation through the red near nephew. u
            // left: t = (near.key, wp){ (p.key, 1){u', near.left},
            // (s.key, 1){near.right, far} }.
            let near = child(near_w);
            let snear = tx.llx(near)?;
            let u_copy = copy(&tx, &su, wu - 1);
            let pn_children = sides(ud, u_copy.word(), snear.value(ud));
            let pn = internal(&tx, p.immutable().key, 1, pn_children);
            let sn_children = sides(ud, snear.value(1 - ud), far_w);
            let sn = internal(&tx, s.immutable().key, 1, sn_children);
            let children = sides(ud, pn.word(), sn.word());
            internal(&tx, near.immutable().key, clamp(wp), children)
        };
        // SAFETY: R = V[1..], every record of which `t` replaces.
        unsafe { tx.commit(ppd, t, None) }.then_some(())
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

    /// Number of user keys (traversal semantics).
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
                stack.push(unsafe { self.domain.deref(n.read(RIGHT), &guard) });
                stack.push(unsafe { self.domain.deref(n.read(LEFT), &guard) });
            }
        }
        acc
    }

    /// One snapshot-scan attempt over `[from, hi]`; see
    /// `Bst::try_scan_window` for the contract. Rebalancing SCXs on
    /// visited nodes also surface as `None` (retry) — they restructure
    /// without changing contents, so the retry is spurious but safe.
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

    /// Structural validation (BST shape, sentinels, leaf-orientation,
    /// leaf weights); call any time.
    pub fn check_invariants(&self) -> Result<(), String> {
        crate::validate::check_structure(&self.domain, self.root, true)
    }

    /// Balance validation: no violations and equal weighted path sums in
    /// the user subtree. Call during quiescence (after all updates and
    /// their cleanup returned).
    pub fn check_balanced(&self) -> Result<(), String> {
        let guard = llx_scx::pin();
        let root: &Node<K, V> = unsafe { &*self.root };
        let left: &Node<K, V> = unsafe { self.domain.deref(root.read(LEFT), &guard) };
        crate::validate::check_balanced(&self.domain, left as *const Node<K, V>).map(|_| ())
    }

    /// Height of the tree (edges from the root sentinel to the deepest
    /// leaf).
    pub fn height(&self) -> usize {
        crate::validate::height(&self.domain, self.root)
    }
}

impl<K, V> Drop for ChromaticTree<K, V> {
    fn drop(&mut self) {
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

impl<K: Copy + Ord + fmt::Debug, V: Clone + fmt::Debug> fmt::Debug for ChromaticTree<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.to_vec()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed sequential script that exercises inserts, removes and
    /// rebalancing. Its step counts were taken from the hand-written
    /// update attempts that preceded `llx_scx::Tx`: the template must
    /// issue the same LLXs and SCXs, with the same `V` and `R`.
    #[test]
    fn sequential_script_step_counts_are_pinned() {
        let domain = TreeDomain::with_stats();
        let root = new_root(&domain);
        let t: ChromaticTree<u64, u64> = ChromaticTree { domain, root };
        for i in 0..200u64 {
            t.insert((i * 37) % 211, i);
        }
        for i in (0..200u64).step_by(3) {
            t.remove((i * 37) % 211);
        }
        for i in 0..100u64 {
            t.insert(i * 2, i);
        }
        for i in 0..211u64 {
            t.remove(i);
        }
        t.check_balanced().unwrap();
        assert!(t.is_empty());
        let s = t.domain.stats().unwrap();
        assert_eq!(
            (
                s.llx_attempts,
                s.scx_attempts,
                s.update_cas,
                s.total_writes()
            ),
            (2772, 808, 808, 3546),
            "(LLX, SCX, update CAS, writes)"
        );
    }
}
