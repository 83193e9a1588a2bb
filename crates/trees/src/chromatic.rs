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

use llx_scx::{FieldId, Guard, Llx, ScxRequest};

use crate::bst::{new_root, search_leaf};
use crate::node::{dir_of, is_leaf, Node, NodeInfo, TreeDomain, TreeKey, LEFT, RIGHT};

type Snap<'g, K, V> = Llx<'g, 2, NodeInfo<K, V>>;

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

    fn alloc_leaf(&self, key: TreeKey<K>, weight: u32, value: Option<V>) -> *const Node<K, V> {
        self.domain.alloc(
            NodeInfo { key, weight, value },
            [llx_scx::NULL, llx_scx::NULL],
        )
    }

    fn alloc_internal(
        &self,
        key: TreeKey<K>,
        weight: u32,
        left: u64,
        right: u64,
    ) -> *const Node<K, V> {
        debug_assert!(left != llx_scx::NULL && right != llx_scx::NULL);
        self.domain.alloc(
            NodeInfo {
                key,
                weight,
                value: None,
            },
            [left, right],
        )
    }

    /// A copy of `n` (children from its snapshot) with a new weight.
    fn copy_with_weight(&self, s: &Snap<'_, K, V>, weight: u32) -> *const Node<K, V> {
        let info = s.record().immutable();
        self.domain.alloc(
            NodeInfo {
                key: info.key,
                weight,
                value: info.value.clone(),
            },
            [s.value(LEFT), s.value(RIGHT)],
        )
    }

    /// Insert `key -> value` if absent; returns whether it inserted.
    ///
    /// Replaces the reached leaf `l` (weight `wl`) by an internal node of
    /// weight `wl - 1` with two fresh leaves of weight 1 (weight 1 when
    /// the new internal node becomes the entry point's child) — weighted
    /// path sums are preserved exactly. Cleans up any created violation.
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
            let d = dir_of(&k, res.p);
            if sp.value(d) != llx_scx::pack_ptr(res.l as *const Node<K, V>) {
                continue;
            }
            let wl = l_info.weight;
            let at_entry = std::ptr::eq(res.p, self.root as *const Node<K, V>);
            let weight = if at_entry { 1 } else { wl.saturating_sub(1) };
            let new_leaf = self.alloc_leaf(k, 1, Some(value.clone()));
            let l_copy = self.alloc_leaf(l_info.key, 1, l_info.value.clone());
            let (lc, rc, ikey) = if k < l_info.key {
                (new_leaf, l_copy, l_info.key)
            } else {
                (l_copy, new_leaf, k)
            };
            let internal =
                self.alloc_internal(ikey, weight, llx_scx::pack_ptr(lc), llx_scx::pack_ptr(rc));
            let p_red = res.p.immutable().weight == 0;
            if self.domain.scx(
                ScxRequest::new(&[sp, sl], FieldId::new(0, d), llx_scx::pack_ptr(internal))
                    .finalize(1),
                &guard,
            ) {
                // SAFETY: l unlinked by the committed SCX.
                unsafe { self.domain.retire(res.l as *const Node<K, V>, &guard) };
                drop(guard);
                if (weight == 0 && p_red) || weight >= 2 {
                    self.cleanup(&k);
                }
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

    /// Remove `key`, returning its value if present.
    ///
    /// Unlinks leaf `l` and its parent `p`, replacing them with a copy of
    /// the sibling `s` carrying weight `w(p) + w(s)` (weight 1 when it
    /// becomes the entry point's child) — path sums preserved exactly.
    /// Cleans up any created violation.
    pub fn remove(&self, key: K) -> Option<V> {
        let k = TreeKey::Key(key);
        loop {
            let guard = llx_scx::pin();
            let res = search_leaf(&self.domain, self.root, &k, &guard);
            if res.l.immutable().key != k {
                return None;
            }
            let gp = res.gp.expect("user-key leaf always has a grandparent");
            let (Some(sgp), Some(sp), Some(sl)) = (
                self.domain.llx(gp, &guard).snapshot(),
                self.domain.llx(res.p, &guard).snapshot(),
                self.domain.llx(res.l, &guard).snapshot(),
            ) else {
                continue;
            };
            let gd = dir_of(&k, gp);
            let pd = dir_of(&k, res.p);
            if sgp.value(gd) != llx_scx::pack_ptr(res.p as *const Node<K, V>)
                || sp.value(pd) != llx_scx::pack_ptr(res.l as *const Node<K, V>)
            {
                continue;
            }
            let s: &Node<K, V> = unsafe { self.domain.deref(sp.value(1 - pd), &guard) };
            let Some(ss) = self.domain.llx(s, &guard).snapshot() else {
                continue;
            };
            let at_entry = std::ptr::eq(gp, self.root as *const Node<K, V>);
            let wp = res.p.immutable().weight;
            let ws = s.immutable().weight;
            let weight = if at_entry { 1 } else { wp + ws };
            let replacement = self.copy_with_weight(&ss, weight);
            // V in traversal order: gp, p, then p's children left-right.
            let (v, fin_a, fin_b) = if pd == LEFT {
                ([sgp, sp, sl, ss], 2, 3) // l left, s right
            } else {
                ([sgp, sp, ss, sl], 2, 3) // s left, l right
            };
            let value = res.l.immutable().value.clone();
            if self.domain.scx(
                ScxRequest::new(&v, FieldId::new(0, gd), llx_scx::pack_ptr(replacement))
                    .finalize(1)
                    .finalize(fin_a)
                    .finalize(fin_b),
                &guard,
            ) {
                // SAFETY: all three unlinked by the committed SCX.
                unsafe {
                    self.domain.retire(res.p as *const Node<K, V>, &guard);
                    self.domain.retire(res.l as *const Node<K, V>, &guard);
                    self.domain.retire(s as *const Node<K, V>, &guard);
                }
                let needs_cleanup = weight >= 2 || (weight == 0 && gp.immutable().weight == 0);
                drop(guard);
                if needs_cleanup {
                    self.cleanup(&k);
                }
                return value;
            }
            // SAFETY: never published.
            unsafe { self.domain.dealloc(replacement) };
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
                    let _ = fixed; // success or failure: re-walk
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
    fn recolor_entry_child(&self, u: &Node<K, V>, guard: &Guard) -> bool {
        let root: &Node<K, V> = unsafe { &*self.root };
        let (Some(sr), Some(su)) = (
            self.domain.llx(root, guard).snapshot(),
            self.domain.llx(u, guard).snapshot(),
        ) else {
            return false;
        };
        if sr.value(LEFT) != llx_scx::pack_ptr(u as *const Node<K, V>) {
            return false;
        }
        let copy = self.copy_with_weight(&su, 1);
        if self.domain.scx(
            ScxRequest::new(&[sr, su], FieldId::new(0, LEFT), llx_scx::pack_ptr(copy)).finalize(1),
            guard,
        ) {
            unsafe { self.domain.retire(u as *const Node<K, V>, guard) };
            true
        } else {
            unsafe { self.domain.dealloc(copy) };
            false
        }
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
    /// `RB2` (black uncle, `u` inside). Returns whether an SCX
    /// committed; on any staleness it returns false and the caller
    /// re-walks.
    fn fix_red_red(
        &self,
        holder: Option<&Node<K, V>>,
        gp: &Node<K, V>,
        p: &Node<K, V>,
        u: &Node<K, V>,
        guard: &Guard,
    ) -> bool {
        let Some(holder) = holder else {
            return false; // stale: gp should always have a parent here
        };
        let (Some(sh), Some(sgp), Some(sp)) = (
            self.domain.llx(holder, guard).snapshot(),
            self.domain.llx(gp, guard).snapshot(),
            self.domain.llx(p, guard).snapshot(),
        ) else {
            return false;
        };
        let Some(hd) = Self::side_of(&sh, gp) else {
            return false;
        };
        let Some(pd) = Self::side_of(&sgp, p) else {
            return false;
        };
        let Some(ud) = Self::side_of(&sp, u) else {
            return false;
        };
        let wgp = gp.immutable().weight;
        if wgp == 0 || p.immutable().weight != 0 || u.immutable().weight != 0 {
            return false; // stale weights (nodes replaced since detection)
        }
        let uncle: &Node<K, V> = unsafe { self.domain.deref(sgp.value(1 - pd), guard) };
        let at_entry = std::ptr::eq(holder, self.root as *const Node<K, V>);
        let clamp = |w: u32| if at_entry { w.max(1) } else { w };

        if uncle.immutable().weight == 0 {
            // BLK: blacken p and uncle, pull one weight from gp.
            let Some(sun) = self.domain.llx(uncle, guard).snapshot() else {
                return false;
            };
            let p_copy = self.copy_with_weight(&sp, 1);
            let un_copy = self.copy_with_weight(&sun, 1);
            let (lw, rw) = if pd == LEFT {
                (llx_scx::pack_ptr(p_copy), llx_scx::pack_ptr(un_copy))
            } else {
                (llx_scx::pack_ptr(un_copy), llx_scx::pack_ptr(p_copy))
            };
            let n = self.alloc_internal(gp.immutable().key, clamp(wgp - 1), lw, rw);
            // V in traversal order: holder, gp, then gp's children
            // left-to-right.
            let v = if pd == LEFT {
                [sh, sgp, sp, sun]
            } else {
                [sh, sgp, sun, sp]
            };
            if self.domain.scx(
                ScxRequest::new(&v, FieldId::new(0, hd), llx_scx::pack_ptr(n))
                    .finalize(1)
                    .finalize(2)
                    .finalize(3),
                guard,
            ) {
                unsafe {
                    self.domain.retire(gp as *const Node<K, V>, guard);
                    self.domain.retire(p as *const Node<K, V>, guard);
                    self.domain.retire(uncle as *const Node<K, V>, guard);
                }
                true
            } else {
                unsafe {
                    self.domain.dealloc(n);
                    self.domain.dealloc(p_copy);
                    self.domain.dealloc(un_copy);
                }
                false
            }
        } else if pd == ud {
            // RB1: single rotation. (pd == LEFT shown; mirrored below.)
            let uncle_w = sgp.value(1 - pd);
            let c_w = sp.value(1 - ud); // p's other child
            let n = if pd == LEFT {
                let n2 = self.alloc_internal(gp.immutable().key, 0, c_w, uncle_w);
                self.alloc_internal(
                    p.immutable().key,
                    clamp(wgp),
                    sp.value(ud),
                    llx_scx::pack_ptr(n2),
                )
            } else {
                let n2 = self.alloc_internal(gp.immutable().key, 0, uncle_w, c_w);
                self.alloc_internal(
                    p.immutable().key,
                    clamp(wgp),
                    llx_scx::pack_ptr(n2),
                    sp.value(ud),
                )
            };
            if self.domain.scx(
                ScxRequest::new(&[sh, sgp, sp], FieldId::new(0, hd), llx_scx::pack_ptr(n))
                    .finalize(1)
                    .finalize(2),
                guard,
            ) {
                unsafe {
                    self.domain.retire(gp as *const Node<K, V>, guard);
                    self.domain.retire(p as *const Node<K, V>, guard);
                }
                true
            } else {
                // n's inner node is fresh too; free both.
                let inner = if pd == LEFT {
                    unsafe { (*n).read(RIGHT) }
                } else {
                    unsafe { (*n).read(LEFT) }
                };
                unsafe {
                    self.domain.dealloc(n);
                    self.domain.dealloc(inner as usize as *const Node<K, V>);
                }
                false
            }
        } else {
            // RB2: double rotation; u's children are redistributed.
            let Some(su) = self.domain.llx(u, guard).snapshot() else {
                return false;
            };
            let uncle_w = sgp.value(1 - pd);
            let c_w = sp.value(1 - ud); // p's other child (outer)
            let (n1, n2) = if pd == LEFT {
                // p left of gp, u right of p.
                let n1 = self.alloc_internal(p.immutable().key, 0, c_w, su.value(LEFT));
                let n2 = self.alloc_internal(gp.immutable().key, 0, su.value(RIGHT), uncle_w);
                (n1, n2)
            } else {
                // p right of gp, u left of p.
                let n1 = self.alloc_internal(gp.immutable().key, 0, uncle_w, su.value(LEFT));
                let n2 = self.alloc_internal(p.immutable().key, 0, su.value(RIGHT), c_w);
                (n1, n2)
            };
            let n = self.alloc_internal(
                u.immutable().key,
                clamp(wgp),
                llx_scx::pack_ptr(n1),
                llx_scx::pack_ptr(n2),
            );
            if self.domain.scx(
                ScxRequest::new(
                    &[sh, sgp, sp, su],
                    FieldId::new(0, hd),
                    llx_scx::pack_ptr(n),
                )
                .finalize(1)
                .finalize(2)
                .finalize(3),
                guard,
            ) {
                unsafe {
                    self.domain.retire(gp as *const Node<K, V>, guard);
                    self.domain.retire(p as *const Node<K, V>, guard);
                    self.domain.retire(u as *const Node<K, V>, guard);
                }
                true
            } else {
                unsafe {
                    self.domain.dealloc(n);
                    self.domain.dealloc(n1);
                    self.domain.dealloc(n2);
                }
                false
            }
        }
    }

    /// Fix an overweight violation at `u` (`w(u) >= 2`): `p` is the
    /// parent, `pp` its parent (pointer owner), `ppp` one level above
    /// (needed only when the fix degenerates to a red-red fix around the
    /// sibling).
    ///
    /// Case analysis over the sibling `s` and its children (weighted
    /// path sums make it exhaustive — see module docs).
    fn fix_overweight(
        &self,
        ppp: Option<&Node<K, V>>,
        pp: &Node<K, V>,
        p: &Node<K, V>,
        u: &Node<K, V>,
        guard: &Guard,
    ) -> bool {
        let (Some(spp), Some(sp), Some(su)) = (
            self.domain.llx(pp, guard).snapshot(),
            self.domain.llx(p, guard).snapshot(),
            self.domain.llx(u, guard).snapshot(),
        ) else {
            return false;
        };
        let Some(ppd) = Self::side_of(&spp, p) else {
            return false;
        };
        let Some(ud) = Self::side_of(&sp, u) else {
            return false;
        };
        let wu = u.immutable().weight;
        let wp = p.immutable().weight;
        if wu < 2 {
            return false; // stale
        }
        let s: &Node<K, V> = unsafe { self.domain.deref(sp.value(1 - ud), guard) };
        let Some(ss) = self.domain.llx(s, guard).snapshot() else {
            return false;
        };
        let ws = s.immutable().weight;
        let at_entry = std::ptr::eq(pp, self.root as *const Node<K, V>);
        let clamp = |w: u32| if at_entry { w.max(1) } else { w };

        if ws == 0 {
            // Sibling red ⇒ internal (leaves always weigh >= 1).
            if is_leaf(s) {
                return false; // unreachable in a sum-valid tree; stale
            }
            if wp == 0 {
                // Red-red (p, s): fix it first; u (overweight) is the
                // uncle and is black, so RB1/RB2 applies at s.
                return self.fix_red_red(ppp, pp, p, s, guard);
            }
            let a: &Node<K, V> = unsafe { self.domain.deref(ss.value(LEFT), guard) };
            let b: &Node<K, V> = unsafe { self.domain.deref(ss.value(RIGHT), guard) };
            if a.immutable().weight == 0 {
                // Red-red at a (inside s): gp = p, parent = s.
                return self.fix_red_red(Some(pp), p, s, a, guard);
            }
            if b.immutable().weight == 0 {
                return self.fix_red_red(Some(pp), p, s, b, guard);
            }
            // W-RED: rotate so u's sibling becomes black; u's violation
            // persists (one level deeper) and the next walk fixes it.
            // u left: t = (s.key, wp){ (p.key, 0){u, a}, b }.
            let n_inner = if ud == LEFT {
                self.alloc_internal(p.immutable().key, 0, sp.value(ud), ss.value(LEFT))
            } else {
                self.alloc_internal(p.immutable().key, 0, ss.value(RIGHT), sp.value(ud))
            };
            let t = if ud == LEFT {
                self.alloc_internal(
                    s.immutable().key,
                    clamp(wp),
                    llx_scx::pack_ptr(n_inner),
                    ss.value(RIGHT),
                )
            } else {
                self.alloc_internal(
                    s.immutable().key,
                    clamp(wp),
                    ss.value(LEFT),
                    llx_scx::pack_ptr(n_inner),
                )
            };
            // V order: pp, p, then p's children left-right.
            let v = if ud == LEFT {
                [spp, sp, su, ss]
            } else {
                [spp, sp, ss, su]
            };
            // u is *not* removed (it is re-linked), so it is not in R;
            // it still must be in V so its subtree cannot change shape
            // under us... it is not modified either — it simply moves.
            // Only p and s are replaced.
            let s_index = if ud == LEFT { 3 } else { 2 };
            if self.domain.scx(
                ScxRequest::new(&v, FieldId::new(0, ppd), llx_scx::pack_ptr(t))
                    .finalize(1)
                    .finalize(s_index),
                guard,
            ) {
                unsafe {
                    self.domain.retire(p as *const Node<K, V>, guard);
                    self.domain.retire(s as *const Node<K, V>, guard);
                }
                true
            } else {
                unsafe {
                    self.domain.dealloc(t);
                    self.domain.dealloc(n_inner);
                }
                false
            }
        } else {
            // Sibling black. Nephew colors decide.
            let (push, far_red) = if ws >= 2 {
                (true, false)
            } else if is_leaf(s) {
                return false; // unreachable in a sum-valid tree; stale
            } else {
                let a: &Node<K, V> = unsafe { self.domain.deref(ss.value(LEFT), guard) };
                let b: &Node<K, V> = unsafe { self.domain.deref(ss.value(RIGHT), guard) };
                let (near, far) = if ud == LEFT { (a, b) } else { (b, a) };
                if far.immutable().weight == 0 {
                    (false, true)
                } else if near.immutable().weight == 0 {
                    (false, false)
                } else {
                    (true, false) // both nephews black: PUSH
                }
            };

            if push {
                // PUSH: u - 1, s - 1, p + 1.
                let u_copy = self.copy_with_weight(&su, wu - 1);
                let s_copy = self.copy_with_weight(&ss, ws - 1);
                let (lw, rw) = if ud == LEFT {
                    (llx_scx::pack_ptr(u_copy), llx_scx::pack_ptr(s_copy))
                } else {
                    (llx_scx::pack_ptr(s_copy), llx_scx::pack_ptr(u_copy))
                };
                let n = self.alloc_internal(p.immutable().key, clamp(wp + 1), lw, rw);
                let v = if ud == LEFT {
                    [spp, sp, su, ss]
                } else {
                    [spp, sp, ss, su]
                };
                if self.domain.scx(
                    ScxRequest::new(&v, FieldId::new(0, ppd), llx_scx::pack_ptr(n))
                        .finalize(1)
                        .finalize(2)
                        .finalize(3),
                    guard,
                ) {
                    unsafe {
                        self.domain.retire(p as *const Node<K, V>, guard);
                        self.domain.retire(u as *const Node<K, V>, guard);
                        self.domain.retire(s as *const Node<K, V>, guard);
                    }
                    true
                } else {
                    unsafe {
                        self.domain.dealloc(n);
                        self.domain.dealloc(u_copy);
                        self.domain.dealloc(s_copy);
                    }
                    false
                }
            } else if far_red {
                // W-FAR: single rotation towards u; far nephew gets
                // weight 1; u loses one. (u left shown; mirrored.)
                // t = (s.key, wp){ (p.key, 1){u', near}, far' }.
                let far_word = if ud == LEFT {
                    ss.value(RIGHT)
                } else {
                    ss.value(LEFT)
                };
                let near_word = if ud == LEFT {
                    ss.value(LEFT)
                } else {
                    ss.value(RIGHT)
                };
                let far: &Node<K, V> = unsafe { self.domain.deref(far_word, guard) };
                let Some(sfar) = self.domain.llx(far, guard).snapshot() else {
                    return false;
                };
                if far.immutable().weight != 0 {
                    return false; // stale
                }
                let u_copy = self.copy_with_weight(&su, wu - 1);
                let far_copy = self.copy_with_weight(&sfar, 1);
                let (n1, t) = if ud == LEFT {
                    let n1 = self.alloc_internal(
                        p.immutable().key,
                        1,
                        llx_scx::pack_ptr(u_copy),
                        near_word,
                    );
                    let t = self.alloc_internal(
                        s.immutable().key,
                        clamp(wp),
                        llx_scx::pack_ptr(n1),
                        llx_scx::pack_ptr(far_copy),
                    );
                    (n1, t)
                } else {
                    let n1 = self.alloc_internal(
                        p.immutable().key,
                        1,
                        near_word,
                        llx_scx::pack_ptr(u_copy),
                    );
                    let t = self.alloc_internal(
                        s.immutable().key,
                        clamp(wp),
                        llx_scx::pack_ptr(far_copy),
                        llx_scx::pack_ptr(n1),
                    );
                    (n1, t)
                };
                // V: pp, p, children of p left-right, then far (below s).
                let v = if ud == LEFT {
                    [spp, sp, su, ss, sfar]
                } else {
                    [spp, sp, ss, su, sfar]
                };
                let (ui, si) = if ud == LEFT { (2, 3) } else { (3, 2) };
                if self.domain.scx(
                    ScxRequest::new(&v, FieldId::new(0, ppd), llx_scx::pack_ptr(t))
                        .finalize(1)
                        .finalize(ui)
                        .finalize(si)
                        .finalize(4),
                    guard,
                ) {
                    unsafe {
                        self.domain.retire(p as *const Node<K, V>, guard);
                        self.domain.retire(u as *const Node<K, V>, guard);
                        self.domain.retire(s as *const Node<K, V>, guard);
                        self.domain.retire(far as *const Node<K, V>, guard);
                    }
                    true
                } else {
                    unsafe {
                        self.domain.dealloc(t);
                        self.domain.dealloc(n1);
                        self.domain.dealloc(u_copy);
                        self.domain.dealloc(far_copy);
                    }
                    false
                }
            } else {
                // W-NEAR: double rotation through the red near nephew.
                // (u left shown): t = (near.key, wp){ (p.key, 1){u',
                // near.left}, (s.key, 1){near.right, far} }.
                let near_word = if ud == LEFT {
                    ss.value(LEFT)
                } else {
                    ss.value(RIGHT)
                };
                let far_word = if ud == LEFT {
                    ss.value(RIGHT)
                } else {
                    ss.value(LEFT)
                };
                let near: &Node<K, V> = unsafe { self.domain.deref(near_word, guard) };
                let Some(snear) = self.domain.llx(near, guard).snapshot() else {
                    return false;
                };
                if near.immutable().weight != 0 {
                    return false; // stale
                }
                let u_copy = self.copy_with_weight(&su, wu - 1);
                let (n1, n2, t) = if ud == LEFT {
                    let n1 = self.alloc_internal(
                        p.immutable().key,
                        1,
                        llx_scx::pack_ptr(u_copy),
                        snear.value(LEFT),
                    );
                    let n2 =
                        self.alloc_internal(s.immutable().key, 1, snear.value(RIGHT), far_word);
                    let t = self.alloc_internal(
                        near.immutable().key,
                        clamp(wp),
                        llx_scx::pack_ptr(n1),
                        llx_scx::pack_ptr(n2),
                    );
                    (n1, n2, t)
                } else {
                    let n1 = self.alloc_internal(s.immutable().key, 1, far_word, snear.value(LEFT));
                    let n2 = self.alloc_internal(
                        p.immutable().key,
                        1,
                        snear.value(RIGHT),
                        llx_scx::pack_ptr(u_copy),
                    );
                    let t = self.alloc_internal(
                        near.immutable().key,
                        clamp(wp),
                        llx_scx::pack_ptr(n1),
                        llx_scx::pack_ptr(n2),
                    );
                    (n1, n2, t)
                };
                let v = if ud == LEFT {
                    [spp, sp, su, ss, snear]
                } else {
                    [spp, sp, ss, su, snear]
                };
                let (ui, si) = if ud == LEFT { (2, 3) } else { (3, 2) };
                if self.domain.scx(
                    ScxRequest::new(&v, FieldId::new(0, ppd), llx_scx::pack_ptr(t))
                        .finalize(1)
                        .finalize(ui)
                        .finalize(si)
                        .finalize(4),
                    guard,
                ) {
                    unsafe {
                        self.domain.retire(p as *const Node<K, V>, guard);
                        self.domain.retire(u as *const Node<K, V>, guard);
                        self.domain.retire(s as *const Node<K, V>, guard);
                        self.domain.retire(near as *const Node<K, V>, guard);
                    }
                    true
                } else {
                    unsafe {
                        self.domain.dealloc(t);
                        self.domain.dealloc(n1);
                        self.domain.dealloc(n2);
                        self.domain.dealloc(u_copy);
                    }
                    false
                }
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
