//! Snapshot range scans — whole-range and windowed — for the LLX/SCX
//! trees.
//!
//! All three tree-shaped structures ([`Bst`](crate::Bst),
//! [`ChromaticTree`](crate::ChromaticTree),
//! [`PatriciaTrie`](crate::PatriciaTrie)) share one scan engine: an
//! in-order walk that LLXs every node it visits, follows the
//! *snapshotted* child pointers, prunes subtrees disjoint from the
//! queried interval, and validates the whole visited set with a single
//! VLX (paper §3). A successful VLX certifies that every visited node
//! was simultaneously unchanged at the VLX's linearization point; since
//! every insert or delete of an in-range key must perform an SCX on at
//! least one visited node (the leaf's parent is always on the walked
//! path, and SCXs change the node's `info` pointer, which is exactly
//! what VLX checks), the collected leaves are the exact range contents
//! at that point. Pruned subtrees cannot contain in-range keys by the
//! routing invariant on the (immutable) keys of validated nodes.
//!
//! The engine is **windowed**: a walk may stop after collecting
//! `max_keys` in-range keys and validate just the nodes visited so far.
//! Because the in-order leaf sequence of a leaf-oriented search tree is
//! sorted, every unvisited subtree at that point holds only keys
//! strictly greater than the last collected key, so the validated
//! prefix is the exact contents of the *covered* interval
//! `[from, last_key]` — the per-window atomicity the
//! `conc-set` scan-cursor API is built on. `max_keys = usize::MAX`
//! recovers the whole-range atomic scan.
//!
//! **Memory-level parallelism.** A tree too large for the private
//! caches turns the walk into a serial pointer chase: each LLX waits
//! out the previous node's miss. The walk therefore prefetches
//! ([`DataRecord::prefetch`]) every child as it is pushed, and the new
//! stack top on every pop. In DFS order the stack top is the next node
//! visited whenever the popped node is a leaf, and a pushed right child
//! is visited after its left sibling's subtree, so its miss overlaps
//! that subtree's work (greedy prefetching; Luk & Mowry, ASPLOS 1996).
//! A prefetch is a hint, not a shared-memory step: the LLX and VLX
//! counts are the paper's. The window's buffers are sized from the key
//! budget up front rather than regrown from empty.

use llx_scx::{DataRecord, Domain, Guard, Llx};

use crate::node::{is_leaf, Node, TreeDomain, TreeKey, LEFT, RIGHT};

/// Window buffers are sized up front for at most this many keys, so an
/// atomic scan (`max_keys = usize::MAX`) grows past it instead of
/// reserving for the whole key space.
const PRESIZE_KEYS: usize = 1024;

/// Walk depth the stack (and the boundary-path slack of the snapshot
/// buffer) is sized for; deeper walks grow the buffers.
const STACK_DEPTH: usize = 64;

/// What the windowed walk does at one visited (and LLXed) node.
pub(crate) enum Visit<'g, N, K, V> {
    /// A leaf; `Some` if it holds an in-range `(key, value)`.
    Leaf(Option<(K, V)>),
    /// Children to push, in push order (right before left, so lefts pop
    /// first and the walk stays in-order). `None` slots are pruned.
    Push([Option<&'g N>; 2]),
}

/// The per-structure node classifier driving [`try_collect_window`].
type Classify<'c, 'g, const M: usize, I, K, V> =
    &'c mut dyn FnMut(&'g DataRecord<M, I>, &Llx<'g, M, I>) -> Visit<'g, DataRecord<M, I>, K, V>;

/// One optimistic windowed in-order collection shared by the three
/// trees: pop a node, LLX it, let `classify` either yield the node's
/// pair or push the (range-overlapping) children, stop after `max_keys`
/// collected pairs, then VLX the visited set.
///
/// Returns the collected pairs plus whether the walk exhausted the
/// range (`false` = stopped at the key budget with subtrees left), or
/// `None` if an LLX failed, a node was finalized, or the VLX rejected
/// the visited set.
pub(crate) fn try_collect_window<'g, const M: usize, I, K: Copy + Ord, V>(
    domain: &Domain<M, I>,
    start: &'g DataRecord<M, I>,
    max_keys: usize,
    guard: &'g Guard,
    classify: Classify<'_, 'g, M, I, K, V>,
) -> Option<(Vec<(K, V)>, bool)> {
    debug_assert!(max_keys > 0, "a scan window covers at least one key");
    let budget = max_keys.min(PRESIZE_KEYS);
    // A window visits its leaves, about as many internal nodes between
    // them, and the two boundary paths.
    let mut snaps: Vec<Llx<'g, M, I>> = Vec::with_capacity(2 * budget + 2 * STACK_DEPTH);
    let mut out: Vec<(K, V)> = Vec::with_capacity(budget);
    let mut stack: Vec<&DataRecord<M, I>> = Vec::with_capacity(STACK_DEPTH);
    stack.push(start);
    while let Some(n) = stack.pop() {
        // Next after `n` whenever `n` is a leaf: start its miss now.
        if let Some(top) = stack.last() {
            top.prefetch();
        }
        let s = domain.llx(n, guard).snapshot()?;
        let visit = classify(n, &s);
        snaps.push(s);
        match visit {
            Visit::Leaf(Some(kv)) => {
                out.push(kv);
                if out.len() >= max_keys {
                    break;
                }
            }
            Visit::Leaf(None) => {}
            Visit::Push(children) => {
                for c in children.into_iter().flatten() {
                    c.prefetch();
                    stack.push(c);
                }
            }
        }
    }
    // Unvisited stack entries hold only keys past the last collected
    // one (in-order), so the validated prefix covers a full interval.
    let end = stack.is_empty();
    domain.vlx(&snaps).then_some((out, end))
}

/// One windowed attempt on the shared [`Bst`](crate::Bst) /
/// [`ChromaticTree`](crate::ChromaticTree) node layout — the body of
/// both trees' `try_scan_window`: prune with the BST routing invariant
/// (left subtree `< nk`, right `>= nk`), collect leaves in `[from, hi]`.
pub(crate) fn try_window_bstlike<K: Copy + Ord, V: Clone>(
    domain: &TreeDomain<K, V>,
    root: *const Node<K, V>,
    from: K,
    hi: K,
    max_keys: usize,
) -> Option<(Vec<(K, V)>, bool)> {
    debug_assert!(from <= hi, "an empty scan window");
    let klo = TreeKey::Key(from);
    let khi = TreeKey::Key(hi);
    let guard = &llx_scx::pin();
    // SAFETY: the root entry point is never retired; children come from
    // validated snapshots and are protected by `guard`.
    let start: &Node<K, V> = unsafe { &*root };
    try_collect_window(domain, start, max_keys, guard, &mut |n, s| {
        if is_leaf(n) {
            let info = n.immutable();
            if let (TreeKey::Key(k), Some(v)) = (&info.key, &info.value) {
                if from <= *k && *k <= hi {
                    return Visit::Leaf(Some((*k, v.clone())));
                }
            }
            Visit::Leaf(None)
        } else {
            let nk = &n.immutable().key;
            // Right subtree holds keys >= nk, left holds keys < nk.
            Visit::Push([
                if khi >= *nk {
                    // SAFETY: snapshotted child of a reachable internal
                    // node, protected by `guard`.
                    Some(unsafe { domain.deref(s.value(RIGHT), guard) })
                } else {
                    None
                },
                if klo < *nk {
                    // SAFETY: as above.
                    Some(unsafe { domain.deref(s.value(LEFT), guard) })
                } else {
                    None
                },
            ])
        }
    })
}
