//! The per-thread record pool: one path for SCX-records and
//! Data-records alike.
//!
//! The paper assumes a garbage collector; this module is where the
//! reproduction pays for that assumption. Every SCX allocates one
//! SCX-record and every update allocates and retires Data-records.
//! Routing each dead record through its own `guard.defer_unchecked`
//! closure and back to the allocator costs one heap-allocated closure,
//! one entry on the epoch shim's mutex-guarded global queue and one
//! `free` *per record*, and that `free` runs on whichever thread
//! collects, which is usually not the thread whose glibc arena owns the
//! chunk. This traffic dominated the primitive itself. The pool sits
//! between the reclaimer and the allocator, as Brown's record manager
//! does for this algorithm (DEBRA, "Reclaiming memory for lock-free
//! data structures: there has to be a better way", PODC 2015).
//!
//! # Two record kinds, one path
//!
//! Blocks are untyped and keyed by [`Layout`]: the free lists, the
//! outboxes and the parked shards all keep one entry per layout, so a
//! block is only ever reused for a record of the layout it was
//! allocated with. Which record *type*, domain or structure produced a
//! block is irrelevant to whoever reuses it: a block is recycled only
//! after its destruction epoch expired, so it is plain dead memory.
//!
//! * **Data-records** ([`alloc`], [`retire_data`], [`dealloc_data`])
//!   take one stage. `retire` pushes the record onto the thread's
//!   destruction list. When that epoch expires it is dropped in place
//!   (its `info` release runs under the batch's pin) and its block is
//!   recycled. `dealloc` (never published) drops in place and recycles
//!   at once.
//! * **SCX-records** ([`alloc_scx`]) take the two epoch-deferred
//!   stages of the `reclaim` protocol:
//!   1. *dependency stage*: when a record's install count (`cas_refs`)
//!      hits zero it is pushed onto this thread's dependency list. When
//!      the epoch expires, i.e. when every helper that could still
//!      execute one of the record's freezing CASes has unpinned,
//!      [`crate::reclaim::mature_deps`] releases the record's holds on
//!      its `info_fields` predecessors.
//!   2. *destruction stage*: when a record's total count (`refs`) hits
//!      zero with dependencies released, it joins the same destruction
//!      list Data-records use.
//!
//! Every [`LIMBO_BATCH`] entries of a list share *one*
//! `defer_unchecked`. When the batch matures, each destroyed block is
//! cached on the collecting thread's free list for its layout (or, past
//! [`FREE_CAP`], handed to other threads; see below). Allocation pops
//! from that free list and `ptr::write`s the fresh record into the
//! block, skipping the allocator entirely.
//!
//! The epoch delays are **not** optional: reusing a record's address
//! while any stale holder could still dereference or CAS-compare it
//! would reintroduce the ABA on record addresses that the paper's
//! garbage-collection assumption rules out (see `reclaim` for the two
//! reachability paths of an SCX-record). Debug builds back this with a
//! generation stamp on SCX-records, checked in `Domain::llx`, and a
//! lifecycle byte on Data-records: a second `retire`/`dealloc` of one
//! record panics at the second call instead of handing its block to two
//! owners.
//!
//! Thread exit with partially filled batches parks the leftovers in a
//! global orphan list; the next batch seal or
//! [`crate::flush_reclamation`] adopts them with its caller's guard.
//! This keeps the debug-build live-record ledger exact: every allocated
//! record is eventually dropped exactly once.
//!
//! # Cross-thread shard handoff
//!
//! Free lists are per-thread, but maturation runs on whichever thread
//! collects — so whenever one thread retires what another allocates
//! (pipelines, and any contended structure where helpers finish each
//! other's SCXs) the collecting thread's free list fills to
//! [`FREE_CAP`] while the allocating thread misses. The handoff closes
//! that gap without sharing the free lists themselves:
//!
//! * a matured block that finds its thread's free list full goes into
//!   the thread's **outbox** for that layout; an outbox of
//!   [`SHARD_BLOCKS`] blocks is published wholesale as one *shard* onto
//!   the process-wide parked list for its layout. Each layout's list is
//!   bounded: beyond [`MAX_PARKED_SHARDS`] the shard's blocks are
//!   genuinely freed;
//! * an allocating thread that misses its free list **steals a whole
//!   shard** of the same layout before touching the allocator: one lock
//!   acquisition amortized over a shard's worth of future allocations,
//!   counted through `POOL_HANDOFFS`.
//!
//! # Why each mechanism is here, and why none has a switch
//!
//! The pool is one code path with no options: every mechanism below
//! was A/B-measured on the repository benchmark (2 vCPUs, 18 s runs,
//! medians) and kept because it wins; the off-switches and tuning
//! knobs it used to carry won nothing and were deleted.
//!
//! * **free lists + batched defers for SCX-records** (vs one `Box` and
//!   one defer per record): `mem-update` 548 k vs 398 k ops/s and p99
//!   50 µs vs 97 µs; `mem-contend` 1.18 M vs 0.43 M ops/s — 1.4–2.8×,
//!   ranges disjoint.
//! * **the same for Data-records** (vs one boxed closure, one global
//!   queue entry and one cross-thread `free` per node): the node path
//!   was the negative two-thread scaling of ROADMAP item 2. With
//!   per-node frees, two threads did no more updates than one on a
//!   65 536-key chromatic tree. `MALLOC_ARENA_MAX=1` made two threads
//!   slower still, and a glibc tcache large enough that no free takes
//!   an arena lock made them 1.5× faster. That is the signature of
//!   cross-arena frees. README "Memory reclamation" has the A/B.
//! * **outbox → parked shard → whole-shard steal** (vs freeing the
//!   overflow): `mem-contend` 1.13 M vs 0.76 M ops/s, ahead in 9 of 9
//!   same-seed pairs; no resolvable difference on the uncontended
//!   workloads, so it runs unconditionally.
//! * the parked list is **one** mutex: the only workload that drove
//!   the former per-shard affinity buckets read 0.0055 handoffs per op,
//!   and pooled blocks of one layout are interchangeable, so bucketing
//!   chose nothing but which mutex to take.

use crate::sync::{AtomicU64, Mutex, Ordering};
use std::alloc::Layout;
use std::cell::RefCell;
use std::sync::OnceLock;

use crossbeam_epoch::Guard;

use crate::reclaim;
use crate::record::DataRecord;
use crate::scx_record::ScxRecord;

/// Number of records that trigger one batched defer, per stage.
const LIMBO_BATCH: usize = 32;

/// Maximum blocks cached per thread and layout; beyond this, matured
/// blocks are routed to the handoff outbox.
const FREE_CAP: usize = 256;

/// Blocks per handoff shard (the outbox publishes wholesale at this
/// size).
const SHARD_BLOCKS: usize = 16;

/// Upper bound on parked shards per layout; beyond it, overflow blocks
/// go back to the allocator so the handoff cannot hoard memory
/// unboundedly.
const MAX_PARKED_SHARDS: usize = 64;

/// A published outbox: dead blocks of one layout ready for adoption by
/// any thread. The raw pointers are owned uniquely by the shard.
struct Shard(Vec<*mut u8>);
unsafe impl Send for Shard {}

/// A list with one entry per record layout. A process uses a handful of
/// layouts, so a linear scan is all the lookup needs.
type Keyed<T> = Vec<(Layout, T)>;

/// The entry for `layout` in a layout-keyed list, inserted empty on
/// first use.
fn keyed<T: Default>(entries: &mut Keyed<T>, layout: Layout) -> &mut T {
    let i = match entries.iter().position(|(l, _)| *l == layout) {
        Some(i) => i,
        None => {
            entries.push((layout, T::default()));
            entries.len() - 1
        }
    };
    &mut entries[i].1
}

/// Parked shards awaiting a stealing allocator thread, per layout.
fn parked() -> &'static Mutex<Keyed<Vec<Shard>>> {
    static PARKED: OnceLock<Mutex<Keyed<Vec<Shard>>>> = OnceLock::new();
    PARKED.get_or_init(|| Mutex::new(Vec::new()))
}

/// Return every block of `blocks` to the allocator.
fn free_blocks(blocks: Vec<*mut u8>, layout: Layout) {
    for p in blocks {
        // SAFETY: pooled blocks are dead and were allocated with `layout`.
        unsafe { std::alloc::dealloc(p, layout) };
    }
}

/// Keep one dead block for reuse: on the calling thread's free list for
/// its layout while that has room, otherwise in the outbox (publishing
/// a full outbox as a shard for other threads to steal).
///
/// # Safety
///
/// `p` must be a dead block allocated with `layout`, owned by the
/// caller.
unsafe fn recycle(p: *mut u8, layout: Layout) {
    let sealed = POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        let lists = keyed(&mut pool.lists, layout);
        if lists.free.len() < FREE_CAP {
            lists.free.push(p);
            return None;
        }
        lists.outbox.push(p);
        (lists.outbox.len() >= SHARD_BLOCKS).then(|| std::mem::take(&mut lists.outbox))
    });
    match sealed {
        Ok(None) => {}
        Ok(Some(blocks)) => park_shard(layout, Shard(blocks)),
        // Thread-local already destroyed: nowhere to buffer the block.
        Err(_) => std::alloc::dealloc(p, layout),
    }
}

/// Park a sealed shard for stealing; free its blocks if its layout's
/// parked list is full (the bound that keeps handoff memory finite).
fn park_shard(layout: Layout, shard: Shard) {
    let spill = {
        let mut parked = parked().lock().unwrap();
        let shards = keyed(&mut parked, layout);
        if shards.len() < MAX_PARKED_SHARDS {
            shards.push(shard);
            None
        } else {
            Some(shard)
        }
    };
    if let Some(Shard(blocks)) = spill {
        free_blocks(blocks, layout);
    }
}

/// Steal one parked shard of `layout` for the current thread: returns a
/// block to serve the triggering allocation and caches the rest on the
/// local free list. Bumps `POOL_HANDOFFS` by the blocks adopted.
fn steal_shard(layout: Layout) -> Option<*mut u8> {
    // Injected handoff failure: behave as if nothing were parked,
    // forcing the caller onto the allocator path. Parked shards stay
    // parked, so nothing leaks — a later (un-injected) steal still
    // adopts them.
    if faultpoint::fire("scx.pool.steal_fail") {
        return None;
    }
    let Shard(mut blocks) = keyed(&mut parked().lock().unwrap(), layout).pop()?;
    debug_assert!(!blocks.is_empty(), "parked shards are never empty");
    let total = blocks.len();
    let serve = blocks.pop()?;
    let mut carry = Some(blocks);
    let spill = POOL
        .try_with(|pool| {
            let mut blocks = carry.take().expect("carry set above");
            let mut pool = pool.borrow_mut();
            let free = &mut keyed(&mut pool.lists, layout).free;
            let room = FREE_CAP.saturating_sub(free.len());
            let spill = blocks.split_off(room.min(blocks.len()));
            free.append(&mut blocks);
            spill
        })
        // Thread-local gone (teardown): nothing to cache into.
        .unwrap_or_else(|_| carry.take().unwrap_or_default());
    // Count only the blocks actually adopted (served + cached); spill
    // that goes straight back to the allocator is not a handoff.
    POOL_HANDOFFS.fetch_add((total - spill.len()) as u64, Ordering::Relaxed); // ord: pool stats counter; no sync role
    free_blocks(spill, layout);
    Some(serve)
}

/// A record in one of the two epoch-deferred stages: the raw block plus
/// the monomorphized action for its true record type.
struct Pending {
    ptr: *mut u8,
    /// Dependency stage: `reclaim::mature_deps`. Destruction stage:
    /// drop in place. Must only run after the stage's epoch expired.
    /// Returns the block's layout if the block is now dead and
    /// reusable.
    act: unsafe fn(*mut u8, &Guard) -> Option<Layout>,
}

// Pending blocks are plain memory plus a fn pointer; ownership moves
// with the struct (into deferred closures and the orphan list).
unsafe impl Send for Pending {}

unsafe fn dep_shim<const M: usize, I>(p: *mut u8, guard: &Guard) -> Option<Layout> {
    reclaim::mature_deps(p as *const ScxRecord<M, I>, guard);
    None
}

unsafe fn drop_shim<const M: usize, I>(p: *mut u8, _guard: &Guard) -> Option<Layout> {
    use crate::header::{RC_CLAIMED, RC_DEPS_RELEASED, RC_REFS_MASK};
    use crate::sync::Ordering::SeqCst;
    let rec = p as *mut ScxRecord<M, I>;
    let h = &(*rec).hdr;
    let mut cur = h.rc.load(SeqCst); // ord: SC packed-rc read; CAS below re-validates
    while cur & RC_REFS_MASK != 0 {
        // Between the claim (count == 0) and this maturation, a
        // straggler with a stale LLX handle captured this record in a
        // new SCX-record's `info_fields` (`acquire_hold` resurrects the
        // count). Un-claim in ONE RMW and hand destruction to the
        // hold's release: when the successor's dependency stage drives
        // the count to zero, its decrement-and-claim re-stages
        // destruction atomically (`release_common`). If that final
        // decrement lands between our load and our CAS, the CAS fails
        // — the releaser saw `claimed` still set and left disposal to
        // us — and the retry loop observes the settled zero below.
        debug_assert!(cur & RC_CLAIMED != 0, "staged record lost its claim");
        match h
            .rc
            // ord: SC packed-rc RMW; un-claim hands ownership to the releaser
            .compare_exchange_weak(cur, cur & !RC_CLAIMED, SeqCst, SeqCst)
        {
            Ok(_) => return None,
            Err(now) => cur = now,
        }
    }
    // Settled zero: whoever zeroed the count did so in an RMW that also
    // decided (and lost) the claim, so no thread touches this header
    // again — disposal cannot race a straggler's trailing access.
    debug_assert!(cur & RC_CLAIMED != 0 && cur & RC_DEPS_RELEASED != 0);
    std::ptr::drop_in_place(rec);
    Some(Layout::new::<ScxRecord<M, I>>())
}

/// Destruction stage of a retired Data-record.
///
/// # Safety
///
/// `p` must hold a `DataRecord<M, I>` staged by [`retire_data`] whose
/// epoch has expired.
unsafe fn drop_data<const M: usize, I>(p: *mut u8, _guard: &Guard) -> Option<Layout> {
    let rec = p as *mut DataRecord<M, I>;
    #[cfg(debug_assertions)]
    (*rec).assert_released();
    // The record's `Drop` releases its `info` reference; its pin nests
    // inside the batch's.
    std::ptr::drop_in_place(rec);
    Some(Layout::new::<DataRecord<M, I>>())
}

/// A thread's free list and handoff outbox for one layout.
#[derive(Default)]
struct Lists {
    free: Vec<*mut u8>,
    /// Overflow blocks awaiting publication as a handoff shard.
    outbox: Vec<*mut u8>,
}

struct ThreadPool {
    lists: Keyed<Lists>,
    deps: Vec<Pending>,
    destroy: Vec<Pending>,
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        for (layout, lists) in std::mem::take(&mut self.lists) {
            // Free blocks hold no record (already destroyed in place)
            // and are past their epoch: return them to the allocator.
            free_blocks(lists.free, layout);
            // A partial outbox is still a perfectly good (short) shard:
            // publish it so surviving threads can adopt the blocks —
            // the exact pipeline case where the retiring thread exits
            // first.
            if !lists.outbox.is_empty() {
                park_shard(layout, Shard(lists.outbox));
            }
        }
        // Staged blocks may still be visible to pinned peers and this
        // thread can no longer pin (its epoch slot is being torn down):
        // park them for the next thread that seals a batch.
        let mut orphaned = std::mem::take(&mut self.deps);
        orphaned.append(&mut self.destroy);
        if !orphaned.is_empty() {
            orphans().lock().unwrap().append(&mut orphaned);
        }
    }
}

thread_local! {
    static POOL: RefCell<ThreadPool> = const {
        RefCell::new(ThreadPool {
            lists: Vec::new(),
            deps: Vec::new(),
            destroy: Vec::new(),
        })
    };
}

/// Records staged by threads that exited mid-batch; drained (with a
/// live guard) by the next seal or by [`crate::flush_reclamation`].
fn orphans() -> &'static Mutex<Vec<Pending>> {
    static ORPHANS: OnceLock<Mutex<Vec<Pending>>> = OnceLock::new();
    ORPHANS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Monotone counters for observability (`llx_scx::pool_stats`).
/// `POOL_HITS` / `POOL_MISSES` count SCX-record allocations only;
/// `POOL_DEFERS` counts every sealed batch, whichever record kinds it
/// holds.
pub(crate) static POOL_HITS: AtomicU64 = AtomicU64::new(0);
pub(crate) static POOL_MISSES: AtomicU64 = AtomicU64::new(0);
pub(crate) static POOL_DEFERS: AtomicU64 = AtomicU64::new(0);
/// Records/blocks moved across threads, of either kind: orphan
/// adoptions (records staged by an exited thread, matured by another)
/// plus blocks adopted through the shard handoff (the hot path in
/// pipeline-shaped workloads — one thread retires, another allocates).
/// Surfaced in `StatsSnapshot` so the handoff rate is measurable per
/// workload.
pub(crate) static POOL_HANDOFFS: AtomicU64 = AtomicU64::new(0);

/// Move `value` into a block of its layout — from the thread's free
/// list when possible, else from a stolen parked shard, else from the
/// global allocator. Returns the block and whether it was recycled.
pub(crate) fn alloc<T>(value: T) -> (*mut T, bool) {
    // Every record starts with an `info` pointer or an SCX header.
    const { assert!(size_of::<T>() != 0) };
    let layout = Layout::new::<T>();
    // Injected allocation miss: skip reuse entirely and pay the global
    // allocator, exactly the path a cold/contended pool takes.
    // Free-list blocks are untouched — only this allocation's routing
    // changes, so no conservation law moves.
    let reused = if faultpoint::fire("scx.pool.alloc_miss") {
        None
    } else {
        POOL.try_with(|pool| keyed(&mut pool.borrow_mut().lists, layout).free.pop())
            .ok()
            .flatten()
            // Local miss: adopt a whole parked shard (one lock, a
            // shard's worth of future hits) before paying the
            // allocator.
            .or_else(|| steal_shard(layout))
    };
    let block = reused.unwrap_or_else(|| {
        // SAFETY: `layout` has non-zero size (asserted above).
        let p = unsafe { std::alloc::alloc(layout) };
        if p.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        p
    });
    let p = block as *mut T;
    // SAFETY: the block is unaliased (fresh, popped from the free list
    // or adopted from a parked shard, past its retirement epoch) and
    // has `T`'s layout.
    unsafe { std::ptr::write(p, value) };
    (p, reused.is_some())
}

/// [`alloc`] for an SCX-record, counting the hit or miss.
pub(crate) fn alloc_scx<const M: usize, I>(record: ScxRecord<M, I>) -> *mut ScxRecord<M, I> {
    let (p, reused) = alloc(record);
    let counter = if reused { &POOL_HITS } else { &POOL_MISSES };
    counter.fetch_add(1, Ordering::Relaxed); // ord: pool stats counter; no sync role
    p
}

/// Stage a pending entry on one of the thread's lists; seal a batch
/// when full. Defers the entry on its own only if the thread-local is
/// gone (teardown).
fn stage(entry: Pending, pick: fn(&mut ThreadPool) -> &mut Vec<Pending>, guard: &Guard) {
    let mut slot = Some(entry);
    let sealed = POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        let list = pick(&mut pool);
        list.push(slot.take().expect("entry staged at most once"));
        if list.len() >= LIMBO_BATCH {
            Some(std::mem::take(list))
        } else {
            None
        }
    });
    match sealed {
        Ok(None) => {}
        Ok(Some(batch)) => {
            defer_batch(batch, guard);
            drain_orphans(guard);
        }
        // Thread-local already destroyed (staging during teardown of
        // another TLS destructor): defer the entry individually.
        Err(_) => {
            if let Some(entry) = slot.take() {
                defer_batch(vec![entry], guard);
            }
        }
    }
}

/// Schedule stage 1 for `rec` (install count hit zero): one epoch from
/// now, release its holds on its `info_fields` predecessors.
///
/// # Safety
///
/// `rec` must be a live `ScxRecord<M, I>` whose dependency stage is
/// scheduled exactly once (guarded by `deps_scheduled`); the caller
/// must hold the pinned `guard`.
pub(crate) unsafe fn schedule_dep_release<const M: usize, I>(
    rec: *mut ScxRecord<M, I>,
    guard: &Guard,
) {
    stage(
        Pending {
            ptr: rec as *mut u8,
            act: dep_shim::<M, I>,
        },
        |p| &mut p.deps,
        guard,
    );
}

/// Schedule stage 2 for `rec` (all references gone, dependencies
/// released): one epoch from now, drop it and recycle its block.
///
/// # Safety
///
/// `rec` must be produced by [`alloc_scx`], claimed exactly once
/// (guarded by `claimed`), and the caller must hold the pinned `guard`.
pub(crate) unsafe fn retire_scx<const M: usize, I>(rec: *mut ScxRecord<M, I>, guard: &Guard) {
    // Bug gate: destroy and recycle the block *immediately*, bypassing
    // the epoch stage, so a stalled helper's stale SCX-record address
    // can be reused under it — together with the skipped `info_fields`
    // holds this is the PR-2 recycling ABA the model checker must find.
    #[cfg(llx_model_bugs)]
    {
        let p = rec as *mut u8;
        if let Some(layout) = drop_shim::<M, I>(p, guard) {
            recycle(p, layout);
        }
    }
    #[cfg(not(llx_model_bugs))]
    stage(
        Pending {
            ptr: rec as *mut u8,
            act: drop_shim::<M, I>,
        },
        |p| &mut p.destroy,
        guard,
    );
}

/// Stage an unlinked Data-record on the destruction list: one epoch
/// from now, drop it in place and recycle its block.
///
/// # Safety
///
/// As [`crate::Domain::retire`].
pub(crate) unsafe fn retire_data<const M: usize, I>(rec: *mut DataRecord<M, I>, guard: &Guard) {
    #[cfg(debug_assertions)]
    (*rec).mark_released();
    stage(
        Pending {
            ptr: rec as *mut u8,
            act: drop_data::<M, I>,
        },
        |p| &mut p.destroy,
        guard,
    );
}

/// Drop a never-published Data-record in place and recycle its block
/// at once.
///
/// # Safety
///
/// As [`crate::Domain::dealloc`].
pub(crate) unsafe fn dealloc_data<const M: usize, I>(rec: *mut DataRecord<M, I>) {
    #[cfg(debug_assertions)]
    (*rec).mark_released();
    std::ptr::drop_in_place(rec);
    recycle(rec as *mut u8, Layout::new::<DataRecord<M, I>>());
}

/// Publish one batch; after the epoch expires, run each entry's action
/// and recycle the blocks it leaves dead.
fn defer_batch(batch: Vec<Pending>, guard: &Guard) {
    POOL_DEFERS.fetch_add(1, Ordering::Relaxed); // ord: pool stats counter; no sync role

    // SAFETY: each staged record passed its stage's zero-crossing (or,
    // for a Data-record, was unlinked); by the time the closure runs,
    // no thread pinned at defer time remains pinned, so no stale holder
    // — via a structure pointer, `r.info` or a newer record's
    // `info_fields` — can still act on these addresses.
    unsafe {
        guard.defer_unchecked(move || {
            let g = crossbeam_epoch::pin();
            for entry in batch {
                if let Some(layout) = (entry.act)(entry.ptr, &g) {
                    recycle(entry.ptr, layout);
                }
            }
        });
    }
}

/// Seal the current thread's partial batches (if any) with `guard`.
pub(crate) fn seal_current_thread(guard: &Guard) {
    let batches = POOL
        .try_with(|pool| {
            let mut pool = pool.borrow_mut();
            (
                std::mem::take(&mut pool.deps),
                std::mem::take(&mut pool.destroy),
            )
        })
        .unwrap_or_default();
    for batch in [batches.0, batches.1] {
        if !batch.is_empty() {
            defer_batch(batch, guard);
        }
    }
}

/// Defer every parked orphan (records stranded by exited threads).
pub(crate) fn drain_orphans(guard: &Guard) {
    let parked = std::mem::take(&mut *orphans().lock().unwrap());
    if !parked.is_empty() {
        POOL_HANDOFFS.fetch_add(parked.len() as u64, Ordering::Relaxed); // ord: pool stats counter; no sync role
        defer_batch(parked, guard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_lists_keep_one_entry_per_layout() {
        let mut entries: Vec<(Layout, Vec<u8>)> = Vec::new();
        keyed(&mut entries, Layout::new::<u64>()).push(1);
        keyed(&mut entries, Layout::new::<[u64; 4]>()).push(2);
        keyed(&mut entries, Layout::new::<u64>()).push(3);
        assert_eq!(entries.len(), 2);
        assert_eq!(keyed(&mut entries, Layout::new::<u64>()), &[1, 3]);
        assert_eq!(keyed(&mut entries, Layout::new::<[u64; 4]>()), &[2]);
    }
}
