//! The per-thread record pool: where retired Data-records wait out
//! their epoch and their blocks are reused.
//!
//! The paper assumes a garbage collector; this module is where the
//! reproduction pays for that assumption. Every update allocates and
//! retires Data-records. Routing each dead record through its own
//! `guard.defer_unchecked` closure and back to the allocator costs one
//! heap-allocated closure, one entry on the epoch shim's mutex-guarded
//! global queue and one `free` *per record*, and that `free` runs on
//! whichever thread collects, which is usually not the thread whose
//! glibc arena owns the chunk. This traffic dominated the primitive
//! itself. The pool sits between the reclaimer and the allocator, as
//! Brown's record manager does for this algorithm (DEBRA, "Reclaiming
//! memory for lock-free data structures: there has to be a better way",
//! PODC 2015). SCX-records never come here: each thread reuses one
//! descriptor (the `header` module).
//!
//! # One stage
//!
//! Blocks are untyped and keyed by [`Layout`]: the free lists, the
//! outboxes and the parked shards all keep one entry per layout, so a
//! block is only ever reused for a record of the layout it was
//! allocated with. Which record *type*, domain or structure produced a
//! block is irrelevant to whoever reuses it: a block is recycled only
//! after its destruction epoch expired, so it is plain dead memory.
//!
//! [`retire_data`] pushes the record onto the thread's destruction
//! list; every [`LIMBO_BATCH`] entries share *one* `defer_unchecked`.
//! The epoch shim runs a deferred closure on the thread that deferred
//! it, so when the batch matures each record is dropped in place and its
//! block cached on the *retiring* thread's free list for its layout (or,
//! past [`FREE_CAP`], handed to other threads; see below).
//! [`dealloc_data`] (never published) drops in place and recycles at
//! once. Allocation ([`alloc`]) pops from that free list and
//! `ptr::write`s the fresh record into the block, skipping the allocator
//! entirely.
//!
//! The epoch delay is **not** optional: reusing a record's address while
//! any stale holder could still dereference it is the use-after-free the
//! paper's garbage-collection assumption rules out. Debug builds back
//! this with a lifecycle byte on Data-records: a second
//! `retire`/`dealloc` of one record panics at the second call instead of
//! handing its block to two owners.
//!
//! Thread exit with a partially filled batch parks the leftovers in a
//! global orphan list; the next batch seal or
//! [`crate::flush_reclamation`] adopts them with its caller's guard, so
//! every retired record is eventually dropped exactly once. An atomic
//! count lets the seal skip the orphan lock while the list is empty.
//! Batches already deferred when a thread exits become the epoch shim's
//! orphans and mature on whichever thread collects them.
//!
//! The counters behind [`crate::pool_stats`] are per thread too: each
//! thread bumps its own cache line, and a snapshot sums the live
//! threads' counters with the totals that exited threads left behind.
//!
//! # Cross-thread shard handoff
//!
//! Free lists are per-thread, and a block returns to the thread that
//! retired it — so whenever one thread retires what another allocates
//! (pipelines, a thread that drops a whole structure, a thread that
//! exits with deferred batches) the retiring thread's free list fills
//! to [`FREE_CAP`] while the allocating thread misses. The handoff
//! closes that gap without sharing the free lists themselves:
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
//!   counted as `handoffs`.
//!
//! Threads that each allocate what they retire never overflow and hand
//! off nothing; `llx-scx.pool_handoffs_per_op` in the repository
//! benchmark records the rate per workload.
//!
//! # Why each mechanism is here, and why none has a switch
//!
//! The pool is one code path with no options: every mechanism below
//! was A/B-measured on the repository benchmark (2 vCPUs, 18 s runs,
//! medians) and kept because it wins; the off-switches and tuning
//! knobs it used to carry won nothing and were deleted.
//!
//! * **free lists + batched defers** (vs one boxed closure, one global
//!   queue entry and one cross-thread `free` per node; measured first
//!   for the SCX-records this pool used to hold, 1.4–2.8×): the node path
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

use crate::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
use std::alloc::Layout;
use std::cell::RefCell;
use std::sync::{Arc, OnceLock, PoisonError};

use crossbeam_epoch::Guard;

use crate::record::DataRecord;

/// Number of retired records that trigger one batched defer.
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
/// local free list. Counts the blocks adopted as handoffs.
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
    count(Stat::Handoffs, (total - spill.len()) as u64);
    free_blocks(spill, layout);
    Some(serve)
}

/// A retired record awaiting its epoch: the raw block plus the
/// monomorphized drop for its true record type.
struct Pending {
    ptr: *mut u8,
    /// Drops the record in place and returns its block's layout. Must
    /// only run after the record's epoch expired.
    drop: unsafe fn(*mut u8) -> Layout,
}

// Pending blocks are plain memory plus a fn pointer; ownership moves
// with the struct (into deferred closures and the orphan list).
unsafe impl Send for Pending {}

/// Drop a retired Data-record whose epoch has expired.
///
/// # Safety
///
/// `p` must hold a `DataRecord<M, I>` staged by [`retire_data`] whose
/// epoch has expired.
unsafe fn drop_data<const M: usize, I>(p: *mut u8) -> Layout {
    let rec = p as *mut DataRecord<M, I>;
    #[cfg(debug_assertions)]
    (*rec).assert_released();
    std::ptr::drop_in_place(rec);
    Layout::new::<DataRecord<M, I>>()
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
        if !self.destroy.is_empty() {
            let mut orphans = orphans().lock().unwrap();
            orphans.append(&mut self.destroy);
            ORPHANED.store(orphans.len(), Ordering::Relaxed); // ord: orphan hint, written under the lock
        }
    }
}

thread_local! {
    static POOL: RefCell<ThreadPool> = const {
        RefCell::new(ThreadPool {
            lists: Vec::new(),
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

/// Length of [`orphans`], written under its lock: a seal reads it to
/// skip the lock while the list is empty.
static ORPHANED: AtomicUsize = AtomicUsize::new(0);

/// One pool counter (see [`crate::PoolStats`] for what each counts).
#[derive(Clone, Copy)]
enum Stat {
    Hits,
    Misses,
    Defers,
    Handoffs,
}

/// One thread's pool counters. Only the owning thread bumps them, so
/// each sits on a cache line of its own and no update writes a line
/// another thread writes.
#[repr(align(64))]
struct Counters([AtomicU64; 4]);

/// Every live thread's [`Counters`], and the totals of threads that
/// exited. [`crate::pool_stats`] sums both under the lock, so a thread
/// exiting mid-snapshot is counted exactly once.
struct Registry {
    live: Vec<Arc<Counters>>,
    exited: [u64; 4],
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    live: Vec::new(),
    exited: [0; 4],
});

fn registry() -> crate::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The calling thread's counters; registered on first use and folded
/// into the exited totals at thread exit.
struct Owned(Arc<Counters>);

impl Drop for Owned {
    fn drop(&mut self) {
        let mut reg = registry();
        for (total, c) in reg.exited.iter_mut().zip(&self.0 .0) {
            *total += c.load(Ordering::Relaxed); // ord: pool stats counter; no sync role
        }
        reg.live.retain(|c| !Arc::ptr_eq(c, &self.0));
    }
}

thread_local! {
    static COUNTERS: Owned = {
        let counters = Arc::new(Counters([const { AtomicU64::new(0) }; 4]));
        registry().live.push(Arc::clone(&counters));
        Owned(counters)
    };
}

/// Add `n` to the calling thread's `stat`. A thread whose counters are
/// already torn down adds to the exited totals.
fn count(stat: Stat, n: u64) {
    let bumped = COUNTERS.try_with(|c| {
        c.0 .0[stat as usize].fetch_add(n, Ordering::Relaxed); // ord: pool stats counter; no sync role
    });
    if bumped.is_err() {
        registry().exited[stat as usize] += n;
    }
}

/// The pool counters summed over every thread, live and exited.
pub(crate) fn stats() -> [u64; 4] {
    let reg = registry();
    let mut sum = reg.exited;
    for c in &reg.live {
        for (total, v) in sum.iter_mut().zip(&c.0) {
            *total += v.load(Ordering::Relaxed); // ord: pool stats snapshot; no sync role
        }
    }
    sum
}

/// Zero every thread's counters and the exited totals.
pub(crate) fn reset_stats() {
    let mut reg = registry();
    reg.exited = [0; 4];
    for c in &reg.live {
        for v in &c.0 {
            v.store(0, Ordering::Relaxed); // ord: pool stats reset; no sync role
        }
    }
}

/// Move `value` into a block of its layout — from the thread's free
/// list when possible, else from a stolen parked shard, else from the
/// global allocator — counting the hit or miss.
pub(crate) fn alloc<T>(value: T) -> *mut T {
    // Every record starts with its `info` word.
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
    count(
        if reused.is_some() {
            Stat::Hits
        } else {
            Stat::Misses
        },
        1,
    );
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
    p
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
    let mut slot = Some(Pending {
        ptr: rec as *mut u8,
        drop: drop_data::<M, I>,
    });
    let sealed = POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        let list = &mut pool.destroy;
        list.push(slot.take().expect("entry staged at most once"));
        (list.len() >= LIMBO_BATCH).then(|| std::mem::take(list))
    });
    match sealed {
        Ok(None) => {}
        Ok(Some(batch)) => {
            defer_batch(batch, guard);
            drain_orphans(guard);
        }
        // Thread-local already destroyed (retiring during teardown of
        // another TLS destructor): defer the entry on its own.
        Err(_) => defer_batch(slot.into_iter().collect(), guard),
    }
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

/// Publish one batch; after the epoch expires, drop each record and
/// recycle its block.
fn defer_batch(batch: Vec<Pending>, guard: &Guard) {
    count(Stat::Defers, 1);

    // SAFETY: each staged record was unlinked before it was retired; by
    // the time the closure runs, no thread pinned at defer time remains
    // pinned, so no stale holder can still reach these addresses.
    unsafe {
        guard.defer_unchecked(move || {
            for entry in batch {
                recycle(entry.ptr, (entry.drop)(entry.ptr));
            }
        });
    }
}

/// Seal the current thread's partial batch (if any) with `guard`.
pub(crate) fn seal_current_thread(guard: &Guard) {
    let batch = POOL
        .try_with(|pool| std::mem::take(&mut pool.borrow_mut().destroy))
        .unwrap_or_default();
    if !batch.is_empty() {
        defer_batch(batch, guard);
    }
}

/// Defer every parked orphan (records stranded by exited threads).
/// Takes the orphan lock only when the count says there are some.
pub(crate) fn drain_orphans(guard: &Guard) {
    if ORPHANED.load(Ordering::Relaxed) == 0 {
        // ord: orphan hint; a thread's exit is joined before its orphans are awaited
        return;
    }
    let parked = {
        let mut orphans = orphans().lock().unwrap();
        ORPHANED.store(0, Ordering::Relaxed); // ord: orphan hint, written under the lock
        std::mem::take(&mut *orphans)
    };
    if !parked.is_empty() {
        count(Stat::Handoffs, parked.len() as u64);
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
