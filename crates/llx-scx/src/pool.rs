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
//! # One path
//!
//! Blocks are untyped and keyed by [`Layout`]: each thread keeps one
//! free list per layout, so a block is only ever reused for a record of
//! the layout it was allocated with. Which record *type*, domain or
//! structure produced a block is irrelevant to whoever reuses it: a
//! block is recycled only after its destruction epoch expired, so it is
//! plain dead memory.
//!
//! [`retire_data`] pushes the record onto the thread's destruction
//! list; every [`LIMBO_BATCH`] entries share *one* `defer_unchecked`.
//! The epoch shim runs a deferred closure on the thread that deferred
//! it, so when the batch matures each record is dropped in place and its
//! block cached on the *retiring* thread's free list for its layout,
//! or, past [`FREE_CAP`], returned to the allocator. [`dealloc_data`]
//! (never published) drops in place and recycles at once. Allocation
//! ([`alloc`]) pops from that free list and `ptr::write`s the fresh
//! record into the block, skipping the allocator entirely; on an empty
//! free list it calls the allocator. There is no other path: no block
//! moves between threads' free lists.
//!
//! Memory bound: a thread holds at most [`FREE_CAP`] free blocks per
//! layout, and only blocks that it retired or deallocated itself. Its
//! free lists go back to the allocator when it exits.
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
//! orphans and mature on whichever thread collects them. Adopted
//! orphans are the only records that change threads, and the
//! `handoffs` counter counts them.
//!
//! The counters behind [`crate::pool_stats`] are per thread too: each
//! thread bumps its own cache line, and a snapshot sums the live
//! threads' counters with the totals that exited threads left behind.
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
//! * **[`FREE_CAP`] sized to one epoch tick** (the count is on the
//!   const). A netsvc session pins once per 16-op batch and its epoch
//!   tick comes every 64th pin, so one collection matures about 1 000
//!   ops' blocks at once. At the former cap of 256, with no handoff
//!   behind it, two traced seed-7 `net-scan` runs read `pool_hit_rate`
//!   0.31; at 8192 it reads 0.999.
//! * **no cross-thread handoff.** A full free list used to overflow
//!   into 16-block bundles on one global mutex-guarded list, and a
//!   thread that missed took a whole bundle before the allocator. It won
//!   `mem-contend` 1.13 M vs 0.76 M ops/s when a batch matured on
//!   whichever thread collected it. Since batches mature on the
//!   retiring thread, it carried next to nothing across threads: on
//!   `net-scan`, 5.75 M blocks were stolen back by the thread that had
//!   parked them, against 1 016 by another thread (one traced seed-7
//!   run). Deleted, with the cap raised from 256. Medians of 10
//!   alternating pairs, seed 7: `mem-contend` `ops_per_s` 3.19 M →
//!   3.20 M (the workload that once justified the handoff);
//!   `net-scan` `pool_hit_rate` 0.959 → 0.999 and
//!   `pool_handoffs_per_op` 0.52 → 0.

use crate::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
use std::alloc::Layout;
use std::cell::RefCell;
use std::sync::{Arc, OnceLock, PoisonError};

use crossbeam_epoch::Guard;

use crate::record::DataRecord;

/// Number of retired records that trigger one batched defer.
const LIMBO_BATCH: usize = 32;

/// Maximum blocks cached per thread and layout; beyond this, a recycled
/// block goes back to the allocator. Sized to what one epoch tick
/// matures on a thread that pins once per 16-op batch: the most blocks
/// of one layout a single collection returned to the `net-scan` writer
/// session was 7 648 (seed 7, 37 sessions over seven 18 s runs, on
/// 2 vCPUs).
const FREE_CAP: usize = 8192;

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

/// Keep one dead block for reuse on the calling thread's free list for
/// its layout while that has room; otherwise return it to the
/// allocator.
///
/// # Safety
///
/// `p` must be a dead block allocated with `layout`, owned by the
/// caller.
unsafe fn recycle(p: *mut u8, layout: Layout) {
    let kept = POOL.try_with(|pool| {
        let mut pool = pool.borrow_mut();
        let free = keyed(&mut pool.free, layout);
        let room = free.len() < FREE_CAP;
        if room {
            free.push(p);
        }
        room
    });
    // Past the cap, or the thread-local is already destroyed.
    if !kept.unwrap_or(false) {
        std::alloc::dealloc(p, layout);
    }
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

struct ThreadPool {
    /// Dead blocks past their epoch, per layout.
    free: Keyed<Vec<*mut u8>>,
    destroy: Vec<Pending>,
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Free blocks hold no record (already destroyed in place) and
        // are past their epoch: return them to the allocator.
        for (layout, free) in std::mem::take(&mut self.free) {
            for p in free {
                // SAFETY: pooled blocks are dead and were allocated with `layout`.
                unsafe { std::alloc::dealloc(p, layout) };
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
            free: Vec::new(),
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
/// list when possible, else from the global allocator — counting the
/// hit or miss.
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
        POOL.try_with(|pool| keyed(&mut pool.borrow_mut().free, layout).pop())
            .ok()
            .flatten()
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
    // SAFETY: the block is unaliased (fresh, or popped from the free
    // list past its retirement epoch) and has `T`'s layout.
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

    /// The calling thread's `stat` count.
    fn own(stat: Stat) -> u64 {
        COUNTERS.with(|c| c.0 .0[stat as usize].load(Ordering::Relaxed)) // ord: test reads its own counter
    }

    /// A thread keeps at most `FREE_CAP` recycled blocks per layout and
    /// returns the rest to the allocator: of `2 × FREE_CAP` blocks given
    /// back at once, exactly `FREE_CAP` are reused.
    #[test]
    fn the_free_list_keeps_free_cap_blocks_and_frees_the_rest() {
        // A fresh thread: its free lists start empty, and its counters
        // are its own whatever the test harness's threading.
        std::thread::spawn(|| {
            type Block = [u64; 7];
            let layout = Layout::new::<Block>();
            let burst = |n| (0..n).map(|_| alloc::<Block>([0; 7])).collect::<Vec<_>>();
            for p in burst(2 * FREE_CAP) {
                // SAFETY: `p` is a dead block of `layout` owned here.
                unsafe { recycle(p as *mut u8, layout) };
            }
            let (hits, misses) = (own(Stat::Hits), own(Stat::Misses));
            let again = burst(2 * FREE_CAP);
            assert_eq!(own(Stat::Hits) - hits, FREE_CAP as u64);
            assert_eq!(own(Stat::Misses) - misses, FREE_CAP as u64);
            for p in again {
                // SAFETY: as above; the thread's exit frees them.
                unsafe { recycle(p as *mut u8, layout) };
            }
        })
        .join()
        .unwrap();
    }

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
