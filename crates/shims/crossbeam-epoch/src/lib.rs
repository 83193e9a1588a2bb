//! Offline stand-in for the `crossbeam-epoch` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! implements the subset of the `crossbeam-epoch` API the workspace uses
//! — [`pin`], [`Guard`], [`Guard::defer_unchecked`] and [`Guard::flush`]
//! — backed by a real (if simple) global-epoch reclamation scheme:
//!
//! * a global epoch counter;
//! * one registered slot per participating thread publishing the epoch
//!   it pinned at (or "inactive");
//! * per-thread *bags* of deferred closures, each tagged with the epoch
//!   at which it was deferred — the defer hot path touches only
//!   thread-local state, so the non-blocking primitives built on top
//!   are not serialized through a shared lock;
//! * per-thread *queues* that a thread seals its bag into (when the bag
//!   fills, on [`Guard::flush`] and on the periodic collection tick).
//!   Only the owning thread runs its queue, so garbage matures on the
//!   thread that made it, and one thread's tags never decrease: the
//!   queue is oldest-first;
//! * a mutex-protected global *orphan list*, used only when a thread can
//!   no longer run its own closures: at thread exit, and for a closure
//!   deferred while the thread's local state is being torn down. An
//!   atomic count of orphans lets collectors skip the lock while the
//!   list is empty.
//!
//! A queued closure runs once every currently-pinned thread is pinned at
//! a *later* epoch than its tag, which implies no thread that could
//! still reach the retired object remains pinned. Collection is
//! amortized into [`pin`] (every [`COLLECT_EVERY`]-th outermost pin
//! advances the epoch and runs the caller's ready closures and any ready
//! orphans), so long-running processes reclaim memory without ever
//! calling [`Guard::flush`]; `flush` remains the way tests drain
//! deterministically. A thread that stops pinning keeps its sealed
//! closures until it pins again or exits.
//!
//! # The tick runs only when it can matter
//!
//! A tick is due when one of these holds:
//!
//! * the caller's bag or queue is non-empty (it has garbage to run);
//! * orphans wait (`Backlog::orphaned != 0`);
//! * some thread deferred at the current epoch (`Backlog::deferred_at`),
//!   so its garbage waits for the epoch to move. A live peer's closures
//!   run only on the peer, but the peer's tick can run them only once
//!   every pinned reader has re-pinned past their tag, and a reader's
//!   tick is what moves the epoch under a peer that pins rarely (a
//!   netsvc session pins once per batch). The word is a hint that a
//!   race can leave stale, which delays that help by at most one of the
//!   deferring thread's own ticks (see `Backlog::deferred_at`).
//!
//! Otherwise the tick is skipped outright: no epoch bump, no slots
//! mutex, no slot scan. An idle [`pin`] therefore costs one locked
//! instruction (the SeqCst slot announce) and writes no shared cache
//! line; the unpin is a plain `Release` store. The gate changes only
//! *when* a collection runs, never the bound it frees under.
//!
//! # Why the pin and unpin orderings suffice
//!
//! The protocol is crossbeam-epoch's, after Fraser's epoch scheme
//! ("Practical lock-freedom", 2004).
//!
//! * **Pin.** The epoch load, the slot announce and the epoch re-load
//!   are SeqCst, and so are a collector's `fetch_add` on the epoch and
//!   its slot loads. SeqCst accesses fall in one total order S. If a
//!   collector's slot load precedes the announce in S, then its
//!   `fetch_add` precedes the re-load too, so the re-load sees the bumped
//!   epoch (or a later one): the pin keeps an epoch of at least that
//!   collector's `epoch_now` (or retries until it does), which the
//!   collector's `limit` already bounds. If the
//!   slot load follows the announce, the collector sees the pin. No
//!   fence is needed between announce and re-load: S alone excludes the
//!   store-buffering outcome (both loads missing both stores).
//! * **Unpin.** The slot store of `INACTIVE` is `Release`. A collector
//!   whose SeqCst slot load reads `INACTIVE` synchronizes-with it, so
//!   everything the reader did under its guard happens-before whatever
//!   that collector frees afterwards. A collector that reads the older,
//!   pinned value only holds garbage back longer.
//!
//! `modelcheck` runs every access at SeqCst, so it checks the pin
//! argument but cannot check the `Release` unpin; the argument above is
//! the proof for that one.
//!
//! Deferred closures may themselves pin and defer; the collector runs
//! closures outside all internal locks and thread-local borrows to keep
//! that re-entrancy safe. One caller relies on it: the `mwcas` kCAS
//! baseline, whose RDCSS descriptor's drop (run as a deferred closure)
//! pins and releases its reference on the kCAS descriptor, deferring
//! that descriptor's free when it was the last. The `llx-scx` path does
//! not re-enter: its deferred closures only drop Data-records and
//! recycle their blocks.
//!
//! # One collection mode: inline, on the owner
//!
//! Collection runs inline, on the thread whose pin reaches the tick: it
//! advances the epoch, takes the minimum pinned slot and runs that
//! thread's own ready closures (plus ready orphans) before it publishes
//! its own pin. There is no per-tick budget and no collector thread,
//! and no thread runs a live peer's garbage. The LLX/SCX structures only
//! need a record to stay allocated while some thread can still reach
//! it, and Brown's reclamation scheme for the same trees (DEBRA, PODC
//! 2015) does that with per-thread limbo bags, one path and no
//! collector thread. Several threads may still run orphans at once, so
//! [`Guard::flush`] waits for closures another collector detached
//! before it returns: a `flush` loop drains the caller's queue and the
//! orphans to quiescence.

#![warn(missing_docs)]

use crate::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

pub(crate) mod sync;

/// Slot value meaning "this thread is not pinned".
const INACTIVE: u64 = u64::MAX;

/// Seal a thread's bag into its queue at this size.
const BAG_FLUSH: usize = 64;

/// Run a collection on every Nth outermost [`pin`].
const COLLECT_EVERY: u64 = 64;

struct Slot {
    epoch: AtomicU64,
}

/// A deferred closure. The `Send` assertion is the caller's promise made
/// through the `unsafe` contract of [`Guard::defer_unchecked`]: the
/// closure may be run by another thread when its owner exits first.
struct Deferred(Box<dyn FnOnce()>);
unsafe impl Send for Deferred {}

/// Cache-line aligned: every `pin` reads `epoch` and the enclosing
/// `OnceLock`'s state word, and every collection tick writes `epoch` and
/// the slots mutex. A tick runs only when one is due (the caller has
/// garbage, orphans wait, or some thread deferred at the current epoch;
/// see the module docs), so pins in a process that retires nothing never
/// write this line (a thread's first pin and its exit still take the
/// slots mutex). As a plain 8-aligned static the struct
/// straddled two lines at a link-order-dependent offset; at 3 of the 8
/// possible offsets a mutex shared a line with the state word, so each tick
/// invalidated a second line under every other thread's next pin
/// (`mem-read` p99 630 ns vs 830 ns for the same source built in two
/// directories). Aligned, the written fields share line 0 and the state
/// word sits in a line nothing writes.
#[repr(align(64))]
struct Global {
    epoch: AtomicU64,
    slots: Mutex<Vec<Arc<Slot>>>,
}

fn global() -> &'static Global {
    static GLOBAL: OnceLock<Global> = OnceLock::new();
    GLOBAL.get_or_init(|| Global {
        epoch: AtomicU64::new(0),
        slots: Mutex::new(Vec::new()),
    })
}

/// Closures that are sealed but not yet run, and the orphan list. Kept
/// off [`Global`]'s line: `queued` changes on every sealed bag, and that
/// line is read by every `pin`.
#[repr(align(64))]
struct Backlog {
    /// Sealed, unrun closures across all threads: every thread's queue
    /// plus the orphan list.
    queued: AtomicUsize,
    /// `orphans.len()`, written under its lock; collectors read it
    /// before taking the lock.
    orphaned: AtomicUsize,
    /// The epoch some thread last deferred at ([`INACTIVE`] before the
    /// first defer). While it equals the global epoch, every pin tick is
    /// due, so idle threads move the epoch the new garbage waits on. A
    /// thread writes it at most once per epoch (`Local::deferred_at`
    /// remembers its last write), and only pin ticks read it.
    ///
    /// It is a plain store of an epoch read earlier, not a max, so it can
    /// go stale: thread A reads epoch e, thread B moves the epoch to
    /// e + 1 and stores e + 1 after deferring, then A stores e over it.
    /// Idle ticks are then not due for B's garbage, and B does not
    /// rewrite the word within e + 1. B holds garbage, though, so B's
    /// own next tick is due and moves the epoch; the next defer after
    /// that stores a current value again. A stale value therefore only
    /// delays help, by at most one of the deferring thread's tick
    /// intervals, and never lets anything be freed early: what a
    /// collection frees is bounded by `collect`'s `limit`, which this
    /// word does not enter.
    deferred_at: AtomicU64,
    /// Closures whose thread exited before it could run them. Their
    /// tags come from many threads, so the list is not ordered.
    orphans: Mutex<Vec<(u64, Deferred)>>,
}

static BACKLOG: Backlog = Backlog {
    queued: AtomicUsize::new(0),
    orphaned: AtomicUsize::new(0),
    deferred_at: AtomicU64::new(INACTIVE),
    orphans: Mutex::new(Vec::new()),
};

/// Sealed closures not yet run, across all threads: every thread's own
/// queue plus the orphan list (closures still in a thread's unsealed bag
/// are not counted). Shim extension, for tests and observability.
pub fn queued_reclaims() -> usize {
    BACKLOG.queued.load(Ordering::SeqCst) // ord: SC backlog count read; tests wait for it to reach 0
}

/// The current global epoch. Only a collection (a due pin tick,
/// [`Guard::flush`] or [`collect_now`]) advances it, so a process whose
/// threads retire nothing sees it stand still. Shim extension, for
/// tests and observability.
pub fn global_epoch() -> u64 {
    global().epoch.load(Ordering::SeqCst) // ord: SC epoch read; tests compare it across pins
}

/// Run one collection from the calling thread *without* pinning it
/// first. Shim extension for the model-checking scenarios: the
/// interesting pin/collect races need a collector that is not itself
/// protected by a pin, which `Guard::flush` (pin-then-collect) can never
/// express. Like every collection it runs only the caller's own ready
/// closures and ready orphans. Returns how many deferred closures ran.
pub fn collect_now() -> usize {
    collect()
}

/// Closures detached by some collector but not yet finished running.
/// [`Guard::flush`] waits on this; exposed for tests.
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Depth of deferred closures currently running on this thread; a
    /// `flush` from inside one must not wait for `IN_FLIGHT` to reach
    /// zero (it includes the closure itself).
    static RUNNING_CLOSURES: Cell<usize> = const { Cell::new(0) };
}

struct Local {
    slot: Arc<Slot>,
    pins: Cell<usize>,
    total_pins: Cell<u64>,
    bag: RefCell<Vec<(u64, Deferred)>>,
    /// Sealed bags, oldest first; only this thread runs them.
    queue: RefCell<VecDeque<(u64, Deferred)>>,
    /// The epoch this thread last wrote to `Backlog::deferred_at`.
    deferred_at: Cell<u64>,
}

impl Local {
    /// Whether this pin's collection tick can do anything: run the
    /// caller's garbage, adopt orphans, or move an epoch that a
    /// thread's fresh garbage waits on. Must not be called with `bag`
    /// or `queue` mutably borrowed.
    fn tick_due(&self) -> bool {
        !self.bag.borrow().is_empty()
            || !self.queue.borrow().is_empty()
            // ord: Relaxed hint: a stale 0 delays a tick; freeing is bounded by collect's limit
            || BACKLOG.orphaned.load(Ordering::Relaxed) != 0
            // ord: Relaxed hint: a stale value delays or adds a tick; freeing is bounded by collect's limit
            || BACKLOG.deferred_at.load(Ordering::Relaxed)
                // ord: Relaxed hint: compared with deferred_at only to gate the tick
                == global().epoch.load(Ordering::Relaxed)
    }

    /// Move the bag's contents to this thread's queue. Must not be
    /// called with `bag` or `queue` borrowed.
    fn seal_bag(&self) {
        let mut bag = self.bag.borrow_mut();
        if !bag.is_empty() {
            let sealed = bag.len();
            self.queue.borrow_mut().extend(bag.drain(..));
            BACKLOG.queued.fetch_add(sealed, Ordering::SeqCst); // ord: SC backlog count; read by queued_reclaims
        }
    }

    /// Detach this thread's closures tagged before `limit` into `ready`.
    /// The queue is oldest-first, so the scan stops at the first
    /// closure that is not ready: a tick costs O(ready), not O(queue).
    fn take_ready(&self, limit: u64, ready: &mut Vec<Deferred>) {
        let mut queue = self.queue.borrow_mut();
        while let Some((epoch, _)) = queue.front() {
            if *epoch >= limit {
                break;
            }
            let (_, d) = queue.pop_front().expect("front was Some");
            ready.push(d);
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        // Thread exit: this thread runs nothing more, so hand its sealed
        // and unsealed closures to the orphan list for another thread's
        // collection, and deregister the slot so the registry (scanned
        // by every collection while holding its mutex) does not grow
        // with every thread ever spawned.
        let unsealed = self.bag.get_mut().len();
        let mut left: Vec<_> = self.queue.get_mut().drain(..).collect();
        left.append(self.bag.get_mut());
        orphan(left, unsealed);
        global()
            .slots
            .lock()
            .unwrap()
            .retain(|s| !Arc::ptr_eq(s, &self.slot));
    }
}

/// Put closures on the orphan list; `unsealed` of them were not yet
/// counted in [`queued_reclaims`].
fn orphan(items: Vec<(u64, Deferred)>, unsealed: usize) {
    if items.is_empty() {
        return;
    }
    let mut orphans = BACKLOG.orphans.lock().unwrap();
    orphans.extend(items);
    BACKLOG.orphaned.store(orphans.len(), Ordering::SeqCst); // ord: SC orphan count, written under its lock
    if unsealed > 0 {
        BACKLOG.queued.fetch_add(unsealed, Ordering::SeqCst); // ord: SC backlog count; read by queued_reclaims
    }
}

/// Detach the orphans tagged before `limit` into `ready`. Takes the
/// lock only when the count says there are orphans.
fn take_ready_orphans(limit: u64, ready: &mut Vec<Deferred>) {
    if BACKLOG.orphaned.load(Ordering::SeqCst) == 0 {
        // ord: SC orphan count; skips the lock when the list is empty
        return;
    }
    let mut orphans = BACKLOG.orphans.lock().unwrap();
    let mut i = 0;
    while i < orphans.len() {
        if orphans[i].0 < limit {
            ready.push(orphans.swap_remove(i).1);
        } else {
            i += 1;
        }
    }
    BACKLOG.orphaned.store(orphans.len(), Ordering::SeqCst); // ord: SC orphan count, written under its lock
}

thread_local! {
    static LOCAL: Local = {
        let slot = Arc::new(Slot {
            epoch: AtomicU64::new(INACTIVE),
        });
        global().slots.lock().unwrap().push(Arc::clone(&slot));
        Local {
            slot,
            pins: Cell::new(0),
            total_pins: Cell::new(0),
            bag: RefCell::new(Vec::new()),
            queue: RefCell::new(VecDeque::new()),
            deferred_at: Cell::new(INACTIVE),
        }
    };
}

/// A handle keeping the current thread pinned to an epoch.
///
/// While any `Guard` of a thread is alive, no object retired at this or
/// a later epoch is destroyed, so shared pointers read under the guard
/// stay dereferenceable.
pub struct Guard {
    /// Guards unpin through thread-local state, so they must stay on the
    /// thread that created them.
    _not_send: PhantomData<*mut ()>,
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Guard").finish_non_exhaustive()
    }
}

/// Pin the current thread: publish the global epoch into this thread's
/// slot and return a [`Guard`] that keeps it published. Re-entrant; only
/// the outermost pin writes the slot. Every [`COLLECT_EVERY`]-th
/// outermost pin also runs a collection (while still unpinned) if one
/// is due: the caller has garbage, orphans wait, or some thread deferred
/// at the current epoch. That bounds the memory held by deferred
/// destructions without any explicit [`Guard::flush`], and leaves a
/// thread that retires nothing with one locked instruction per pin and
/// no shared write (module docs, "The tick runs only when it can
/// matter").
///
/// The announce is a SeqCst slot store between two SeqCst loads of the
/// epoch, with no fence. A collector's epoch bump and slot scan are
/// SeqCst too, so if its scan misses the announce, its bump precedes
/// the re-load in their one total order. The re-load sees that bump, so
/// the epoch the pin keeps is at least the one the collector installed,
/// which the collector's free bound already covers.
pub fn pin() -> Guard {
    LOCAL.with(|local| {
        let pins = local.pins.get();
        if pins == 0 {
            let total = local.total_pins.get().wrapping_add(1);
            local.total_pins.set(total);
            // Injected collect delay: skip this amortized tick — the
            // bag stays buffered and garbage ages, exactly a stalled
            // collector. The fault is offered only on a tick that would
            // run. `Guard::flush`/`collect_now` are deliberately not
            // injectable: deterministic drains (leak checks,
            // `flush_reclamation`) must stay deterministic.
            if total % COLLECT_EVERY == 0
                && local.tick_due()
                && !faultpoint::fire("epoch.tick.skip")
            {
                // Not yet pinned: our own slot does not hold back the
                // collection, and re-entrant pins from closures nest
                // above pins == 0 correctly.
                local.seal_bag();
                collect();
            }
            // Publish the epoch, then re-check it: if the global epoch
            // moved while we were publishing, a concurrent collector may
            // have missed our slot, so publish the newer value instead.
            // No fence between announce and re-load (see the docs above).
            loop {
                let e = global().epoch.load(Ordering::SeqCst); // ord: SC pin: epoch read before announce
                local.slot.epoch.store(e, Ordering::SeqCst); // ord: SC pin: announce slot epoch; SC order with the re-load replaces a fence
                if global().epoch.load(Ordering::SeqCst) == e {
                    // ord: SC pin: validate epoch after announce
                    break;
                }
            }
        }
        local.pins.set(local.pins.get() + 1);
    });
    Guard {
        _not_send: PhantomData,
    }
}

impl Guard {
    /// Defer a closure until every thread currently pinned has unpinned.
    ///
    /// The closure lands in this thread's local bag (no shared lock);
    /// full bags are sealed into this thread's queue.
    ///
    /// # Safety
    ///
    /// The caller must guarantee the closure is safe to run on any thread
    /// once all threads pinned at defer time have unpinned — in
    /// particular, that the object it frees is unreachable to any thread
    /// that pins afterwards, and that it is deferred at most once.
    pub unsafe fn defer_unchecked<F, R>(&self, f: F)
    where
        F: FnOnce() -> R,
    {
        let epoch = global().epoch.load(Ordering::SeqCst); // ord: SC epoch read stamps the deferred node
        let boxed: Box<dyn FnOnce() + '_> = Box::new(move || {
            let _ = f();
        });
        // Erase the lifetime: the caller's contract (above) is exactly
        // the promise that the closure and its captures remain valid
        // until the collector runs it. Real crossbeam-epoch likewise
        // accepts non-'static closures here.
        let boxed: Box<dyn FnOnce()> =
            std::mem::transmute::<Box<dyn FnOnce() + '_>, Box<dyn FnOnce() + 'static>>(boxed);
        let mut item = Some((epoch, Deferred(boxed)));
        let _ = LOCAL.try_with(|local| {
            if local.deferred_at.get() != epoch {
                // Once per epoch per deferring thread: idle threads'
                // ticks now move the epoch this closure waits on.
                local.deferred_at.set(epoch);
                BACKLOG.deferred_at.store(epoch, Ordering::Relaxed); // ord: Relaxed hint read only by tick_due; no data is published through it
            }
            let full = {
                let mut bag = local.bag.borrow_mut();
                bag.push(item.take().expect("item pushed at most once"));
                bag.len() >= BAG_FLUSH
            };
            if full {
                local.seal_bag();
            }
        });
        if let Some(stranded) = item {
            // Thread-local already destroyed (defer during thread
            // teardown): orphan it so another thread still runs it.
            orphan(vec![stranded], 1);
        }
    }

    /// Seal this thread's bag, advance the global epoch and run every
    /// closure of this thread's queue, and every orphan, whose epoch is
    /// now strictly older than all pinned threads'. A live peer's
    /// closures are the peer's to run.
    ///
    /// Repeatedly calling `pin().flush()` drains the caller's queue and
    /// the orphans: each call pins at a fresh epoch, so older tags fall
    /// below the minimum. Unless called from inside a deferred closure,
    /// `flush` also waits for closures that a concurrent collector
    /// (another thread's `pin` tick, `flush` or [`collect_now`]) has
    /// detached to finish, so a `flush` loop reaches quiescence even
    /// while other threads collect.
    pub fn flush(&self) {
        let _ = LOCAL.try_with(Local::seal_bag);
        collect();
        if RUNNING_CLOSURES.with(Cell::get) == 0 {
            while IN_FLIGHT.load(Ordering::SeqCst) > 0 {
                // ord: SC drain handshake with executors
                std::thread::yield_now();
            }
        }
    }
}

impl Drop for Guard {
    /// Unpin: the outermost guard stores `INACTIVE` into the thread's
    /// slot with `Release`, a plain store. A collector whose SeqCst slot
    /// load reads `INACTIVE` synchronizes-with it, so every access made
    /// under the guard happens-before anything that collector frees; a
    /// collector that reads the older, pinned value only waits longer.
    fn drop(&mut self) {
        // `try_with`: guards dropped during thread teardown must not
        // re-initialize the destroyed thread-local.
        let _ = LOCAL.try_with(|local| {
            let pins = local.pins.get();
            debug_assert!(pins > 0, "unpinning an unpinned thread");
            if pins == 1 {
                // ord: Release unpin: a collector's SC slot load that reads INACTIVE synchronizes-with
                // this store, so every access made under the guard happens-before what that collector
                // frees; a collector that reads the stale pinned value only waits longer
                local.slot.epoch.store(INACTIVE, Ordering::Release);
            }
            local.pins.set(pins - 1);
        });
    }
}

/// Advance the global epoch and run the calling thread's ready closures
/// and the ready orphans (the rest stay queued). Returns how many ran.
fn collect() -> usize {
    let g = global();
    let epoch_now = g.epoch.fetch_add(1, Ordering::SeqCst) + 1; // ord: SC epoch advance; collectors race on this
    let min_pinned = {
        let slots = g.slots.lock().unwrap();
        slots
            .iter()
            .map(|s| s.epoch.load(Ordering::SeqCst)) // ord: SC scan of pinned slots; pairs with pin announce
            .min()
            .unwrap_or(INACTIVE)
    };
    // A closure may run only when its tag is strictly older than every
    // pinned thread AND strictly older than the epoch this collection
    // just created. The second bound closes a TOCTOU: a thread pinning
    // concurrently with the slot scan above can be missed by it, but
    // such a thread always publishes `epoch_now` (the pin verify loop
    // re-checks the counter), so anything it could still reach was
    // deferred with tag >= epoch_now and stays queued. A thread's own
    // closures were deferred before this scan, so only orphans (deferred
    // by a thread that may have exited after the scan) need the bound.
    #[cfg(not(llx_model_bugs))]
    let limit = min_pinned.min(epoch_now);
    // Model-checker regression gate: reopen the TOCTOU by dropping the
    // `epoch_now` bound, so a pin racing the slot scan above is unprotected.
    #[cfg(llx_model_bugs)]
    let limit = {
        let _ = epoch_now;
        min_pinned
    };
    // Detach the ready closures first, then run them with no lock or
    // thread-local borrow held: closures may re-enter
    // pin/defer_unchecked/flush. `IN_FLIGHT` covers the
    // detached-but-unfinished window so a concurrent `flush` cannot
    // declare quiescence while this collector still holds work; it is
    // raised before `queued` drops, so no observer sees the work in
    // neither count.
    let mut ready = Vec::new();
    let _ = LOCAL.try_with(|local| local.take_ready(limit, &mut ready));
    take_ready_orphans(limit, &mut ready);
    let ran = ready.len();
    if ran > 0 {
        IN_FLIGHT.fetch_add(ran, Ordering::SeqCst); // ord: SC in-flight accounting; pairs with flush drain
        BACKLOG.queued.fetch_sub(ran, Ordering::SeqCst); // ord: SC backlog count; read by queued_reclaims
    }
    for d in ready {
        RUNNING_CLOSURES.with(|c| c.set(c.get() + 1));
        // A panicking closure must not strand the counters (they are
        // process-global state shared with every other test in the
        // binary); restore them even on unwind.
        struct InFlightGuard;
        impl Drop for InFlightGuard {
            fn drop(&mut self) {
                RUNNING_CLOSURES.with(|c| c.set(c.get() - 1));
                IN_FLIGHT.fetch_sub(1, Ordering::SeqCst); // ord: SC in-flight accounting; pairs with flush drain
            }
        }
        let _guard = InFlightGuard;
        (d.0)();
    }
    ran
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    /// Flush until this test's own counter reaches `want`. Other tests
    /// in the binary run in parallel and may hold a pin for a while
    /// (`pinned_peer_blocks_collection` does on purpose), which delays
    /// but never prevents the drain; a stuck drain panics after 10 s.
    fn drain_until(ran: &AtomicUsize, want: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            pin().flush();
            let got = ran.load(Ordering::SeqCst); // ord: test counter; exactness over speed
            if got >= want {
                assert_eq!(got, want, "a deferred closure ran twice");
                return;
            }
            assert!(Instant::now() < deadline, "drain stuck at {got}/{want}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn deferred_runs_after_unpin_and_flush() {
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let guard = pin();
            let ran2 = Arc::clone(&ran);
            unsafe { guard.defer_unchecked(move || ran2.fetch_add(1, Ordering::SeqCst)) }; // ord: test counter; exactness over speed
                                                                                           // Still pinned: a flush now must not run it.
            guard.flush();
            assert_eq!(ran.load(Ordering::SeqCst), 0); // ord: test counter; exactness over speed
        }
        drain_until(&ran, 1);
    }

    #[test]
    fn pinned_peer_blocks_collection() {
        let ran = Arc::new(AtomicUsize::new(0));
        let hold = Arc::new(std::sync::Barrier::new(2));
        let release = Arc::new(std::sync::Barrier::new(2));
        let peer = {
            let hold = Arc::clone(&hold);
            let release = Arc::clone(&release);
            std::thread::spawn(move || {
                let _guard = pin();
                hold.wait();
                release.wait();
            })
        };
        hold.wait(); // peer is pinned now
        {
            let guard = pin();
            let ran2 = Arc::clone(&ran);
            unsafe { guard.defer_unchecked(move || ran2.fetch_add(1, Ordering::SeqCst)) };
            // ord: test counter; exactness over speed
        }
        for _ in 0..16 {
            pin().flush();
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0, "peer still pinned"); // ord: test counter; exactness over speed
        release.wait();
        peer.join().unwrap();
        drain_until(&ran, 1);
    }

    #[test]
    fn deferring_from_a_deferred_closure_works() {
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let guard = pin();
            let ran2 = Arc::clone(&ran);
            unsafe {
                guard.defer_unchecked(move || {
                    let inner = pin();
                    let ran3 = Arc::clone(&ran2);
                    inner.defer_unchecked(move || ran3.fetch_add(1, Ordering::SeqCst));
                    // ord: test counter; exactness over speed
                })
            };
        }
        drain_until(&ran, 1);
    }

    #[test]
    fn reentrant_pin_counts() {
        let a = pin();
        let b = pin();
        drop(a);
        // Still pinned through b.
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        unsafe { b.defer_unchecked(move || ran2.fetch_add(1, Ordering::SeqCst)) }; // ord: test counter; exactness over speed
        b.flush();
        assert_eq!(ran.load(Ordering::SeqCst), 0); // ord: test counter; exactness over speed
        drop(b);
        drain_until(&ran, 1);
    }

    #[test]
    fn pin_only_loop_reclaims_without_flush() {
        // The amortized collection inside pin() must reclaim deferred
        // objects even when nobody ever calls flush() — the product
        // crates only pin and defer.
        let ran = Arc::new(AtomicUsize::new(0));
        const N: usize = 1000;
        for _ in 0..N {
            let guard = pin();
            let ran2 = Arc::clone(&ran);
            unsafe { guard.defer_unchecked(move || ran2.fetch_add(1, Ordering::SeqCst)) };
            // ord: test counter; exactness over speed
        }
        // Loop some more pins with no defers so collection ticks fire.
        // A peer test may hold a pin for a while, so retry the ticks
        // within a bounded grace period instead of checking once.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            for _ in 0..(COLLECT_EVERY as usize * 4) {
                let _ = pin();
            }
            let reclaimed = ran.load(Ordering::SeqCst); // ord: test counter; exactness over speed
            if reclaimed >= N / 2 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "amortized collection reclaimed only {reclaimed}/{N}"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn thread_exit_hands_bag_to_global() {
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        std::thread::spawn(move || {
            let guard = pin();
            // Fewer than BAG_FLUSH items: they stay in the local bag
            // until the thread exits.
            unsafe { guard.defer_unchecked(move || ran2.fetch_add(1, Ordering::SeqCst)) };
            // ord: test counter; exactness over speed
        })
        .join()
        .unwrap();
        drain_until(&ran, 1);
    }
}
