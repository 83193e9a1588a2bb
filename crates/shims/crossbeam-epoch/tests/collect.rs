//! Inline collection across threads: several mutators collect at once,
//! and every deferred closure still runs exactly once; `Guard::flush`
//! keeps its drain contract while another thread is running a closure
//! it detached. A live thread's closures run only on that thread; an
//! exited thread's run once, on whichever thread collects the orphans.
//! No test here serialises on a lock: each one waits for its own
//! counters, with a deadline.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crossbeam_epoch::{collect_now, pin, queued_reclaims};

fn deadline() -> Instant {
    Instant::now() + Duration::from_secs(10)
}

/// Pins of one thread between two of its amortized collection ticks.
const TICK_PINS: usize = 64;

fn defer_bump(guard: &crossbeam_epoch::Guard, ran: &Arc<AtomicUsize>) {
    let ran = Arc::clone(ran);
    unsafe { guard.defer_unchecked(move || ran.fetch_add(1, Ordering::SeqCst)) };
}

/// A live, unpinned peer's sealed closure is the peer's to run: another
/// thread's `flush`, `collect_now` and pin ticks leave it alone, and
/// the peer's own next tick runs it.
#[test]
fn a_live_peers_closures_run_only_on_the_peer() {
    let ran = Arc::new(AtomicUsize::new(0));
    let (sealed_tx, sealed_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let peer = {
        let ran = Arc::clone(&ran);
        std::thread::spawn(move || {
            {
                let guard = pin();
                defer_bump(&guard, &ran);
                // Seals the closure into this thread's queue; still
                // pinned at its epoch, so this flush cannot run it.
                guard.flush();
            }
            sealed_tx.send(()).unwrap();
            go_rx.recv().unwrap();
            // Pin ticks only, no flush. A peer test's pin can hold one
            // tick back, never all of them.
            let until = deadline();
            while ran.load(Ordering::SeqCst) == 0 {
                assert!(Instant::now() < until, "the peer's ticks never ran it");
                for _ in 0..TICK_PINS {
                    drop(pin());
                }
            }
        })
    };
    sealed_rx.recv().unwrap();
    for _ in 0..16 {
        pin().flush();
        collect_now();
    }
    for _ in 0..4 * TICK_PINS {
        drop(pin());
    }
    assert_eq!(
        ran.load(Ordering::SeqCst),
        0,
        "another thread ran a live peer's closure"
    );
    go_tx.send(()).unwrap();
    peer.join().unwrap();
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}

/// A thread that exits with one sealed and one unsealed closure hands
/// both to the orphan list: another thread's `flush` runs each exactly
/// once, and the backlog count returns to zero.
#[test]
fn an_exited_threads_closures_are_orphaned_and_run_once() {
    let sealed = Arc::new(AtomicUsize::new(0));
    let unsealed = Arc::new(AtomicUsize::new(0));
    {
        let (sealed, unsealed) = (Arc::clone(&sealed), Arc::clone(&unsealed));
        std::thread::spawn(move || {
            let guard = pin();
            defer_bump(&guard, &sealed);
            // Pinned at the closure's epoch: sealed, not run.
            guard.flush();
            // Stays in the bag until the thread exits.
            defer_bump(&guard, &unsealed);
        })
        .join()
        .unwrap();
    }
    let until = deadline();
    while sealed.load(Ordering::SeqCst) == 0
        || unsealed.load(Ordering::SeqCst) == 0
        || queued_reclaims() > 0
    {
        assert!(
            Instant::now() < until,
            "orphans not drained: sealed {}, unsealed {}, {} queued",
            sealed.load(Ordering::SeqCst),
            unsealed.load(Ordering::SeqCst),
            queued_reclaims()
        );
        pin().flush();
    }
    for _ in 0..16 {
        pin().flush();
    }
    assert_eq!(sealed.load(Ordering::SeqCst), 1, "sealed closure ran twice");
    assert_eq!(
        unsealed.load(Ordering::SeqCst),
        1,
        "unsealed closure ran twice"
    );
}

/// 4 threads × 200 pin/defer/unpin: the amortized ticks and a final
/// flush loop run every closure exactly once and empty the queue.
#[test]
fn churn_runs_every_closure_exactly_once() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 200;
    const WANT: usize = THREADS * PER_THREAD;
    let ran = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let ran = Arc::clone(&ran);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let guard = pin();
                    let ran = Arc::clone(&ran);
                    unsafe { guard.defer_unchecked(move || ran.fetch_add(1, Ordering::SeqCst)) };
                    drop(guard);
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let until = deadline();
    while ran.load(Ordering::SeqCst) < WANT || queued_reclaims() > 0 {
        assert!(
            Instant::now() < until,
            "drain stuck: {}/{WANT} ran, {} queued",
            ran.load(Ordering::SeqCst),
            queued_reclaims()
        );
        pin().flush();
    }
    // Further collections find nothing of ours to run a second time.
    for _ in 0..16 {
        pin().flush();
    }
    assert_eq!(ran.load(Ordering::SeqCst), WANT, "a closure ran twice");
}

/// Thread A's `collect_now` detaches a closure that signals and then
/// sleeps. The main thread's `pin().flush()` must not return before
/// that closure has finished.
#[test]
fn flush_waits_for_a_closure_another_collector_detached() {
    let started = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let collector = {
        let started = Arc::clone(&started);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let guard = pin();
            let signal = Arc::clone(&started);
            unsafe {
                guard.defer_unchecked(move || {
                    signal.store(true, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(100));
                    done.store(true, Ordering::SeqCst);
                })
            };
            // Still pinned at the closure's epoch: this flush seals the
            // bag into this thread's queue but cannot run the closure.
            guard.flush();
            drop(guard);
            let until = deadline();
            while !started.load(Ordering::SeqCst) {
                assert!(Instant::now() < until, "the closure never ran");
                collect_now();
                std::thread::yield_now();
            }
        })
    };
    // The main thread must not collect the closure itself: wait until
    // some other collector has detached it and is running it.
    let until = deadline();
    while !started.load(Ordering::SeqCst) {
        assert!(Instant::now() < until, "the closure never started");
        std::thread::yield_now();
    }
    pin().flush();
    assert!(
        done.load(Ordering::SeqCst),
        "flush returned while a detached closure was still running"
    );
    collector.join().unwrap();
}
