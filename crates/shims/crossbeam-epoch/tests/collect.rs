//! Inline collection across threads: several mutators collect at once,
//! and every deferred closure still runs exactly once; `Guard::flush`
//! keeps its drain contract while another thread is running a closure
//! it detached. No test here serialises on a lock: each one waits for
//! its own counters, with a deadline.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_epoch::{collect_now, pin, queued_reclaims};

fn deadline() -> Instant {
    Instant::now() + Duration::from_secs(10)
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
            // Still pinned at the closure's epoch: this flush moves the
            // bag to the global queue but cannot run the closure.
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
