//! The pin tick is gated on pending garbage. Its own binary, one test:
//! any peer test that defers, flushes or exits would move the epoch
//! this test watches.
//!
//! Three phases on one idle thread (it never defers):
//!
//! 1. with nothing deferred anywhere, its pins leave the epoch alone;
//! 2. a live, parked peer defers one closure, and the idle thread's pin
//!    ticks move the epoch that closure waits on;
//! 3. once the peer exits, its closure is an orphan, and the idle
//!    thread's pin ticks alone (no `flush`) run it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use crossbeam_epoch::{global_epoch, pin, queued_reclaims};

/// Pins of one thread between two of its amortized collection ticks.
const TICK_PINS: usize = 64;

/// Outermost pins on the calling thread, each dropped at once.
fn idle_pins(n: usize) {
    for _ in 0..n {
        drop(pin());
    }
}

#[test]
fn idle_pins_tick_only_when_garbage_waits() {
    std::thread::spawn(|| {
        // Phase 1. Drain, then pin with nothing deferred: every tick
        // finds nothing to run, no orphan and no fresh defer.
        for _ in 0..4 {
            pin().flush();
        }
        assert_eq!(queued_reclaims(), 0);
        let before = global_epoch();
        idle_pins(8 * TICK_PINS);
        assert_eq!(
            global_epoch(),
            before,
            "an idle thread's pins advanced the epoch with no garbage anywhere"
        );

        // Phase 2. A live peer defers at the current epoch, unpins and
        // parks without collecting.
        let ran = Arc::new(AtomicUsize::new(0));
        let (deferred_tx, deferred_rx) = mpsc::channel();
        let (exit_tx, exit_rx) = mpsc::channel::<()>();
        let peer = {
            let ran = Arc::clone(&ran);
            std::thread::spawn(move || {
                {
                    let guard = pin();
                    unsafe { guard.defer_unchecked(move || ran.fetch_add(1, Ordering::SeqCst)) };
                }
                deferred_tx.send(()).unwrap();
                exit_rx.recv().unwrap();
            })
        };
        deferred_rx.recv().unwrap();
        let tagged = global_epoch();
        idle_pins(8 * TICK_PINS);
        assert!(
            global_epoch() > tagged,
            "the idle thread never moved the epoch a live peer's closure waits on"
        );
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "a live peer's closure is its own"
        );

        // Phase 3. The peer exits: its unsealed closure becomes an
        // orphan, which the idle thread's ticks adopt with no flush.
        exit_tx.send(()).unwrap();
        peer.join().unwrap();
        idle_pins(8 * TICK_PINS);
        assert_eq!(
            ran.load(Ordering::SeqCst),
            1,
            "the idle thread's pin ticks never ran an exited thread's closure"
        );
        assert_eq!(queued_reclaims(), 0);
    })
    .join()
    .unwrap();
}
