//! Thread churn reuses SCX descriptors: a thread's `tid` goes back to
//! the free list when it exits, so short-lived threads that each run an
//! SCX never grow the descriptor table past the threads alive at once.
//!
//! Alone in its binary, so no peer test's threads share the table.

use std::sync::Arc;

use llx_scx::{Domain, FieldId, ScxRequest};

#[test]
fn thread_churn_reuses_one_descriptor() {
    let domain: Arc<Domain<1, ()>> = Arc::new(Domain::new());
    let r = domain.alloc((), [0]) as usize;
    let baseline = llx_scx::scx_descriptors();
    for round in 1..=256u64 {
        let domain = Arc::clone(&domain);
        // `join` returns once the thread has exited, its thread-locals
        // (and so its `tid`) released.
        std::thread::spawn(move || {
            let guard = llx_scx::pin();
            let rec = unsafe { &*(r as *const llx_scx::DataRecord<1, ()>) };
            let snap = domain.llx(rec, &guard).snapshot().unwrap();
            assert!(domain.scx(ScxRequest::new(&[snap], FieldId::new(0, 0), round), &guard));
        })
        .join()
        .unwrap();
    }
    // One worker at a time; this thread runs no SCX.
    assert!(
        llx_scx::scx_descriptors() <= baseline + 1,
        "256 one-SCX threads created {} descriptors",
        llx_scx::scx_descriptors() - baseline
    );
    let guard = llx_scx::pin();
    unsafe { domain.retire(r as *const _, &guard) };
}
