//! Reclamation tests: every Data-record and every SCX-record is freed
//! exactly once (the substrate substituting the paper's GC assumption).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use llx_scx::{Domain, FieldId, ScxRequest};

/// Immutable payload whose drop increments a counter, so tests can count
/// Data-record destructions.
struct DropCounter(Arc<AtomicUsize>);
impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Drive the epoch collector until deferred destructions have run,
/// including the SCX-record pool's batched retirements and any records
/// stranded by exited threads.
fn drain_epochs() {
    llx_scx::flush_reclamation();
    for _ in 0..256 {
        crossbeam_epoch::pin().flush();
    }
}

/// Serialises the tests of this binary, which the harness runs in
/// parallel: a peer's pinned guard stalls another test's drain, and a
/// peer's records in flight show up in the process-global SCX-record
/// ledger as another test's leak.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A clean live-record baseline: drain residue from earlier tests (each
/// test runs on its own thread, so a finished test's partial retirement
/// batch is parked on the orphan list until adopted) before sampling.
fn baseline() -> Option<isize> {
    drain_epochs();
    llx_scx::live_scx_records()
}

#[test]
fn every_data_record_dropped_exactly_once() {
    let _serial = serial();
    let drops = Arc::new(AtomicUsize::new(0));
    let domain: Domain<1, DropCounter> = Domain::new();
    const N: usize = 100;
    {
        let guard = llx_scx::pin();
        let recs: Vec<_> = (0..N)
            .map(|_| domain.alloc(DropCounter(Arc::clone(&drops)), [0]))
            .collect();
        for &r in &recs {
            unsafe { domain.retire(r, &guard) };
        }
    }
    drain_epochs();
    assert_eq!(drops.load(Ordering::SeqCst), N);
}

#[test]
fn scx_records_do_not_leak_single_threaded() {
    let _serial = serial();
    let baseline = baseline();
    {
        let domain: Domain<1, u64> = Domain::new();
        let guard = llx_scx::pin();
        let r = domain.alloc(0, [0]);
        let r_ref = unsafe { &*r };
        for i in 1..=1000u64 {
            let s = domain.llx(r_ref, &guard).snapshot().unwrap();
            assert!(domain.scx(ScxRequest::new(&[s], FieldId::new(0, 0), i), &guard));
        }
        unsafe { domain.retire(r, &guard) };
    }
    drain_epochs();
    if let (Some(before), Some(after)) = (baseline, llx_scx::live_scx_records()) {
        assert_eq!(
            after, before,
            "all SCX-records created by the loop were destroyed"
        );
    }
}

#[test]
fn scx_records_do_not_leak_multi_threaded() {
    // Run a contended workload (helping, aborts, finalization), then
    // check the live SCX-record count returns to its baseline.
    let _serial = serial();
    let baseline = baseline();
    let drops = Arc::new(AtomicUsize::new(0));
    let allocs = Arc::new(AtomicUsize::new(0));
    {
        let domain: Arc<Domain<1, DropCounter>> = Arc::new(Domain::new());
        let parent: Arc<Domain<1, ()>> = Arc::new(Domain::new());
        let guard = llx_scx::pin();
        allocs.fetch_add(1, Ordering::SeqCst);
        let child = domain.alloc(DropCounter(Arc::clone(&drops)), [1]);
        let p = parent.alloc((), [llx_scx::pack_ptr(child)]);
        let p_addr = p as usize;
        drop(guard);

        let mut handles = Vec::new();
        for t in 0..4 {
            let domain = Arc::clone(&domain);
            let parent = Arc::clone(&parent);
            let drops = Arc::clone(&drops);
            let allocs = Arc::clone(&allocs);
            handles.push(std::thread::spawn(move || {
                let p = unsafe { &*(p_addr as *const llx_scx::DataRecord<1, ()>) };
                let mut seq = t as u64;
                for _ in 0..2000 {
                    let guard = llx_scx::pin();
                    let Some(ps) = parent.llx(p, &guard).snapshot() else {
                        continue;
                    };
                    let old_child = unsafe { domain.deref(ps.value(0), &guard) };
                    let Some(cs) = domain.llx(old_child, &guard).snapshot() else {
                        continue;
                    };
                    let _ = cs;
                    seq += 4;
                    allocs.fetch_add(1, Ordering::SeqCst);
                    let fresh = domain.alloc(DropCounter(Arc::clone(&drops)), [seq]);
                    if parent.scx(
                        ScxRequest::new(&[ps], FieldId::new(0, 0), llx_scx::pack_ptr(fresh)),
                        &guard,
                    ) {
                        unsafe { domain.retire(old_child as *const _, &guard) };
                    } else {
                        // dealloc drops the payload, so the alloc/drop
                        // ledgers stay matched.
                        unsafe { domain.dealloc(fresh) };
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Retire the final child and the parent.
        let guard = llx_scx::pin();
        let p_ref = unsafe { &*(p_addr as *const llx_scx::DataRecord<1, ()>) };
        unsafe {
            domain.retire(llx_scx::unpack_ptr(p_ref.read(0)), &guard);
            parent.retire(p, &guard);
        }
    }
    drain_epochs();
    assert_eq!(
        drops.load(Ordering::SeqCst),
        allocs.load(Ordering::SeqCst),
        "every allocated Data-record was dropped exactly once"
    );
    if let (Some(before), Some(after)) = (baseline, llx_scx::live_scx_records()) {
        assert_eq!(after, before, "no SCX-record leaked");
    }
}
