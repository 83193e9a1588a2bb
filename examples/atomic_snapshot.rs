//! Atomic multi-key reads and mini-transactions.
//!
//! Two facilities built on VLX (paper §3):
//!
//! * `Multiset::get_many` — counts of several keys that all held at one
//!   linearization point (an LLX per deciding node + one VLX);
//! * `llx_scx::Tx` — the §2 "restricted transaction" shape as one
//!   update attempt: LLXs, fresh records, then one pointer swing that
//!   finalizes (and retires) the records it replaces.
//!
//! The demo models an inventory with a conservation law (total stock of
//! 100 units across three warehouses, moved by two-step transfers) and
//! shows that `get_many` never observes impossible totals while naive
//! per-key reads do.
//!
//! Run with `cargo run --release --example atomic_snapshot`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use llx_scx::{DataRecord, Domain, Tx};
use multiset::Multiset;

fn main() {
    // ---- Part 1: atomic multi-key reads on the multiset --------------
    let inventory: Arc<Multiset<u64>> = Arc::new(Multiset::new());
    let warehouses = [10u64, 20, 30];
    for &w in &warehouses {
        inventory.insert(w, 100);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let impossible_naive = Arc::new(AtomicU64::new(0));
    let impossible_atomic = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    // Mover: transfers stock between warehouses (debit, then credit —
    // reachable totals are 300 and 299, never 301).
    {
        let inv = Arc::clone(&inventory);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut i = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let from = warehouses[i % 3];
                let to = warehouses[(i + 1) % 3];
                if inv.remove(from, 1) {
                    inv.insert(to, 1);
                }
                i += 1;
            }
        }));
    }
    // Auditor: compares naive reads against the atomic snapshot.
    {
        let inv = Arc::clone(&inventory);
        let stop = Arc::clone(&stop);
        let naive = Arc::clone(&impossible_naive);
        let atomic = Arc::clone(&impossible_atomic);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let naive_total: u64 = warehouses.iter().map(|&w| inv.get(w)).sum();
                if naive_total > 300 {
                    naive.fetch_add(1, Ordering::Relaxed);
                }
                let snap = inv.get_many(&warehouses);
                let atomic_total: u64 = snap.iter().sum();
                if atomic_total > 300 {
                    atomic.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(800));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    println!(
        "impossible totals observed — naive reads: {}, atomic get_many: {}",
        impossible_naive.load(Ordering::Relaxed),
        impossible_atomic.load(Ordering::Relaxed),
    );
    assert_eq!(impossible_atomic.load(Ordering::Relaxed), 0);

    // ---- Part 2: an update attempt on raw records ---------------------
    // A config register pointing at an immutable (version, payload)
    // record: both change together by swinging the pointer to a fresh
    // record, conditional on the LLXs of the register and the old record.
    type Config = DataRecord<1, (u64, u64)>;
    let domain: Domain<1, (u64, u64)> = Domain::new();
    let guard = llx_scx::pin();
    let first = domain.alloc((1, 100), [llx_scx::NULL]);
    let config = domain.alloc((0, 0), [llx_scx::pack_ptr(first)]);

    let tx = Tx::new(&domain, &guard);
    tx.llx(unsafe { &*config }).expect("uncontended");
    let cur = tx.llx(unsafe { &*first }).expect("uncontended");
    let (version, payload) = *cur.record().immutable();
    println!("tx read: version={version} payload={payload}");
    // Any interleaved change to either record would abort the commit.
    let next = tx.alloc((version + 1, payload + 1), [llx_scx::NULL]);
    // SAFETY: R = ⟨first⟩, which the SCX unlinks from `config`.
    let committed = unsafe { tx.commit(0, next, None) };
    let now: &Config = unsafe { &*llx_scx::unpack_ptr((*config).read(0)) };
    println!(
        "tx committed: {committed}; (version, payload) is now {:?}",
        now.immutable()
    );
    assert!(committed);
    assert_eq!(*now.immutable(), (2, 101));
    unsafe {
        domain.retire(now, &guard);
        domain.retire(config, &guard);
    }
}
