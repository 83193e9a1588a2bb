//! Cross-thread shard handoff of the Data-record pool at its real
//! constants (256-block free lists, 16-block shards): a producer thread
//! retires more blocks than its free list holds, and a fresh consumer
//! thread must allocate from what the producer parked.

use multiset::Multiset;

/// Distinct keys the producer inserts, hence roughly the nodes it
/// retires in one burst: several times the pool's per-thread free-list
/// capacity.
const PRODUCER_KEYS: u64 = 1_000;

/// Threads that can hold an SCX descriptor at once: the producer, then
/// the consumer, and this one.
const PEAK_THREADS: usize = 2;

/// Insert/remove churn: every operation commits one SCX and allocates
/// and retires multiset nodes on the calling thread.
fn churn(set: &Multiset<u64>, pairs: usize) -> u64 {
    let mut ops = 0u64;
    for i in 0..pairs {
        let k = (i % 16) as u64;
        set.insert(k, 1);
        if set.remove(k, 1) {
            ops += 1;
        }
        ops += 1;
    }
    ops
}

#[test]
fn producer_shards_feed_a_fresh_consumer_thread() {
    llx_scx::flush_reclamation();
    let baseline = llx_scx::scx_descriptors();

    // Phase 1 — producer: steady single-thread churn recycles through
    // a free list far below its cap, so the producer retires a *burst*
    // instead: dropping a set of ascending inserts retires every node
    // at once, and their maturation overflows the 256-block free list
    // into parked shards. It flushes its own reclamation before exiting
    // so the shards are parked (not stranded in partial batches) when
    // it is gone.
    std::thread::spawn(|| {
        let set = Multiset::<u64>::new();
        for k in 0..PRODUCER_KEYS {
            set.insert(k, 1);
        }
        drop(set);
        llx_scx::flush_reclamation();
    })
    .join()
    .unwrap();

    // Phase 2 — consumer: a *fresh* thread (empty free list) starts
    // allocating. Without the handoff every early allocation fell
    // through to the allocator; with it, the first local miss adopts a
    // whole parked shard.
    let before = llx_scx::pool_stats();
    let consumed = std::thread::spawn(|| {
        let set = Multiset::<u64>::new();
        let ops = churn(&set, 4_000);
        drop(set);
        llx_scx::flush_reclamation();
        ops
    })
    .join()
    .unwrap();
    assert!(consumed > 0);
    let phase = before.snapshot_delta();

    assert!(
        phase.handoffs > 0,
        "consumer thread never adopted a parked shard: {phase:?}"
    );
    let rate = phase.hit_rate().expect("consumer allocated nodes");
    assert!(
        rate > 0.15,
        "hit rate {rate:.2} did not rise through the shard handoff: {phase:?}"
    );

    // Two short-lived threads reused or added at most two descriptors.
    let grown = llx_scx::scx_descriptors() - baseline;
    assert!(
        grown <= PEAK_THREADS,
        "{grown} SCX descriptors for two threads"
    );

    // Deltas stay consistent with the absolute counters.
    let total = llx_scx::pool_stats();
    assert!(total.hits >= phase.hits && total.handoffs >= phase.handoffs);
}
