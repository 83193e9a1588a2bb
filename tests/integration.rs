//! Cross-crate integration tests: the LLX/SCX multiset agrees with the
//! coarse-lock control on the multiset specification; structures built
//! on the same llx-scx domain machinery interoperate; reclamation stays
//! balanced across a whole-workspace workload.

use conc_set::{CoarseMultiset, ConcurrentOrderedSet};
use multiset::Multiset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One random op sequence applied to the LLX/SCX multiset and the
/// coarse-lock control must produce identical observable behaviour
/// (they share the paper's §5 sequential specification).
#[test]
fn scx_and_coarse_multisets_agree_sequentially() {
    let scx = Multiset::<u64>::new();
    let coarse = CoarseMultiset::new();
    let mut rng = SmallRng::seed_from_u64(2024);
    for _ in 0..4000 {
        let key = rng.random_range(0..32u64);
        let count = rng.random_range(1..4u64);
        match rng.random_range(0..3u32) {
            0 => {
                scx.insert(key, count);
                coarse.insert(key, count);
            }
            1 => {
                assert_eq!(scx.remove(key, count), coarse.remove(key, count));
            }
            _ => {
                assert_eq!(scx.get(key), coarse.get(key));
            }
        }
    }
    assert_eq!(scx.to_vec(), coarse.to_vec());
    scx.check_invariants().unwrap();
}

/// Both trees agree with each other under a random single-threaded
/// workload, and the chromatic tree stays balanced.
#[test]
fn trees_agree_and_chromatic_balances() {
    let bst = trees::Bst::<u64, u64>::new();
    let chromatic = trees::ChromaticTree::<u64, u64>::new();
    let mut rng = SmallRng::seed_from_u64(7);
    for i in 0..5000u64 {
        let key = rng.random_range(0..512u64);
        match rng.random_range(0..3u32) {
            0 => {
                assert_eq!(bst.insert(key, i), chromatic.insert(key, i), "insert {key}");
            }
            1 => {
                assert_eq!(bst.remove(key), chromatic.remove(key), "remove {key}");
            }
            _ => {
                assert_eq!(bst.get(key), chromatic.get(key), "get {key}");
            }
        }
    }
    assert_eq!(bst.to_vec(), chromatic.to_vec());
    bst.check_invariants().unwrap();
    chromatic.check_invariants().unwrap();
    chromatic.check_balanced().unwrap();
}

/// The workload generators drive every implementation without panics and
/// with conserved totals (smoke test of the full harness path).
#[test]
fn workload_generator_drives_all_structures() {
    use workloads::{KeyDist, Mix, OpKind, WorkloadGen};
    let set = Multiset::<u64>::new();
    let tree = trees::ChromaticTree::<u64, u64>::new();
    let mut gen = WorkloadGen::new(
        5,
        0,
        KeyDist::zipf(128, 0.99),
        Mix::with_update_percent(50).with_scan_percent(10),
    );
    for _ in 0..20_000 {
        let (kind, key) = gen.next_op();
        match kind {
            OpKind::Get => {
                let _ = set.get(key);
                let _ = tree.get(key);
            }
            OpKind::Insert => {
                set.insert(key, 1);
                let _ = tree.insert(key, key);
            }
            OpKind::Remove => {
                let _ = set.remove(key, 1);
                let _ = tree.remove(key);
            }
            OpKind::Scan => {
                let _ = set.range_count(key, key.saturating_add(15));
                let _ = tree.range_count(key, key.saturating_add(15));
            }
        }
    }
    set.check_invariants().unwrap();
    tree.check_invariants().unwrap();
    tree.check_balanced().unwrap();
}
