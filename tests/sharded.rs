//! Integration behavior of the range-partitioned [`conc_set::ShardedSet`]
//! facade: partition-boundary keys, stitched-cursor resume across shard
//! seams under churn, `sharded(X,1)` vs bare `X` equivalence, and the
//! per-shard validation report.
//!
//! Unit tests in `conc-set` cover the partition arithmetic and cursor
//! stitching in isolation; this binary exercises the facade end to end
//! through the public API, the way the registry and harnesses see it.

use std::sync::atomic::{AtomicBool, Ordering};

use conc_set::{ConcurrentOrderedSet, ScanOpts, ScanStep, ShardedSet, StructureSpec};

fn base(name: &str) -> StructureSpec {
    StructureSpec::Base(name.to_string())
}

/// Keys sitting exactly on every partition boundary — first and last
/// key of each shard — survive the round trip: routed to one shard,
/// found by `get`, emitted in ascending order by the stitched scan,
/// and counted once by `len`.
#[test]
fn partition_boundary_keys_round_trip() {
    for backend in ["scx-multiset", "patricia", "chromatic"] {
        let set = ShardedSet::with_domain(&base(backend), 4, 1024);
        let mut expect = Vec::new();
        for &(lo, hi) in set.shard_bounds() {
            for k in [lo, hi.min(conc_set::MAX_KEY)] {
                if set.insert(k, 1) == 1 {
                    expect.push(k);
                }
            }
        }
        expect.sort_unstable();
        expect.dedup();
        for &k in &expect {
            assert!(set.get(k) >= 1, "{backend}: boundary key {k} lost");
        }
        let mut seen = Vec::new();
        set.fold_range(0, u64::MAX, &mut |k, _c| seen.push(k));
        assert_eq!(seen, expect, "{backend}: stitched scan at the seams");
        assert_eq!(set.len(), expect.len() as u64, "{backend}");
        set.validate().unwrap_or_else(|e| panic!("{backend}: {e}"));
    }
}

/// Deterministic seam crossing: a windowed cursor is driven out of
/// shard 0, then a "writer" mutates on both sides of the seam before
/// the cursor resumes in shard 1. The certified prefix must be immune
/// (inserts behind the cursor invisible), and windows ahead must see
/// the post-write state — the same contract as a single structure's
/// window boundary, here across two inner structures.
#[test]
fn cursor_resumes_across_the_seam_after_writes() {
    for backend in ["scx-multiset", "patricia", "chromatic"] {
        // Width 8: shard 0 owns [0, 7], shard 1 owns [8, MAX_KEY].
        let set = ShardedSet::with_domain(&base(backend), 2, 16);
        assert_eq!(set.shard_bounds()[0], (0, 7), "{backend}");
        for k in [5u64, 6, 9, 10] {
            set.insert(k, 1);
        }
        let mut cursor = set.scan(0, 100, ScanOpts::windowed(16));
        // First window: large budget, so it certifies all of shard 0's
        // sub-range [0, 7] in one validated window.
        let mut first = Vec::new();
        loop {
            match cursor.next_window(&mut |k, c| first.push((k, c))) {
                ScanStep::Emitted { hi_key } => {
                    assert_eq!(first, vec![(5, 1), (6, 1)], "{backend}");
                    assert_eq!(hi_key, 7, "{backend}: shard 0 certified to its bound");
                    break;
                }
                ScanStep::Retry => continue,
                ScanStep::Done => panic!("{backend}: seam not reached"),
            }
        }
        // The writer strikes while the cursor sits on the seam.
        assert_eq!(set.remove(9, 1), 1, "{backend}"); // ahead: must vanish
        assert_eq!(set.insert(12, 1), 1, "{backend}"); // ahead: must appear
        assert_eq!(set.insert(3, 1), 1, "{backend}"); // behind: certified, immune
        let mut rest = Vec::new();
        while cursor.next_window(&mut |k, c| rest.push((k, c))) != ScanStep::Done {}
        assert_eq!(
            rest,
            vec![(10, 1), (12, 1)],
            "{backend}: shard 1 windows see the post-write state"
        );
        set.validate().unwrap_or_else(|e| panic!("{backend}: {e}"));
    }
}

/// Writers churn keys spread over *all* shards while a scanner sweeps
/// stitched windowed scans; every sweep must complete, emit ascending
/// in-range keys with positive counts, and at quiescence the stitched
/// full-range scan, the atomic per-shard scan and `len()` agree.
#[test]
fn stitched_scans_survive_cross_shard_churn() {
    const RANGE: u64 = 32;
    let millis = workloads::knobs::env_millis("LLX_STRESS_MILLIS", 120);
    for backend in ["scx-multiset", "patricia", "chromatic"] {
        // Domain 32 over 4 shards: width 8, so the churned keys span
        // every shard and every sweep crosses three seams.
        let sharded = ShardedSet::with_domain(&base(backend), 4, RANGE);
        let set: &dyn ConcurrentOrderedSet = &sharded;
        for k in workloads::prefill_keys(RANGE) {
            set.insert(k, 1);
        }
        let stop = AtomicBool::new(false);
        let sweeps = std::thread::scope(|scope| {
            for t in 0..2u64 {
                let set = &set;
                let stop = &stop;
                scope.spawn(move || {
                    let mut x = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    while !stop.load(Ordering::Relaxed) {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let k = x % RANGE;
                        if x & 1 == 0 {
                            set.insert(k, 1);
                        } else {
                            let _ = set.remove(k, 1);
                        }
                    }
                });
            }
            let scanner = scope.spawn(|| {
                let mut sweeps = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let mut last = None;
                    for (k, c) in set.iter_range(0, RANGE - 1, ScanOpts::windowed(3)) {
                        assert!(k < RANGE, "{backend}: key out of range");
                        assert!(c > 0, "{backend}: non-positive count");
                        assert!(last < Some(k), "{backend}: not ascending across seams");
                        last = Some(k);
                    }
                    sweeps += 1;
                }
                sweeps
            });
            std::thread::sleep(millis);
            stop.store(true, Ordering::Relaxed);
            scanner.join().unwrap()
        });
        assert!(sweeps > 0, "{backend}: no stitched sweep completed");
        let len = set.len();
        assert_eq!(set.range_count(0, conc_set::MAX_KEY), len, "{backend}");
        assert_eq!(
            set.range_count_windowed(0, conc_set::MAX_KEY, 4),
            len,
            "{backend}"
        );
        set.validate().unwrap_or_else(|e| panic!("{backend}: {e}"));
    }
}

/// `sharded(X,1)` is a single inner `X` behind the facade: the same
/// deterministic op script produces identical return values and an
/// identical final scan for every registered backend.
#[test]
fn single_shard_facade_is_observationally_bare() {
    for factory in conc_set::all_factories() {
        let bare = factory();
        let name = bare.name();
        let spec = StructureSpec::parse(&format!("sharded({name},1)")).expect("spec");
        let sharded = spec.build();
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..400 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 48;
            let c = 1 + (x >> 8) % 2;
            let (a, b) = match (x >> 16) % 3 {
                0 => (bare.insert(k, c), sharded.insert(k, c)),
                1 => (bare.remove(k, c), sharded.remove(k, c)),
                _ => (bare.get(k), sharded.get(k)),
            };
            assert_eq!(a, b, "{name}: divergence at key {k}");
        }
        assert_eq!(bare.len(), sharded.len(), "{name}");
        let collect = |s: &dyn ConcurrentOrderedSet| {
            let mut v = Vec::new();
            s.fold_range(0, conc_set::MAX_KEY, &mut |k, c| v.push((k, c)));
            v
        };
        assert_eq!(collect(&*bare), collect(&*sharded), "{name}: final scans");
    }
}

/// The promoted validation report: one entry per shard, labeled, with
/// per-shard lengths that sum to the facade's `len()`, all green after
/// real churn.
#[test]
fn validation_report_covers_every_shard() {
    let spec = StructureSpec::parse("sharded(chromatic,4)").expect("spec");
    let set = spec.build();
    for k in 0..64u64 {
        set.insert(k % 40, 1);
    }
    let report = set.validate_report();
    assert_eq!(report.structure, "sharded(chromatic,4)");
    assert_eq!(report.shards.len(), 4, "one entry per shard");
    for (i, shard) in report.shards.iter().enumerate() {
        assert!(
            shard.label.starts_with(&format!("shard {i} ")),
            "label {:?}",
            shard.label
        );
        assert!(shard.error.is_none(), "{}: {:?}", shard.label, shard.error);
    }
    let total: u64 = report.shards.iter().map(|s| s.len).sum();
    assert_eq!(total, set.len(), "per-shard lens sum to the global len");
    assert!(report.ok());
    report.into_result().expect("clean report converts to Ok");
}
