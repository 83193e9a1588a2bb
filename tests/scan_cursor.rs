//! Edge cases and churn behavior of the windowed scan-cursor API
//! (`ConcurrentOrderedSet::scan` + `ScanCursor`), for every structure
//! behind the trait.
//!
//! The per-window contract under test: every emitted window is
//! internally snapshot-consistent, certifies a contiguous sub-interval
//! (the cursor resumes exactly at `covered_hi + 1`), the windows tile
//! the requested range in ascending order, and a conflict retries only
//! the dirty window — already-emitted windows are never revisited, so
//! keys behind the cursor are immune to later updates by construction.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use conc_set::{ConcurrentOrderedSet, ScanOpts, ScanStep};

/// Drive a cursor to completion, asserting tiling and returning the
/// emitted pairs.
fn drive(set: &dyn ConcurrentOrderedSet, lo: u64, hi: u64, opts: ScanOpts) -> Vec<(u64, u64)> {
    let name = set.name();
    let window = opts.window.unwrap_or(u64::MAX);
    let mut cursor = set.scan(lo, hi, opts);
    let mut out = Vec::new();
    let mut expected_from = lo;
    loop {
        let position = cursor.position();
        let mut win = Vec::new();
        match cursor.next_window(&mut |k, c| win.push((k, c))) {
            ScanStep::Emitted { hi_key } => {
                assert_eq!(position, Some(expected_from), "{name}: tiling broke");
                assert!(win.len() as u64 <= window, "{name}: window over budget");
                assert!(hi_key <= hi, "{name}: certified past the range");
                for &(k, _) in &win {
                    assert!(
                        (expected_from..=hi_key).contains(&k),
                        "{name}: key {k} outside [{expected_from}, {hi_key}]"
                    );
                }
                out.extend(win);
                if hi_key >= hi {
                    break;
                }
                expected_from = hi_key + 1;
            }
            ScanStep::Retry => {}
            ScanStep::Done => break,
        }
    }
    assert_eq!(cursor.position(), None, "{name}");
    out
}

#[test]
fn window_one_and_window_beyond_range_agree_with_atomic() {
    for spec in conc_set::selected_specs() {
        let set = spec.build();
        let name = set.name();
        for k in [1u64, 7, 8, 30, 31, 32, 90] {
            set.insert(k, 3);
        }
        let mut atomic = Vec::new();
        set.fold_range(0, 100, &mut |k, c| atomic.push((k, c)));
        // window = 1: one key per window, maximal boundary count.
        assert_eq!(
            drive(&*set, 0, 100, ScanOpts::windowed(1)),
            atomic,
            "{name}: window 1"
        );
        // window larger than the whole range: exactly one window, i.e.
        // the atomic scan expressed through the windowed API.
        assert_eq!(
            drive(&*set, 0, 100, ScanOpts::windowed(1000)),
            atomic,
            "{name}: window > range"
        );
        let mut cursor = set.scan(0, 100, ScanOpts::windowed(1000));
        assert!(matches!(
            cursor.next_window(&mut |_, _| ()),
            ScanStep::Emitted { hi_key: 100 }
        ));
        assert_eq!(cursor.next_window(&mut |_, _| ()), ScanStep::Done, "{name}");
        assert_eq!(cursor.windows(), 1, "{name}: one window covers it all");
    }
}

#[test]
fn empty_and_inverted_ranges_through_the_cursor() {
    for spec in conc_set::selected_specs() {
        let set = spec.build();
        let name = set.name();
        // Empty structure: a single empty window certifies the range.
        assert_eq!(
            drive(&*set, 0, 50, ScanOpts::windowed(4)),
            vec![],
            "{name}: empty structure"
        );
        // Inverted bounds: immediately done, no window at all.
        let mut cursor = set.scan(9, 3, ScanOpts::windowed(4));
        assert_eq!(cursor.position(), None, "{name}");
        assert_eq!(cursor.next_window(&mut |_, _| ()), ScanStep::Done, "{name}");
        assert_eq!(cursor.windows(), 0, "{name}");
    }
}

/// The top of the key domain: windows ending at `MAX_KEY` resume the
/// cursor just below the `u64::MAX` bound, where `covered_hi + 1` must
/// neither overflow nor skip the trailing certification.
#[test]
fn scans_reach_the_top_of_the_key_domain() {
    let top = conc_set::MAX_KEY;
    for spec in conc_set::selected_specs() {
        let set = spec.build();
        let name = set.name();
        set.insert(top - 1, 1);
        set.insert(top, 1);
        for (lo, want) in [(0, vec![(top - 1, 1), (top, 1)]), (top, vec![(top, 1)])] {
            let mut atomic = Vec::new();
            set.fold_range(lo, u64::MAX, &mut |k, c| atomic.push((k, c)));
            assert_eq!(atomic, want, "{name}: fold_range from {lo}");
            for opts in [
                ScanOpts::windowed(1),
                ScanOpts::windowed(2),
                ScanOpts::atomic(),
            ] {
                assert_eq!(
                    drive(&*set, lo, u64::MAX, opts),
                    atomic,
                    "{name}: [{lo}, u64::MAX] at {opts:?}"
                );
            }
        }
    }
}

/// A writer mutating keys on *both sides* of a window boundary between
/// `next_window` calls: keys behind the cursor were already emitted
/// from their own validated windows (later deletes must not disturb
/// them), keys ahead are picked up or missed per-window — each side
/// checked deterministically, single-threaded.
#[test]
fn writer_races_the_cursor_across_a_window_boundary() {
    for spec in conc_set::selected_specs() {
        let set = spec.build();
        let name = set.name();
        for k in [10u64, 11, 20, 21, 30, 31] {
            set.insert(k, 1);
        }
        let mut cursor = set.scan(0, 100, ScanOpts::windowed(2));
        let mut first = Vec::new();
        // First window: keys 10, 11.
        loop {
            match cursor.next_window(&mut |k, c| first.push((k, c))) {
                ScanStep::Emitted { hi_key } => {
                    assert_eq!(first, vec![(10, 1), (11, 1)], "{name}");
                    assert_eq!(hi_key, 11, "{name}");
                    break;
                }
                ScanStep::Retry => continue,
                ScanStep::Done => panic!("{name}: range not exhausted"),
            }
        }
        // The "writer" strikes between windows: delete a key behind the
        // cursor (already emitted — must stay emitted), delete one
        // ahead (must not appear), insert one ahead (must appear), and
        // insert one *behind* the cursor position (must not appear —
        // its interval was already certified).
        assert_eq!(set.remove(10, 1), 1, "{name}");
        assert_eq!(set.remove(20, 1), 1, "{name}");
        assert_eq!(set.insert(25, 1), 1, "{name}");
        assert_eq!(set.insert(5, 1), 1, "{name}");
        let mut rest = Vec::new();
        while cursor.next_window(&mut |k, c| rest.push((k, c))) != ScanStep::Done {}
        assert_eq!(
            rest,
            vec![(21, 1), (25, 1), (30, 1), (31, 1)],
            "{name}: windows ahead see the post-write state, \
             the certified prefix is immune"
        );
    }
}

/// Keys deleted mid-scan, driven deterministically: the cursor walks a
/// populated range while every emitted window triggers deletion of the
/// next few keys ahead; the scan must terminate (deletes ahead cannot
/// wedge it into re-retrying forever) and emit exactly the keys that
/// were still present when their window validated.
#[test]
fn cursor_over_keys_deleted_mid_scan() {
    for spec in conc_set::selected_specs() {
        let set = spec.build();
        let name = set.name();
        for k in 0..32u64 {
            set.insert(k, 1);
        }
        let mut cursor = set.scan(0, 31, ScanOpts::windowed(4));
        let mut emitted = Vec::new();
        // Keys this test has deleted so far (nothing re-inserts them):
        // a later window emitting one of these means its validation
        // certified stale contents.
        let mut deleted = std::collections::BTreeSet::new();
        let mut guard = 0;
        loop {
            let mut win = Vec::new();
            match cursor.next_window(&mut |k, c| win.push((k, c))) {
                ScanStep::Emitted { hi_key } => {
                    for &(k, _) in &win {
                        assert!(
                            !deleted.contains(&k),
                            "{name}: key {k} emitted after its deletion"
                        );
                    }
                    emitted.extend(win.iter().map(|&(k, _)| k));
                    // Delete the two keys just past this window; the
                    // next window must skip them.
                    for k in [hi_key + 1, hi_key + 2] {
                        if k <= 31 && set.remove(k, 1) == 1 {
                            deleted.insert(k);
                        }
                    }
                    if hi_key >= 31 {
                        break;
                    }
                }
                ScanStep::Retry => {
                    guard += 1;
                    assert!(guard < 10_000, "{name}: cursor wedged in retries");
                }
                ScanStep::Done => break,
            }
        }
        // Windows of 4 over a full 0..32 fill: [0..3] emitted, 4 and 5
        // deleted, next window resumes at 4 and emits 6..9 — and so on:
        // exactly 2 of every 6 keys vanish ahead of the cursor.
        let survivors: BTreeMap<u64, ()> = emitted.iter().map(|&k| (k, ())).collect();
        assert_eq!(survivors.len(), emitted.len(), "{name}: duplicate emission");
        assert!(!emitted.is_empty(), "{name}");
        assert!(
            emitted.windows(2).all(|w| w[0] < w[1]),
            "{name}: emission not ascending"
        );
        set.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Multi-threaded: one scanner repeatedly sweeps the whole range with a
/// small window while two writers churn; afterwards the quiescent
/// windowed scan, atomic scan and `len()` all agree. Honors
/// `LLX_SCAN_WINDOW` (CI's scanwin stage runs this with several window
/// sizes) and `LLX_STRESS_MILLIS`.
#[test]
fn windowed_scans_survive_concurrent_churn() {
    const RANGE: u64 = 48;
    let millis = workloads::knobs::env_millis("LLX_STRESS_MILLIS", 120);
    let window = workloads::knobs::scan_window().max(3);
    for spec in conc_set::selected_specs() {
        let set = spec.build();
        let name = set.name();
        for k in workloads::prefill_keys(RANGE) {
            set.insert(k, 1);
        }
        let stop = AtomicBool::new(false);
        let (scans, retries) = std::thread::scope(|scope| {
            for t in 0..2u64 {
                let set = &*set;
                let stop = &stop;
                scope.spawn(move || {
                    let mut rng = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    while !stop.load(Ordering::Relaxed) {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let key = rng % RANGE;
                        if rng & 1 == 0 {
                            set.insert(key, 1);
                        } else {
                            let _ = set.remove(key, 1);
                        }
                    }
                });
            }
            let scanner = scope.spawn(|| {
                let mut scans = 0u64;
                let mut retries = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let stats = set.fold_range_windowed(0, RANGE - 1, window, &mut |_k, c| {
                        assert!(c > 0, "windowed scan emitted a zero count");
                    });
                    retries += stats.retries;
                    scans += 1;
                }
                (scans, retries)
            });
            std::thread::sleep(millis);
            stop.store(true, Ordering::Relaxed);
            scanner.join().unwrap()
        });
        assert!(scans > 0, "{name}: scanner never completed a sweep");
        // Quiescent: all three views agree.
        let len = set.len();
        assert_eq!(
            set.range_count_windowed(0, conc_set::MAX_KEY, window),
            len,
            "{name}"
        );
        assert_eq!(set.range_count(0, conc_set::MAX_KEY), len, "{name}");
        set.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        let _ = retries; // any value is legal; wedging is the failure mode
    }
}

/// Deep structures at quiescence: every window size and the atomic
/// scan agree with a `BTreeMap` model of the same seeded operations.
/// About 20 000 keys, so the tree walks build the deep stacks (and
/// prefetch along them) that a handful of keys never reaches.
#[test]
fn deep_structures_agree_with_a_model_at_every_window() {
    const KEYS: usize = 20_000;
    const CHURN: usize = 4_000;
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        // SplitMix64.
        rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    // Random 48-bit keys: full-depth tries and randomly shaped trees.
    let pool: Vec<u64> = (0..KEYS + KEYS / 5).map(|_| next() >> 16).collect();
    let churn: Vec<(bool, u64)> = (0..CHURN)
        .map(|_| (next() & 1 == 0, pool[(next() % pool.len() as u64) as usize]))
        .collect();
    let mut sorted = pool.clone();
    sorted.sort_unstable();
    let ranges = [
        (0, u64::MAX),
        (sorted[KEYS / 4], sorted[KEYS / 2]),
        (sorted[KEYS / 3] + 1, sorted[KEYS / 3 + 300]),
        (sorted[KEYS / 2] + 1, sorted[KEYS / 2 + 1] - 1),
    ];
    for spec in conc_set::selected_specs() {
        let set = spec.build();
        let name = set.name();
        let counting = set.counting();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut apply = |insert: bool, k: u64| {
            if insert {
                set.insert(k, 1);
                let c = model.entry(k).or_insert(0);
                *c = if counting { *c + 1 } else { 1 };
            } else if set.remove(k, 1) == 1 {
                let c = model.get_mut(&k).expect("removed a key the model lacks");
                *c -= 1;
                if *c == 0 {
                    model.remove(&k);
                }
            } else {
                assert!(!model.contains_key(&k), "{name}: remove of {k} missed");
            }
        };
        for &k in &pool[..KEYS] {
            apply(true, k);
        }
        for &(insert, k) in &churn {
            apply(insert, k);
        }
        set.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        for (lo, hi) in ranges {
            let want: Vec<(u64, u64)> = model.range(lo..=hi).map(|(&k, &c)| (k, c)).collect();
            for opts in [1, 3, 256, 4000]
                .map(ScanOpts::windowed)
                .into_iter()
                .chain([ScanOpts::atomic()])
            {
                // Windows of one and three keys re-walk from the root
                // per window; a few thousand of them cover the deep
                // boundary paths.
                if opts.window.is_some_and(|w| want.len() as u64 / w > 3_000) {
                    continue;
                }
                assert!(
                    drive(&*set, lo, hi, opts) == want,
                    "{name}: [{lo}, {hi}] at {opts:?} disagrees with the model"
                );
            }
        }
    }
}
