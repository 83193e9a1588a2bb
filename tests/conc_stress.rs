//! Cross-structure stress through the `ConcurrentOrderedSet` trait,
//! plus the SCX descriptor bound after it.

use std::time::Duration;

use conc_set::stress;
use workloads::{KeyDist, Mix};

/// Threads of this binary that can hold an SCX descriptor at once: five
/// tests, each a test thread plus four stress workers.
const PEAK_THREADS: usize = 5 * (1 + 4);

fn stress_millis(default_ms: u64) -> Duration {
    workloads::knobs::env_millis("LLX_STRESS_MILLIS", default_ms)
}

/// Every structure obeys both conservation laws under concurrent churn
/// with a scan mix: occurrences added − occurrences removed = `len()`
/// at quiescence, the full-range snapshot scan agrees with `len()`,
/// and its own invariants validate. The 10% scan share exercises each
/// structure's snapshot-retry machinery *during* the churn.
#[test]
fn every_structure_balances_under_stress() {
    for spec in conc_set::selected_specs() {
        let set = spec.build();
        let pre = stress::prefill(&*set, 32);
        let report = stress::run(
            &*set,
            4,
            stress_millis(150),
            stress::Load::new(
                KeyDist::uniform(32),
                Mix::with_update_percent(60).with_scan_percent(10),
            )
            .scan_width(workloads::knobs::scan_range()),
            11,
            pre,
        );
        assert!(report.ops > 0, "{}: no progress", set.name());
        assert!(report.scans > 0, "{}: no scan completed", set.name());
        assert!(
            report.balanced(),
            "{}: net occurrences {} but len {} (full-range scan {})",
            set.name(),
            report.net_occurrences,
            report.final_len,
            report.final_range_count
        );
        set.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", set.name()));
    }
}

/// Long **windowed** scans mixed into the churn: scans drive the
/// bounded scan cursor (`LLX_SCAN_WINDOW` keys per validated window,
/// default 4 here) over a wide range, and the harness asserts the
/// per-window conservation laws on every emitted window mid-churn —
/// tiling, in-window ascent/bounds, budget, positive counts — plus the
/// third quiescent law (full-range windowed scan = `len()`). CI's
/// `scanwin` stage runs this leg long in release and again in debug so
/// the debug-only detectors soak the cursor paths.
#[test]
fn every_structure_balances_under_windowed_scans() {
    let window = match workloads::knobs::scan_window() {
        0 => 4,
        w => w,
    };
    for spec in conc_set::selected_specs() {
        let set = spec.build();
        let pre = stress::prefill(&*set, 32);
        let report = stress::run(
            &*set,
            4,
            stress_millis(150),
            stress::Load::new(
                KeyDist::uniform(32),
                Mix::with_update_percent(60).with_scan_percent(15),
            )
            .scan_width(24)
            .windowed_scans(window),
            47,
            pre,
        );
        assert!(report.scans > 0, "{}: no windowed scan ran", set.name());
        assert!(
            report.scan_windows >= report.scans,
            "{}: {} windows over {} scans",
            set.name(),
            report.scan_windows,
            report.scans
        );
        assert!(
            report.balanced(),
            "{}: net {} vs len {} (atomic {} / windowed {:?})",
            set.name(),
            report.net_occurrences,
            report.final_len,
            report.final_range_count,
            report.final_windowed_count
        );
        set.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", set.name()));
    }
}

/// The Zipf-skewed variant hammers a few hot keys, maximizing SCX
/// conflicts, helping and the remove/reinsert churn that feeds the
/// record pool.
#[test]
fn skewed_stress_balances() {
    for spec in conc_set::selected_specs() {
        let set = spec.build();
        let report = stress::run(
            &*set,
            4,
            stress_millis(100),
            stress::Load::new(KeyDist::zipf(64, 0.99), Mix::with_update_percent(100)),
            23,
            0,
        );
        assert!(
            report.balanced(),
            "{}: net occurrences {} but len {}",
            set.name(),
            report.net_occurrences,
            report.final_len
        );
        set.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", set.name()));
    }
}

/// Conservation over the sharded facade at 1, 2 and 8 shards for each
/// LLX/SCX backend, selected purely through the `StructureSpec`
/// grammar: occurrences route to per-shard instances yet the global
/// laws must still hold — net
/// occurrences = `len()` = stitched full-range scan at quiescence, and
/// every shard's own invariants validate.
#[test]
fn sharded_combinations_balance_under_stress() {
    for backend in ["scx-multiset", "patricia", "chromatic"] {
        for shards in [1usize, 2, 8] {
            let spec = conc_set::StructureSpec::parse(&format!("sharded({backend},{shards})"))
                .expect("spec");
            let set = spec.build();
            let pre = stress::prefill(&*set, 32);
            let report = stress::run(
                &*set,
                4,
                stress_millis(60),
                stress::Load::new(
                    KeyDist::uniform(32),
                    Mix::with_update_percent(60).with_scan_percent(10),
                )
                .scan_width(workloads::knobs::scan_range()),
                13,
                pre,
            );
            assert!(report.ops > 0, "{}: no progress", set.name());
            assert!(
                report.balanced(),
                "{}: net occurrences {} but len {} (full-range scan {})",
                set.name(),
                report.net_occurrences,
                report.final_len,
                report.final_range_count
            );
            set.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", set.name()));
        }
    }
}

/// Stressing every LLX/SCX structure through the trait grows the SCX
/// descriptor table by at most one slot per thread that can hold one
/// at once, however many SCXs run; reclamation then flushes cleanly
/// (the debug lifecycle check catches a record freed twice).
#[test]
fn scx_record_pool_drains_after_generic_stress() {
    let baseline = llx_scx::scx_descriptors();
    let scx_structures = ["scx-multiset", "chromatic", "bst", "patricia"];
    for spec in conc_set::selected_specs() {
        // Base-name match so `sharded(patricia,4)` also takes this leg:
        // every shard retires through the same process-global pool.
        if !scx_structures.contains(&spec.base_name()) {
            continue;
        }
        let set = spec.build();
        let pre = stress::prefill(&*set, 24);
        let report = stress::run(
            &*set,
            4,
            stress_millis(120),
            stress::Load::new(
                KeyDist::uniform(24),
                Mix::with_update_percent(80).with_scan_percent(10),
            )
            .scan_width(6),
            31,
            pre,
        );
        assert!(report.balanced(), "{}", set.name());
        // Structures drop here: their nodes retire through the epoch
        // queue, releasing the final SCX-record references.
    }
    llx_scx::flush_reclamation();
    let grown = llx_scx::scx_descriptors() - baseline;
    assert!(
        grown <= PEAK_THREADS,
        "{grown} SCX descriptors created for at most {PEAK_THREADS} threads"
    );
    // The pool actually engaged.
    let stats = llx_scx::pool_stats();
    assert!(
        stats.hits + stats.misses > 0,
        "pool never allocated: {stats:?}"
    );
}
