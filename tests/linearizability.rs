//! Linearizability of every `ConcurrentOrderedSet` implementation,
//! checked on real concurrent executions (paper Theorem 6 for the
//! multiset; the §6 trees by the same technique; the kCAS and
//! lock-based structures by their own arguments).
//!
//! One parameterized test covers the whole zoo: the generic
//! [`linearize::record_round`] driver records a history against each
//! structure in the `conc-set` registry and checks it against the
//! structure's own sequential spec
//! ([`ConcurrentOrderedSet::spec`](conc_set::ConcurrentOrderedSet::spec)).
//!
//! Two regimes:
//!
//! * **Small rounds** (the original tests): short scripts on two hot
//!   keys, checked by default with `CheckerKind::Both` — the WGL
//!   bitmask oracle *and* the partitioned JIT checker, any
//!   disagreement failing the round outright. `LLX_LIN_CHECKER`
//!   (`wgl`/`jit`/`both`) overrides.
//! * **Long rounds** (`long_*` tests): `LLX_LIN_EVENTS` events per
//!   round (default 2048) over a dozen keys with interval scans,
//!   checked by the per-key-compositional JIT checker — the regime
//!   the 64-event WGL cap used to make unreachable. Violations are
//!   ddmin-shrunken to a replayable fixture before being reported.

use std::str::FromStr;

use conc_set::{ConcurrentOrderedSet, ScanOpts, ScanStep};
use linearize::{
    check_ordered_set, check_ordered_set_with, record_round, record_round_events, CheckerKind,
    Clock, Event, OrderedSetOp,
};

/// Number of recorded rounds per structure, scaled by
/// `LLX_LIN_ROUNDS_SCALE` (integer multiplier, default 1). The defaults
/// keep the WGL checker's exhaustive search inside CI-friendly time;
/// scale up for a deep run.
fn rounds(default_rounds: u64) -> u64 {
    default_rounds * workloads::knobs::env_scale("LLX_LIN_ROUNDS_SCALE")
}

/// The backend for the small-round tests: `LLX_LIN_CHECKER`, default
/// `both` (WGL oracle + JIT, cross-checked on every round).
fn checker_kind() -> CheckerKind {
    match workloads::knobs::lin_checker() {
        Some(v) => CheckerKind::from_str(&v).expect("LLX_LIN_CHECKER"),
        None => CheckerKind::Both,
    }
}

fn assert_linearizable(
    name: &str,
    seed: u64,
    set: &dyn ConcurrentOrderedSet,
    h: &linearize::History<OrderedSetOp, u64>,
) {
    if let Err(report) = check_ordered_set_with(h, &set.spec(), checker_kind()) {
        panic!("{name}: history with seed {seed}: {report}");
    }
}

/// Two hot keys and small counts force heavy overlap; one op in six is
/// a range scan, so every structure's consistent-snapshot machinery is
/// WGL-checked against [`linearize::OrderedSetSpec`]'s `RangeSum` too.
fn gen_op(_thread: usize, _i: usize, r: u64) -> OrderedSetOp {
    let key = r % 2;
    let count = 1 + (r >> 8) % 2;
    match (r >> 16) % 6 {
        0 | 1 => OrderedSetOp::Insert(key, count),
        2 | 3 => OrderedSetOp::Remove(key, count),
        4 => OrderedSetOp::Get(key),
        // Scans over both hot keys, one of them, or (1, 0) = lo > hi,
        // the empty range.
        _ => OrderedSetOp::RangeSum(key, (r >> 24) % 2),
    }
}

fn run_op(set: &(dyn ConcurrentOrderedSet + 'static), op: &OrderedSetOp) -> u64 {
    set.apply(op)
}

#[test]
fn every_structure_is_linearizable() {
    for spec in conc_set::selected_specs() {
        for seed in 0..rounds(15) {
            let set = spec.build();
            let h = record_round(&*set, 3, 5, seed, gen_op, run_op);
            assert_linearizable(set.name(), seed, &*set, &h);
        }
    }
}

#[test]
fn higher_contention_rounds_are_linearizable() {
    for spec in conc_set::selected_specs() {
        for seed in 0..rounds(4) {
            let set = spec.build();
            let h = record_round(&*set, 4, 6, 1000 + seed, gen_op, run_op);
            assert_linearizable(set.name(), seed, &*set, &h);
        }
    }
}

/// Windowed-scan mix: updates and gets on two hot keys, plus windowed
/// scans (window = 1, so a two-key range takes two windows with a
/// writer able to slip between them).
fn gen_windowed_op(_thread: usize, _i: usize, r: u64) -> OrderedSetOp {
    let key = r % 2;
    let count = 1 + (r >> 8) % 2;
    match (r >> 16) % 6 {
        0 | 1 => OrderedSetOp::Insert(key, count),
        2 | 3 => OrderedSetOp::Remove(key, count),
        4 => OrderedSetOp::Get(key),
        _ => OrderedSetOp::WindowedRangeSum(0, 1, 1),
    }
}

/// Execute one op, decomposing a windowed scan into its per-window
/// events: each emitted window becomes an atomic `RangeSum` over the
/// sub-interval it certifies, timestamped around that single
/// `next_window` attempt — exactly the `WindowedRangeSum` spec (every
/// window individually matches some state in its own real-time span;
/// writers interleave between windows). Retries record nothing (a
/// failed validation observes nothing).
fn run_windowed_op(
    set: &(dyn ConcurrentOrderedSet + 'static),
    op: &OrderedSetOp,
    thread: usize,
    clock: &Clock,
) -> Vec<Event<OrderedSetOp, u64>> {
    let OrderedSetOp::WindowedRangeSum(lo, hi, window) = op else {
        let invoked = clock.tick();
        let ret = set.apply(op);
        let returned = clock.tick();
        return vec![Event {
            thread,
            invoked,
            returned,
            op: op.clone(),
            ret,
        }];
    };
    let mut events = Vec::new();
    let mut cursor = set.scan(*lo, *hi, ScanOpts::windowed(*window));
    while let Some(from) = cursor.position() {
        let mut sum = 0u64;
        let invoked = clock.tick();
        let step = cursor.next_window(&mut |_k, c| sum += c);
        let returned = clock.tick();
        match step {
            ScanStep::Emitted { hi_key } => events.push(Event {
                thread,
                invoked,
                returned,
                op: OrderedSetOp::RangeSum(from, hi_key),
                ret: sum,
            }),
            ScanStep::Retry => {}
            ScanStep::Done => break,
        }
    }
    events
}

/// Per-window linearizability of the windowed scan cursor, WGL-checked
/// against every structure: each emitted window must individually match
/// some atomic state inside its own real-time span — any interleaving
/// of the per-window linearization points with the concurrent updates
/// is admissible, whole-scan atomicity is NOT required (and with
/// window = 1 over two hot keys, usually would not hold).
#[test]
fn windowed_scans_are_per_window_linearizable() {
    for spec in conc_set::selected_specs() {
        for seed in 0..rounds(10) {
            let set = spec.build();
            let h = record_round_events(&*set, 3, 5, 3000 + seed, gen_windowed_op, run_windowed_op);
            assert_linearizable(set.name(), seed, &*set, &h);
        }
    }
}

/// Sanity: the checkers are not vacuous — a deliberately corrupted
/// return value must be rejected for every spec, by both backends.
#[test]
fn checker_rejects_corrupted_history() {
    for spec in conc_set::selected_specs() {
        let set = spec.build();
        let mut h = record_round(&*set, 2, 4, 5, gen_op, run_op);
        // Append an impossible observation: a Get of 10 000 occurrences.
        h.push(Event {
            thread: 9,
            invoked: 1_000_000,
            returned: 1_000_001,
            op: OrderedSetOp::Get(0),
            ret: 10_000,
        });
        assert!(!h.check(&set.spec()), "{}", set.name());
        assert!(
            check_ordered_set(&h, &set.spec()).is_err(),
            "{}: JIT accepted what WGL rejects",
            set.name()
        );
    }
}

// ---- Long rounds: the regime the 64-event WGL cap used to forbid ----

/// Events per long round: `LLX_LIN_EVENTS`, default 2048 (floored at
/// 64 so a tiny override still exercises the long-round paths).
fn long_events() -> u64 {
    workloads::knobs::lin_events().max(64)
}

/// Long-round mix over a dozen keys: updates dominate, with point
/// reads, narrow interval scans (partition-friendly) and occasional
/// full-range scans (which couple every key — the degenerate single
/// group must stay checkable at full length).
fn gen_long_op(_thread: usize, _i: usize, r: u64) -> OrderedSetOp {
    let key = r % 12;
    let count = 1 + (r >> 8) % 2;
    match (r >> 16) % 16 {
        0..=5 => OrderedSetOp::Insert(key, count),
        6..=11 => OrderedSetOp::Remove(key, count),
        12 | 13 => OrderedSetOp::Get(key),
        14 => OrderedSetOp::RangeSum(key, key + 3),
        _ => OrderedSetOp::RangeSum(0, 11),
    }
}

/// Every structure, `LLX_LIN_EVENTS` events per round, checked by the
/// per-key-compositional JIT checker (the WGL oracle cannot represent
/// these lengths; `LLX_LIN_CHECKER` does not apply here).
#[test]
fn long_rounds_are_linearizable_under_jit() {
    let threads = 4usize;
    let per_thread = (long_events() as usize).div_ceil(threads);
    for spec in conc_set::selected_specs() {
        let set = spec.build();
        let name = set.name();
        let h = record_round(&*set, threads, per_thread, 77, gen_long_op, run_op);
        assert!(h.len() as u64 >= long_events(), "{name}: round too short");
        if let Err(v) = check_ordered_set(&h, &set.spec()) {
            panic!("{name}: {}-event round not linearizable: {v}", h.len());
        }
    }
}

/// Long windowed-scan rounds: the cursor decomposition
/// (`record_round_events`, one `RangeSum` event per emitted window)
/// at lengths where torn windows have thousands of chances to show.
#[test]
fn long_windowed_rounds_are_per_window_linearizable() {
    let threads = 4usize;
    // Windowed scans emit several events per generated op; aim the
    // *recorded* length at LLX_LIN_EVENTS by generating fewer ops.
    let per_thread = (long_events() as usize / 2).div_ceil(threads);
    for spec in conc_set::selected_specs() {
        let set = spec.build();
        let name = set.name();
        let h = record_round_events(
            &*set,
            threads,
            per_thread,
            9000,
            gen_long_windowed_op,
            run_windowed_op,
        );
        if let Err(v) = check_ordered_set(&h, &set.spec()) {
            panic!(
                "{name}: {}-event windowed round not per-window linearizable: {v}",
                h.len()
            );
        }
    }
}

/// Long windowed mix: point churn on a dozen keys plus windowed scans
/// over 4-key intervals in 2-key windows (so writers race the window
/// boundary) and occasional full-range windowed sweeps.
fn gen_long_windowed_op(_thread: usize, _i: usize, r: u64) -> OrderedSetOp {
    let key = r % 12;
    let count = 1 + (r >> 8) % 2;
    match (r >> 16) % 8 {
        0..=2 => OrderedSetOp::Insert(key, count),
        3..=5 => OrderedSetOp::Remove(key, count),
        6 => OrderedSetOp::WindowedRangeSum(key, key + 3, 2),
        _ => OrderedSetOp::WindowedRangeSum(0, 11, 4),
    }
}

/// The sharded facade over each LLX/SCX backend, at 1, 2 and 8 shards:
/// small WGL/JIT-cross-checked rounds driven purely through the
/// `StructureSpec` grammar, exactly as `LLX_STRUCT` would select them.
/// At the default partition both hot keys land in shard 0, so this
/// exercises the routing plumbing without relying on the
/// (per-shard-atomic) cross-shard scan tier.
#[test]
fn sharded_combinations_are_linearizable() {
    for backend in ["scx-multiset", "patricia", "chromatic"] {
        for shards in [1usize, 2, 8] {
            let spec = conc_set::StructureSpec::parse(&format!("sharded({backend},{shards})"))
                .expect("spec");
            for seed in 0..rounds(3) {
                let set = spec.build();
                let h = record_round(&*set, 3, 5, 7000 + seed, gen_op, run_op);
                assert_linearizable(set.name(), seed, &*set, &h);
            }
        }
    }
}

/// Hot keys straddling a shard seam: a two-key domain split across two
/// shards (width 1) puts keys 0 and 1 in *different* shards, so every
/// two-key scan is a stitched cross-shard cursor. Whole-scan atomicity
/// is deliberately NOT claimed there — the windowed decomposition
/// (each emitted window an atomic `RangeSum` within one shard) is the
/// contract, and it must hold per window.
#[test]
fn seam_straddling_windowed_rounds_are_per_window_linearizable() {
    for backend in ["scx-multiset", "patricia", "chromatic"] {
        let inner = conc_set::StructureSpec::Base(backend.to_string());
        for seed in 0..rounds(5) {
            let set: Box<dyn ConcurrentOrderedSet> =
                Box::new(conc_set::ShardedSet::with_domain(&inner, 2, 2));
            let h = record_round_events(&*set, 3, 5, 8000 + seed, gen_windowed_op, run_windowed_op);
            assert_linearizable(set.name(), seed, &*set, &h);
        }
    }
}

/// End-to-end shrinker check at scale: corrupt one return value deep
/// inside a real multi-thousand-event recorded round and assert the
/// violation is (a) caught and (b) minimized to a ≤ 15-event
/// replayable core.
#[test]
fn corrupted_long_round_shrinks_to_a_tiny_repro() {
    let set = conc_set::all_factories()
        .next()
        .expect("a registered structure")();
    let h = record_round(&*set, 4, 300, 41, gen_long_op, run_op);
    assert!(h.len() >= 1000, "need a 1k+-event round for this test");
    let mut events = h.events().to_vec();
    // Corrupt a get in the middle into an impossible observation.
    let idx = events
        .iter()
        .position(|e| matches!(e.op, OrderedSetOp::Get(_)) && e.invoked > 500)
        .expect("some mid-round get");
    events[idx].ret += 40_000;
    let mut corrupted = linearize::History::new();
    for e in events {
        corrupted.push(e);
    }
    let v = check_ordered_set(&corrupted, &set.spec())
        .expect_err("corrupted long round must be rejected");
    assert!(
        v.minimized.len() <= 15,
        "shrinker left {} events (want <= 15):\n{v}",
        v.minimized.len()
    );
}
