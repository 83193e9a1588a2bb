//! The paper's experiments E1–E3 and E6–E8, the structure-zoo sweeps
//! `compare` and `scanwin`, and the `chaos` soak.
//!
//! The sweeps drive every data structure through the
//! [`conc_set::ConcurrentOrderedSet`] trait, so one worker definition
//! covers the whole zoo and adding a structure to the registry adds it
//! to the sweeps.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use conc_set::{ConcurrentOrderedSet, ScanOpts, ScanStep, StructureSpec};
use llx_scx::{Domain, FieldId, ScxRequest};
use multiset::Multiset;
use mwcas::{kcas, KcasCell};
use rand::{Rng, SeedableRng};
use workloads::{KeyDist, Mix, OpKind, WorkloadGen};

use crate::runner::{fmt_ops, print_table, run_throughput};

/// Duration of each throughput cell; short because the sweep is wide.
/// `LLX_BENCH_CELL_MILLIS` overrides the 300 ms default (the CI smoke
/// leg runs ~20 ms cells just to prove the plumbing).
fn cell() -> Duration {
    workloads::knobs::env_millis("LLX_BENCH_CELL_MILLIS", 300)
}
/// Thread counts for scaling sweeps.
const THREADS: &[usize] = &[1, 2, 4, 8];

/// The scan share requested via `LLX_SCAN_PCT` (default 0), folded
/// into a base mix; scans cover `LLX_SCAN_RANGE` keys (default 16).
fn mix_with_env_scans(base: Mix) -> Mix {
    let pct = workloads::knobs::scan_percent().min(base.get);
    base.with_scan_percent(pct)
}

/// A per-thread worker that drives `set` with a deterministic
/// `(seed, thread)` workload stream, one operation per call.
fn set_worker<'a>(
    set: &'a dyn ConcurrentOrderedSet,
    seed: u64,
    dist: KeyDist,
    mix: Mix,
) -> impl Fn(usize) -> Box<dyn FnMut() -> u64 + Send + 'a> + Sync + 'a {
    let scan_width = workloads::knobs::scan_range();
    move |t| {
        let mut gen = WorkloadGen::new(seed, t, dist.clone(), mix);
        Box::new(move || {
            let (kind, key) = gen.next_op();
            match kind {
                OpKind::Get => {
                    let _ = set.get(key);
                }
                OpKind::Insert => {
                    let _ = set.insert(key, 1);
                }
                OpKind::Remove => {
                    let _ = set.remove(key, 1);
                }
                OpKind::Scan => {
                    let _ = set.range_count(key, key.saturating_add(scan_width - 1));
                }
            }
            1
        })
    }
}

/// Measure one throughput cell: fresh structure, standard 50% prefill
/// in shuffled order (ascending order would degenerate the unbalanced
/// BST into a list — shuffled inserts give ~log height, and the other
/// structures hold identical content either way), one timed run.
fn measure_cell(spec: &StructureSpec, threads: usize, range: u64, mix: Mix) -> f64 {
    let set = spec.build();
    let mut keys: Vec<u64> = workloads::prefill_keys(range).collect();
    use rand::seq::SliceRandom;
    keys.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(99));
    for k in keys {
        set.insert(k, 1);
    }
    run_throughput(
        threads,
        cell(),
        set_worker(&*set, 42, KeyDist::uniform(range), mix),
    )
}

/// `compare` — every selected structure through one sweep
/// (threads × update-mix × key-range), the cross-structure table the
/// unified trait exists to enable. The column set is `LLX_STRUCT`
/// (parsed as a comma list of [`StructureSpec`]s — bare names and
/// `sharded(name,n)` facades mix freely), defaulting to the whole
/// registry.
pub fn compare() {
    let selected = conc_set::selected_specs();
    let names: Vec<String> = selected.iter().map(|s| s.to_string()).collect();
    let mut header = vec!["range".to_string(), "upd".to_string(), "thr".to_string()];
    header.extend(names.iter().cloned());

    // The row grid: thread scaling at a fixed moderate mix, then a mix
    // sweep at a fixed thread count.
    let mut specs: Vec<(u64, u32, usize)> = Vec::new();
    for &range in &[64u64, 1024] {
        for &threads in THREADS {
            specs.push((range, 20, threads));
        }
    }
    for &range in &[64u64, 1024] {
        for &updates in &[0u32, 50, 100] {
            specs.push((range, updates, 4));
        }
    }
    let rows: Vec<Vec<String>> = specs
        .iter()
        .map(|&(range, updates, threads)| {
            let mix = mix_with_env_scans(Mix::with_update_percent(updates));
            let mut row = vec![
                range.to_string(),
                format!("{updates}%"),
                threads.to_string(),
            ];
            row.extend(
                selected
                    .iter()
                    .map(|spec| fmt_ops(measure_cell(spec, threads, range, mix))),
            );
            row
        })
        .collect();
    let scan_pct = workloads::knobs::scan_percent();
    print_table(
        &if scan_pct > 0 {
            format!(
                "compare: throughput (ops/s) across all ConcurrentOrderedSet structures \
                 ({scan_pct}% snapshot scans of {} keys in the mix)",
                workloads::knobs::scan_range()
            )
        } else {
            "compare: throughput (ops/s) across all ConcurrentOrderedSet structures".to_string()
        },
        &header,
        &rows,
    );
    println!("counting structures (multisets) and distinct structures (trees) run the same generated streams; columns are directly comparable within a row");
}

/// E1 — step complexity of uncontended SCX vs k-word CAS (paper §1/§2).
///
/// Paper: SCX over k records with f finalized = `k+1` CAS and `f+2`
/// writes; best kCAS [Sundell'11] = `2k+1` CAS; our Harris-style kCAS =
/// `3k+1` CAS.
pub fn e1_step_complexity() {
    let mut rows = Vec::new();
    // An SCX depends on at most 8 records (one descriptor's `V`).
    for k in 1..=8usize {
        // SCX with f = 0 and f = k.
        let scx_cost = |f: usize| {
            let d: Domain<1, u64> = Domain::with_stats();
            let g = crossbeam_epoch::pin();
            let recs: Vec<_> = (0..k).map(|i| d.alloc(i as u64, [0])).collect();
            let snaps: Vec<_> = recs
                .iter()
                .map(|&r| d.llx(unsafe { &*r }, &g).snapshot().unwrap())
                .collect();
            let before = d.stats().unwrap();
            let mask = if f == 0 { 0 } else { (1u64 << f) - 1 };
            assert!(d.scx(
                ScxRequest::new(&snaps, FieldId::new(k - 1, 0), 7).finalize_mask(mask),
                &g
            ));
            let cost = d.stats().unwrap().diff(&before);
            for r in recs {
                unsafe { d.retire(r, &g) };
            }
            (cost.total_cas(), cost.total_writes())
        };
        let (cas_f0, wr_f0) = scx_cost(0);
        let (cas_fk, wr_fk) = scx_cost(k);

        // Harris kCAS measured.
        let cells: Vec<KcasCell> = (0..k).map(|_| KcasCell::new(0)).collect();
        let g = crossbeam_epoch::pin();
        let entries: Vec<_> = cells.iter().map(|c| (c, 0u64, 1u64)).collect();
        let before = mwcas::kcas_cas_count();
        assert!(kcas(&entries, &g));
        let kcas_cas = mwcas::kcas_cas_count() - before;

        rows.push(vec![
            k.to_string(),
            format!("{cas_f0}"),
            format!("{wr_f0}"),
            format!("{cas_fk}"),
            format!("{wr_fk}"),
            format!("{}", 2 * k + 1),
            format!("{kcas_cas}"),
            format!("{:.2}x", (2 * k + 1) as f64 / cas_f0 as f64),
        ]);
    }
    print_table(
        "E1: uncontended step complexity (CAS steps / writes per operation)",
        &[
            "k".into(),
            "SCX CAS (f=0)".into(),
            "SCX wr (f=0)".into(),
            "SCX CAS (f=k)".into(),
            "SCX wr (f=k)".into(),
            "Sundell kCAS (2k+1)".into(),
            "Harris kCAS (meas.)".into(),
            "kCAS/SCX".into(),
        ],
        &rows,
    );
    println!("paper claim: SCX = k+1 CAS, f+2 writes; kCAS >= 2k+1 CAS (§1, §2)");
}

/// E2 — disjoint SCXs all succeed; overlapping SCXs still make progress
/// (paper §3.2).
pub fn e2_disjoint_success() {
    let mut rows = Vec::new();
    for &threads in THREADS {
        // Disjoint: one private record per thread.
        let domain: Domain<1, usize> = Domain::new();
        let records: Vec<usize> = (0..threads)
            .map(|t| domain.alloc(t, [0]) as usize)
            .collect();
        let attempts = AtomicU64::new(0);
        let successes = AtomicU64::new(0);
        run_throughput(threads, cell(), |t: usize| {
            let domain = &domain;
            let attempts = &attempts;
            let successes = &successes;
            let rec = records[t];
            Box::new(move || {
                let r = unsafe { &*(rec as *const llx_scx::DataRecord<1, usize>) };
                let g = llx_scx::pin();
                let Some(s) = domain.llx(r, &g).snapshot() else {
                    return 1;
                };
                attempts.fetch_add(1, Ordering::Relaxed);
                if domain.scx(
                    ScxRequest::new(&[s], FieldId::new(0, 0), s.value(0) + 1),
                    &g,
                ) {
                    successes.fetch_add(1, Ordering::Relaxed);
                }
                1
            })
        });
        let disjoint_rate =
            successes.load(Ordering::Relaxed) as f64 / attempts.load(Ordering::Relaxed) as f64;

        // Overlapping: all threads target one record.
        let domain2: Domain<1, usize> = Domain::new();
        let shared = domain2.alloc(0, [0]) as usize;
        let attempts2 = AtomicU64::new(0);
        let successes2 = AtomicU64::new(0);
        run_throughput(threads, cell(), |_t: usize| {
            let domain2 = &domain2;
            let attempts2 = &attempts2;
            let successes2 = &successes2;
            Box::new(move || {
                let r = unsafe { &*(shared as *const llx_scx::DataRecord<1, usize>) };
                let g = llx_scx::pin();
                let Some(s) = domain2.llx(r, &g).snapshot() else {
                    return 1;
                };
                attempts2.fetch_add(1, Ordering::Relaxed);
                if domain2.scx(
                    ScxRequest::new(&[s], FieldId::new(0, 0), s.value(0) + 1),
                    &g,
                ) {
                    successes2.fetch_add(1, Ordering::Relaxed);
                }
                1
            })
        });
        let succ2 = successes2.load(Ordering::Relaxed);
        let overlap_rate = succ2 as f64 / attempts2.load(Ordering::Relaxed) as f64;
        rows.push(vec![
            threads.to_string(),
            format!("{:.2}%", disjoint_rate * 100.0),
            format!("{:.2}%", overlap_rate * 100.0),
            format!("{succ2}"),
        ]);
    }
    print_table(
        "E2: SCX success rates",
        &[
            "threads".into(),
            "disjoint V-sets".into(),
            "overlapping V-sets".into(),
            "overlapping successes".into(),
        ],
        &rows,
    );
    println!("paper claim: disjoint SCXs all succeed (100%); overlapping SCXs still commit (non-blocking, P4)");
}

/// E3 — VLX on k records costs exactly k shared reads (paper §1).
pub fn e3_vlx_cost() {
    let mut rows = Vec::new();
    for k in [1usize, 2, 4, 8, 16, 32] {
        let d: Domain<1, u64> = Domain::with_stats();
        let g = crossbeam_epoch::pin();
        let recs: Vec<_> = (0..k).map(|i| d.alloc(i as u64, [0])).collect();
        let snaps: Vec<_> = recs
            .iter()
            .map(|&r| d.llx(unsafe { &*r }, &g).snapshot().unwrap())
            .collect();
        let before = d.stats().unwrap();
        assert!(d.vlx(&snaps));
        let cost = d.stats().unwrap().diff(&before);
        rows.push(vec![
            k.to_string(),
            cost.reads.to_string(),
            (cost.total_cas()).to_string(),
        ]);
        for r in recs {
            unsafe { d.retire(r, &g) };
        }
    }
    print_table(
        "E3: VLX cost",
        &["k".into(), "shared reads".into(), "CAS steps".into()],
        &rows,
    );
    println!("paper claim: a VLX on k Data-records only requires reading k words (§1)");
}

/// E7 — ablation: plain-read searches vs LLX-everywhere searches
/// (paper §3 and Proposition 2).
///
/// The paper permits direct reads of mutable fields precisely so that
/// searches need not pay for snapshots: "operations that search through
/// a data structure can use simple reads of pointers instead of the
/// more expensive LLX operations" (§4.3). This ablation measures that
/// design choice on the multiset: `get` implemented with the standard
/// read-based traversal vs a variant that LLXs every node it visits.
pub fn e7_search_ablation() {
    let mut rows = Vec::new();
    for &range in &[16u64, 64, 256, 1024] {
        let set = Multiset::<u64>::new();
        for k in workloads::prefill_keys(range) {
            set.insert(k, 1);
        }

        // Read-based lookups (the paper's design).
        let read_tp = run_throughput(1, cell(), |_t: usize| {
            let set = &set;
            Box::new(move || {
                let mut n = 0;
                for k in (0..range).step_by(3) {
                    let _ = set.get(k);
                    n += 1;
                }
                n
            })
        });

        // LLX-per-node lookups: traverse with an LLX on every visited
        // node, the design Proposition 2 makes unnecessary.
        let llx_tp = run_throughput(1, cell(), |_t: usize| {
            let set = &set;
            Box::new(move || {
                let guard = llx_scx::pin();
                let mut n = 0;
                for k in (0..range).step_by(3) {
                    let mut found = 0u64;
                    set.fold_llx(&guard, |key, snap_count| {
                        if key == k {
                            found = snap_count;
                        }
                        key < k // keep walking while below the target
                    });
                    let _ = found;
                    n += 1;
                }
                n
            })
        });

        rows.push(vec![
            range.to_string(),
            fmt_ops(read_tp),
            fmt_ops(llx_tp),
            format!("{:.2}x", read_tp / llx_tp),
        ]);
    }
    print_table(
        "E7 (ablation): search via plain reads vs LLX per node",
        &[
            "key range".into(),
            "read-based get/s".into(),
            "LLX-based get/s".into(),
            "speedup".into(),
        ],
        &rows,
    );
    println!("paper §4.3: Proposition 2 lets searches use plain reads; this is the cost it avoids");
}

/// E8 — observability: the cooperative machinery under contention.
///
/// Counts the internal steps of the multiset under a write-heavy
/// contended workload: LLX failures, SCX aborts and `Help` invocations
/// beyond the one per own-SCX. Helping in excess of own-SCXs is the
/// paper's cooperative technique in action (§4: processes complete each
/// other's operations instead of waiting).
pub fn e8_helping_stats() {
    let mut rows = Vec::new();
    for &threads in THREADS {
        let set = Multiset::<u64>::new_with_stats();
        // Tiny key range = maximal conflicts.
        for k in workloads::prefill_keys(8) {
            set.insert(k, 1);
        }
        run_throughput(threads, cell(), |t: usize| {
            let set = &set;
            let mut gen = WorkloadGen::new(
                13 + t as u64,
                t,
                KeyDist::uniform(8),
                Mix::with_update_percent(100),
            );
            Box::new(move || {
                let (kind, key) = gen.next_op();
                match kind {
                    OpKind::Get => {
                        let _ = set.get(key);
                    }
                    OpKind::Insert => set.insert(key, 1),
                    OpKind::Remove => {
                        let _ = set.remove(key, 1);
                    }
                    // 100% updates: the generator never emits scans.
                    OpKind::Scan => unreachable!("no scan share in E8"),
                }
                1
            })
        });
        let st = set.stats().expect("stats enabled");
        let cooperative_helps = st.helps.saturating_sub(st.scx_attempts);
        rows.push(vec![
            threads.to_string(),
            st.scx_attempts.to_string(),
            st.scx_commits.to_string(),
            st.scx_aborts.to_string(),
            st.llx_fails.to_string(),
            cooperative_helps.to_string(),
        ]);
    }
    print_table(
        "E8 (observability): cooperative helping under contention (100% updates, 8 keys)",
        &[
            "threads".into(),
            "SCX attempts".into(),
            "commits".into(),
            "aborts".into(),
            "LLX fails".into(),
            "helps beyond own".into(),
        ],
        &rows,
    );
    println!(
        "helps beyond own-SCX = other processes' operations completed cooperatively (paper §4)"
    );
}

/// E6 — progress: obstruction-free KCSS vs non-blocking SCX under heavy
/// contention (paper §2: KCSS "is guaranteed to terminate if it runs
/// alone"; LLX/SCX satisfies the stronger non-blocking condition).
pub fn e6_progress() {
    let mut rows = Vec::new();
    for &threads in &[2usize, 4, 8, 16] {
        // KCSS: all threads increment one location while comparing a
        // second; retries on every conflict, no helping.
        let a = Arc::new(kcss::KcssLoc::new(0));
        let gate = Arc::new(kcss::KcssLoc::new(1));
        let kcss_max_retries = AtomicU64::new(0);
        let kcss_ops = run_throughput(threads, cell(), |_t: usize| {
            let a = Arc::clone(&a);
            let gate = Arc::clone(&gate);
            let maxr = &kcss_max_retries;
            Box::new(move || {
                let mut retries = 0u64;
                loop {
                    let cur = a.read();
                    if kcss::kcss(&a, cur, cur.wrapping_add(1), &[(&gate, 1)]) {
                        break;
                    }
                    retries += 1;
                    if retries > 1_000_000 {
                        // Starved: not a completed operation.
                        maxr.fetch_max(retries, Ordering::Relaxed);
                        return 0;
                    }
                }
                maxr.fetch_max(retries, Ordering::Relaxed);
                1
            })
        });

        // SCX on one shared record.
        let domain: Domain<1, ()> = Domain::new();
        let rec = domain.alloc((), [0]) as usize;
        let scx_max_retries = AtomicU64::new(0);
        let scx_ops = run_throughput(threads, cell(), |_t: usize| {
            let domain = &domain;
            let maxr = &scx_max_retries;
            Box::new(move || {
                let r = unsafe { &*(rec as *const llx_scx::DataRecord<1, ()>) };
                let mut retries = 0u64;
                loop {
                    let g = llx_scx::pin();
                    let Some(s) = domain.llx(r, &g).snapshot() else {
                        retries += 1;
                        continue;
                    };
                    if domain.scx(
                        ScxRequest::new(&[s], FieldId::new(0, 0), s.value(0) + 1),
                        &g,
                    ) {
                        break;
                    }
                    retries += 1;
                }
                maxr.fetch_max(retries, Ordering::Relaxed);
                1
            })
        });

        rows.push(vec![
            threads.to_string(),
            fmt_ops(kcss_ops),
            kcss_max_retries.load(Ordering::Relaxed).to_string(),
            fmt_ops(scx_ops),
            scx_max_retries.load(Ordering::Relaxed).to_string(),
        ]);
    }
    print_table(
        "E6: progress under contention (single hot location)",
        &[
            "threads".into(),
            "KCSS ops/s".into(),
            "KCSS max retries".into(),
            "SCX ops/s".into(),
            "SCX max retries".into(),
        ],
        &rows,
    );
    println!("expected shape: both complete on a preemptive scheduler, but KCSS worst-case retries grow much faster (obstruction freedom vs non-blocking helping)");
}

/// One `scanwin` measurement: full-structure scans racing a fixed-rate
/// writer, first through the atomic (`window = ∞`) cursor, then
/// through the bounded-window cursor. Returns
/// `(writes/s, atomic scans, atomic retries, windowed scans,
/// windowed retries, windowed windows)`.
fn scanwin_cell(
    spec: &StructureSpec,
    range: u64,
    window: u64,
    write_rate: u64,
) -> (f64, u64, u64, u64, u64, u64) {
    let set = spec.build();
    let mut keys: Vec<u64> = workloads::prefill_keys(range).collect();
    use rand::seq::SliceRandom;
    keys.shuffle(&mut rand::rngs::SmallRng::seed_from_u64(99));
    for k in keys {
        set.insert(k, 1);
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The fixed-rate writer: `write_rate` balanced updates per
        // second, paced in 1 ms ticks (a flat-out writer would starve
        // the single-core scanner and turn the atomic column into a
        // pure livelock demo; a *rate* shows retry growth while scans
        // still complete).
        let writer = {
            let set = &*set;
            let stop = &stop;
            scope.spawn(move || {
                let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
                let tick = Duration::from_millis(1);
                // Fractional pacing: carry the writes owed per tick as
                // a remainder so any rate is honored exactly on
                // average, not just multiples of 1000/s.
                let mut owed = 0u64; // in units of 1/1000 write
                let mut writes = 0u64;
                let mut next = Instant::now() + tick;
                while !stop.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if now < next {
                        std::thread::sleep(next - now);
                        continue;
                    }
                    next += tick;
                    owed += write_rate;
                    for _ in 0..owed / 1000 {
                        let k = rng.random_range(0..range);
                        if writes.is_multiple_of(2) {
                            set.insert(k, 1);
                        } else {
                            let _ = set.remove(k, 1);
                        }
                        writes += 1;
                    }
                    owed %= 1000;
                }
                writes
            })
        };
        // One measured phase: repeat full-range scans through a cursor
        // until the deadline; a scan caught mid-retry at the deadline
        // is abandoned (its retries still count — that unfinished work
        // is exactly the atomic path's failure mode).
        let scan_phase = |opts: ScanOpts| -> (u64, u64, u64) {
            let deadline = Instant::now() + cell();
            let (mut scans, mut retries, mut windows) = (0u64, 0u64, 0u64);
            'phase: while Instant::now() < deadline {
                let mut cursor = set.scan(0, range - 1, opts);
                loop {
                    match cursor.next_window(&mut |_k, _c| {}) {
                        ScanStep::Emitted { .. } => {}
                        ScanStep::Retry => {
                            if Instant::now() >= deadline {
                                retries += cursor.retries();
                                windows += cursor.windows();
                                break 'phase;
                            }
                        }
                        ScanStep::Done => break,
                    }
                }
                retries += cursor.retries();
                windows += cursor.windows();
                scans += 1;
            }
            (scans, retries, windows)
        };
        let start = Instant::now();
        let (a_scans, a_retries, _) = scan_phase(ScanOpts::atomic());
        let (w_scans, w_retries, w_windows) = scan_phase(ScanOpts::windowed(window));
        let elapsed = start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        let writes = writer.join().unwrap();
        (
            writes as f64 / elapsed,
            a_scans,
            a_retries,
            w_scans,
            w_retries,
            w_windows,
        )
    })
}

/// `scanwin` — bounded retry work: full-structure windowed scans vs
/// whole-range atomic scans under a fixed-rate writer, swept over
/// window size × range, for every registered structure, both retry
/// columns in one table.
///
/// The atomic cursor must revalidate the *entire* range after any
/// conflict, so its retries/scan grow with the range (compare the two
/// range rows of one structure); the windowed cursor revalidates only
/// the dirty window, so its retries/window stay flat — the ROADMAP's
/// bounded-retry claim, measured. `LLX_SCAN_WINDOW` (when > 0) pins a
/// single window size and `LLX_SCANWIN_WRITE_RATE` sets the writer's
/// target rate.
pub fn scanwin() {
    let window_knob = workloads::knobs::scan_window();
    let windows: Vec<u64> = if window_knob > 0 {
        vec![window_knob]
    } else {
        vec![16, 64]
    };
    let ranges: &[u64] = &[256, 1024];
    let write_rate = workloads::knobs::env_u64("LLX_SCANWIN_WRITE_RATE", 2000);
    let selected = conc_set::selected_specs();

    // Single-token cells (CI greps field counts); `12r/0` = 12 retries
    // with nothing completed — the livelock end of the atomic path.
    let per = |num: u64, den: u64| -> String {
        if den == 0 {
            format!("{num}r/0")
        } else {
            format!("{:.2}", num as f64 / den as f64)
        }
    };
    let mut rows = Vec::new();
    for &range in ranges {
        for &window in &windows {
            for spec in &selected {
                let (wps, a_scans, a_retries, w_scans, w_retries, w_wins) =
                    scanwin_cell(spec, range, window, write_rate);
                rows.push(vec![
                    spec.to_string(),
                    range.to_string(),
                    window.to_string(),
                    format!("{wps:.0}"),
                    a_scans.to_string(),
                    per(a_retries, a_scans),
                    w_scans.to_string(),
                    per(w_retries, w_wins),
                    per(w_wins, w_scans),
                ]);
            }
        }
    }
    print_table(
        &format!(
            "scanwin: full-structure scan retries under a ~{write_rate}/s writer \
             (atomic = whole-range revalidation, windowed = per-window)"
        ),
        &[
            "structure".into(),
            "range".into(),
            "win".into(),
            "wr/s".into(),
            "atomic scans".into(),
            "a-retry/scan".into(),
            "win scans".into(),
            "w-retry/win".into(),
            "win/scan".into(),
        ],
        &rows,
    );
    println!("atomic retries/scan grow with range (one conflict restarts the whole validation); windowed retries/window stay flat (only the dirty window restarts, the cursor resumes from the last emitted key); lock-based structures never retry by construction");
}

/// The fault mix `chaos` arms when `LLX_FAULT_SPEC` does not override
/// it: rare hard wire faults (connection kills, torn frames), frequent
/// soft ones (refused scans, starved pool, skipped collection ticks).
const CHAOS_SPEC: &str = "scx.pool.alloc_miss=prob:0.05,\
                          scx.pool.steal_fail=prob:0.2,\
                          epoch.tick.skip=prob:0.25,\
                          net.conn.drop=prob:0.002,\
                          net.frame.torn=prob:0.002,\
                          net.scan.drop=prob:0.05";

/// Panic with the failing seed and the replay recipe — the whole point
/// of deterministic injection is that this line is all a bug report
/// needs.
fn chaos_check(ok: bool, seed: u64, msg: &str) {
    assert!(
        ok,
        "chaos run violated an invariant (seed {seed:#x}): {msg}\n  \
         replay: tools/fault-replay.sh {seed:#x}"
    );
}

/// Drive the epoch collector until deferred destructions have run, so
/// leak checks sample a quiescent ledger.
fn drain_epochs() {
    llx_scx::flush_reclamation();
    for _ in 0..256 {
        crossbeam_epoch::pin().flush();
    }
}

/// `chaos` — the resilience soak: a loopback [`netsvc::Server`] over a
/// sharded multiset, hammered by `LLX_NET_CONNS` resilient clients
/// while the fault injector kills connections mid-batch, tears reply
/// frames, drops scan streams, starves the record pool, and skips
/// epoch collection ticks. `LLX_CHAOS_RUNS` consecutive runs use seeds
/// `LLX_FAULT_SEED + 0..runs`; every fault decision is a pure function
/// of `(spec, seed, hit index)`, so a failing seed replays bit-for-bit
/// with `tools/fault-replay.sh SEED`.
///
/// Each client owns a disjoint key partition and keeps an op ledger:
/// `Applied` mutations count exactly (the server's answer), `Unknown`
/// ones widen the key's feasible window by one in the direction of the
/// op, `Retry` outcomes count nothing (definitely not applied). After
/// the run the injector is cleared and ground truth reconciled:
///
/// * **conservation / at-most-once** — every key's final count lies in
///   its ledger window (partitioned keys make the window exact; a
///   double-applied mutation lands outside it), and the served
///   structure's `len()` equals the summed final counts and passes
///   `validate()`;
/// * **bounded descriptors** — the SCX descriptor table grows by at
///   most one slot per thread that can hold one at once: the session
///   cap, plus one per client whose old session is still exiting when
///   it reconnects;
/// * **bounded completion** — every client finishes its script within
///   the run deadline: no retry loop spins and no session wedges.
pub fn chaos() {
    use netsvc::{
        Client, ClientConfig, MutationOutcome, ResilientClient, RetryPolicy, Server, ServerConfig,
    };
    use std::collections::BTreeMap;

    let runs = workloads::knobs::chaos_runs();
    let ops = workloads::knobs::chaos_ops();
    let conns = workloads::knobs::net_conns();
    let spec = std::env::var("LLX_FAULT_SPEC").unwrap_or_else(|_| CHAOS_SPEC.replace(' ', ""));
    let base_seed = std::env::var("LLX_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(faultpoint::DEFAULT_SEED);
    const PART: u64 = 512; // keys per client partition
    const PART_STRIDE: u64 = 1024; // partition spacing (disjointness)
    const PREFILL: u64 = 128; // prefilled keys per partition

    println!("\nchaos: {runs} seeded runs, {conns} resilient clients x {ops} ops, spec {spec}");
    // The harness owns the injection schedule: disarm whatever the
    // lazy env pull installed (with LLX_FAULT_SPEC exported, the first
    // epoch pin above already armed it), or the un-resilient prefill
    // below runs under fire. Each run re-arms at its own configure().
    faultpoint::clear();
    let mut rows = Vec::new();
    let mut fault_totals: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for run in 0..runs {
        let seed = base_seed.wrapping_add(run);
        drain_epochs();
        let baseline = llx_scx::scx_descriptors();
        let specs = vec![StructureSpec::parse("sharded(scx-multiset,4)").unwrap()];
        let config = ServerConfig::default();
        let peak_threads = config.max_sessions + conns;
        let server = Server::spawn(&specs, config).expect("bind loopback");
        let addr = server.local_addr();
        // Prefill before arming faults: removes need stock, and the
        // prefill ledger must be definite.
        {
            let mut c = Client::connect(addr).expect("prefill connect");
            for t in 0..conns as u64 {
                for off in 0..PREFILL {
                    c.insert(0, t * PART_STRIDE + off, 1)
                        .expect("prefill insert");
                }
            }
        }
        faultpoint::configure(&spec, seed).expect("valid fault spec");
        let start = Instant::now();
        let handles: Vec<_> = (0..conns as u64)
            .map(|t| {
                std::thread::spawn(move || {
                    let cfg = ClientConfig {
                        connect_timeout: Duration::from_millis(500),
                        read_timeout: Duration::from_millis(2000),
                        retry: RetryPolicy {
                            max_attempts: 5,
                            base: Duration::from_millis(2),
                            cap: Duration::from_millis(50),
                        },
                        seed: seed ^ (t + 1),
                    };
                    let mut rc = ResilientClient::new(addr, cfg);
                    let base = t * PART_STRIDE;
                    // Per-key ledger: [definite_adds, definite_removes,
                    // unknown_adds, unknown_removes].
                    let mut ledger = vec![[0u64; 4]; PART as usize];
                    for off in 0..PREFILL {
                        ledger[off as usize][0] = 1;
                    }
                    let (mut applied, mut unknown, mut gaveup) = (0u64, 0u64, 0u64);
                    let (mut read_errs, mut scan_errs) = (0u64, 0u64);
                    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (t + 1);
                    for i in 0..ops {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let off = (x >> 8) % PART;
                        let key = base + off;
                        match x % 10 {
                            0..=4 => match rc.insert(0, key, 1) {
                                MutationOutcome::Applied(v) => {
                                    assert_eq!(v, 1, "multiset insert adds exactly its count");
                                    applied += 1;
                                    ledger[off as usize][0] += 1;
                                }
                                MutationOutcome::Unknown => {
                                    unknown += 1;
                                    ledger[off as usize][2] += 1;
                                }
                                MutationOutcome::Retry => gaveup += 1,
                            },
                            5..=7 => match rc.remove(0, key, 1) {
                                MutationOutcome::Applied(v) => {
                                    assert!(v <= 1, "removed more than requested");
                                    applied += 1;
                                    ledger[off as usize][1] += v;
                                }
                                MutationOutcome::Unknown => {
                                    unknown += 1;
                                    ledger[off as usize][3] += 1;
                                }
                                MutationOutcome::Retry => gaveup += 1,
                            },
                            8 => {
                                if rc.get(0, key).is_err() {
                                    read_errs += 1;
                                }
                            }
                            _ => {
                                if i % 128 == 0 {
                                    match rc.range_scan(0, base, base + PART - 1, 64) {
                                        Ok(pairs) => {
                                            for &(k, _) in &pairs {
                                                assert!(
                                                    (base..base + PART).contains(&k),
                                                    "scan leaked key {k} into partition {t}"
                                                );
                                            }
                                        }
                                        Err(_) => scan_errs += 1,
                                    }
                                } else if rc.len(0).is_err() {
                                    read_errs += 1;
                                }
                            }
                        }
                    }
                    (
                        ledger,
                        applied,
                        unknown,
                        gaveup,
                        read_errs,
                        scan_errs,
                        rc.counters(),
                    )
                })
            })
            .collect();
        let joined: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("chaos client panicked"))
            .collect();
        let elapsed = start.elapsed();
        // Verification is fault-free: clear first, reconcile after.
        for p in faultpoint::stats() {
            let e = fault_totals.entry(p.name.clone()).or_insert((0, 0));
            e.0 += p.hits;
            e.1 += p.fires;
        }
        faultpoint::clear();
        chaos_check(
            elapsed < Duration::from_secs(120),
            seed,
            &format!("bounded completion: run took {elapsed:?}"),
        );
        let mut check = Client::connect(addr).expect("verify connect");
        let mut total_lo = 0i128;
        let mut total_hi = 0i128;
        let mut sum_final = 0u64;
        for (t, (ledger, ..)) in joined.iter().enumerate() {
            let base = t as u64 * PART_STRIDE;
            for (off, l) in ledger.iter().enumerate() {
                let [da, dr, ua, ur] = *l;
                let lo = (da as i128 - dr as i128 - ur as i128).max(0);
                let hi = da as i128 - dr as i128 + ua as i128;
                if lo == 0 && hi == 0 {
                    continue; // untouched key
                }
                let key = base + off as u64;
                let got = check.get(0, key).expect("verify get") as i128;
                chaos_check(
                    (lo..=hi).contains(&got),
                    seed,
                    &format!(
                        "op-ledger conservation: key {key} holds {got}, \
                         ledger {l:?} allows [{lo}, {hi}]"
                    ),
                );
                total_lo += lo;
                total_hi += hi;
                sum_final += got as u64;
            }
        }
        let len = check.len(0).expect("verify len");
        chaos_check(
            len == sum_final,
            seed,
            &format!("len() {len} != summed per-key counts {sum_final}"),
        );
        chaos_check(
            (total_lo..=total_hi).contains(&(len as i128)),
            seed,
            &format!("global conservation: len {len} outside [{total_lo}, {total_hi}]"),
        );
        let set = server.structure(0).expect("served structure");
        if let Err(e) = set.validate() {
            chaos_check(false, seed, &format!("structure validation failed: {e}"));
        }
        let stats = server.stats();
        drop(check);
        drop(set);
        server.shutdown();
        drain_epochs();
        let grown = llx_scx::scx_descriptors() - baseline;
        chaos_check(
            grown <= peak_threads,
            seed,
            &format!("SCX descriptors grew by {grown}, more than {peak_threads} threads"),
        );
        let (applied, unknown, gaveup, read_errs, scan_errs) = joined.iter().fold(
            (0u64, 0u64, 0u64, 0u64, 0u64),
            |acc, (_, a, u, g, r, s, _)| (acc.0 + a, acc.1 + u, acc.2 + g, acc.3 + r, acc.4 + s),
        );
        let (reconnects, retries, busy) = joined.iter().fold((0u64, 0u64, 0u64), |acc, j| {
            (acc.0 + j.6.connects, acc.1 + j.6.retries, acc.2 + j.6.busy)
        });
        rows.push(vec![
            run.to_string(),
            format!("{seed:#x}"),
            applied.to_string(),
            unknown.to_string(),
            gaveup.to_string(),
            (read_errs + scan_errs).to_string(),
            reconnects.to_string(),
            retries.to_string(),
            busy.to_string(),
            stats.session_errors.to_string(),
            len.to_string(),
            format!("{}ms", elapsed.as_millis()),
        ]);
    }
    print_table(
        &format!(
            "chaos: {runs} seeded runs survived — conservation, at-most-once, \
             bounded descriptors, bounded completion all held"
        ),
        &[
            "run".into(),
            "seed".into(),
            "applied".into(),
            "unknown".into(),
            "retry".into(),
            "rd/sc errs".into(),
            "conns".into(),
            "retries".into(),
            "busy".into(),
            "sess errs".into(),
            "final len".into(),
            "elapsed".into(),
        ],
        &rows,
    );
    let fault_rows: Vec<Vec<String>> = fault_totals
        .iter()
        .map(|(name, &(hits, fires))| vec![name.clone(), hits.to_string(), fires.to_string()])
        .collect();
    print_table(
        "chaos: injection-point totals across all runs",
        &["point".into(), "hits".into(), "fires".into()],
        &fault_rows,
    );
    println!("every mutation ended Applied (exact), Retry (definitely not applied), or Unknown (ledger window widened by one); the reconciliation above is the proof no mutation double-applied and the SCX descriptor table stayed bounded while connections were being killed mid-batch");
}
