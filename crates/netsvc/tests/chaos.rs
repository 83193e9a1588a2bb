//! The resilience soak: a loopback [`Server`] over a sharded multiset,
//! hammered by [`CONNS`] resilient clients while the fault injector
//! kills connections mid-batch, tears reply frames, drops scan streams,
//! starves the record pool, and skips epoch collection ticks.
//!
//! [`RUNS`] consecutive runs use seeds `LLX_FAULT_SEED + 0..RUNS`
//! (default [`faultpoint::DEFAULT_SEED`]) under `LLX_FAULT_SPEC`
//! (default [`CHAOS_SPEC`]). Every fault decision is a pure function of
//! `(spec, seed, hit index)`, so a failing seed replays bit-for-bit
//! with `tools/fault-replay.sh SEED`.
//!
//! Each client owns a disjoint key partition and keeps an op ledger:
//! `Applied` mutations count exactly (the server's answer), `Unknown`
//! ones widen the key's feasible window by one in the direction of the
//! op, `Retry` outcomes count nothing (definitely not applied). After
//! each run the injector is cleared and ground truth reconciled:
//!
//! * **conservation / at-most-once** — every key's final count lies in
//!   its ledger window (partitioned keys make the window exact; a
//!   double-applied mutation lands outside it), and the served
//!   structure's `len()` equals the summed final counts and passes
//!   `validate()`;
//! * **bounded descriptors** — the SCX descriptor table grows by at
//!   most one slot per thread that can hold one at once: the session
//!   cap, plus one per client whose old session is still exiting when
//!   it reconnects;
//! * **bounded completion** — every client finishes its script within
//!   the run deadline: no retry loop spins and no session wedges.
//!
//! `faultpoint` configuration is process-global, so this binary holds
//! this one test and nothing else.

use std::time::{Duration, Instant};

use conc_set::StructureSpec;
use netsvc::{
    Client, ClientConfig, MutationOutcome, ResilientClient, RetryPolicy, Server, ServerConfig,
};

/// Consecutive seeded runs.
const RUNS: u64 = 5;
/// Operations each client attempts per run.
const OPS: u64 = 1500;
/// Concurrent resilient clients per run.
const CONNS: u64 = 4;
const PART: u64 = 512; // keys per client partition
const PART_STRIDE: u64 = 1024; // partition spacing (disjointness)
const PREFILL: u64 = 128; // prefilled keys per partition

/// The fault mix armed when `LLX_FAULT_SPEC` does not override it: rare
/// hard wire faults (connection kills, torn frames), frequent soft ones
/// (refused scans, starved pool, skipped collection ticks).
const CHAOS_SPEC: &str = "scx.pool.alloc_miss=prob:0.05,\
                          epoch.tick.skip=prob:0.25,\
                          net.conn.drop=prob:0.002,\
                          net.frame.torn=prob:0.002,\
                          net.scan.drop=prob:0.05";

/// Per-key ledger: `[definite_adds, definite_removes, unknown_adds,
/// unknown_removes]`.
type Ledger = Vec<[u64; 4]>;

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

#[test]
fn chaos_runs_conserve_ledgers_and_bound_descriptors() {
    let spec = std::env::var("LLX_FAULT_SPEC").unwrap_or_else(|_| CHAOS_SPEC.replace(' ', ""));
    let base_seed = std::env::var("LLX_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(faultpoint::DEFAULT_SEED);
    // The test owns the injection schedule: disarm whatever the lazy
    // env pull installed (with LLX_FAULT_SPEC exported, the first epoch
    // pin already armed it), or the un-resilient prefill runs under
    // fire. Each run re-arms at its own configure().
    faultpoint::clear();
    for run in 0..RUNS {
        chaos_run(&spec, base_seed.wrapping_add(run));
    }
}

/// One seeded run: prefill, the faulted client scripts, then the
/// fault-free reconciliation.
fn chaos_run(spec: &str, seed: u64) {
    drain_epochs();
    let baseline = llx_scx::scx_descriptors();
    let specs = vec![StructureSpec::parse("sharded(scx-multiset,4)").unwrap()];
    let config = ServerConfig::default();
    let peak_threads = config.max_sessions + CONNS as usize;
    let server = Server::spawn(&specs, config).expect("bind loopback");
    let addr = server.local_addr();
    // Prefill before arming faults: removes need stock, and the prefill
    // ledger must be definite.
    {
        let mut c = Client::connect(addr).expect("prefill connect");
        for t in 0..CONNS {
            for off in 0..PREFILL {
                c.insert(0, t * PART_STRIDE + off, 1)
                    .expect("prefill insert");
            }
        }
    }
    faultpoint::configure(spec, seed).expect("valid fault spec");
    let start = Instant::now();
    let handles: Vec<_> = (0..CONNS)
        .map(|t| std::thread::spawn(move || client_script(addr, seed, t)))
        .collect();
    let ledgers: Vec<Ledger> = handles
        .into_iter()
        .map(|h| h.join().expect("chaos client panicked"))
        .collect();
    let elapsed = start.elapsed();
    // Verification is fault-free: clear first, reconcile after.
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
    for (t, ledger) in ledgers.iter().enumerate() {
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
}

/// Client `t`'s seeded script over its own key partition: 50% inserts,
/// 30% removes, 10% gets, 10% `len`s with every 128th op a partition
/// scan instead. Returns the partition's ledger.
fn client_script(addr: std::net::SocketAddr, seed: u64, t: u64) -> Ledger {
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
    let mut ledger = vec![[0u64; 4]; PART as usize];
    for off in 0..PREFILL {
        ledger[off as usize][0] = 1;
    }
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (t + 1);
    for i in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let off = (x >> 8) % PART;
        let key = base + off;
        match x % 10 {
            0..=4 => match rc.insert(0, key, 1) {
                MutationOutcome::Applied(v) => {
                    assert_eq!(v, 1, "multiset insert adds exactly its count");
                    ledger[off as usize][0] += 1;
                }
                MutationOutcome::Unknown => ledger[off as usize][2] += 1,
                MutationOutcome::Retry => {}
            },
            5..=7 => match rc.remove(0, key, 1) {
                MutationOutcome::Applied(v) => {
                    assert!(v <= 1, "removed more than requested");
                    ledger[off as usize][1] += v;
                }
                MutationOutcome::Unknown => ledger[off as usize][3] += 1,
                MutationOutcome::Retry => {}
            },
            // Read errors are expected under the fault mix; only what a
            // successful scan returns is checked.
            8 => {
                let _ = rc.get(0, key);
            }
            _ if i % 128 == 0 => {
                if let Ok(pairs) = rc.range_scan(0, base, base + PART - 1, 64) {
                    for &(k, _) in &pairs {
                        assert!(
                            (base..base + PART).contains(&k),
                            "scan leaked key {k} into partition {t}"
                        );
                    }
                }
            }
            _ => {
                let _ = rc.len(0);
            }
        }
    }
    ledger
}
