//! Workload generation for the benchmark harness.
//!
//! The evaluation style of the paper's §6 follow-up (and of the
//! concurrent-dictionary literature it compares against) sweeps three
//! parameters: thread count, key-range size, and operation mix
//! (reads/inserts/deletes). This crate provides the deterministic
//! generators those sweeps use:
//!
//! * [`Mix`] — an operation mix in percent;
//! * [`KeyDist`] — uniform or Zipf-distributed key choice;
//! * [`WorkloadGen`] — a per-thread deterministic stream of operations;
//! * [`prefill_keys`] — the standard 50%-full prefill sequence.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The kind of an operation in a generated stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A lookup.
    Get,
    /// An insertion.
    Insert,
    /// A deletion.
    Remove,
    /// A range scan starting at the sampled key; the consumer chooses
    /// the scan width (see `LLX_SCAN_RANGE` in [`knobs`]).
    Scan,
}

/// An operation mix in percent; must sum to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Percent of lookups.
    pub get: u32,
    /// Percent of insertions.
    pub insert: u32,
    /// Percent of deletions.
    pub remove: u32,
    /// Percent of range scans.
    pub scan: u32,
}

impl Mix {
    /// A mix with `updates`% updates (split evenly between inserts and
    /// removes), no scans, and the rest lookups.
    ///
    /// # Panics
    ///
    /// Panics if `updates > 100`.
    pub fn with_update_percent(updates: u32) -> Self {
        assert!(updates <= 100, "update percentage over 100");
        Mix {
            get: 100 - updates,
            insert: updates / 2 + updates % 2,
            remove: updates / 2,
            scan: 0,
        }
    }

    /// This mix with `scan`% of the lookup share converted into range
    /// scans (updates are untouched, so ledger-based conservation tests
    /// keep their insert/remove balance).
    ///
    /// # Panics
    ///
    /// Panics if `scan` exceeds the mix's lookup percentage.
    pub fn with_scan_percent(mut self, scan: u32) -> Self {
        assert!(
            scan <= self.get + self.scan,
            "scan percentage exceeds the lookup share"
        );
        self.get = self.get + self.scan - scan;
        self.scan = scan;
        self
    }

    /// Validate that the mix sums to 100.
    pub fn validate(&self) -> Result<(), String> {
        let total = self.get + self.insert + self.remove + self.scan;
        if total == 100 {
            Ok(())
        } else {
            Err(format!("mix sums to {total}"))
        }
    }
}

/// Key distribution over `0..n`.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Uniform over `0..n`.
    Uniform {
        /// Key-range size.
        n: u64,
    },
    /// Zipf over `0..n` with skew `theta` in `(0, 1)`; popular keys are
    /// sampled far more often (models skewed access).
    Zipf {
        /// Key-range size.
        n: u64,
        /// Skew parameter; `0.99` is the YCSB default.
        theta: f64,
        /// Precomputed generalized harmonic number `H_{n,theta}`.
        zetan: f64,
    },
}

impl KeyDist {
    /// Uniform keys over `0..n`.
    pub fn uniform(n: u64) -> Self {
        assert!(n > 0);
        KeyDist::Uniform { n }
    }

    /// Zipf keys over `0..n` with skew `theta` (e.g. `0.99`).
    ///
    /// Precomputes the harmonic normalizer in `O(n)`.
    pub fn zipf(n: u64, theta: f64) -> Self {
        assert!(n > 0);
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zetan = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        KeyDist::Zipf { n, theta, zetan }
    }

    /// The key-range size.
    pub fn range(&self) -> u64 {
        match self {
            KeyDist::Uniform { n } => *n,
            KeyDist::Zipf { n, .. } => *n,
        }
    }

    /// Sample a key.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match self {
            KeyDist::Uniform { n } => rng.random_range(0..*n),
            KeyDist::Zipf { n, theta, zetan } => {
                // Gray et al., "Quickly generating billion-record
                // synthetic databases": inverse-CDF approximation.
                let n = *n;
                let theta = *theta;
                let alpha = 1.0 / (1.0 - theta);
                let zeta2: f64 = (1..=2u64.min(n))
                    .map(|i| 1.0 / (i as f64).powf(theta))
                    .sum();
                let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                let u: f64 = rng.random();
                let uz = u * zetan;
                let rank = if uz < 1.0 {
                    1
                } else if uz < 1.0 + 0.5f64.powf(theta) {
                    2
                } else {
                    1 + ((n as f64) * (eta * u - eta + 1.0).powf(alpha)) as u64
                };
                rank.min(n) - 1
            }
        }
    }
}

/// A deterministic per-thread operation stream.
#[derive(Debug)]
pub struct WorkloadGen {
    rng: SmallRng,
    dist: KeyDist,
    mix: Mix,
}

impl WorkloadGen {
    /// A generator seeded by `(seed, thread)`, so concurrent threads get
    /// distinct, reproducible streams.
    ///
    /// # Panics
    ///
    /// Panics if the mix does not sum to 100.
    pub fn new(seed: u64, thread: usize, dist: KeyDist, mix: Mix) -> Self {
        mix.validate().expect("operation mix must sum to 100");
        let rng = SmallRng::seed_from_u64(
            seed.wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(thread as u64 + 1),
        );
        WorkloadGen { rng, dist, mix }
    }

    /// The next `(operation, key)` pair. For [`OpKind::Scan`] the key is
    /// the inclusive lower bound of the scanned range.
    pub fn next_op(&mut self) -> (OpKind, u64) {
        let roll = self.rng.random_range(0..100u32);
        let kind = if roll < self.mix.get {
            OpKind::Get
        } else if roll < self.mix.get + self.mix.insert {
            OpKind::Insert
        } else if roll < self.mix.get + self.mix.insert + self.mix.remove {
            OpKind::Remove
        } else {
            OpKind::Scan
        };
        (kind, self.dist.sample(&mut self.rng))
    }
}

/// The standard prefill: insert every other key of `0..n` so that the
/// structure is ~50% full and sizes stay stable under balanced
/// insert/delete mixes.
pub fn prefill_keys(n: u64) -> impl Iterator<Item = u64> {
    (0..n).step_by(2)
}

/// Environment-variable knobs shared across the workspace — the one
/// place they are all documented. CI runs use small defaults; soak runs
/// scale up without editing tests.
///
/// | Variable | Consumer | Effect |
/// |---|---|---|
/// | `LLX_STRESS_MILLIS` | stress/concurrent tests (`llx-scx`, `multiset`, `trees`, root `conc_stress`) | duration (ms) of each stop-flag churn phase (defaults 100–200) |
/// | `LLX_STRESS_SCALE` | bounded stress loops | integer multiplier for iteration counts (default 1) |
/// | `LLX_LIN_ROUNDS_SCALE` | root `linearizability` tests | integer multiplier for WGL-checked rounds per structure (default 1) |
/// | `LLX_SCAN_RANGE` | scan-mix stress tests (root `conc_stress`) | width (number of keys) of each scanned range (default 16) |
/// | `LLX_SCAN_WINDOW` | scan-mix stress tests (root `conc_stress`, `scan_cursor`; ci.sh `scanwin` stage) | keys per validated window of a **windowed** scan cursor; `0` (default) keeps scans atomic (whole-range snapshots). Stress runs with a window also assert the per-window conservation laws |
/// | `LLX_MODEL_BOUND` | `tests/model.rs` under `--cfg llx_model` (ci.sh `model` stage) | preemption bound of the deterministic schedule explorer: max voluntary context switches the DFS may inject per execution (default 2; forced switches at blocking/termination are free). The full `./ci.sh` run exports `1` for speed; the regression scenarios pin `>= 2` themselves |
/// | `LLX_MODEL_STEPS` | `tests/model.rs` under `--cfg llx_model` | per-execution scheduling-step cap before a schedule is abandoned as a suspected livelock (default 20000); abandoned schedules are reported and make the run non-exhaustive |
/// | `LLX_MODEL_SCHEDULES` | `tests/model.rs` under `--cfg llx_model` | max schedules explored per scenario; `0` (default) = exhaustive up to the bound |
/// | `LLX_LIN_EVENTS` | root `linearizability` long-round tests (ci.sh `lin-long` stage) | events per long recorded round checked by the partitioned JIT checker (default 2048, floored at 64) |
/// | `LLX_LIN_CHECKER` | root `linearizability` small-round tests | which backend judges the small WGL-sized rounds: `wgl`, `jit`, or `both` (default `both` — cross-checks and fails on disagreement). Long rounds always use JIT; the WGL bitmask cannot represent them |
/// | `LLX_LIN_DIFF_CASES` | `linearize` `differential` test | histories generated for the WGL-vs-JIT differential sweep (default 3000, floor 2000; half are mutated) |
/// | `LLX_STRUCT` | `conc-set` registry (`selected_specs`), so the root linearizability/stress/scan tests | comma-separated `StructureSpec` list selecting which structures the generic harnesses run — e.g. `patricia,sharded(patricia,4)`. Unset = every registered bare structure. Bad specs fail fast with a line/column parse error |
/// | `LLX_SHARDS` | `conc-set` `StructureSpec` parsing | shard count a `sharded(X)` spec without an explicit count resolves to (default 4, clamped to at least 1) |
/// | `LLX_SHARD_DOMAIN` | `conc-set` `ShardedSet` partition map | the key prefix `[0, domain)` that is split evenly across shards; the last shard also owns the tail up to `MAX_KEY` (default 1024, clamped to at least 1). Keep it near the workload's key-range so small-key benches actually spread across shards |
/// | `LLX_NET_ADDR` | `netsvc` server (`ServerConfig::default`) | bind address of the network service tier (default `127.0.0.1:0`, an OS-assigned loopback port; `Server::local_addr` reports the real one) |
/// | `LLX_NET_BATCH` | `netsvc` sessions | max pipelined requests drained into one server-side batch; the batch's point ops share a single epoch pin (default 64, clamped to 1..=4096) |
/// | `LLX_NET_MAX_SESSIONS` | `netsvc` accept loop | live-session cap; connections past it are shed at accept time with one `Busy` frame, no thread spawned (default 256, clamped to 1..=16384) |
/// | `LLX_NET_IDLE_MS` | `netsvc` sessions | idle-deadline reaper: a session that completes no *frame* in this window is evicted — the clock never resets on byte dribble, so slow-loris clients cannot hold a session thread (default 10000; `0` disables) |
/// | `LLX_NET_MAX_SCANS` | `netsvc` sessions | concurrent `RangeScan`-stream cap; excess scans (and scans during shutdown drain) answer `Busy` while point ops keep flowing (default 32, clamped to 1..=4096) |
/// | `LLX_NET_TIMEOUT_MS` | `netsvc` `ResilientClient` | connect/read timeout per attempt (default 1000, floored at 10) |
/// | `LLX_NET_RETRY_MAX` | `netsvc` `ResilientClient` | attempts per idempotent op / definite-failure mutation before giving up (default 5, clamped to 1..=100) |
/// | `LLX_NET_RETRY_BASE_MS` | `netsvc` `ResilientClient` | first-retry backoff of the capped exponential schedule; attempt k waits jittered `min(cap, base·2^k)` (default 10) |
/// | `LLX_NET_RETRY_CAP_MS` | `netsvc` `ResilientClient` | backoff ceiling (default 500) |
/// | `LLX_FAULT_SPEC` | `faultpoint` (armed lazily on first `fire`), `netsvc` `chaos` test (overrides its fault mix) | the fault-injection spec, `name=trigger` comma list with triggers `prob:P`, `every:N`, `once:N` — e.g. `net.conn.drop=prob:0.01,epoch.tick.skip=every:64`; see the `faultpoint` crate docs for the point table. Unset = every point inert |
/// | `LLX_FAULT_SEED` | `faultpoint`, `netsvc` `chaos` test | seed of the deterministic per-point RNG streams behind `prob:` triggers (default `0xFA17`); replaying a failing seed replays its faults. The chaos test runs seeds `LLX_FAULT_SEED + 0..5`; `tools/fault-replay.sh SEED` sets it |
/// | `PROPTEST_CASES` | every property test (proptest shim) | overrides the case count |
/// | `PROPTEST_SEED` | every property test (proptest shim) | perturbs the otherwise deterministic streams |
///
/// The `llx-scx` record pool has no knobs: its free-list capacity
/// (8192 blocks per thread and layout, what one epoch tick of a netsvc
/// session matures) is a constant, and pooling runs unconditionally —
/// it won its A/B on the repository benchmark (numbers in the `llx-scx`
/// `pool` module docs), so the switch that selected the losing arm was
/// deleted, and so was the cross-thread handoff once blocks matured on
/// the thread that retired them.
///
/// Example soak:
/// `LLX_STRESS_MILLIS=5000 LLX_LIN_ROUNDS_SCALE=20 PROPTEST_CASES=4096 cargo test --release`
pub mod knobs {
    use std::time::Duration;

    /// A duration knob: `var` (milliseconds) overrides `default_ms`.
    pub fn env_millis(var: &str, default_ms: u64) -> Duration {
        let ms = std::env::var(var)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_ms);
        Duration::from_millis(ms)
    }

    /// A multiplier knob: `var` is an integer scale factor (default 1,
    /// clamped to at least 1).
    pub fn env_scale(var: &str) -> u64 {
        std::env::var(var)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1)
            .max(1)
    }

    /// A plain integer knob: `var` overrides `default`.
    pub fn env_u64(var: &str, default: u64) -> u64 {
        std::env::var(var)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// `LLX_SCAN_RANGE`: width in keys of each scanned range (default
    /// 16, clamped to at least 1).
    pub fn scan_range() -> u64 {
        env_u64("LLX_SCAN_RANGE", 16).max(1)
    }

    /// `LLX_SCAN_WINDOW`: keys per validated window of a windowed scan
    /// cursor; `0` (the default) means scans stay atomic
    /// (whole-range snapshots).
    pub fn scan_window() -> u64 {
        env_u64("LLX_SCAN_WINDOW", 0)
    }

    /// `LLX_LIN_EVENTS`: events per long linearizability round (default
    /// 2048). Callers floor this at 64 so a tiny override still
    /// exercises the long-round code paths.
    pub fn lin_events() -> u64 {
        env_u64("LLX_LIN_EVENTS", 2048)
    }

    /// `LLX_LIN_CHECKER`: which backend judges small recorded rounds —
    /// `wgl`, `jit`, or `both`. `None` (unset) lets the caller pick its
    /// default (the root tests use `both`).
    pub fn lin_checker() -> Option<String> {
        std::env::var("LLX_LIN_CHECKER").ok()
    }

    /// `LLX_STRUCT`: the comma-separated `StructureSpec` list the
    /// generic harnesses run against (parsed by
    /// `conc_set::StructureSpec`), or `None` (unset / empty) for every
    /// registered bare structure.
    pub fn struct_spec() -> Option<String> {
        std::env::var("LLX_STRUCT")
            .ok()
            .filter(|s| !s.trim().is_empty())
    }

    /// `LLX_SHARDS`: the shard count a `sharded(X)` spec without an
    /// explicit count resolves to (default 4, clamped to at least 1).
    pub fn shards() -> u64 {
        env_u64("LLX_SHARDS", 4).max(1)
    }

    /// `LLX_SHARD_DOMAIN`: the key prefix `[0, domain)` a `ShardedSet`
    /// splits evenly across its shards; the last shard also owns the
    /// tail up to the trait's `MAX_KEY` (default 1024, clamped to at
    /// least 1).
    pub fn shard_domain() -> u64 {
        env_u64("LLX_SHARD_DOMAIN", 1024).max(1)
    }

    /// `LLX_NET_ADDR`: the address the `netsvc` server binds (default
    /// `127.0.0.1:0` — an OS-assigned loopback port; read the real one
    /// back from `Server::local_addr`).
    pub fn net_addr() -> String {
        std::env::var("LLX_NET_ADDR")
            .ok()
            .filter(|s| !s.trim().is_empty())
            .unwrap_or_else(|| "127.0.0.1:0".to_string())
    }

    /// `LLX_NET_BATCH`: max pipelined requests a `netsvc` session
    /// drains into one batch (one epoch pin per batch of point ops;
    /// default 64, clamped to 1..=4096).
    pub fn net_batch() -> usize {
        env_u64("LLX_NET_BATCH", 64).clamp(1, 4096) as usize
    }

    /// `LLX_NET_MAX_SESSIONS`: live-session cap of a `netsvc` server;
    /// connections past it are shed at accept time with one `Busy`
    /// frame (default 256, clamped to 1..=16384).
    pub fn net_max_sessions() -> usize {
        env_u64("LLX_NET_MAX_SESSIONS", 256).clamp(1, 16384) as usize
    }

    /// `LLX_NET_IDLE_MS`: the idle-deadline reaper — a session that
    /// completes no *frame* within this window is evicted (default
    /// 10000 ms; `0` disables the reaper).
    pub fn net_idle_deadline() -> Duration {
        env_millis("LLX_NET_IDLE_MS", 10_000)
    }

    /// `LLX_NET_MAX_SCANS`: concurrent `RangeScan` streams a `netsvc`
    /// server allows before answering `Busy` (default 32, clamped to
    /// 1..=4096).
    pub fn net_max_scans() -> usize {
        env_u64("LLX_NET_MAX_SCANS", 32).clamp(1, 4096) as usize
    }

    /// `LLX_NET_TIMEOUT_MS`: connect/read timeout of the resilient
    /// `netsvc` client (default 1000 ms, floored at 10 so a typo'd `0`
    /// cannot spin a connect loop).
    pub fn net_timeout() -> Duration {
        env_millis("LLX_NET_TIMEOUT_MS", 1000).max(Duration::from_millis(10))
    }

    /// `LLX_NET_RETRY_MAX`: attempts the resilient client makes per
    /// idempotent operation / definite-failure mutation before giving
    /// up (default 5, clamped to 1..=100).
    pub fn net_retry_max() -> u32 {
        env_u64("LLX_NET_RETRY_MAX", 5).clamp(1, 100) as u32
    }

    /// `LLX_NET_RETRY_BASE_MS`: first-retry backoff of the resilient
    /// client's capped exponential schedule (default 10 ms).
    pub fn net_retry_base() -> Duration {
        env_millis("LLX_NET_RETRY_BASE_MS", 10)
    }

    /// `LLX_NET_RETRY_CAP_MS`: ceiling of the resilient client's
    /// exponential backoff (default 500 ms).
    pub fn net_retry_cap() -> Duration {
        env_millis("LLX_NET_RETRY_CAP_MS", 500)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// One test fn on purpose: `set_var` racing a sibling test's
        /// `getenv` is UB on glibc, so all env mutation stays on one
        /// thread.
        #[test]
        fn knob_parsing() {
            assert_eq!(
                env_millis("LLX_KNOB_TEST_UNSET", 150),
                Duration::from_millis(150)
            );
            assert_eq!(env_scale("LLX_KNOB_TEST_UNSET"), 1);

            std::env::set_var("LLX_KNOB_TEST_MS", "2500");
            assert_eq!(
                env_millis("LLX_KNOB_TEST_MS", 150),
                Duration::from_millis(2500)
            );
            std::env::set_var("LLX_KNOB_TEST_MS", "not-a-number");
            assert_eq!(
                env_millis("LLX_KNOB_TEST_MS", 150),
                Duration::from_millis(150)
            );
            std::env::set_var("LLX_KNOB_TEST_SCALE", "0");
            assert_eq!(env_scale("LLX_KNOB_TEST_SCALE"), 1, "clamped to 1");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_constructor_sums_to_100() {
        for u in [0, 10, 20, 33, 50, 100] {
            let m = Mix::with_update_percent(u);
            m.validate().unwrap();
            assert_eq!(m.insert + m.remove, u);
            assert_eq!(m.scan, 0);
        }
    }

    #[test]
    fn scan_percent_comes_out_of_the_lookup_share() {
        let m = Mix::with_update_percent(40).with_scan_percent(25);
        m.validate().unwrap();
        assert_eq!(m.get, 35);
        assert_eq!(m.scan, 25);
        assert_eq!(m.insert + m.remove, 40);
        // Re-applying replaces rather than stacks.
        let m2 = m.with_scan_percent(10);
        m2.validate().unwrap();
        assert_eq!(m2.get, 50);
        assert_eq!(m2.scan, 10);
    }

    #[test]
    #[should_panic(expected = "lookup share")]
    fn scan_cannot_exceed_lookups() {
        Mix::with_update_percent(80).with_scan_percent(30);
    }

    #[test]
    fn scan_ops_are_generated() {
        let mut g = WorkloadGen::new(
            9,
            0,
            KeyDist::uniform(32),
            Mix::with_update_percent(20).with_scan_percent(30),
        );
        let scans = (0..10_000)
            .filter(|_| g.next_op().0 == OpKind::Scan)
            .count();
        assert!((2_500..3_500).contains(&scans), "scans: {scans}");
    }

    #[test]
    #[should_panic(expected = "over 100")]
    fn mix_rejects_over_100() {
        Mix::with_update_percent(101);
    }

    #[test]
    fn uniform_covers_range() {
        let d = KeyDist::uniform(16);
        let mut rng = SmallRng::seed_from_u64(42);
        let mut seen = [false; 16];
        for _ in 0..2000 {
            seen[d.sample(&mut rng) as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all keys sampled");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let n = 1000;
        let d = KeyDist::zipf(n, 0.99);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = vec![0u64; n as usize];
        let samples = 100_000;
        for _ in 0..samples {
            let k = d.sample(&mut rng);
            assert!(k < n);
            counts[k as usize] += 1;
        }
        // Key 0 (rank 1) should dominate; top-10 keys take a large share.
        let top10: u64 = counts.iter().take(10).sum();
        assert!(
            counts[0] > samples / 20,
            "rank-1 frequency too low: {}",
            counts[0]
        );
        assert!(top10 > samples / 3, "top-10 share too low: {top10}");
    }

    #[test]
    fn generator_is_deterministic_per_thread() {
        let mk = |t| {
            let mut g = WorkloadGen::new(1, t, KeyDist::uniform(100), Mix::with_update_percent(40));
            (0..50).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(mk(0), mk(0), "same thread, same stream");
        assert_ne!(mk(0), mk(1), "different threads, different streams");
    }

    #[test]
    fn mix_frequencies_roughly_match() {
        let mut g = WorkloadGen::new(
            3,
            0,
            KeyDist::uniform(10),
            Mix {
                get: 80,
                insert: 10,
                remove: 10,
                scan: 0,
            },
        );
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            match g.next_op().0 {
                OpKind::Get => counts[0] += 1,
                OpKind::Insert => counts[1] += 1,
                OpKind::Remove => counts[2] += 1,
                OpKind::Scan => unreachable!("scan percent is 0"),
            }
        }
        assert!((7_500..8_500).contains(&counts[0]), "gets: {}", counts[0]);
        assert!((700..1_300).contains(&counts[1]), "inserts: {}", counts[1]);
        assert!((700..1_300).contains(&counts[2]), "removes: {}", counts[2]);
    }

    #[test]
    fn prefill_is_half_range() {
        let keys: Vec<u64> = prefill_keys(10).collect();
        assert_eq!(keys, vec![0, 2, 4, 6, 8]);
    }
}
