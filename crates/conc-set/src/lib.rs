//! One trait over every concurrent ordered-set structure in the
//! workspace.
//!
//! The paper's point is that LLX/SCX is a *reusable* primitive: the
//! multiset (§5) and the trees (§6) are two instances of one technique.
//! This crate completes that story at the API level: every structure in
//! the repository — the three LLX/SCX structures, the kCAS multiset the
//! paper argues against, and the two lock-based baselines — implements
//! [`ConcurrentOrderedSet`], so workloads, benchmarks, stress tests and
//! the linearizability harness are written once and run against the
//! whole zoo.
//!
//! Two sequential semantics coexist behind the one interface,
//! distinguished by [`ConcurrentOrderedSet::counting`]:
//!
//! * **counting** (the multisets, paper §5): a key has a count of
//!   occurrences; `insert(k, c)` adds `c` of them.
//! * **distinct** (the trees, paper §6): a key is present or absent;
//!   `insert` is insert-if-absent and `count` arguments are ignored.
//!
//! The uniform return contract makes both checkable by one spec
//! ([`linearize::OrderedSetSpec`]) and one ledger: `insert`/`remove`
//! return the number of occurrences actually added/removed, so across
//! any quiescent run `Σ insert returns − Σ remove returns = len()`.
//! The [`stress`] module exploits exactly that identity.
//!
//! Beyond point operations the trait carries a **two-tier scan
//! surface** (see the [`scan`] module):
//!
//! * **atomic** — [`fold_range`](ConcurrentOrderedSet::fold_range),
//!   [`range_count`](ConcurrentOrderedSet::range_count) and
//!   [`keys_with_prefix`](ConcurrentOrderedSet::keys_with_prefix)
//!   visit a consistent snapshot of the whole range: multi-record
//!   reads are exactly what the paper's VLX exists for (§1: a VLX over
//!   `k` Data-records costs `k` reads), and each structure realizes
//!   the snapshot with its own discipline (VLX, identity kCAS, or
//!   locks). At quiescence a full-range fold therefore equals `len()`,
//!   the second conservation law the [`stress`] harness checks.
//! * **windowed** — [`scan`](ConcurrentOrderedSet::scan) returns a
//!   [`ScanCursor`] that validates and emits the range in bounded
//!   windows, each internally snapshot-consistent, restarting only the
//!   dirty window on conflict and resuming from the last emitted key.
//!   `fold_range` is the cursor's `window = ∞` special case;
//!   [`fold_range_windowed`](ConcurrentOrderedSet::fold_range_windowed)
//!   and
//!   [`range_count_windowed`](ConcurrentOrderedSet::range_count_windowed)
//!   drive a bounded cursor to completion.
//!
//! # Example
//!
//! ```
//! use conc_set::ConcurrentOrderedSet;
//!
//! for factory in conc_set::all_factories() {
//!     let set = factory();
//!     assert_eq!(set.insert(7, 1), 1, "{}", set.name());
//!     assert_eq!(set.get(7), 1);
//!     assert_eq!(set.remove(7, 1), 1);
//!     assert_eq!(set.len(), 0);
//!     set.validate().unwrap();
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod scan;
pub mod sharded;
pub mod spec;
pub mod stress;

pub use scan::{ScanCursor, ScanIter, ScanOpts, ScanStats, ScanStep, Window};
pub use sharded::ShardedSet;
pub use spec::{selected_specs, SpecError, StructureSpec};

use linearize::{OrderedSetOp, OrderedSetSpec};

/// The largest key the trait accepts: [`u64::MAX`] is the kCAS
/// multiset's tail-sentinel key and `u64::MAX - 1` is kept free as the
/// exclusive upper bound, so every structure shares one key domain.
pub const MAX_KEY: u64 = u64::MAX - 2;

/// The largest occurrence count the trait accepts: kCAS cells steal the
/// top two bits for descriptor tags, so counts are 62-bit
/// ([`mwcas::MAX_VALUE`]).
pub const MAX_COUNT: u64 = mwcas::MAX_VALUE;

/// The uniform out-of-domain rejection shared by every trait
/// implementation: one panic site and message for the whole zoo,
/// instead of each structure failing in its own way (or, worse,
/// silently corrupting a sentinel).
#[track_caller]
fn assert_in_domain(name: &str, key: u64, count: Option<u64>) {
    assert!(
        key <= MAX_KEY,
        "{name}: key {key} is outside the ConcurrentOrderedSet domain \
         (keys must be <= MAX_KEY = u64::MAX - 2; the kCAS multiset \
         reserves the top keys for its tail sentinel)"
    );
    if let Some(count) = count {
        assert!(
            count <= MAX_COUNT,
            "{name}: count {count} is outside the ConcurrentOrderedSet \
             domain (counts must be <= MAX_COUNT = 2^62 - 1; kCAS \
             values are 62-bit)"
        );
    }
}

/// The findings of one
/// [`validate_report`](ConcurrentOrderedSet::validate_report) sweep:
/// one [`ShardValidation`] entry per constituent (bare structures have
/// exactly one; a [`ShardedSet`] has one per shard), so a failure
/// names *which* part failed instead of only that something did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationReport {
    /// The validated structure's registry/spec name.
    pub structure: String,
    /// Per-constituent findings, in partition order.
    pub shards: Vec<ShardValidation>,
}

/// One constituent's findings in a [`ValidationReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardValidation {
    /// Human label: the structure name, or `shard i (backend)`.
    pub label: String,
    /// Inclusive lower bound of the keys this constituent owns.
    pub lo: u64,
    /// Inclusive upper bound of the keys this constituent owns.
    pub hi: u64,
    /// The constituent's `len()` (total occurrences) at sweep time.
    pub len: u64,
    /// Distinct keys the sweep visited.
    pub keys: u64,
    /// Total occurrences the sweep visited (equals `len` at
    /// quiescence).
    pub occurrences: u64,
    /// The first violation found, or `None` if the constituent is
    /// clean. Formatted exactly as
    /// [`validate`](ConcurrentOrderedSet::validate) would report it.
    pub error: Option<String>,
}

impl ValidationReport {
    /// Whether every constituent validated cleanly.
    pub fn ok(&self) -> bool {
        self.shards.iter().all(|s| s.error.is_none())
    }

    /// Collapse to the panicking-wrapper shape existing call sites
    /// expect: `Ok(())` when clean, the first constituent's error
    /// otherwise.
    pub fn into_result(self) -> Result<(), String> {
        match self.shards.into_iter().find_map(|s| s.error) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// One constituent's validation sweep, shared by the default
/// [`validate_report`](ConcurrentOrderedSet::validate_report) and
/// [`ShardedSet`]'s: visit `set`'s whole contents counting keys and
/// occurrences, check every pair against the trait domain and the
/// interval `[lo, hi]` the constituent owns, then run its
/// structure-specific invariants. The first error found is prefixed
/// with `context`.
fn sweep<S: ConcurrentOrderedSet + ?Sized>(
    set: &S,
    label: String,
    (lo, hi): (u64, u64),
    context: &str,
) -> ShardValidation {
    let (mut keys, mut occurrences) = (0u64, 0u64);
    let mut err: Option<String> = None;
    set.fold_range(0, u64::MAX, &mut |k, c| {
        keys += 1;
        occurrences += c;
        if err.is_some() {
            return;
        }
        err = if k > MAX_KEY {
            Some(format!("key {k} above the trait domain cap {MAX_KEY}"))
        } else if c > MAX_COUNT {
            Some(format!(
                "count {c} for key {k} above the 62-bit cap {MAX_COUNT}"
            ))
        } else if !(lo..=hi).contains(&k) {
            Some(format!(
                "key {k} outside the shard's partition [{lo}, {hi}]"
            ))
        } else {
            None
        };
    });
    let error = err
        .or_else(|| set.validate_structure().err())
        .map(|e| format!("{context}: {e}"));
    ShardValidation {
        label,
        lo,
        hi,
        len: set.len(),
        keys,
        occurrences,
        error,
    }
}

/// A concurrent ordered set of `u64` keys with occurrence counts.
///
/// # Contract
///
/// * `get(k)` returns the number of occurrences of `k` (0 or 1 for
///   distinct-semantics structures).
/// * `insert(k, c)` returns the number of occurrences added: `c` for
///   counting structures, 1 or 0 (already present) for distinct ones.
/// * `remove(k, c)` returns the number removed: `c` or 0 (fewer than
///   `c` present) for counting structures, 1 or 0 for distinct ones.
/// * `len()` is the total occurrence count over all keys, with
///   traversal (not snapshot) semantics under concurrency; at
///   quiescence it equals the insert/remove return-value ledger.
/// * `fold_range(lo, hi, f)` visits every `(key, occurrences)` pair
///   with `lo <= key <= hi` in ascending key order, and the visited
///   pairs form a **consistent snapshot**: all of them held
///   simultaneously at one linearization point during the call
///   (VLX-validated traversals on the LLX/SCX structures, an identity
///   kCAS on the kCAS multiset, range lock-crabbing / the global lock
///   on the lock-based ones). `lo > hi` is the empty range.
/// * `scan(lo, hi, opts)` opens a [`ScanCursor`]: the same per-window
///   validation disciplines applied to bounded chunks. Every emitted
///   window is internally snapshot-consistent and certifies its own
///   sub-interval; a conflict retries only the dirty window and the
///   cursor resumes from the last emitted key. `fold_range` is the
///   cursor's `window = ∞` special case.
///
/// # Key and count domain
///
/// The trait's shared domain is keys `<=` [`MAX_KEY`] (`u64::MAX` is
/// the kCAS multiset's tail-sentinel key) and counts `<=` [`MAX_COUNT`]
/// (kCAS values are 62-bit; see the ROADMAP item on tagged-pointer
/// widening for lifting this). Out-of-domain arguments are rejected
/// uniformly — every implementation panics with the same message from
/// one shared check, rather than per-structure asserts with divergent
/// behavior — and [`validate`](ConcurrentOrderedSet::validate) sweeps
/// the live contents against the same bounds before running
/// structure-specific invariants.
///
/// All operations are linearizable for every implementation in this
/// workspace; the root `tests/linearizability.rs` checks each one
/// (range scans included, via [`OrderedSetOp::RangeSum`]) against
/// [`OrderedSetSpec`] with the WGL checker.
pub trait ConcurrentOrderedSet: Send + Sync {
    /// Short stable name for tables and test labels.
    fn name(&self) -> &'static str;

    /// `true` for multiset (counting) semantics, `false` for
    /// distinct-set semantics. Decides the sequential spec.
    fn counting(&self) -> bool;

    /// Occurrences of `key`.
    fn get(&self, key: u64) -> u64;

    /// Add occurrences of `key`; returns how many were added.
    fn insert(&self, key: u64, count: u64) -> u64;

    /// Remove occurrences of `key`; returns how many were removed.
    fn remove(&self, key: u64, count: u64) -> u64;

    /// Total occurrences across all keys (traversal semantics).
    fn len(&self) -> u64;

    /// Whether a traversal finds no occurrences.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Open a [`ScanCursor`] over the inclusive key range `[lo, hi]`
    /// with the given [`ScanOpts`] — the primitive both scan tiers are
    /// built on.
    ///
    /// Each [`next_window`](ScanCursor::next_window) call makes exactly
    /// one validation attempt (the structure's own discipline: LLX the
    /// window and VLX it, identity-kCAS it, or crab its lock span) and
    /// either emits a validated window, reports a [`ScanStep::Retry`]
    /// for the caller to re-attempt **only that window**, or reports
    /// [`ScanStep::Done`]. The cursor resumes from the last emitted
    /// key, never from `lo`, so retry work is bounded by the window
    /// size rather than the range size. `lo > hi` denotes the empty
    /// range (the cursor is immediately done).
    fn scan(&self, lo: u64, hi: u64, opts: ScanOpts) -> Box<dyn ScanCursor + '_>;

    /// Fold over the `(key, occurrences)` pairs with keys in the
    /// inclusive range `[lo, hi]`, calling `f` in ascending key order.
    ///
    /// The visited pairs are a **consistent snapshot**: they all held
    /// simultaneously at one linearization point during the call (see
    /// the trait-level contract for each structure's validation
    /// discipline). This is the `window = ∞` special case of
    /// [`scan`](ConcurrentOrderedSet::scan): one atomic window, retried
    /// until it validates — under sustained churn over a *large* range
    /// that whole-range retry is exactly what
    /// [`fold_range_windowed`](ConcurrentOrderedSet::fold_range_windowed)
    /// bounds. Never blocks writers. `lo > hi` denotes the empty range
    /// and calls `f` zero times.
    fn fold_range(&self, lo: u64, hi: u64, f: &mut dyn FnMut(u64, u64)) {
        let mut cursor = self.scan(lo, hi, ScanOpts::atomic());
        while cursor.next_window(f) != ScanStep::Done {}
    }

    /// Drive a windowed cursor over `[lo, hi]` to completion, calling
    /// `f` in ascending key order with **per-window** consistency: each
    /// window of up to `window` keys is internally
    /// snapshot-consistent and certifies its own sub-interval, but
    /// different windows may linearize at different points (writers
    /// interleave at window boundaries). Returns the cursor's window
    /// and retry totals. `lo > hi` folds nothing.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    fn fold_range_windowed(
        &self,
        lo: u64,
        hi: u64,
        window: u64,
        f: &mut dyn FnMut(u64, u64),
    ) -> ScanStats {
        let mut cursor = self.scan(lo, hi, ScanOpts::windowed(window));
        while cursor.next_window(f) != ScanStep::Done {}
        ScanStats {
            windows: cursor.windows(),
            retries: cursor.retries(),
        }
    }

    /// Total occurrences with keys in `[lo, hi]`, observed at a single
    /// linearization point — the operation
    /// [`OrderedSetOp::RangeSum`] models.
    fn range_count(&self, lo: u64, hi: u64) -> u64 {
        let mut total = 0u64;
        self.fold_range(lo, hi, &mut |_k, c| total += c);
        total
    }

    /// Total occurrences with keys in `[lo, hi]` as observed by a
    /// windowed scan — the weaker, bounded-retry operation
    /// [`OrderedSetOp::WindowedRangeSum`] models: each window's
    /// contribution is atomic, the total need not correspond to any
    /// single state.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    fn range_count_windowed(&self, lo: u64, hi: u64, window: u64) -> u64 {
        let mut total = 0u64;
        self.fold_range_windowed(lo, hi, window, &mut |_k, c| total += c);
        total
    }

    /// The keys whose high `bits` bits equal those of `prefix`,
    /// ascending, over a consistent snapshot.
    ///
    /// A high-bit prefix is a contiguous key interval, so every
    /// structure supports this through
    /// [`fold_range`](ConcurrentOrderedSet::fold_range); on the
    /// Patricia trie the scan's subtree pruning makes it the trie's
    /// native `O(bits)` prefix descent.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `1..=64`.
    /// Panics if the prefix's covered interval starts outside the
    /// trait's key domain, through the same shared check (and message)
    /// as every other operation.
    fn keys_with_prefix(&self, prefix: u64, bits: u32) -> Vec<u64> {
        assert!((1..=64).contains(&bits), "prefix length must be in 1..=64");
        let mask = if bits == 64 {
            u64::MAX
        } else {
            !0u64 << (64 - bits)
        };
        let lo = prefix & mask;
        // An out-of-domain prefix fails through the one shared panic
        // site, like every other op (the interval's upper end may
        // exceed MAX_KEY — that tail is simply empty).
        assert_in_domain(self.name(), lo, None);
        let mut out = Vec::new();
        self.fold_range(lo, lo | !mask, &mut |k, _c| out.push(k));
        out
    }

    /// Validate the structure and report per-constituent findings;
    /// call at quiescence.
    ///
    /// Uniform across the zoo: sweeps the live contents against the
    /// trait's key/count domain ([`MAX_KEY`] / [`MAX_COUNT`]) while
    /// counting keys and occurrences, then runs the
    /// structure-specific invariants
    /// ([`validate_structure`](ConcurrentOrderedSet::validate_structure)).
    /// Bare structures return a single-entry report covering the whole
    /// domain; composites like [`ShardedSet`] override this with one
    /// entry per shard (plus a partition-ownership check), so a
    /// violation names the shard it lives in.
    fn validate_report(&self) -> ValidationReport {
        ValidationReport {
            structure: self.name().to_string(),
            shards: vec![sweep(
                self,
                self.name().to_string(),
                (0, MAX_KEY),
                self.name(),
            )],
        }
    }

    /// Validate the structure; call at quiescence. The panicking-free
    /// collapse of [`validate_report`](ConcurrentOrderedSet::validate_report):
    /// `Ok(())` when every constituent is clean, the first violation
    /// otherwise.
    fn validate(&self) -> Result<(), String> {
        self.validate_report().into_result()
    }

    /// Structure-specific invariant validation; call at quiescence.
    /// Structures without internal invariants return `Ok(())`. Callers
    /// want [`validate`](ConcurrentOrderedSet::validate), which adds
    /// the uniform domain sweep.
    fn validate_structure(&self) -> Result<(), String> {
        Ok(())
    }

    /// The sequential specification this structure's operations follow —
    /// the hook the generic linearizability harness plugs into.
    fn spec(&self) -> OrderedSetSpec {
        OrderedSetSpec {
            counting: self.counting(),
        }
    }

    /// Dispatch one [`OrderedSetOp`], returning the occurrence delta the
    /// spec models. This is the bridge between recorded histories and
    /// the structure.
    fn apply(&self, op: &OrderedSetOp) -> u64 {
        match op {
            OrderedSetOp::Get(k) => self.get(*k),
            OrderedSetOp::Insert(k, c) => self.insert(*k, *c),
            OrderedSetOp::Remove(k, c) => self.remove(*k, *c),
            OrderedSetOp::RangeSum(lo, hi) => self.range_count(*lo, *hi),
            OrderedSetOp::WindowedRangeSum(lo, hi, w) => self.range_count_windowed(*lo, *hi, *w),
        }
    }
}

impl std::fmt::Debug for dyn ConcurrentOrderedSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ConcurrentOrderedSet({})", self.name())
    }
}

impl<'s> dyn ConcurrentOrderedSet + 's {
    /// Iterate the `(key, occurrences)` pairs of `[lo, hi]` in
    /// ascending key order through a [`ScanIter`] — a
    /// [`scan`](ConcurrentOrderedSet::scan) cursor that paces its own
    /// retries (spin → yield → capped sleep), for consumers that want
    /// `Iterator` ergonomics instead of driving [`ScanStep`]s.
    ///
    /// Consistency is the cursor's, per `opts`: each validated window
    /// yields an internally consistent run of pairs; under
    /// [`ScanOpts::atomic`] the whole iteration is one snapshot.
    /// Inherent on the trait object (not a trait method) so that a
    /// concrete iterator type can be returned while
    /// [`ConcurrentOrderedSet`] stays object-safe.
    pub fn iter_range(&self, lo: u64, hi: u64, opts: ScanOpts) -> ScanIter<'_> {
        ScanIter::new(self.scan(lo, hi, opts))
    }
}

/// What a bare structure supplies to join the zoo. One generic
/// [`ConcurrentOrderedSet`] impl over every `S: Backend` wraps it with
/// everything the zoo shares — the domain check, the scan cursor and
/// validation — written once for all seven backends.
///
/// Point ops take in-domain arguments (the adapter checks them first)
/// and return occurrence deltas, per the trait contract.
pub trait Backend: Send + Sync {
    /// The registry and table name ([`ConcurrentOrderedSet::name`]).
    const NAME: &'static str;

    /// Counting or distinct semantics
    /// ([`ConcurrentOrderedSet::counting`]).
    const COUNTING: bool;

    /// Occurrences of `key`.
    fn get(&self, key: u64) -> u64;

    /// Add occurrences of `key`; returns how many were added.
    fn insert(&self, key: u64, count: u64) -> u64;

    /// Remove occurrences of `key`; returns how many were removed.
    fn remove(&self, key: u64, count: u64) -> u64;

    /// Total occurrences across all keys (traversal semantics).
    fn occurrences(&self) -> u64;

    /// One validation attempt of one scan [`Window`] over `[from, hi]`,
    /// with `from <= hi` and `max_keys > 0`: up to `max_keys` pairs,
    /// validated by the structure's own discipline; `None` on
    /// conflict. A pair's second element is the key's count on
    /// counting structures and is ignored (one occurrence per key) on
    /// distinct ones.
    fn try_scan_window(&self, from: u64, hi: u64, max_keys: usize) -> Option<Window>;

    /// Structure-specific invariants; call at quiescence.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

impl<S: Backend> ConcurrentOrderedSet for S {
    fn name(&self) -> &'static str {
        S::NAME
    }
    fn counting(&self) -> bool {
        S::COUNTING
    }
    fn get(&self, key: u64) -> u64 {
        assert_in_domain(S::NAME, key, None);
        Backend::get(self, key)
    }
    fn insert(&self, key: u64, count: u64) -> u64 {
        assert_in_domain(S::NAME, key, Some(count));
        Backend::insert(self, key, count)
    }
    fn remove(&self, key: u64, count: u64) -> u64 {
        assert_in_domain(S::NAME, key, Some(count));
        Backend::remove(self, key, count)
    }
    fn len(&self) -> u64 {
        Backend::occurrences(self)
    }
    fn scan(&self, lo: u64, hi: u64, opts: ScanOpts) -> Box<dyn ScanCursor + '_> {
        scan::cursor(lo, hi, opts, move |from, hi, max_keys| {
            let (mut pairs, end) = Backend::try_scan_window(self, from, hi, max_keys)?;
            if !S::COUNTING {
                pairs.iter_mut().for_each(|pair| pair.1 = 1);
            }
            Some((pairs, end))
        })
    }
    fn validate_structure(&self) -> Result<(), String> {
        Backend::check_invariants(self)
    }
}

/// VLX-validated chain windows (paper §3).
impl Backend for multiset::Multiset<u64> {
    const NAME: &'static str = "scx-multiset";
    const COUNTING: bool = true;
    #[inline]
    fn get(&self, key: u64) -> u64 {
        multiset::Multiset::get(self, key)
    }
    #[inline]
    fn insert(&self, key: u64, count: u64) -> u64 {
        multiset::Multiset::insert(self, key, count);
        count
    }
    #[inline]
    fn remove(&self, key: u64, count: u64) -> u64 {
        u64::from(multiset::Multiset::remove(self, key, count)) * count
    }
    fn occurrences(&self) -> u64 {
        multiset::Multiset::len(self)
    }
    fn try_scan_window(&self, from: u64, hi: u64, max_keys: usize) -> Option<Window> {
        multiset::Multiset::try_scan_window(self, from, hi, max_keys)
    }
    fn check_invariants(&self) -> Result<(), String> {
        multiset::Multiset::check_invariants(self)
    }
}

/// Identity-kCAS-validated windows.
impl Backend for mwcas::KcasMultiset {
    const NAME: &'static str = "kcas-multiset";
    const COUNTING: bool = true;
    #[inline]
    fn get(&self, key: u64) -> u64 {
        mwcas::KcasMultiset::get(self, key)
    }
    #[inline]
    fn insert(&self, key: u64, count: u64) -> u64 {
        mwcas::KcasMultiset::insert(self, key, count);
        count
    }
    #[inline]
    fn remove(&self, key: u64, count: u64) -> u64 {
        u64::from(mwcas::KcasMultiset::remove(self, key, count)) * count
    }
    fn occurrences(&self) -> u64 {
        mwcas::KcasMultiset::len(self)
    }
    fn try_scan_window(&self, from: u64, hi: u64, max_keys: usize) -> Option<Window> {
        mwcas::KcasMultiset::try_scan_window(self, from, hi, max_keys)
    }
}

/// Each window reads under the structure's single mutex; never
/// retries.
impl Backend for lockbased::CoarseMultiset<u64> {
    const NAME: &'static str = "coarse-multiset";
    const COUNTING: bool = true;
    #[inline]
    fn get(&self, key: u64) -> u64 {
        lockbased::CoarseMultiset::get(self, key)
    }
    #[inline]
    fn insert(&self, key: u64, count: u64) -> u64 {
        lockbased::CoarseMultiset::insert(self, key, count);
        count
    }
    #[inline]
    fn remove(&self, key: u64, count: u64) -> u64 {
        u64::from(lockbased::CoarseMultiset::remove(self, key, count)) * count
    }
    fn occurrences(&self) -> u64 {
        lockbased::CoarseMultiset::len(self)
    }
    fn try_scan_window(&self, from: u64, hi: u64, max_keys: usize) -> Option<Window> {
        lockbased::CoarseMultiset::try_scan_window(self, from, hi, max_keys)
    }
}

/// Window lock-crabbing: a bounded lock span per window.
impl Backend for lockbased::HandOverHandMultiset<u64> {
    const NAME: &'static str = "hoh-multiset";
    const COUNTING: bool = true;
    #[inline]
    fn get(&self, key: u64) -> u64 {
        lockbased::HandOverHandMultiset::get(self, key)
    }
    #[inline]
    fn insert(&self, key: u64, count: u64) -> u64 {
        lockbased::HandOverHandMultiset::insert(self, key, count);
        count
    }
    #[inline]
    fn remove(&self, key: u64, count: u64) -> u64 {
        u64::from(lockbased::HandOverHandMultiset::remove(self, key, count)) * count
    }
    fn occurrences(&self) -> u64 {
        lockbased::HandOverHandMultiset::len(self)
    }
    fn try_scan_window(&self, from: u64, hi: u64, max_keys: usize) -> Option<Window> {
        lockbased::HandOverHandMultiset::try_scan_window(self, from, hi, max_keys)
    }
}

/// VLX-validated windowed in-order walk.
impl Backend for trees::Bst<u64, u64> {
    const NAME: &'static str = "bst";
    const COUNTING: bool = false;
    #[inline]
    fn get(&self, key: u64) -> u64 {
        u64::from(self.contains(key))
    }
    #[inline]
    fn insert(&self, key: u64, _count: u64) -> u64 {
        u64::from(trees::Bst::insert(self, key, key))
    }
    #[inline]
    fn remove(&self, key: u64, _count: u64) -> u64 {
        u64::from(trees::Bst::remove(self, key).is_some())
    }
    fn occurrences(&self) -> u64 {
        trees::Bst::len(self) as u64
    }
    fn try_scan_window(&self, from: u64, hi: u64, max_keys: usize) -> Option<Window> {
        trees::Bst::try_scan_window(self, from, hi, max_keys)
    }
    fn check_invariants(&self) -> Result<(), String> {
        trees::Bst::check_invariants(self)
    }
}

/// VLX-validated windowed in-order walk; rebalancing SCXs on visited
/// nodes surface as (spurious, safe) retries.
impl Backend for trees::ChromaticTree<u64, u64> {
    const NAME: &'static str = "chromatic";
    const COUNTING: bool = false;
    #[inline]
    fn get(&self, key: u64) -> u64 {
        u64::from(self.contains(key))
    }
    #[inline]
    fn insert(&self, key: u64, _count: u64) -> u64 {
        u64::from(trees::ChromaticTree::insert(self, key, key))
    }
    #[inline]
    fn remove(&self, key: u64, _count: u64) -> u64 {
        u64::from(trees::ChromaticTree::remove(self, key).is_some())
    }
    fn occurrences(&self) -> u64 {
        trees::ChromaticTree::len(self) as u64
    }
    fn try_scan_window(&self, from: u64, hi: u64, max_keys: usize) -> Option<Window> {
        trees::ChromaticTree::try_scan_window(self, from, hi, max_keys)
    }
    fn check_invariants(&self) -> Result<(), String> {
        trees::ChromaticTree::check_invariants(self)?;
        self.check_balanced()
    }
}

/// Prefix-pruned, VLX-validated windowed walk.
impl Backend for trees::PatriciaTrie<u64> {
    const NAME: &'static str = "patricia";
    const COUNTING: bool = false;
    #[inline]
    fn get(&self, key: u64) -> u64 {
        u64::from(self.contains(key))
    }
    #[inline]
    fn insert(&self, key: u64, _count: u64) -> u64 {
        u64::from(trees::PatriciaTrie::insert(self, key, key))
    }
    #[inline]
    fn remove(&self, key: u64, _count: u64) -> u64 {
        u64::from(trees::PatriciaTrie::remove(self, key).is_some())
    }
    fn occurrences(&self) -> u64 {
        trees::PatriciaTrie::len(self) as u64
    }
    fn try_scan_window(&self, from: u64, hi: u64, max_keys: usize) -> Option<Window> {
        trees::PatriciaTrie::try_scan_window(self, from, hi, max_keys)
    }
    fn check_invariants(&self) -> Result<(), String> {
        trees::PatriciaTrie::check_invariants(self)
    }
}

/// A constructor for one fresh, empty structure behind the trait.
pub type Factory = fn() -> Box<dyn ConcurrentOrderedSet>;

/// One registry row: a backend's static name and its constructor.
const fn entry<S: Backend + Default + 'static>() -> (&'static str, Factory) {
    (S::NAME, || Box::new(S::default()))
}

/// Every structure in the workspace, in the order they appear in
/// comparison tables: the three LLX/SCX structures first, then the kCAS
/// rival, then the lock-based baselines.
const REGISTRY: [(&str, Factory); 7] = [
    entry::<multiset::Multiset<u64>>(),
    entry::<trees::ChromaticTree<u64, u64>>(),
    entry::<trees::Bst<u64, u64>>(),
    entry::<trees::PatriciaTrie<u64>>(),
    entry::<mwcas::KcasMultiset>(),
    entry::<lockbased::HandOverHandMultiset<u64>>(),
    entry::<lockbased::CoarseMultiset<u64>>(),
];

/// Factories for every registered structure, in table order.
pub fn all_factories() -> impl Iterator<Item = Factory> {
    REGISTRY.iter().map(|&(_, factory)| factory)
}

/// The registered structure names, in table order; builds nothing.
pub fn backend_names() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|&(name, _)| name)
}

/// Look up a registry factory by structure name.
///
/// # Panics
///
/// Panics if no structure with that name is registered.
pub fn factory_by_name(name: &str) -> Factory {
    REGISTRY
        .iter()
        .find(|&&(registered, _)| registered == name)
        .map(|&(_, factory)| factory)
        .unwrap_or_else(|| panic!("unknown structure {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<_> = backend_names().collect();
        assert_eq!(
            names,
            vec![
                "scx-multiset",
                "chromatic",
                "bst",
                "patricia",
                "kcas-multiset",
                "hoh-multiset",
                "coarse-multiset"
            ]
        );
        // The static names are the names the built structures report.
        for (name, factory) in backend_names().zip(all_factories()) {
            assert_eq!(factory().name(), name);
        }
    }

    #[test]
    fn counting_structures_accumulate_occurrences() {
        for factory in all_factories() {
            let set = factory();
            if !set.counting() {
                continue;
            }
            assert_eq!(set.insert(5, 3), 3, "{}", set.name());
            assert_eq!(set.insert(5, 2), 2);
            assert_eq!(set.get(5), 5);
            assert_eq!(set.remove(5, 4), 4);
            assert_eq!(set.remove(5, 4), 0, "short remove fails whole");
            assert_eq!(set.get(5), 1);
            assert_eq!(set.len(), 1);
            set.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", set.name()));
        }
    }

    #[test]
    fn distinct_structures_ignore_counts() {
        for factory in all_factories() {
            let set = factory();
            if set.counting() {
                continue;
            }
            assert_eq!(set.insert(5, 3), 1, "{}", set.name());
            assert_eq!(set.insert(5, 2), 0, "already present");
            assert_eq!(set.get(5), 1);
            assert_eq!(set.remove(5, 9), 1);
            assert_eq!(set.remove(5, 1), 0);
            assert_eq!(set.len(), 0);
            set.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", set.name()));
        }
    }

    #[test]
    fn range_scans_cover_the_whole_zoo() {
        for factory in all_factories() {
            let set = factory();
            let name = set.name();
            for k in [2u64, 5, 9, 11] {
                set.insert(k, 1);
            }
            let collect = |lo, hi| {
                let mut v = Vec::new();
                set.fold_range(lo, hi, &mut |k, c| v.push((k, c)));
                v
            };
            assert_eq!(
                collect(0, 20),
                vec![(2, 1), (5, 1), (9, 1), (11, 1)],
                "{name}: full range, ascending"
            );
            assert_eq!(collect(3, 9), vec![(5, 1), (9, 1)], "{name}: interior");
            assert_eq!(collect(5, 5), vec![(5, 1)], "{name}: single key");
            assert_eq!(collect(6, 8), vec![], "{name}: empty interval");
            assert_eq!(collect(9, 3), vec![], "{name}: lo > hi");
            assert_eq!(set.range_count(0, MAX_KEY), set.len(), "{name}");
            assert_eq!(set.range_count(5, 11), 3, "{name}");
        }
    }

    #[test]
    fn windowed_scans_agree_with_atomic_at_quiescence() {
        for factory in all_factories() {
            let set = factory();
            let name = set.name();
            for k in [2u64, 5, 9, 11, 40, 41] {
                set.insert(k, 2);
            }
            let atomic = {
                let mut v = Vec::new();
                set.fold_range(0, 50, &mut |k, c| v.push((k, c)));
                v
            };
            // Every window size — including 1 and larger than the
            // range — yields the same pairs at quiescence.
            for window in [1u64, 2, 3, 64, u64::MAX] {
                let mut v = Vec::new();
                let stats = set.fold_range_windowed(0, 50, window, &mut |k, c| v.push((k, c)));
                assert_eq!(v, atomic, "{name}: window {window}");
                assert!(stats.windows >= 1, "{name}: window {window}");
                assert_eq!(stats.retries, 0, "{name}: quiescent scans never retry");
                assert_eq!(
                    set.range_count_windowed(0, 50, window),
                    set.range_count(0, 50),
                    "{name}: window {window}"
                );
            }
            // window = 1 tiles the range one key per window, plus at
            // most one trailing empty window certifying the tail after
            // the last key (a tree walk that drains its stack at the
            // cap knows the range is exhausted; a chain walk needs one
            // more window to see the terminator).
            let stats = set.fold_range_windowed(0, 50, 1, &mut |_k, _c| {});
            let keys = atomic.len() as u64;
            assert!(
                stats.windows == keys || stats.windows == keys + 1,
                "{name}: {} windows for {keys} keys",
                stats.windows
            );
        }
    }

    #[test]
    fn cursor_steps_certify_contiguous_intervals() {
        for factory in all_factories() {
            let set = factory();
            let name = set.name();
            for k in [3u64, 4, 8, 15] {
                set.insert(k, 1);
            }
            let mut cursor = set.scan(1, 20, ScanOpts::windowed(2));
            let mut expected_from = 1u64;
            loop {
                assert_eq!(cursor.position(), Some(expected_from), "{name}");
                let mut win = Vec::new();
                match cursor.next_window(&mut |k, c| win.push((k, c))) {
                    ScanStep::Emitted { hi_key } => {
                        for (k, _) in &win {
                            assert!(
                                (expected_from..=hi_key).contains(k),
                                "{name}: key {k} outside its window"
                            );
                        }
                        assert!(win.len() <= 2, "{name}: window over budget");
                        if hi_key >= 20 {
                            break;
                        }
                        expected_from = hi_key + 1;
                    }
                    ScanStep::Retry => panic!("{name}: quiescent scans never retry"),
                    ScanStep::Done => break,
                }
            }
            assert_eq!(cursor.position(), None, "{name}");
            assert_eq!(cursor.next_window(&mut |_, _| ()), ScanStep::Done, "{name}");
        }
    }

    #[test]
    fn prefix_scan_is_a_range_scan() {
        for factory in all_factories() {
            let set = factory();
            let name = set.name();
            // Keys sharing the 60-bit prefix of 0x10 (i.e. 16..=31),
            // plus outliers on both sides.
            for k in [3u64, 16, 17, 29, 31, 32, 400] {
                set.insert(k, 1);
            }
            assert_eq!(set.keys_with_prefix(16, 60), vec![16, 17, 29, 31], "{name}");
            assert_eq!(
                set.keys_with_prefix(0, 64),
                vec![],
                "{name}: exact absent key"
            );
            assert_eq!(
                set.keys_with_prefix(3, 64),
                vec![3],
                "{name}: exact present key"
            );
            assert_eq!(
                set.keys_with_prefix(0, 1),
                vec![3, 16, 17, 29, 31, 32, 400],
                "{name}: 1-bit prefix covers the low half"
            );
        }
    }

    /// Swaps in a silent panic hook and restores the original on drop,
    /// so a failing assertion below cannot leave the silencer installed
    /// for the rest of the test process.
    type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;
    struct PanicHookGuard(Option<PanicHook>);

    impl PanicHookGuard {
        fn silence() -> Self {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(|_| {}));
            PanicHookGuard(Some(prev))
        }
    }

    impl Drop for PanicHookGuard {
        fn drop(&mut self) {
            std::panic::set_hook(self.0.take().expect("hook present"));
        }
    }

    #[test]
    fn out_of_domain_keys_are_rejected_uniformly() {
        // Quiet the expected panics' backtrace spam.
        let _hook = PanicHookGuard::silence();
        for factory in all_factories() {
            let set = factory();
            let name = set.name();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                set.insert(MAX_KEY + 1, 1);
            }))
            .expect_err(&format!("{name}: out-of-domain insert must panic"));
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("outside the ConcurrentOrderedSet domain"),
                "{name}: non-uniform panic message: {msg}"
            );
            // Oversized counts too — even the distinct structures,
            // which otherwise ignore the count argument, reject them
            // so the zoo behaves identically.
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                set.insert(1, MAX_COUNT + 1);
            }))
            .expect_err(&format!("{name}: out-of-domain count must panic"));
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("outside the ConcurrentOrderedSet domain"),
                "{name}: non-uniform count panic message: {msg}"
            );
            // A prefix whose interval starts past MAX_KEY goes through
            // the same shared panic site (the small fix of PR 4: the
            // old code scanned `lo | !mask` without any domain check).
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                set.keys_with_prefix(u64::MAX, 64);
            }))
            .expect_err(&format!("{name}: out-of-domain prefix must panic"));
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("outside the ConcurrentOrderedSet domain"),
                "{name}: non-uniform prefix panic message: {msg}"
            );
            // In-domain prefixes whose interval merely *ends* past
            // MAX_KEY still scan fine (the tail is empty).
            set.insert(1, 1);
            assert_eq!(set.keys_with_prefix(0, 1), vec![1], "{name}");
            assert_eq!(
                set.keys_with_prefix(1 << 63, 1),
                Vec::<u64>::new(),
                "{name}: interval ending past MAX_KEY is allowed"
            );
        }
    }

    #[test]
    fn apply_matches_spec_on_a_sequential_tape() {
        use linearize::Spec;
        for factory in all_factories() {
            let set = factory();
            let spec = set.spec();
            let mut state = spec.initial();
            let ops = [
                OrderedSetOp::Insert(1, 2),
                OrderedSetOp::Insert(9, 1),
                OrderedSetOp::Get(1),
                OrderedSetOp::Remove(1, 1),
                OrderedSetOp::Get(1),
                OrderedSetOp::Remove(1, 5),
                OrderedSetOp::Remove(9, 1),
                OrderedSetOp::Get(9),
            ];
            for op in &ops {
                let got = set.apply(op);
                let (next, want) = spec.apply(&state, op);
                assert_eq!(got, want, "{}: {op:?}", set.name());
                state = next;
            }
            set.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", set.name()));
        }
    }
}
