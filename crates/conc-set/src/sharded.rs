//! [`ShardedSet`]: the range-partitioned scale-out facade.
//!
//! Every harness in this repository used to drive a single structure
//! instance — one root, one epoch domain, one record pool. The
//! LLX/SCX primitives bound contention *within* a structure (an SCX
//! only freezes the `k` records it touches), but a single instance is
//! still one allocation arena and one reclamation stream. `ShardedSet`
//! composes `N` instances of any registered backend behind the same
//! [`ConcurrentOrderedSet`] trait by **range-partitioning** the key
//! domain:
//!
//! * keys `[0, domain)` (the `LLX_SHARD_DOMAIN` knob, default 1024)
//!   split evenly into `N` contiguous intervals, one per shard;
//! * the last shard additionally owns the tail `[domain, MAX_KEY]`, so
//!   the partition always tiles the full trait domain exactly;
//! * a point op touches exactly one shard: `shard_of(key) =
//!   min(key / width, N-1)` — one divide, no search.
//!
//! **Reclamation is not partitioned.** The record pool's free lists
//! are per *thread* and layout, not per shard, and its blocks are dead
//! memory, so every shard draws from and feeds the same per-thread
//! lists and the same process-wide parked lists.
//!
//! **Stitched scans.** [`scan`](ConcurrentOrderedSet::scan) returns a
//! cursor that concatenates per-shard windowed cursors in ascending
//! shard order. Each emitted window is an inner cursor's window, so it
//! still certifies a contiguous sub-interval at its own linearization
//! point, windows tile `[lo, hi]` exactly, and a conflict retries only
//! the dirty window — the whole per-window contract of
//! [`ScanCursor`] holds unchanged, which is why the linearizability
//! window-decomposition specs, the stress per-window laws and the
//! `scanwin` experiment all run against `sharded(X,N)` with zero
//! harness changes. The one deliberate relaxation: under
//! [`ScanOpts::atomic`] each **shard** is one atomic window, so a
//! cross-shard `fold_range`/`range_count` is per-shard atomic rather
//! than a single global snapshot (at quiescence the two coincide,
//! which is all the conservation laws need). A scan confined to one
//! shard — including every whole-range scan of a single-shard set —
//! is still truly atomic.

use std::sync::{Mutex, OnceLock};

use crate::scan::{ScanCursor, ScanOpts, ScanStep};
use crate::spec::StructureSpec;
use crate::{ConcurrentOrderedSet, ValidationReport, MAX_KEY};

/// Intern a spec string so [`ConcurrentOrderedSet::name`] can return
/// `&'static str` for dynamically composed structures. Bounded by the
/// number of distinct specs a process ever builds.
fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut pool = POOL.get_or_init(|| Mutex::new(Vec::new())).lock().unwrap();
    if let Some(&existing) = pool.iter().find(|e| **e == s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.push(leaked);
    leaked
}

/// A range-partitioned facade over `N` inner instances of any
/// registered backend; see the [module docs](self) for the partition
/// map and scan-stitching semantics.
///
/// Build one from a spec (`sharded(patricia,8)`) via
/// [`StructureSpec::build`], or directly with
/// [`ShardedSet::from_spec`] / [`ShardedSet::with_domain`].
#[derive(Debug)]
pub struct ShardedSet {
    name: &'static str,
    counting: bool,
    /// Keys per shard over the partitioned prefix (the last shard also
    /// owns the tail up to [`MAX_KEY`]).
    width: u64,
    shards: Vec<Box<dyn ConcurrentOrderedSet>>,
    /// Inclusive `[lo, hi]` owned by each shard; tiles `[0, MAX_KEY]`.
    bounds: Vec<(u64, u64)>,
}

impl ShardedSet {
    /// `shards` instances of `inner`, partitioning the
    /// `LLX_SHARD_DOMAIN` key prefix (default 1024) evenly.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn from_spec(inner: &StructureSpec, shards: usize) -> Self {
        Self::with_domain(inner, shards, workloads::knobs::shard_domain())
    }

    /// [`from_spec`](ShardedSet::from_spec) with an explicit partition
    /// domain: keys `[0, domain)` split evenly, tail to the last
    /// shard. Tests use this to place shard seams at exact keys
    /// without touching the environment.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_domain(inner: &StructureSpec, shards: usize, domain: u64) -> Self {
        assert!(shards >= 1, "a ShardedSet needs at least one shard");
        let display = StructureSpec::Sharded {
            inner: Box::new(inner.clone()),
            shards,
        }
        .to_string();
        let width = (domain.max(1) / shards as u64).max(1);
        let sets: Vec<Box<dyn ConcurrentOrderedSet>> = (0..shards).map(|_| inner.build()).collect();
        let bounds: Vec<(u64, u64)> = (0..shards as u64)
            .map(|i| {
                let lo = width * i;
                let hi = if i + 1 == shards as u64 {
                    MAX_KEY
                } else {
                    (lo + width - 1).min(MAX_KEY)
                };
                (lo, hi)
            })
            .collect();
        let counting = sets[0].counting();
        ShardedSet {
            name: intern(&display),
            counting,
            width,
            shards: sets,
            bounds,
        }
    }

    /// The shard owning `key`.
    fn shard_of(&self, key: u64) -> usize {
        (key / self.width).min(self.shards.len() as u64 - 1) as usize
    }

    /// The partition map: each shard's inclusive `[lo, hi]`.
    pub fn shard_bounds(&self) -> &[(u64, u64)] {
        &self.bounds
    }
}

impl ConcurrentOrderedSet for ShardedSet {
    fn name(&self) -> &'static str {
        self.name
    }

    fn counting(&self) -> bool {
        self.counting
    }

    fn get(&self, key: u64) -> u64 {
        crate::assert_in_domain(self.name, key, None);
        self.shards[self.shard_of(key)].get(key)
    }

    fn insert(&self, key: u64, count: u64) -> u64 {
        crate::assert_in_domain(self.name, key, Some(count));
        self.shards[self.shard_of(key)].insert(key, count)
    }

    fn remove(&self, key: u64, count: u64) -> u64 {
        crate::assert_in_domain(self.name, key, Some(count));
        self.shards[self.shard_of(key)].remove(key, count)
    }

    fn len(&self) -> u64 {
        self.shards.iter().map(|s| s.len()).sum()
    }

    fn scan(&self, lo: u64, hi: u64, opts: ScanOpts) -> Box<dyn ScanCursor + '_> {
        Box::new(StitchCursor {
            set: self,
            hi,
            opts,
            shard: self.shard_of(lo.min(MAX_KEY)),
            inner: None,
            pos: (lo <= hi).then_some(lo),
            windows: 0,
            retries: 0,
        })
    }

    /// One sweep per shard; a key outside its shard's partition is the
    /// check only a sharded validate can make.
    fn validate_report(&self) -> ValidationReport {
        let shards = self
            .shards
            .iter()
            .zip(&self.bounds)
            .enumerate()
            .map(|(i, (set, &bounds))| {
                let label = format!("shard {i} ({})", set.name());
                let context = format!("{}: {label}", self.name);
                crate::sweep(&**set, label, bounds, &context)
            })
            .collect();
        ValidationReport {
            structure: self.name.to_string(),
            shards,
        }
    }
}

/// The stitching cursor: concatenates per-shard cursors ascending,
/// forwarding each inner window (and each inner retry) unchanged. See
/// the [module docs](self) for why the per-window contract survives
/// the seams.
struct StitchCursor<'a> {
    set: &'a ShardedSet,
    /// The requested overall upper bound.
    hi: u64,
    opts: ScanOpts,
    /// Index of the shard the cursor is currently in (or about to
    /// open).
    shard: usize,
    /// The open inner cursor, over `[pos, min(hi, shard_hi)]`.
    inner: Option<Box<dyn ScanCursor + 'a>>,
    /// Resume key of the next window; `None` once done.
    pos: Option<u64>,
    windows: u64,
    retries: u64,
}

impl ScanCursor for StitchCursor<'_> {
    fn next_window(&mut self, emit: &mut dyn FnMut(u64, u64)) -> ScanStep {
        let Some(pos) = self.pos else {
            return ScanStep::Done;
        };
        if self.inner.is_none() {
            // Find the shard owning `pos` (seam crossings land here
            // with `pos` just past the previous shard's bound).
            while self.shard < self.set.shards.len() && pos > self.set.bounds[self.shard].1 {
                self.shard += 1;
            }
            if self.shard >= self.set.shards.len() || pos > self.hi {
                self.pos = None;
                return ScanStep::Done;
            }
            let sub_hi = self.set.bounds[self.shard].1.min(self.hi);
            self.inner = Some(self.set.shards[self.shard].scan(pos, sub_hi, self.opts));
        }
        let sub_hi = self.set.bounds[self.shard].1.min(self.hi);
        let last = self.shard + 1 == self.set.shards.len();
        match self.inner.as_mut().expect("opened above").next_window(emit) {
            ScanStep::Emitted { hi_key } => {
                self.windows += 1;
                if hi_key >= self.hi || (last && hi_key >= sub_hi) {
                    // The requested range is fully certified. (On the
                    // last shard `sub_hi` may sit below an
                    // out-of-domain `hi` — `MAX_KEY` vs a `u64::MAX`
                    // sweep — and the empty tail needs no window.)
                    self.pos = None;
                    self.inner = None;
                } else if hi_key >= sub_hi {
                    // Shard exhausted: resume at the seam.
                    self.inner = None;
                    self.shard += 1;
                    self.pos = Some(hi_key + 1);
                } else {
                    self.pos = Some(hi_key + 1);
                }
                ScanStep::Emitted { hi_key }
            }
            ScanStep::Retry => {
                self.retries += 1;
                ScanStep::Retry
            }
            ScanStep::Done => {
                // Unreachable by the window contract: an inner cursor
                // over a non-empty range always ends with an Emitted
                // whose `hi_key` covers its `sub_hi`, at which point
                // it is dropped above. Recover by conceding the rest
                // of this shard unscanned rather than spinning.
                debug_assert!(false, "inner cursor Done before covering its sub-range");
                self.inner = None;
                if last || sub_hi >= self.hi {
                    self.pos = None;
                    return ScanStep::Done;
                }
                self.shard += 1;
                self.pos = Some(sub_hi + 1);
                self.next_window(emit)
            }
        }
    }

    fn position(&self) -> Option<u64> {
        self.pos
    }

    fn windows(&self) -> u64 {
        self.windows
    }

    fn retries(&self) -> u64 {
        self.retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScanStats;

    fn sharded(inner: &str, shards: usize, domain: u64) -> ShardedSet {
        ShardedSet::with_domain(&StructureSpec::Base(inner.into()), shards, domain)
    }

    #[test]
    fn partition_tiles_the_domain_exactly() {
        let set = sharded("patricia", 4, 1024);
        assert_eq!(
            set.shard_bounds(),
            &[(0, 255), (256, 511), (512, 767), (768, MAX_KEY)]
        );
        // Every boundary key routes to the shard whose interval holds
        // it.
        for (i, &(lo, hi)) in set.shard_bounds().iter().enumerate() {
            assert_eq!(set.shard_of(lo), i);
            assert_eq!(set.shard_of(hi.min(MAX_KEY)), i);
        }
        // A domain smaller than the shard count degrades to width 1.
        let set = sharded("bst", 8, 4);
        assert_eq!(set.shard_bounds()[0], (0, 0));
        assert_eq!(set.shard_bounds()[7], (7, MAX_KEY));
    }

    #[test]
    fn point_ops_route_by_range_and_len_sums() {
        let set = sharded("scx-multiset", 4, 1024);
        // One key per shard, including both sides of the first seam.
        for k in [0u64, 255, 256, 600, 900, MAX_KEY] {
            assert_eq!(set.insert(k, 2), 2, "key {k}");
        }
        assert_eq!(set.len(), 12);
        for k in [0u64, 255, 256, 600, 900, MAX_KEY] {
            assert_eq!(set.get(k), 2, "key {k}");
        }
        assert_eq!(set.remove(255, 2), 2);
        assert_eq!(set.get(255), 0);
        assert_eq!(set.len(), 10);
        // The shards really are separate structures.
        assert_eq!(set.shards[0].len(), 2, "shard 0 holds only key 0");
        assert_eq!(set.shards[1].len(), 2, "shard 1 holds only key 256");
        set.validate().unwrap();
    }

    #[test]
    fn stitched_scan_crosses_seams_in_order() {
        let set = sharded("patricia", 4, 1024);
        // Keys straddling every seam, plus an empty shard 2.
        let keys = [0u64, 200, 255, 256, 257, 511, 800, 1500];
        for &k in &keys {
            set.insert(k, 1);
        }
        let mut got = Vec::new();
        set.fold_range(0, MAX_KEY, &mut |k, _| got.push(k));
        assert_eq!(got, keys.to_vec(), "ascending across all seams");

        // Windowed: windows tile [lo, hi] contiguously across seams.
        let mut cursor = set.scan(0, 2000, ScanOpts::windowed(2));
        let mut expected_from = 0u64;
        let mut seen = Vec::new();
        loop {
            assert_eq!(cursor.position(), Some(expected_from));
            let mut win = Vec::new();
            match cursor.next_window(&mut |k, c| win.push((k, c))) {
                ScanStep::Emitted { hi_key } => {
                    assert!(win.len() <= 2, "window over budget");
                    for (k, _) in &win {
                        assert!(
                            (expected_from..=hi_key).contains(k),
                            "key {k} outside its window"
                        );
                        seen.push(*k);
                    }
                    if hi_key >= 2000 {
                        break;
                    }
                    expected_from = hi_key + 1;
                }
                ScanStep::Retry => panic!("quiescent scans never retry"),
                ScanStep::Done => break,
            }
        }
        assert_eq!(seen, keys.to_vec());
        assert_eq!(cursor.position(), None);
        assert_eq!(cursor.next_window(&mut |_, _| ()), ScanStep::Done);
    }

    #[test]
    fn empty_shards_mid_range_still_certify() {
        let set = sharded("chromatic", 4, 1024);
        // Only the outermost shards hold keys; shards 1 and 2 are
        // empty but their intervals must still be certified (windows
        // may be empty, the tiling may not have holes).
        set.insert(10, 1);
        set.insert(900, 1);
        let stats: ScanStats = set.fold_range_windowed(0, 1000, 4, &mut |_, _| {});
        assert!(stats.windows >= 4, "at least one window per shard");
        assert_eq!(set.range_count_windowed(0, 1000, 4), 2);
        assert_eq!(set.range_count(0, 1000), 2);

        // A scan confined entirely to an empty middle shard.
        assert_eq!(set.range_count(300, 400), 0);
        let stats = set.fold_range_windowed(300, 400, 4, &mut |_, _| {});
        assert!(stats.windows >= 1, "empty interval still certified");
    }

    #[test]
    fn scans_clipped_to_one_shard_never_open_the_rest() {
        let set = sharded("bst", 4, 1024);
        for k in [100u64, 300, 500] {
            set.insert(k, 1);
        }
        // [0, 100] lies inside shard 0: exactly one atomic window.
        let mut cursor = set.scan(0, 100, ScanOpts::windowed(1000));
        let mut v = Vec::new();
        assert_eq!(
            cursor.next_window(&mut |k, _| v.push(k)),
            ScanStep::Emitted { hi_key: 100 }
        );
        assert_eq!(v, vec![100]);
        assert_eq!(cursor.next_window(&mut |_, _| ()), ScanStep::Done);
        assert_eq!(cursor.windows(), 1);
    }

    #[test]
    fn single_shard_facade_matches_bare_backend() {
        let sharded = sharded("scx-multiset", 1, 1024);
        let bare = crate::factory_by_name("scx-multiset")();
        for k in [0u64, 7, 513, MAX_KEY] {
            assert_eq!(sharded.insert(k, 3), bare.insert(k, 3), "key {k}");
        }
        assert_eq!(sharded.len(), bare.len());
        assert_eq!(
            sharded.range_count(0, MAX_KEY),
            bare.range_count(0, MAX_KEY)
        );
        let collect = |s: &dyn ConcurrentOrderedSet| {
            let mut v = Vec::new();
            s.fold_range(0, u64::MAX, &mut |k, c| v.push((k, c)));
            v
        };
        assert_eq!(collect(&sharded), collect(bare.as_ref()));
        // One shard means exactly one atomic window for the sweep.
        let mut cursor = sharded.scan(0, MAX_KEY, ScanOpts::atomic());
        assert!(matches!(
            cursor.next_window(&mut |_, _| ()),
            ScanStep::Emitted { .. }
        ));
        assert_eq!(cursor.next_window(&mut |_, _| ()), ScanStep::Done);
    }

    #[test]
    fn validation_report_names_the_failing_shard() {
        let set = sharded("patricia", 4, 1024);
        set.insert(100, 1);
        set.insert(300, 1);
        let report = set.validate_report();
        assert!(report.ok());
        assert_eq!(report.structure, "sharded(patricia,4)");
        assert_eq!(report.shards.len(), 4);
        assert_eq!(report.shards[0].keys, 1);
        assert_eq!(report.shards[0].len, 1);
        assert_eq!(report.shards[1].keys, 1);
        assert_eq!(report.shards[2].keys, 0);
        assert_eq!(report.shards[1].label, "shard 1 (patricia)");
        assert_eq!((report.shards[1].lo, report.shards[1].hi), (256, 511));

        // Plant a key in the wrong shard (bypassing the router) and
        // the report must name exactly that shard.
        set.shards[2].insert(5, 1);
        let report = set.validate_report();
        assert!(!report.ok());
        let bad: Vec<_> = report.shards.iter().filter(|s| s.error.is_some()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].label, "shard 2 (patricia)");
        let msg = bad[0].error.clone().unwrap();
        assert!(
            msg.contains("shard 2") && msg.contains("outside the shard's partition"),
            "{msg}"
        );
        let err = set.validate().unwrap_err();
        assert!(err.contains("shard 2"), "{err}");
    }

    #[test]
    fn sharded_name_is_interned_and_stable() {
        let a = sharded("bst", 2, 1024);
        let b = sharded("bst", 2, 1024);
        assert_eq!(a.name(), "sharded(bst,2)");
        // Same spec, same &'static str (pointer-equal).
        assert!(std::ptr::eq(a.name(), b.name()));
    }
}
