//! Step-count instrumentation.
//!
//! The paper's headline efficiency claim (§1, §2) is stated in terms of
//! primitive step counts: an uncontended SCX that depends on `k` LLXs and
//! finalizes `f` records performs `k + 1` CAS steps and `f + 2` writes,
//! versus `2k + 1` CAS steps for the best k-word CAS. These counters let
//! the benchmark harness (experiment E1) and the test suite measure those
//! counts exactly.
//!
//! Counting is off by default and enabled per [`Domain`](crate::Domain)
//! with [`Domain::with_stats`](crate::Domain::with_stats); when disabled
//! the hot paths execute a single predictable branch.

use crate::sync::{AtomicU64, Ordering};

/// Internal counter block; one per stats-enabled domain.
#[derive(Debug, Default)]
pub(crate) struct Stats {
    pub(crate) llx_attempts: AtomicU64,
    pub(crate) llx_snapshots: AtomicU64,
    pub(crate) llx_finalized: AtomicU64,
    pub(crate) llx_fails: AtomicU64,
    pub(crate) scx_attempts: AtomicU64,
    pub(crate) scx_commits: AtomicU64,
    pub(crate) scx_aborts: AtomicU64,
    pub(crate) vlx_attempts: AtomicU64,
    pub(crate) vlx_successes: AtomicU64,
    pub(crate) freezing_cas: AtomicU64,
    pub(crate) update_cas: AtomicU64,
    pub(crate) mark_writes: AtomicU64,
    pub(crate) frozen_writes: AtomicU64,
    pub(crate) state_writes: AtomicU64,
    pub(crate) helper_cas: AtomicU64,
    pub(crate) helps: AtomicU64,
    pub(crate) reads: AtomicU64,
}

/// Count one step on an `Option<&Stats>`.
macro_rules! bump {
    ($stats:expr, $field:ident) => {
        if let Some(s) = $stats {
            s.$field.fetch_add(1, $crate::sync::Ordering::Relaxed); // ord: stats counter; no sync role
        }
    };
}
pub(crate) use bump;

impl Stats {
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed); // ord: stats counter snapshot; no sync role
        let pool = crate::pool_stats();
        StatsSnapshot {
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            pool_defers: pool.defers,
            pool_handoffs: pool.handoffs,
            llx_attempts: ld(&self.llx_attempts),
            llx_snapshots: ld(&self.llx_snapshots),
            llx_finalized: ld(&self.llx_finalized),
            llx_fails: ld(&self.llx_fails),
            scx_attempts: ld(&self.scx_attempts),
            scx_commits: ld(&self.scx_commits),
            scx_aborts: ld(&self.scx_aborts),
            vlx_attempts: ld(&self.vlx_attempts),
            vlx_successes: ld(&self.vlx_successes),
            freezing_cas: ld(&self.freezing_cas),
            update_cas: ld(&self.update_cas),
            mark_writes: ld(&self.mark_writes),
            frozen_writes: ld(&self.frozen_writes),
            state_writes: ld(&self.state_writes),
            helper_cas: ld(&self.helper_cas),
            helps: ld(&self.helps),
            reads: ld(&self.reads),
        }
    }
}

/// A point-in-time copy of a domain's step counters.
///
/// Obtain with [`Domain::stats`](crate::Domain::stats); compute
/// per-operation costs by differencing two snapshots (see
/// [`StatsSnapshot::diff`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct StatsSnapshot {
    /// LLX invocations.
    pub llx_attempts: u64,
    /// LLXs that returned a snapshot.
    pub llx_snapshots: u64,
    /// LLXs that returned `Finalized`.
    pub llx_finalized: u64,
    /// LLXs that returned `Fail`.
    pub llx_fails: u64,
    /// SCX invocations.
    pub scx_attempts: u64,
    /// SCXs that returned `true`.
    pub scx_commits: u64,
    /// SCXs that returned `false`.
    pub scx_aborts: u64,
    /// VLX invocations.
    pub vlx_attempts: u64,
    /// VLXs that returned `true`.
    pub vlx_successes: u64,
    /// Freezing CAS steps executed (Fig. 4 line 26), successful or not.
    pub freezing_cas: u64,
    /// Update CAS steps executed (Fig. 4 line 39).
    pub update_cas: u64,
    /// Mark steps (Fig. 4 line 38) — writes to `marked` bits.
    pub mark_writes: u64,
    /// Frozen steps (Fig. 4 line 37) by the SCX's owner — writes to
    /// `allFrozen`. A helper's count in `helper_cas`.
    pub frozen_writes: u64,
    /// Commit and abort steps (Fig. 4 lines 34/41) by the SCX's owner —
    /// writes to `state`. A helper's count in `helper_cas`.
    pub state_writes: u64,
    /// Frozen, commit and abort steps taken by helpers: CASes on the
    /// descriptor's seq-tagged words, so a late helper cannot touch the
    /// owner's next SCX.
    pub helper_cas: u64,
    /// Invocations of the `Help` routine.
    pub helps: u64,
    /// Shared-memory reads performed by VLX (Fig. 4 line 47).
    pub reads: u64,
    /// Data-record allocations served from a recycled block.
    ///
    /// The four `pool_*` counters mirror [`crate::pool_stats`]: they
    /// are **process-global** (the pool hands blocks between arbitrary
    /// domains), unlike the per-domain counters above, and are
    /// captured here so one snapshot carries both the algorithm's step
    /// counts and the reclamation pool's efficacy. SCX-records are
    /// never allocated (each thread reuses one descriptor), so the pool
    /// holds Data-records only.
    pub pool_hits: u64,
    /// Data-record allocations that fell through to the global
    /// allocator.
    pub pool_misses: u64,
    /// Epoch-deferred batches of retired Data-records issued by the
    /// pool.
    pub pool_defers: u64,
    /// Data-records and blocks handed across threads: orphan adoptions
    /// plus shard steals.
    pub pool_handoffs: u64,
}

impl StatsSnapshot {
    /// Counter-wise difference `self - earlier`. The per-domain
    /// counters are monotone, so underflow there panics in debug builds;
    /// the process-global `pool_*` counters can be zeroed by
    /// [`reset_pool_stats`](crate::reset_pool_stats) between two
    /// snapshots and saturate at zero, as
    /// [`PoolStats::delta_since`](crate::PoolStats::delta_since) does.
    pub fn diff(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        let pool = self.pool().delta_since(&earlier.pool());
        StatsSnapshot {
            llx_attempts: self.llx_attempts - earlier.llx_attempts,
            llx_snapshots: self.llx_snapshots - earlier.llx_snapshots,
            llx_finalized: self.llx_finalized - earlier.llx_finalized,
            llx_fails: self.llx_fails - earlier.llx_fails,
            scx_attempts: self.scx_attempts - earlier.scx_attempts,
            scx_commits: self.scx_commits - earlier.scx_commits,
            scx_aborts: self.scx_aborts - earlier.scx_aborts,
            vlx_attempts: self.vlx_attempts - earlier.vlx_attempts,
            vlx_successes: self.vlx_successes - earlier.vlx_successes,
            freezing_cas: self.freezing_cas - earlier.freezing_cas,
            update_cas: self.update_cas - earlier.update_cas,
            mark_writes: self.mark_writes - earlier.mark_writes,
            frozen_writes: self.frozen_writes - earlier.frozen_writes,
            state_writes: self.state_writes - earlier.state_writes,
            helper_cas: self.helper_cas - earlier.helper_cas,
            helps: self.helps - earlier.helps,
            reads: self.reads - earlier.reads,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            pool_defers: pool.defers,
            pool_handoffs: pool.handoffs,
        }
    }

    /// The four process-global `pool_*` fields as a [`PoolStats`].
    fn pool(&self) -> crate::PoolStats {
        crate::PoolStats {
            hits: self.pool_hits,
            misses: self.pool_misses,
            defers: self.pool_defers,
            handoffs: self.pool_handoffs,
        }
    }

    /// Total CAS steps attributable to the algorithm: freezing, update
    /// and helpers' seq-guarded steps. Without helping, the quantity of
    /// the paper's `k + 1` claim.
    pub fn total_cas(&self) -> u64 {
        self.freezing_cas + self.update_cas + self.helper_cas
    }

    /// Total plain writes attributable to the algorithm (frozen + mark +
    /// state), the quantity of the paper's `f + 2` claim.
    pub fn total_writes(&self) -> u64 {
        self.frozen_writes + self.mark_writes + self.state_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_is_counterwise() {
        let a = StatsSnapshot {
            freezing_cas: 10,
            update_cas: 3,
            ..Default::default()
        };
        let b = StatsSnapshot {
            freezing_cas: 4,
            update_cas: 1,
            ..Default::default()
        };
        let d = a.diff(&b);
        assert_eq!(d.freezing_cas, 6);
        assert_eq!(d.update_cas, 2);
        assert_eq!(d.total_cas(), 8);
    }

    #[test]
    fn diff_saturates_across_a_pool_stats_reset() {
        let domain: crate::Domain<1, ()> = crate::Domain::with_stats();
        let guard = crate::pin();
        let r = domain.alloc((), [0]);
        let r_ref = unsafe { &*r };
        let scx = |v| {
            // Every allocation is one pool hit or miss.
            unsafe { domain.dealloc(domain.alloc((), [v])) };
            let s = [domain.llx(r_ref, &guard).snapshot().unwrap()];
            let req = crate::ScxRequest::new(&s, crate::FieldId::new(0, 0), v);
            assert!(domain.scx(req, &guard));
        };
        (1..=1000).for_each(scx);
        let before = domain.stats().unwrap();
        assert!(before.pool_hits + before.pool_misses >= 1000);
        crate::reset_pool_stats();
        scx(1001);
        // The global counters restarted far below `before`; peer tests
        // may bump them concurrently, so bound rather than pin them.
        let d = domain.stats().unwrap().diff(&before);
        assert_eq!(d.scx_commits, 1, "per-domain counters still subtract");
        assert!(d.pool_hits + d.pool_misses < 1000, "{d:?}");
        unsafe { domain.retire(r, &guard) };
    }

    #[test]
    fn totals_combine_expected_counters() {
        let s = StatsSnapshot {
            freezing_cas: 5,
            update_cas: 1,
            frozen_writes: 1,
            mark_writes: 2,
            state_writes: 1,
            ..Default::default()
        };
        assert_eq!(s.total_cas(), 6);
        assert_eq!(s.total_writes(), 4);
    }
}
