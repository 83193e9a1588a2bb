//! The benchmark's own log-linear latency histogram: 32 sub-buckets per
//! octave, so a reported quantile is within 1/32 (3.125 %) of a recorded
//! value at every magnitude. (`bench-harness`'s log₂ histogram has one
//! bucket per octave, which is why its p99 read `127ns` on every row.)

/// Sub-bucket bits: 2⁵ = 32 linear sub-buckets per octave.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2⁴⁰ ns (18 minutes) share the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) * SUB as usize;

/// Counts of nanosecond values in log-linear buckets.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let v = v.min((1 << MAX_EXP) - 1);
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (((u64::from(shift) + 1) << SUB_BITS) + ((v >> shift) & (SUB - 1))) as usize
}

/// `[lo, hi)` of bucket `i`.
fn bounds_of(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, i + 1);
    }
    let shift = (i >> SUB_BITS) - 1;
    let lo = (SUB + (i & (SUB - 1))) << shift;
    (lo, lo + (1 << shift))
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index_of(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0 < q ≤ 1`): the bucket holding the `⌈q·n⌉`-th
    /// smallest sample, interpolated linearly by that sample's rank within
    /// the bucket (so the reading is not quantised to bucket midpoints);
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, hi) = bounds_of(i);
                let within = ((rank - seen) as f64 - 0.5) / c as f64;
                return Some(lo as f64 + within * (hi - lo) as f64 - 0.5);
            }
            seen += c;
        }
        unreachable!("total is the sum of the bucket counts")
    }

    /// The highest of p50, p90, p99, p99.9 … that still has at least ten
    /// samples beyond it, as `(percent, value)`; `None` below 20 samples.
    pub fn highest_supported(&self) -> Option<(f64, f64)> {
        // (percentile, one sample in how many lies beyond it)
        let ladder = [
            (50.0, 2),
            (90.0, 10),
            (99.0, 100),
            (99.9, 1_000),
            (99.99, 10_000),
            (99.999, 100_000),
        ];
        let best = ladder
            .iter()
            .rev()
            .find(|&&(_, one_in)| self.total >= 10 * one_in)
            .map(|&(pct, _)| pct);
        best.and_then(|pct| Some((pct, self.quantile(pct / 100.0)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_is_bounded_at_every_octave() {
        for exp in 0..MAX_EXP {
            let base = 1u64 << exp;
            for v in [base, base + base / 3, base + base / 2, 2 * base - 1] {
                let mut h = Hist::new();
                h.record(v);
                let got = h.quantile(0.5).unwrap();
                let err = (got - v as f64).abs() / v as f64;
                assert!(err <= 0.032, "value {v}: read {got}, error {err}");
            }
        }
    }

    #[test]
    fn buckets_tile_the_range() {
        let mut next = 0;
        for i in 0..BUCKETS {
            let (lo, hi) = bounds_of(i);
            assert_eq!(lo, next, "bucket {i}");
            assert_eq!(index_of(lo), i);
            assert_eq!(index_of(hi - 1), i);
            next = hi;
        }
        assert_eq!(next, 1 << MAX_EXP);
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_a_known_sample() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v * 100);
        }
        let near = |got: f64, want: f64| (got - want).abs() / want <= 0.032;
        assert!(near(h.quantile(0.5).unwrap(), 50_000.0));
        assert!(near(h.quantile(0.99).unwrap(), 99_000.0));
        assert!(near(h.quantile(1.0).unwrap(), 100_000.0));
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (Hist::new(), Hist::new());
        for _ in 0..90 {
            a.record(100);
        }
        for _ in 0..10 {
            b.record(10_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        assert!(a.quantile(0.9).unwrap() < 110.0);
        // Within a bucket the reading moves with the rank, not in steps.
        assert!(a.quantile(0.3).unwrap() < a.quantile(0.6).unwrap());
        assert!(a.quantile(0.91).unwrap() > 9_000.0);
    }

    #[test]
    fn empty_has_no_quantile() {
        let h = Hist::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.highest_supported(), None);
    }

    #[test]
    fn highest_supported_percentile_needs_ten_beyond() {
        let mut h = Hist::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        assert_eq!(h.highest_supported().unwrap().0, 99.0);
        for v in 0..9000u64 {
            h.record(v);
        }
        assert_eq!(h.highest_supported().unwrap().0, 99.9);
    }
}
