//! The benchmark's own generator (SplitMix64), so that a later change to
//! the repo's `rand` shim cannot change the inputs.

/// SplitMix64 (Steele, Lea & Flood): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The stream of `(seed, workload, thread)`: the three are mixed
    /// through the generator itself, so neighbouring seeds or threads do
    /// not give shifted copies of one stream.
    pub fn stream(seed: u64, workload: u64, thread: u64) -> Self {
        let a = SplitMix64::new(seed).next_u64();
        let b = SplitMix64::new(a ^ workload.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
        SplitMix64::new(b ^ thread.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` by multiply-shift (bias below 2⁻⁴⁰ for the
    /// `n` ≤ 2²⁴ used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // First outputs of SplitMix64 seeded with 0 (public reference).
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn streams_repeat_and_differ() {
        let take = |s, w, t| {
            let mut g = SplitMix64::stream(s, w, t);
            (0..4).map(|_| g.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 1, 0), take(7, 1, 0));
        assert_ne!(take(7, 1, 0), take(7, 1, 1));
        assert_ne!(take(7, 1, 0), take(7, 2, 0));
        assert_ne!(take(7, 1, 0), take(8, 1, 0));
    }

    #[test]
    fn below_stays_in_range() {
        let mut g = SplitMix64::new(3);
        for n in [1u64, 2, 63, 64, 65_536] {
            for _ in 0..1000 {
                assert!(g.below(n) < n);
            }
        }
    }
}
