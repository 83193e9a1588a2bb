//! Property test: kCAS against a sequential array model.

use mwcas::{kcas, KcasCell};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sequentially, kCAS must succeed iff all expectations match, and
    /// apply all-or-nothing.
    #[test]
    fn kcas_matches_array_model(
        ops in proptest::collection::vec(
            proptest::collection::vec((0..6usize, 0..4u64), 1..4),
            1..60,
        )
    ) {
        let cells: Vec<KcasCell> = (0..6).map(|_| KcasCell::new(0)).collect();
        let mut model = [0u64; 6];
        let mut stamp = 10u64;
        let guard = crossbeam_epoch::pin();
        for op in ops {
            // Build entries: (cell index, expected-guess) pairs; dedup
            // indices. Expected value is either the true current value
            // or a deliberate mismatch, chosen by the guess parity.
            let mut seen = Vec::new();
            let mut entries = Vec::new();
            let mut should_succeed = true;
            stamp += 1;
            for (idx, guess) in op {
                if seen.contains(&idx) {
                    continue;
                }
                seen.push(idx);
                let expected = if guess == 0 {
                    // wrong expectation (stamp values are never reused)
                    should_succeed = false;
                    stamp + 1_000_000
                } else {
                    model[idx]
                };
                entries.push((&cells[idx], expected, stamp));
            }
            let got = kcas(&entries, &guard);
            prop_assert_eq!(got, should_succeed);
            if got {
                for &idx in &seen {
                    model[idx] = stamp;
                }
            }
            for (i, cell) in cells.iter().enumerate() {
                prop_assert_eq!(cell.read(&guard), model[i], "cell {}", i);
            }
        }
    }
}
