//! Output checks: the end-of-run ledger oracle and the per-scan check.

use conc_set::ConcurrentOrderedSet;

use crate::workload::{prefilled, Workload};

/// At quiescence: for every key, the prefill plus every thread's
/// *acknowledged* inserts minus removes must be what `get` answers; the
/// total must be `len()`; and the structure's own `validate()` must pass.
pub fn check_ledgers(
    w: Workload,
    set: &dyn ConcurrentOrderedSet,
    ledgers: &[Vec<i32>],
) -> Result<(), String> {
    let mut total = 0u64;
    for key in 0..w.keys() {
        let delta: i64 = ledgers.iter().map(|l| i64::from(l[key as usize])).sum();
        let want = i64::from(prefilled(key)) + delta;
        let got = set.get(key);
        if want < 0 || got != want as u64 {
            return Err(format!(
                "ledger: key {key} holds {got}, acknowledged ops say {want}"
            ));
        }
        total += got;
    }
    let len = set.len();
    if len != total {
        return Err(format!("ledger: len() is {len}, the keys sum to {total}"));
    }
    set.validate().map_err(|e| format!("validate: {e}"))
}

/// One streamed scan of `[lo, hi]`: keys strictly increasing, inside the
/// range, and every stable key (`≡ 0 mod 4`: prefilled, never written)
/// present. Fed pair by pair so the scanner keeps no copy of the scan.
#[derive(Debug)]
pub struct ScanCheck {
    lo: u64,
    hi: u64,
    last: Option<u64>,
    stable_seen: u64,
    pub keys: u64,
    error: Option<String>,
}

impl ScanCheck {
    pub fn new(lo: u64, hi: u64) -> Self {
        ScanCheck {
            lo,
            hi,
            last: None,
            stable_seen: 0,
            keys: 0,
            error: None,
        }
    }

    pub fn feed(&mut self, key: u64) {
        if self.error.is_some() {
            return;
        }
        if key < self.lo || key > self.hi {
            self.error = Some(format!(
                "scan [{}, {}] returned key {key}",
                self.lo, self.hi
            ));
        } else if self.last.is_some_and(|l| l >= key) {
            self.error = Some(format!(
                "scan [{}, {}] returned {key} after {}",
                self.lo,
                self.hi,
                self.last.unwrap_or(0)
            ));
        }
        self.last = Some(key);
        self.keys += 1;
        self.stable_seen += u64::from(key.is_multiple_of(4));
    }

    pub fn finish(self) -> Result<u64, String> {
        if let Some(e) = self.error {
            return Err(e);
        }
        // Multiples of 4 in [lo, hi]. Keys are distinct and in range, so
        // seeing that many stable keys is seeing each of them.
        let want = self.hi / 4 + 1 - self.lo.div_ceil(4);
        if self.stable_seen != want {
            return Err(format!(
                "scan [{}, {}] returned {} of its {want} stable keys",
                self.lo, self.hi, self.stable_seen
            ));
        }
        Ok(self.keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conc_set::StructureSpec;

    fn prefilled_set(w: Workload) -> Box<dyn ConcurrentOrderedSet> {
        let set = StructureSpec::parse(w.spec()).unwrap().build();
        w.prefill_keys().for_each(|k| {
            set.insert(k, 1);
        });
        set
    }

    #[test]
    fn honest_ledgers_pass() {
        let w = Workload::MemContend;
        let set = prefilled_set(w);
        let mut a = vec![0i32; w.keys() as usize];
        let mut b = a.clone();
        a[3] += set.insert(3, 1) as i32;
        b[3] += set.insert(3, 1) as i32;
        b[4] -= set.remove(4, 1) as i32;
        check_ledgers(w, &*set, &[a, b]).unwrap();
    }

    #[test]
    fn corrupted_ledger_fails_the_round() {
        let w = Workload::MemContend;
        let set = prefilled_set(w);
        let mut a = vec![0i32; w.keys() as usize];
        a[3] += set.insert(3, 1) as i32;
        a[10] += 1; // an insert nobody was acknowledged for
        let err = check_ledgers(w, &*set, &[a]).unwrap_err();
        assert!(err.contains("key 10"), "{err}");
    }

    #[test]
    fn lost_update_fails_the_round() {
        let w = Workload::MemRead;
        let set = prefilled_set(w);
        set.remove(8, 1); // the structure lost a key no ledger removed
        let err = check_ledgers(w, &*set, &[vec![0; w.keys() as usize]]).unwrap_err();
        assert!(err.contains("key 8"), "{err}");
    }

    fn scan(lo: u64, hi: u64, keys: impl IntoIterator<Item = u64>) -> Result<u64, String> {
        let mut c = ScanCheck::new(lo, hi);
        keys.into_iter().for_each(|k| c.feed(k));
        c.finish()
    }

    #[test]
    fn complete_scan_passes() {
        assert_eq!(scan(5, 17, [6, 8, 9, 12, 16]), Ok(5));
        assert_eq!(scan(4, 8, [4, 8]), Ok(2));
        assert_eq!(scan(5, 7, []), Ok(0));
    }

    #[test]
    fn dropped_stable_key_fails_the_scan() {
        let err = scan(5, 17, [6, 8, 9, 16]).unwrap_err();
        assert!(err.contains("2 of its 3 stable keys"), "{err}");
    }

    #[test]
    fn unsorted_or_out_of_range_scan_fails() {
        assert!(scan(0, 16, [0, 8, 4, 12, 16]).is_err());
        assert!(scan(0, 16, [0, 4, 4, 8, 12, 16]).is_err());
        assert!(scan(4, 8, [4, 8, 12]).is_err());
    }
}
