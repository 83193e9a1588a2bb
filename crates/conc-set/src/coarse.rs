//! [`CoarseMultiset`]: the trivially linearizable control.
//!
//! One mutex around a `BTreeMap` with the multiset semantics of paper
//! §5. Every operation, scan windows included, runs under the one lock,
//! so its histories are linearizable by construction. That makes it the
//! reference the WGL and JIT checkers and the differential tests
//! compare the lock-free structures against.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard};

use crate::Window;

/// A multiset of `u64` keys behind a single mutex (sequential
/// specification of paper §5, coarse-grained locking).
#[derive(Default)]
pub struct CoarseMultiset {
    inner: Mutex<BTreeMap<u64, u64>>,
}

impl CoarseMultiset {
    /// An empty multiset.
    pub fn new() -> Self {
        Self::default()
    }

    /// The map, even if a panicking holder poisoned the lock: every
    /// mutation below is one map call, so no holder can leave it torn.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, u64>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of occurrences of `key`.
    pub fn get(&self, key: u64) -> u64 {
        self.lock().get(&key).copied().unwrap_or(0)
    }

    /// Add `count` occurrences of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn insert(&self, key: u64, count: u64) {
        assert!(count > 0, "Insert precondition: count > 0");
        *self.lock().entry(key).or_insert(0) += count;
    }

    /// Remove `count` occurrences of `key` if present; returns success.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn remove(&self, key: u64, count: u64) -> bool {
        assert!(count > 0, "Delete precondition: count > 0");
        let mut map = self.lock();
        match map.get_mut(&key) {
            Some(c) if *c > count => {
                *c -= count;
                true
            }
            Some(c) if *c == count => {
                map.remove(&key);
                true
            }
            _ => false,
        }
    }

    /// Total occurrences across all keys.
    pub fn len(&self) -> u64 {
        self.lock().values().sum()
    }

    /// True if the multiset holds no keys.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// One scan window over `[from, hi]` (`from <= hi`,
    /// `max_keys > 0`): up to `max_keys` `(key, count)` pairs,
    /// ascending, plus whether the range is exhausted, read under the
    /// structure's single mutex — trivially consistent, so always
    /// `Some`. `max_keys = usize::MAX` is the whole-range atomic scan.
    pub fn try_scan_window(&self, from: u64, hi: u64, max_keys: usize) -> Option<Window> {
        debug_assert!(from <= hi && max_keys > 0, "an empty scan window");
        let map = self.lock();
        let mut pairs = Vec::new();
        for (&k, &c) in map.range(from..=hi) {
            pairs.push((k, c));
            if pairs.len() >= max_keys {
                return Some((pairs, false));
            }
        }
        Some((pairs, true))
    }

    /// Collect `(key, count)` pairs in ascending key order.
    pub fn to_vec(&self) -> Vec<(u64, u64)> {
        self.lock().iter().map(|(&k, &c)| (k, c)).collect()
    }
}

impl fmt::Debug for CoarseMultiset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.to_vec()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_basics() {
        let s = CoarseMultiset::new();
        assert!(s.is_empty());
        s.insert(3, 2);
        s.insert(1, 1);
        assert_eq!(s.get(3), 2);
        assert!(s.remove(3, 1));
        assert!(!s.remove(3, 2));
        assert!(s.remove(3, 1));
        assert_eq!(s.to_vec(), vec![(1, 1)]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn coarse_concurrent_ledger() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let s = Arc::new(CoarseMultiset::new());
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut rng = (t + 1).wrapping_mul(0x9E3779B97F4A7C15);
                let mut net = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    // ord: test stop flag; no data ordering
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let k = rng % 8;
                    if rng & 1 == 0 {
                        s.insert(k, 1);
                        net += 1;
                    } else if s.remove(k, 1) {
                        net -= 1;
                    }
                }
                net
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(150));
        stop.store(true, Ordering::Relaxed); // ord: test stop flag; no data ordering
        let net: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(s.len() as i64, net);
    }
}
