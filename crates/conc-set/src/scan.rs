//! The two-tier scan surface: atomic snapshots and bounded-retry
//! **windowed scan cursors**.
//!
//! PR 3's `fold_range` gave every structure a consistent-snapshot range
//! scan, but its retry granularity is the whole range: one concurrent
//! writer anywhere in a 1024-key interval invalidates the entire VLX
//! validation and restarts the scan from `lo`, so long scans under
//! churn degrade toward livelock. This module trades
//! whole-range atomicity for **per-window atomicity**: a
//! [`ScanCursor`] validates and emits the range in bounded chunks, and
//! a conflict restarts only the dirty window — the cursor resumes from
//! the last emitted key, never from `lo`.
//!
//! The two tiers, selected by [`ScanOpts`]:
//!
//! * [`ScanOpts::atomic`] — the whole range is one window; every
//!   visited pair held simultaneously at one linearization point.
//!   `ConcurrentOrderedSet::fold_range` is exactly this cursor driven
//!   to completion (the `window = ∞` special case).
//! * [`ScanOpts::windowed`]`(w)` — each emitted window of up to `w`
//!   keys is internally snapshot-consistent (the structure LLX+VLXes
//!   the window, or the coarse control reads it under its lock), and
//!   consecutive windows certify consecutive key intervals; different
//!   windows may linearize at different points, with writers
//!   interleaving at the boundaries.
//!
//! Retries are **surfaced, not hidden**: each
//! [`next_window`](ScanCursor::next_window) call makes exactly one
//! validation attempt and reports [`ScanStep::Retry`] on conflict, so
//! callers observe (and can bound, pace, or abort on) the retry work
//! (the benchmark's `conc-set.scan_retry_share` reports it).

use std::fmt;

/// Options of [`ConcurrentOrderedSet::scan`](crate::ConcurrentOrderedSet::scan).
///
/// Build with [`ScanOpts::atomic`] or [`ScanOpts::windowed`]; the
/// field is public so options can also be written literally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanOpts {
    /// Maximum keys emitted (and validated) per window; `None` is the
    /// atomic tier: the whole range is one window with one
    /// linearization point.
    pub window: Option<u64>,
}

impl ScanOpts {
    /// Whole-range atomic snapshot — the `window = ∞` special case;
    /// identical semantics to
    /// [`fold_range`](crate::ConcurrentOrderedSet::fold_range).
    pub fn atomic() -> Self {
        ScanOpts { window: None }
    }

    /// Per-window consistency with at most `window` keys per validated
    /// window; every window has its own linearization point, in
    /// increasing key order.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn windowed(window: u64) -> Self {
        assert!(window > 0, "a scan window covers at least one key");
        ScanOpts {
            window: Some(window),
        }
    }

    /// The per-attempt key budget this option set implies.
    pub(crate) fn max_keys(&self) -> usize {
        self.window
            .map_or(usize::MAX, |w| usize::try_from(w).unwrap_or(usize::MAX))
    }
}

/// Outcome of one [`ScanCursor::next_window`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStep {
    /// A window validated and was emitted through the callback. The
    /// window certifies the exact contents of the key interval from
    /// the cursor's previous position through `hi_key` (inclusive) at
    /// its linearization point; the cursor resumes at `hi_key + 1`.
    Emitted {
        /// Inclusive upper bound of the interval the window certifies.
        hi_key: u64,
    },
    /// The window's validation detected a conflicting update; nothing
    /// was emitted and the cursor did not advance. Call again to retry
    /// the same window — only the dirty window is retried, never the
    /// whole range.
    Retry,
    /// The range is exhausted; nothing was emitted.
    Done,
}

/// A windowed scan cursor over an inclusive key range (object-safe; see
/// the [module docs](self) for the consistency model).
///
/// Obtain one from
/// [`ConcurrentOrderedSet::scan`](crate::ConcurrentOrderedSet::scan);
/// drive it by calling [`next_window`](ScanCursor::next_window) until
/// [`ScanStep::Done`]. Emitted pairs arrive in ascending key order
/// across the whole drive, and the emitted windows certify
/// consecutive, non-overlapping key intervals that exactly tile
/// `[lo, hi]`.
pub trait ScanCursor {
    /// Attempt the next window, emitting its `(key, occurrences)`
    /// pairs (ascending) through `emit` **after** the window
    /// validated. Exactly one validation attempt per call; see
    /// [`ScanStep`].
    fn next_window(&mut self, emit: &mut dyn FnMut(u64, u64)) -> ScanStep;

    /// The inclusive lower bound of the next window — the key the
    /// cursor resumes from — or `None` once the cursor is done.
    fn position(&self) -> Option<u64>;

    /// Windows emitted so far.
    fn windows(&self) -> u64;

    /// Validation attempts that failed so far (total across windows).
    fn retries(&self) -> u64;
}

impl fmt::Debug for dyn ScanCursor + '_ {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScanCursor")
            .field("position", &self.position())
            .field("windows", &self.windows())
            .field("retries", &self.retries())
            .finish()
    }
}

/// Pull-style iteration over a [`ScanCursor`]: yields the scanned
/// `(key, occurrences)` pairs in ascending key order, internally
/// retrying conflicted windows with paced backoff.
///
/// Where the cursor surfaces every [`ScanStep::Retry`] to its caller,
/// the iterator is the convenience tier for consumers that just want
/// the pairs: conflicts spin briefly, then yield the CPU, then sleep
/// in growing (capped) increments, so a long scan over a hot range
/// makes progress without melting a core. The consistency model is the
/// cursor's, unchanged: with a bounded window each yielded run of
/// pairs is per-window consistent; with [`ScanOpts::atomic`] the whole
/// iteration is one snapshot.
///
/// Obtain one from
/// [`iter_range`](crate::ConcurrentOrderedSet#method.iter_range) (an
/// inherent method on `dyn ConcurrentOrderedSet`, so it works through
/// the factory registry's boxed trait objects) or wrap any cursor with
/// [`ScanIter::new`].
pub struct ScanIter<'a> {
    cursor: Box<dyn ScanCursor + 'a>,
    /// Pairs emitted by the last validated window, drained front to
    /// back before the next window is attempted.
    buffered: std::collections::VecDeque<(u64, u64)>,
    /// Consecutive failed attempts on the current window (reset on
    /// emission); drives the backoff schedule.
    streak: u32,
}

impl<'a> ScanIter<'a> {
    /// Iterate over `cursor`, pacing retries internally.
    pub fn new(cursor: Box<dyn ScanCursor + 'a>) -> Self {
        ScanIter {
            cursor,
            buffered: std::collections::VecDeque::new(),
            streak: 0,
        }
    }

    /// Windows emitted so far (delegates to the cursor).
    pub fn windows(&self) -> u64 {
        self.cursor.windows()
    }

    /// Failed validation attempts so far (delegates to the cursor).
    pub fn retries(&self) -> u64 {
        self.cursor.retries()
    }

    /// Back off according to the current retry streak: spin first (a
    /// conflicting writer is usually gone within nanoseconds), then
    /// yield the scheduler slot, then sleep in doubling steps capped
    /// at ~1 ms so even a pathologically hot window only costs
    /// millisecond-scale pacing.
    fn pace(&self) {
        match self.streak {
            0..=3 => {
                for _ in 0..(16 << self.streak) {
                    std::hint::spin_loop();
                }
            }
            4..=9 => std::thread::yield_now(),
            s => {
                let exp = (s - 10).min(10);
                std::thread::sleep(std::time::Duration::from_micros(1 << exp));
            }
        }
    }
}

impl fmt::Debug for ScanIter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScanIter")
            .field("position", &self.cursor.position())
            .field("buffered", &self.buffered.len())
            .field("retry_streak", &self.streak)
            .finish()
    }
}

impl Iterator for ScanIter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            if let Some(pair) = self.buffered.pop_front() {
                return Some(pair);
            }
            let Self {
                cursor, buffered, ..
            } = self;
            match cursor.next_window(&mut |k, c| buffered.push_back((k, c))) {
                ScanStep::Emitted { .. } => self.streak = 0,
                ScanStep::Retry => {
                    self.pace();
                    self.streak = self.streak.saturating_add(1);
                }
                ScanStep::Done => return None,
            }
        }
    }
}

/// Totals of one fully driven cursor, returned by
/// [`fold_range_windowed`](crate::ConcurrentOrderedSet::fold_range_windowed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Windows emitted.
    pub windows: u64,
    /// Validation attempts that failed (each retried only its own
    /// window).
    pub retries: u64,
}

/// One validated scan window over `[from, hi]`: its `(key,
/// occurrences)` pairs in ascending key order, and whether the walk
/// exhausted the range. The pairs are the exact contents, at one
/// linearization point, of `[from, hi]` when exhausted, else of
/// `[from, last key]` (the key budget ran out).
pub type Window = (Vec<(u64, u64)>, bool);

/// The one cursor implementation behind every structure: generic over
/// the structure's single-attempt window collector, which takes
/// `(from, hi, max_keys)` with `from <= hi` and returns the validated
/// [`Window`], or `None` on conflict.
struct WindowCursor<F> {
    from: u64,
    hi: u64,
    max_keys: usize,
    done: bool,
    windows: u64,
    retries: u64,
    attempt: F,
}

impl<F> ScanCursor for WindowCursor<F>
where
    F: FnMut(u64, u64, usize) -> Option<Window>,
{
    fn next_window(&mut self, emit: &mut dyn FnMut(u64, u64)) -> ScanStep {
        if self.done {
            return ScanStep::Done;
        }
        let Some((pairs, end)) = (self.attempt)(self.from, self.hi, self.max_keys) else {
            self.retries += 1;
            return ScanStep::Retry;
        };
        self.windows += 1;
        // The window certifies `[from, hi]` when the walk exhausted the
        // range, else `[from, last key]`: a budget-capped window is
        // never empty, and every later key is strictly greater.
        let covered_hi = match pairs.last() {
            Some(&(k, _)) if !end => k,
            _ => self.hi,
        };
        for (k, c) in pairs {
            emit(k, c);
        }
        if covered_hi >= self.hi {
            self.done = true;
        } else {
            self.from = covered_hi + 1;
        }
        ScanStep::Emitted { hi_key: covered_hi }
    }

    fn position(&self) -> Option<u64> {
        (!self.done).then_some(self.from)
    }

    fn windows(&self) -> u64 {
        self.windows
    }

    fn retries(&self) -> u64 {
        self.retries
    }
}

/// Build the uniform cursor over `[lo, hi]` from a structure's
/// single-attempt window collector (see [`WindowCursor`]); `lo > hi`
/// is the empty range, done before any attempt.
pub(crate) fn cursor<'a>(
    lo: u64,
    hi: u64,
    opts: ScanOpts,
    attempt: impl FnMut(u64, u64, usize) -> Option<Window> + 'a,
) -> Box<dyn ScanCursor + 'a> {
    Box::new(WindowCursor {
        from: lo,
        hi,
        max_keys: opts.max_keys(),
        done: lo > hi,
        windows: 0,
        retries: 0,
        attempt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake structure's window over `keys`: the keys of `[from, hi]`,
    /// one occurrence each, capped at `max`.
    fn window_of(keys: &[u64], from: u64, hi: u64, max: usize) -> Window {
        let pairs: Vec<(u64, u64)> = keys
            .iter()
            .filter(|k| (from..=hi).contains(k))
            .take(max)
            .map(|&k| (k, 1))
            .collect();
        let end = pairs.len() < max;
        (pairs, end)
    }

    #[test]
    #[should_panic(expected = "at least one key")]
    fn zero_window_rejected() {
        ScanOpts::windowed(0);
    }

    #[test]
    fn cursor_tiles_the_range_and_counts_retries() {
        // A fake structure holding keys {1, 3, 4, 9}: the attempt
        // rejects every other call to exercise Retry accounting.
        let mut flaky = false;
        let mut c = cursor(0, 10, ScanOpts::windowed(2), move |from, hi, max| {
            flaky = !flaky;
            (!flaky).then(|| window_of(&[1, 3, 4, 9], from, hi, max))
        });
        let mut seen = Vec::new();
        let mut steps = Vec::new();
        loop {
            let step = c.next_window(&mut |k, v| seen.push((k, v)));
            if step == ScanStep::Done {
                break;
            }
            steps.push(step);
        }
        assert_eq!(seen, vec![(1, 1), (3, 1), (4, 1), (9, 1)]);
        assert_eq!(
            steps,
            vec![
                ScanStep::Retry,
                ScanStep::Emitted { hi_key: 3 },
                ScanStep::Retry,
                ScanStep::Emitted { hi_key: 9 },
                ScanStep::Retry,
                ScanStep::Emitted { hi_key: 10 },
            ]
        );
        assert_eq!(c.windows(), 3);
        assert_eq!(c.retries(), 3);
        assert_eq!(c.position(), None);
        assert_eq!(
            c.next_window(&mut |_, _| panic!("done emits nothing")),
            ScanStep::Done
        );
    }

    #[test]
    fn iterator_paces_retries_and_yields_every_pair() {
        // Keys {2, 5, 7}; every window needs three attempts before it
        // validates — the iterator must absorb the retries internally
        // and still yield each pair exactly once, in order.
        let mut attempts_left = 3;
        let cursor = cursor(0, 10, ScanOpts::windowed(1), move |from, hi, max| {
            attempts_left -= 1;
            if attempts_left > 0 {
                return None;
            }
            attempts_left = 3;
            Some(window_of(&[2, 5, 7], from, hi, max))
        });
        let mut it = ScanIter::new(cursor);
        let pairs: Vec<(u64, u64)> = it.by_ref().collect();
        assert_eq!(pairs, vec![(2, 1), (5, 1), (7, 1)]);
        // 4 windows (3 keyed + the trailing tail window), 2 failed
        // attempts each, all hidden from the caller.
        assert_eq!(it.windows(), 4);
        assert_eq!(it.retries(), 8);
        assert_eq!(it.next(), None, "fused after Done");
    }

    #[test]
    fn inverted_range_is_done_immediately() {
        let mut c = cursor(5, 2, ScanOpts::atomic(), |_, _, _| {
            panic!("attempt must not run on an empty range")
        });
        assert_eq!(c.next_window(&mut |_, _| ()), ScanStep::Done);
        assert_eq!(c.position(), None);
    }
}
