//! SCX descriptors: one per thread, reused by every SCX it runs.
//!
//! The paper creates a fresh SCX-record per SCX (Fig. 4 line 21) and
//! leaves its reclamation to a garbage collector. Arbel-Raviv & Brown,
//! "Reuse, Don't Recycle" (DISC 2017), apply their descriptor-reuse
//! technique to this very algorithm, and this module follows them:
//! each thread owns one [`Descriptor`] for its lifetime, and a
//! Data-record's `info` field holds an *info word* `(tid, seq)` naming
//! the `seq`-th SCX run in descriptor `tid`, not a pointer. Word 0 is
//! the paper's dummy SCX-record: `Aborted`, never helped (Lemma 11).
//! Nothing is allocated, reference-counted or freed per SCX:
//!
//! * `seq` never repeats for a `tid`. A `tid` goes back to a free list
//!   when its thread exits, and its next owner continues from the
//!   descriptor's `seq`. So an info word never recurs, and a freezing
//!   CAS whose expected word is stale can never succeed (no ABA).
//! * Descriptors live in chunks that are never freed, so a stale `tid`
//!   always names valid memory.
//!
//! The descriptor's shared part is two seq-tagged words, the state word
//! `(seq, state)` and the frozen word `(seq, allFrozen)`; the rest of an
//! SCX's fields are copied out into a private
//! [`ScxRecord`](crate::scx_record::ScxRecord). Only the owner moves
//! `seq`, so its frozen step and commit/abort step are plain stores. A
//! helper's are CASes on the seq-tagged words, so a late helper cannot
//! touch the owner's next SCX. A helper that finds `seq` moved on knows
//! the SCX it names has finished, but not how: [`Descriptor::state`]
//! reports it as `Committed`, and LLX lets `marked` decide (Fig. 4
//! lines 7 and 12). That is sound because a marked record's `info` names
//! the committed SCX that finalized it.
//!
//! Every descriptor access is `SeqCst`, so the model checker's
//! sequentially consistent explorer covers the whole protocol.

use std::cell::Cell;
use std::sync::{OnceLock, PoisonError};

use crate::sync::{AtomicU64, Mutex, Ordering::SeqCst};

/// The state of an SCX (paper Fig. 1 and Fig. 7).
///
/// Transitions are `InProgress -> Committed` (commit step) and
/// `InProgress -> Aborted` (abort step) only; Corollary 23 of the paper
/// proves no other transition occurs, and the owner's steps assert it
/// in debug builds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[repr(u8)]
pub enum ScxState {
    /// The SCX is running; records frozen for it are locked on its behalf.
    InProgress = 0,
    /// The SCX succeeded; records in its `R` sequence are finalized.
    Committed = 1,
    /// The SCX failed; records frozen for it are unfrozen.
    Aborted = 2,
}

impl ScxState {
    fn from_u8(v: u8) -> Self {
        match v {
            0 => ScxState::InProgress,
            1 => ScxState::Committed,
            2 => ScxState::Aborted,
            _ => unreachable!("invalid SCX state {v}"),
        }
    }
}

/// Most records one SCX may depend on. `R` is a bitmask over `V`; the
/// largest `V` in this repository (chromatic's W-FAR rebalancing) has 5.
pub(crate) const MAX_V: usize = 8;

/// The info word of the dummy SCX-record, held by every fresh
/// Data-record's `info` field.
pub(crate) const DUMMY: u64 = 0;

/// Low bits of an info word: the `seq`. The `tid` sits above them.
const SEQ_BITS: u32 = 48;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
/// Descriptors per table chunk, and chunks in the table: one per `tid`
/// an info word can name.
const CHUNK: usize = 64;
const CHUNKS: usize = (1 << (64 - SEQ_BITS)) / CHUNK;

/// Info word of the `seq`-th SCX of descriptor `tid` (`seq >= 1`, so
/// never [`DUMMY`]).
pub(crate) fn info_word(tid: usize, seq: u64) -> u64 {
    // A wrapped `seq` would let an info word recur.
    assert!(seq <= SEQ_MASK, "descriptor {tid} ran out of SCX seqs");
    // Model-checker regression gate A: a word without its `seq` recurs
    // on the thread's next SCX, the recycling ABA.
    let seq = if cfg!(llx_model_bugs) { 1 } else { seq };
    (tid as u64) << SEQ_BITS | seq
}

/// The descriptor and `seq` a non-dummy info word names.
pub(crate) fn unpack(word: u64) -> (&'static Descriptor, u64) {
    let d = descriptor((word >> SEQ_BITS) as usize);
    // Gate A: with no `seq` in the word, the descriptor's latest is all
    // a reader has.
    let seq = if cfg!(llx_model_bugs) {
        d.latest().0
    } else {
        word & SEQ_MASK
    };
    (d, seq)
}

/// The state of the SCX an info word names (paper Fig. 4 line 5).
pub(crate) fn state(word: u64) -> ScxState {
    if word == DUMMY {
        return ScxState::Aborted;
    }
    let (d, seq) = unpack(word);
    d.state(seq)
}

/// The state of SCX `seq` as state word `w` reports it: exact while
/// `seq` is the descriptor's latest, else `Committed` (finished).
fn decode(w: u64, seq: u64) -> ScxState {
    if w >> 2 == seq {
        ScxState::from_u8((w & 3) as u8)
    } else {
        ScxState::Committed
    }
}

/// One thread's SCX descriptor. Every field is an atomic word, so a
/// helper may read it while the owner rewrites it; the copy a helper
/// keeps is valid only if the state word read before and after it is
/// the same `(seq, InProgress)`.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Descriptor {
    /// `seq << 2 | state`.
    pub(crate) state: AtomicU64,
    /// `seq << 1 | allFrozen`.
    pub(crate) frozen: AtomicU64,
    pub(crate) len: AtomicU64,
    pub(crate) finalize_mask: AtomicU64,
    /// Address of the mutable field to modify.
    pub(crate) fld: AtomicU64,
    pub(crate) old: AtomicU64,
    pub(crate) new: AtomicU64,
    /// Addresses of the records of `V`.
    pub(crate) v: [AtomicU64; MAX_V],
    /// The info words the linked LLXs read.
    pub(crate) info_fields: [AtomicU64; MAX_V],
    /// Debug builds: the last `seq` whose update CAS won (Lemma 54: one
    /// win per SCX).
    #[cfg(debug_assertions)]
    pub(crate) last_won_seq: AtomicU64,
}

impl Descriptor {
    /// The `seq` and state of the descriptor's latest SCX.
    pub(crate) fn latest(&self) -> (u64, ScxState) {
        let w = self.state.load(SeqCst); // ord: SC descriptor state word (paper Fig. 4)
        (w >> 2, ScxState::from_u8((w & 3) as u8))
    }

    /// Publish SCX `seq` in the frozen word, then the state word, so a
    /// reader that learns `seq` from either finds both on it.
    pub(crate) fn publish(&self, seq: u64) {
        self.frozen.store(seq << 1, SeqCst); // ord: SC seq publish (paper Fig. 4 line 21)
        self.state
            .store(seq << 2 | ScxState::InProgress as u64, SeqCst); // ord: SC seq publish (paper Fig. 4 line 21)
    }

    /// The raw state word and the state of SCX `seq` it reports (see
    /// [`decode`]). Equal raw words before and after a copy of the
    /// fields mean the copy is of one SCX.
    pub(crate) fn state_word(&self, seq: u64) -> (u64, ScxState) {
        let w = self.state.load(SeqCst); // ord: SC descriptor state word (paper Fig. 4)
        (w, decode(w, seq))
    }

    /// The state of SCX `seq` of this descriptor; see [`decode`].
    pub(crate) fn state(&self, seq: u64) -> ScxState {
        self.state_word(seq).1
    }

    /// The frozen check step (Fig. 4 line 29) for SCX `seq`: true if
    /// its frozen step was done or it has finished.
    pub(crate) fn all_frozen(&self, seq: u64) -> bool {
        let w = self.frozen.load(SeqCst); // ord: SC descriptor frozen word (paper Fig. 4)
        w == seq << 1 | 1 || w >> 1 != seq
    }

    /// The frozen step (Fig. 4 line 37) for SCX `seq`. False only for a
    /// helper that finds the SCX finished.
    pub(crate) fn set_all_frozen(&self, seq: u64, owner: bool) -> bool {
        let frozen = seq << 1 | 1;
        if owner {
            self.frozen.store(frozen, SeqCst); // ord: SC descriptor frozen word (paper Fig. 4)
            return true;
        }
        let cas = self
            .frozen
            .compare_exchange(seq << 1, frozen, SeqCst, SeqCst); // ord: seq-guarded frozen step; SC per paper Fig. 4
        cas.is_ok() || cas == Err(frozen)
    }

    /// A commit step or abort step (Fig. 4 lines 34, 41) for SCX `seq`.
    /// Debug builds assert the owner's against the Fig. 7 transition
    /// diagram (Lemma 21: never both for one SCX); a helper's CAS only
    /// ever leaves `InProgress`.
    pub(crate) fn set_state(&self, seq: u64, new: ScxState, owner: bool) {
        debug_assert_ne!(new, ScxState::InProgress, "no step writes InProgress");
        let w = seq << 2 | new as u64;
        if owner {
            #[cfg(debug_assertions)]
            {
                let old = self.state(seq);
                debug_assert!(
                    old == ScxState::InProgress || old == new,
                    "illegal SCX state transition {old:?} -> {new:?} (paper Fig. 7)"
                );
            }
            self.state.store(w, SeqCst); // ord: SC descriptor state word (paper Fig. 4)
        } else {
            let in_progress = seq << 2 | ScxState::InProgress as u64;
            // ord: seq-guarded commit/abort step; SC per paper Fig. 4
            let _ = self.state.compare_exchange(in_progress, w, SeqCst, SeqCst);
        }
    }
}

type Chunk = [Descriptor; CHUNK];

/// The descriptor table: chunks are created on demand and never freed.
static TABLE: [OnceLock<Box<Chunk>>; CHUNKS] = [const { OnceLock::new() }; CHUNKS];

/// The descriptor of `tid`, which [`acquire`] created.
pub(crate) fn descriptor(tid: usize) -> &'static Descriptor {
    &TABLE[tid / CHUNK]
        .get()
        .expect("an info word names a created tid")[tid % CHUNK]
}

/// Descriptor slots created so far, and the `tid`s of exited threads.
struct Registry {
    created: usize,
    free: Vec<usize>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    created: 0,
    free: Vec::new(),
});

fn registry() -> crate::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A `tid` for the calling thread: a free one, else a new slot.
pub(crate) fn acquire() -> usize {
    let mut reg = registry();
    if let Some(tid) = reg.free.pop() {
        return tid;
    }
    let tid = reg.created;
    assert!(
        tid < CHUNKS * CHUNK,
        "more than {tid} threads hold SCX descriptors"
    );
    TABLE[tid / CHUNK].get_or_init(|| Box::new(std::array::from_fn(|_| Descriptor::default())));
    reg.created += 1;
    tid
}

/// Give `tid` back; its descriptor keeps its `seq`.
pub(crate) fn release(tid: usize) {
    registry().free.push(tid);
}

/// The number of SCX descriptor slots created so far: the most threads
/// that have held one at once. It grows with concurrency, never with
/// the number of SCXs, and never shrinks.
pub fn scx_descriptors() -> usize {
    registry().created
}

/// The calling thread's `tid`, acquired at its first SCX and released
/// when it exits.
struct Own(Cell<Option<usize>>);

impl Drop for Own {
    fn drop(&mut self) {
        if let Some(tid) = self.0.get() {
            release(tid);
        }
    }
}

thread_local! {
    static OWN: Own = const { Own(Cell::new(None)) };
}

/// Run `f` with the calling thread's `tid`. A thread whose
/// thread-locals are already torn down borrows one for the call.
pub(crate) fn with_own<R>(f: impl FnOnce(usize) -> R) -> R {
    let own = OWN.try_with(|o| {
        let tid = o.0.get().unwrap_or_else(acquire);
        o.0.set(Some(tid));
        tid
    });
    match own {
        Ok(tid) => f(tid),
        Err(_) => {
            let tid = acquire();
            let r = f(tid);
            release(tid);
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A descriptor of its own for one test, with SCX 1 published.
    fn fresh() -> (&'static Descriptor, u64) {
        let d: &'static Descriptor = Box::leak(Box::default());
        d.publish(1);
        (d, 1)
    }

    #[test]
    fn dummy_is_aborted_and_never_frozen() {
        assert_eq!(state(DUMMY), ScxState::Aborted);
        assert_ne!(info_word(0, 1), DUMMY, "seq >= 1 keeps tid 0 off the dummy");
    }

    #[test]
    fn fresh_header_is_in_progress() {
        let (d, seq) = fresh();
        assert_eq!(d.state(seq), ScxState::InProgress);
        assert!(!d.all_frozen(seq));
        assert_eq!(d.latest(), (seq, ScxState::InProgress));
    }

    #[test]
    fn state_transitions_follow_fig7() {
        let (d, seq) = fresh();
        d.set_state(seq, ScxState::Committed, true);
        assert_eq!(d.state(seq), ScxState::Committed);
        // Repeated commit steps by helpers are allowed.
        d.set_state(seq, ScxState::Committed, false);
        d.set_state(seq, ScxState::Committed, true);
        assert_eq!(d.state(seq), ScxState::Committed);
        // A late helper's abort step cannot overwrite the commit.
        d.set_state(seq, ScxState::Aborted, false);
        assert_eq!(d.state(seq), ScxState::Committed);
        // Once the owner moves on, the finished SCX reads as committed.
        d.publish(2);
        assert_eq!(d.state(seq), ScxState::Committed);
        d.set_state(seq, ScxState::Aborted, false);
        assert_eq!(d.state(2), ScxState::InProgress, "seq guard held");
    }

    #[test]
    #[should_panic(expected = "illegal SCX state transition")]
    #[cfg(debug_assertions)]
    fn commit_then_abort_is_illegal() {
        let (d, seq) = fresh();
        d.set_state(seq, ScxState::Committed, true);
        d.set_state(seq, ScxState::Aborted, true);
    }

    #[test]
    #[should_panic(expected = "illegal SCX state transition")]
    #[cfg(debug_assertions)]
    fn abort_then_commit_is_illegal() {
        let (d, seq) = fresh();
        d.set_state(seq, ScxState::Aborted, true);
        d.set_state(seq, ScxState::Committed, true);
    }

    #[test]
    fn frozen_step_is_sticky() {
        let (d, seq) = fresh();
        assert!(d.set_all_frozen(seq, false));
        assert!(d.all_frozen(seq));
        assert!(
            d.set_all_frozen(seq, false),
            "a second helper's frozen step"
        );
        assert!(d.set_all_frozen(seq, true));
        // A finished SCX's helper learns it from the frozen word.
        d.publish(2);
        assert!(!d.set_all_frozen(seq, false));
        assert!(d.all_frozen(seq));
        assert!(!d.all_frozen(2));
    }

    #[test]
    fn state_roundtrip() {
        for s in [ScxState::InProgress, ScxState::Committed, ScxState::Aborted] {
            assert_eq!(ScxState::from_u8(s as u8), s);
            assert_eq!(decode(7 << 2 | s as u64, 7), s);
        }
        let w = info_word(CHUNK + 3, 41);
        let (d, seq) = (w >> SEQ_BITS, w & SEQ_MASK);
        assert_eq!((d, seq), ((CHUNK + 3) as u64, 41));
    }

    /// A `tid` freed by an exited thread keeps its descriptor's `seq`:
    /// the next owner's first SCX numbers past the last one's.
    #[test]
    fn reused_tid_continues_past_its_last_seq() {
        let domain: crate::Domain<1, ()> = crate::Domain::new();
        let scx = |tid| {
            let guard = crate::pin();
            let r = domain.alloc((), [0]);
            let s = domain.llx(unsafe { &*r }, &guard).snapshot().unwrap();
            assert!(domain.scx_as(
                tid,
                crate::ScxRequest::new(&[s], crate::FieldId::new(0, 0), 1)
            ));
            let word = unsafe { &*r }.head.info.load(SeqCst); // ord: test read of a settled record
            unsafe { domain.retire(r, &guard) };
            word
        };
        // A peer test may take the freed `tid` first; try again then.
        for _ in 0..100 {
            let tid = acquire();
            scx(tid);
            let last = scx(tid);
            release(tid);
            let again = acquire();
            if again == tid {
                let next = scx(tid);
                release(tid);
                assert_eq!(next >> SEQ_BITS, last >> SEQ_BITS);
                assert!(
                    next & SEQ_MASK > last & SEQ_MASK,
                    "{next:#x} after {last:#x}"
                );
                return;
            }
            release(again);
        }
        panic!("the free list never handed a released tid back");
    }
}
