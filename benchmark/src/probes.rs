//! The single-thread layer ladder and the fixed micro-probes of the
//! traced run. Each ladder rung replays the same tape one layer further
//! out — inherent call → `dyn ConcurrentOrderedSet` → `ShardedSet` →
//! codec round trip (no socket) — so a layer's self time is its rung
//! minus the rung below. The loopback rungs (depth 1, depth 16) are the
//! `netsvc.rtt_p50_ns` probe and the workload itself.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use conc_set::{ConcurrentOrderedSet, ScanOpts, ScanStep, ShardedSet, StructureSpec};
use llx_scx::{Domain, FieldId, LlxResult, ScxRequest};
use multiset::Multiset;
use netsvc::codec::write_frame;
use netsvc::{FrameAssembler, Request, Response};
use trees::ChromaticTree;

use crate::load::request;
use crate::workload::{Kind, Op, Workload, SCAN_SPAN, SCAN_WINDOW};

fn ns_per_op(elapsed: Duration, ops: usize) -> f64 {
    elapsed.as_nanos() as f64 / ops as f64
}

/// The ladder's readings for one workload's tape.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ladder {
    /// Rung 0, on the structure the workload's spec is made of.
    pub direct_ns: f64,
    pub dyn_ns: f64,
    pub sharded_ns: f64,
    /// The codec round trip alone (added to the rung below, not run on it).
    pub codec_ns: f64,
    /// Height of the rung-0 chromatic tree after the tape (0 otherwise).
    pub height: u64,
    /// CAS steps and plain writes per committed SCX on rung 0 — the
    /// paper's k+1 and f+2 averaged over the tape's updates (multiset
    /// only: the trees do not expose their domain's counters).
    pub cas_per_commit: f64,
    pub writes_per_commit: f64,
}

fn apply_dyn(set: &dyn ConcurrentOrderedSet, op: Op) -> u64 {
    match op.kind() {
        Kind::Get => set.get(op.key()),
        Kind::Insert => set.insert(op.key(), 1),
        Kind::Remove => set.remove(op.key(), 1),
    }
}

fn replay_dyn(set: &dyn ConcurrentOrderedSet, tape: &[Op]) -> Duration {
    let start = Instant::now();
    for &op in tape {
        black_box(apply_dyn(set, op));
    }
    start.elapsed()
}

fn replay_multiset(set: &Multiset<u64>, tape: &[Op]) -> Duration {
    let start = Instant::now();
    for op in tape {
        let key = op.key();
        match op.kind() {
            Kind::Get => {
                black_box(set.get(key));
            }
            Kind::Insert => set.insert(key, 1),
            Kind::Remove => {
                black_box(set.remove(key, 1));
            }
        }
    }
    start.elapsed()
}

fn replay_chromatic(set: &ChromaticTree<u64, u64>, tape: &[Op]) -> Duration {
    let start = Instant::now();
    for op in tape {
        let key = op.key();
        match op.kind() {
            Kind::Get => {
                black_box(set.contains(key));
            }
            Kind::Insert => {
                black_box(set.insert(key, key));
            }
            Kind::Remove => {
                black_box(set.remove(key));
            }
        }
    }
    start.elapsed()
}

/// The socket-free codec round trip of one request and its reply:
/// `encode → write_frame → FrameAssembler → decode`, both directions.
fn replay_codec(tape: &[Op]) -> Duration {
    let (mut payload, mut wire) = (Vec::new(), Vec::new());
    let (mut to_server, mut to_client) = (FrameAssembler::new(), FrameAssembler::new());
    let round_trip = |bytes: &mut Vec<u8>, asm: &mut FrameAssembler, payload: &[u8]| {
        bytes.clear();
        write_frame(bytes, payload).expect("writing to a Vec cannot fail");
        asm.extend(bytes);
        asm.next_frame()
            .expect("a frame the codec just wrote is well formed")
            .expect("the whole frame was fed")
    };
    let start = Instant::now();
    for op in tape {
        payload.clear();
        request(*op).encode(&mut payload);
        let frame = round_trip(&mut wire, &mut to_server, &payload);
        black_box(Request::decode(&frame).expect("round trip of an encoded request"));
        payload.clear();
        Response::Value(op.key() & 1).encode(&mut payload);
        let frame = round_trip(&mut wire, &mut to_client, &payload);
        black_box(Response::decode(&frame).expect("round trip of an encoded response"));
    }
    start.elapsed()
}

/// Run the ladder over `tape` (the workload's first point-op tape).
pub fn ladder(w: Workload, tape: &[Op]) -> Ladder {
    let mut out = Ladder::default();
    let base = StructureSpec::parse(w.base_spec()).expect("the workload specs parse");
    if w.on_multiset() {
        let set = Multiset::<u64>::new();
        w.prefill_keys().for_each(|k| set.insert(k, 1));
        out.direct_ns = ns_per_op(replay_multiset(&set, tape), tape.len());
        // The same replay with the domain's step counters on (untimed).
        let counted = Multiset::<u64>::new_with_stats();
        w.prefill_keys().for_each(|k| counted.insert(k, 1));
        let before = counted.stats().expect("built with stats");
        replay_multiset(&counted, tape);
        let steps = counted.stats().expect("built with stats").diff(&before);
        if steps.scx_commits > 0 {
            out.cas_per_commit = steps.total_cas() as f64 / steps.scx_commits as f64;
            out.writes_per_commit = steps.total_writes() as f64 / steps.scx_commits as f64;
        }
    } else {
        let set = ChromaticTree::<u64, u64>::new();
        w.prefill_keys().for_each(|k| {
            set.insert(k, k);
        });
        out.direct_ns = ns_per_op(replay_chromatic(&set, tape), tape.len());
        out.height = set.height() as u64;
    }
    let set = base.build();
    w.prefill_keys().for_each(|k| {
        set.insert(k, 1);
    });
    out.dyn_ns = ns_per_op(replay_dyn(&*set, tape), tape.len());
    drop(set);
    let set = ShardedSet::with_domain(&base, 4, w.keys());
    w.prefill_keys().for_each(|k| {
        set.insert(k, 1);
    });
    out.sharded_ns = ns_per_op(replay_dyn(&set, tape), tape.len());
    drop(set);
    out.codec_ns = ns_per_op(replay_codec(tape), tape.len());
    out
}

/// `pin()` + drop, ns each.
pub fn pin_ns() -> f64 {
    const N: usize = 1 << 22;
    let start = Instant::now();
    for _ in 0..N {
        drop(black_box(crossbeam_epoch::pin()));
    }
    ns_per_op(start.elapsed(), N)
}

/// One `LLX` + one `SCX` on a single one-field record, a fresh value each
/// time: the primitive's floor, SCX-record allocation and release included.
pub fn llx_scx_ns() -> f64 {
    const N: usize = 1 << 20;
    let domain: Domain<1, ()> = Domain::new();
    let rec = domain.alloc((), [0]);
    // SAFETY: `rec` came from `alloc` above and is freed only by the
    // `retire` at the end of this function.
    let rec_ref = unsafe { &*rec };
    let start = Instant::now();
    for i in 0..N as u64 {
        let guard = llx_scx::pin();
        let LlxResult::Snapshot(snap) = domain.llx(rec_ref, &guard) else {
            unreachable!("a single thread never fails or finalizes its own record");
        };
        let done = domain.scx(ScxRequest::new(&[snap], FieldId::new(0, 0), i + 1), &guard);
        assert!(black_box(done), "an uncontended SCX commits");
    }
    let per_op = ns_per_op(start.elapsed(), N);
    let guard = llx_scx::pin();
    // SAFETY: allocated by `domain.alloc`, never shared with another
    // thread, not used after this line, and retired exactly once.
    unsafe { domain.retire(rec, &guard) };
    per_op
}

/// A fixed ALU loop for 0.3 s, in million iterations per second: what the
/// host gave this process just then, whatever the program does.
pub fn host_spin_ref() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut iters = 0u64;
    let elapsed = loop {
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        iters += 100_000;
        let e = start.elapsed();
        if e >= Duration::from_millis(300) {
            break e;
        }
    };
    black_box(x);
    iters as f64 / elapsed.as_secs_f64() / 1e6
}

/// In-process windowed scans beside one updater, `net-scan`'s shape
/// without the wire: `(ns per key delivered, Retry ÷ next_window calls)`.
pub fn scan_probe(w: Workload, scan_tape: &[u64], writer_tape: &[Op], run: Duration) -> (f64, f64) {
    let set = StructureSpec::parse(w.spec())
        .expect("the workload specs parse")
        .build();
    w.prefill_keys().for_each(|k| {
        set.insert(k, 1);
    });
    let stop = AtomicBool::new(false);
    let (mut keys, mut calls, mut retries) = (0u64, 0u64, 0u64);
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|s| {
        s.spawn(|| {
            // ord: a stop flag that publishes nothing else
            for op in writer_tape.iter().cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                black_box(apply_dyn(&*set, *op));
            }
        });
        let start = Instant::now();
        for &lo in scan_tape.iter().cycle() {
            let mut cursor = set.scan(lo, lo + SCAN_SPAN - 1, ScanOpts::windowed(SCAN_WINDOW));
            loop {
                calls += 1;
                match cursor.next_window(&mut |k, _| {
                    black_box(k);
                    keys += 1;
                }) {
                    ScanStep::Emitted { .. } => {}
                    ScanStep::Retry => retries += 1,
                    ScanStep::Done => break,
                }
            }
            elapsed = start.elapsed();
            if elapsed >= run {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    (
        elapsed.as_nanos() as f64 / keys.max(1) as f64,
        retries as f64 / calls.max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_reads_every_rung_and_the_papers_step_counts() {
        let w = Workload::MemContend;
        let tape = &w.point_tape(3, 0)[..4096];
        let l = ladder(w, tape);
        assert!(l.direct_ns > 0.0 && l.dyn_ns > 0.0 && l.sharded_ns > 0.0 && l.codec_ns > 0.0);
        // Every multiset SCX has k ≥ 1 and f ≥ 0 (paper §3: k+1 CAS, f+2 writes).
        assert!(l.cas_per_commit >= 2.0 && l.writes_per_commit >= 2.0);
        // A single thread repeats its step counts exactly.
        let again = ladder(w, tape);
        assert_eq!(l.cas_per_commit, again.cas_per_commit);
        assert_eq!(l.writes_per_commit, again.writes_per_commit);
    }

    #[test]
    fn chromatic_ladder_reports_a_height() {
        let w = Workload::MemRead;
        let l = ladder(w, &w.point_tape(3, 0)[..4096]);
        assert!(
            l.height >= 12,
            "8192/2 keys need height ≥ 12, got {}",
            l.height
        );
        assert_eq!(l.cas_per_commit, 0.0);
    }

    #[test]
    fn micro_probes_return_positive_times() {
        assert!(llx_scx_ns() > 0.0);
        assert!(host_spin_ref() > 0.0);
    }
}
