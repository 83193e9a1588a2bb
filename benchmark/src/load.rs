//! The closed-loop load: what one load thread does during one segment of
//! a run (warm-up, untraced slices, traced slices), for each of the three
//! thread roles. Every loop counts completed work per one-second slice.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use conc_set::ConcurrentOrderedSet;
use netsvc::{Client, Request, Response};

use crate::hist::Hist;
use crate::oracle::ScanCheck;
use crate::trace::{Probe, SpanKind};
use crate::workload::{prefilled, Kind, Op, BURST, SCAN_SPAN, SCAN_WINDOW};

/// On the in-process workloads one op in this many is timed, so the two
/// clock reads stay under ~5 % of the loop.
pub const MEM_SAMPLE: usize = 16;

/// `n` back-to-back slices of length `slice`, starting at `start`.
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    pub start: Instant,
    pub slice: Duration,
    pub n: usize,
    /// Units completed so far, published slice by slice: what the parent's
    /// watchdog shows of a run that wedged.
    pub progress: &'a AtomicU64,
}

impl Segment<'_> {
    pub fn end(&self) -> Instant {
        self.start + self.slice * self.n as u32
    }
}

/// What one thread completed in one slice.
#[derive(Clone, Default)]
pub struct SliceRec {
    /// Point ops completed, or keys delivered by scans.
    pub units: u64,
    /// Latency of each timed op, request or whole scan.
    pub lat: Hist,
}

/// Attributes completed work to the slice in which it completed.
struct Slicer<'a> {
    next_end: Instant,
    slice: Duration,
    left: usize,
    cur: SliceRec,
    done: Vec<SliceRec>,
    progress: &'a AtomicU64,
}

impl<'a> Slicer<'a> {
    fn new(seg: &Segment<'a>) -> Self {
        Slicer {
            next_end: seg.start + seg.slice,
            slice: seg.slice,
            left: seg.n,
            cur: SliceRec::default(),
            done: Vec::with_capacity(seg.n),
            progress: seg.progress,
        }
    }

    /// Close every slice that ended at or before `now`; `false` once the
    /// segment is over.
    #[inline]
    fn live(&mut self, now: Instant) -> bool {
        while self.left > 0 && now >= self.next_end {
            // ord: a progress figure, publishes nothing else
            self.progress.fetch_add(self.cur.units, Ordering::Relaxed);
            self.done.push(std::mem::take(&mut self.cur));
            self.left -= 1;
            self.next_end += self.slice;
        }
        self.left > 0
    }

    /// The thread cannot go on (its connection failed): the remaining
    /// slices complete nothing.
    fn abandon(mut self) -> Vec<SliceRec> {
        self.done.push(self.cur);
        self.done.resize_with(
            self.done.len() + self.left.saturating_sub(1),
            SliceRec::default,
        );
        self.done
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// A point-op thread's state, carried across the segments of a run.
pub struct PointState<'a> {
    tape: &'a [Op],
    /// Ops issued so far; the tape is replayed cyclically.
    pub pos: usize,
    /// Net acknowledged inserts minus removes, per key.
    pub ledger: Vec<i32>,
    pub failed: u64,
    /// The connection failed; later segments complete nothing.
    pub dead: bool,
    /// Xorshift state choosing which in-process ops are timed.
    sampler: u64,
}

impl<'a> PointState<'a> {
    pub fn new(tape: &'a [Op], keys: u64) -> Self {
        assert!(tape.len().is_power_of_two() && tape.len().is_multiple_of(BURST));
        PointState {
            tape,
            pos: 0,
            ledger: vec![0; keys as usize],
            failed: 0,
            dead: false,
            sampler: 0x9E37_79B9_7F4A_7C15,
        }
    }

    #[inline]
    fn next(&mut self) -> Op {
        let op = self.tape[self.pos & (self.tape.len() - 1)];
        self.pos += 1;
        op
    }
}

fn span_kind(kind: Kind) -> SpanKind {
    match kind {
        Kind::Get => SpanKind::Get,
        Kind::Insert => SpanKind::Insert,
        Kind::Remove => SpanKind::Remove,
    }
}

/// One in-process op. On a read-only workload nobody writes, so every
/// `get` is checked against the prefill on the spot; elsewhere the
/// acknowledged result goes to the ledger the end-of-run oracle checks.
#[inline]
fn apply(set: &dyn ConcurrentOrderedSet, op: Op, st: &mut PointState<'_>, read_only: bool) {
    let key = op.key();
    match op.kind() {
        Kind::Get => {
            let got = black_box(set.get(key));
            if read_only && got != u64::from(prefilled(key)) {
                st.failed += 1;
            }
        }
        Kind::Insert => st.ledger[key as usize] += set.insert(key, 1) as i32,
        Kind::Remove => st.ledger[key as usize] -= set.remove(key, 1) as i32,
    }
}

/// In-process point ops through `dyn ConcurrentOrderedSet`.
pub fn mem_segment<P: Probe>(
    set: &dyn ConcurrentOrderedSet,
    st: &mut PointState<'_>,
    read_only: bool,
    seg: &Segment<'_>,
    probe: &mut P,
) -> Vec<SliceRec> {
    let mut sl = Slicer::new(seg);
    loop {
        let (a, b);
        if P::ON {
            let op = st.next();
            let id = probe.begin_op();
            a = Instant::now();
            apply(set, op, st, read_only);
            b = Instant::now();
            probe.root(span_kind(op.kind()), id, a, b);
            sl.cur.units += 1;
        } else {
            // Time one op of every MEM_SAMPLE, at a random place in the
            // block: a fixed stride would beat against periods inside the
            // program (the epoch shim collects on every 64th pin, which a
            // stride of 16 would hit every time or never).
            st.sampler ^= st.sampler << 13;
            st.sampler ^= st.sampler >> 7;
            st.sampler ^= st.sampler << 17;
            let before = st.sampler as usize % MEM_SAMPLE;
            for _ in 0..before {
                let op = st.next();
                apply(set, op, st, read_only);
            }
            let op = st.next();
            a = Instant::now();
            apply(set, op, st, read_only);
            b = Instant::now();
            for _ in before + 1..MEM_SAMPLE {
                let op = st.next();
                apply(set, op, st, read_only);
            }
            sl.cur.units += MEM_SAMPLE as u64;
        }
        sl.cur.lat.record(ns(b - a));
        if !sl.live(b) {
            return sl.done;
        }
    }
}

/// The wire request of one point op (structure 0, count 1).
pub fn request(op: Op) -> Request {
    let (structure, key) = (0, op.key());
    match op.kind() {
        Kind::Get => Request::Get { structure, key },
        Kind::Insert => Request::Insert {
            structure,
            key,
            count: 1,
        },
        Kind::Remove => Request::Remove {
            structure,
            key,
            count: 1,
        },
    }
}

/// Loopback point ops: send a burst of [`BURST`] requests, flush once,
/// receive the replies. Every request is timed from the burst's first
/// `send` to its own reply.
pub fn net_point_segment<P: Probe>(
    client: &mut Client,
    st: &mut PointState<'_>,
    seg: &Segment<'_>,
    probe: &mut P,
) -> Vec<SliceRec> {
    let mut sl = Slicer::new(seg);
    if st.dead {
        return sl.abandon();
    }
    loop {
        let id = probe.begin_op();
        let first = st.pos;
        let start = Instant::now();
        let mut t = start;
        let mut sent = Ok(());
        for _ in 0..BURST {
            let op = st.next();
            sent = sent.and_then(|()| client.send(&request(op)));
            if P::ON {
                let now = Instant::now();
                probe.child(SpanKind::Send, id, t, now);
                t = now;
            }
        }
        sent = sent.and_then(|()| client.flush());
        if P::ON {
            let now = Instant::now();
            probe.child(SpanKind::Flush, id, t, now);
            t = now;
        }
        if sent.is_err() {
            st.failed += BURST as u64;
            st.dead = true;
            return sl.abandon();
        }
        for i in 0..BURST {
            let reply = client.recv();
            let now = Instant::now();
            if P::ON {
                probe.child(SpanKind::Recv, id, t, now);
            }
            t = now;
            let op = st.tape[(first + i) & (st.tape.len() - 1)];
            match (reply, op.kind()) {
                (Ok(Response::Value(v)), Kind::Insert) => st.ledger[op.key() as usize] += v as i32,
                (Ok(Response::Value(v)), Kind::Remove) => st.ledger[op.key() as usize] -= v as i32,
                (Ok(Response::Value(_)), Kind::Get) => {}
                // `Error`, `Busy` or a frame that is not a point reply.
                (Ok(_), _) => st.failed += 1,
                (Err(_), _) => {
                    st.failed += (BURST - i) as u64;
                    st.dead = true;
                    return sl.abandon();
                }
            }
            sl.cur.lat.record(ns(now - start));
        }
        probe.root(SpanKind::Burst, id, start, t);
        sl.cur.units += BURST as u64;
        if !sl.live(t) {
            return sl.done;
        }
    }
}

/// The scanner's state, carried across the segments of a run.
pub struct ScanState<'a> {
    tape: &'a [u64],
    /// Scans issued so far.
    pub pos: usize,
    pub failed: u64,
    pub dead: bool,
    /// `ScanWindow` frames received, and the summed time from a scan's
    /// `send` to its first frame.
    pub frames: u64,
    pub first_window_ns: u64,
}

impl<'a> ScanState<'a> {
    pub fn new(tape: &'a [u64]) -> Self {
        assert!(tape.len().is_power_of_two());
        ScanState {
            tape,
            pos: 0,
            failed: 0,
            dead: false,
            frames: 0,
            first_window_ns: 0,
        }
    }
}

/// Loopback range scans, back to back over raw `send`/`recv`, each checked
/// as it streams in.
pub fn net_scan_segment<P: Probe>(
    client: &mut Client,
    st: &mut ScanState<'_>,
    seg: &Segment<'_>,
    probe: &mut P,
) -> Vec<SliceRec> {
    let mut sl = Slicer::new(seg);
    if st.dead {
        return sl.abandon();
    }
    loop {
        let lo = st.tape[st.pos & (st.tape.len() - 1)];
        let hi = lo + SCAN_SPAN - 1;
        st.pos += 1;
        let id = probe.begin_op();
        let start = Instant::now();
        let mut t = start;
        let mut sent = client.send(&Request::RangeScan {
            structure: 0,
            lo,
            hi,
            window: SCAN_WINDOW,
        });
        if P::ON {
            let now = Instant::now();
            probe.child(SpanKind::Send, id, t, now);
            t = now;
        }
        sent = sent.and_then(|()| client.flush());
        if P::ON {
            let now = Instant::now();
            probe.child(SpanKind::Flush, id, t, now);
            t = now;
        }
        if sent.is_err() {
            st.failed += 1;
            st.dead = true;
            return sl.abandon();
        }
        let mut check = ScanCheck::new(lo, hi);
        let mut first_window = None;
        let complete = loop {
            let reply = client.recv();
            let now = Instant::now();
            if P::ON {
                probe.child(SpanKind::Recv, id, t, now);
            }
            t = now;
            match reply {
                Ok(Response::ScanWindow(pairs)) => {
                    st.frames += 1;
                    first_window.get_or_insert(now - start);
                    pairs.iter().for_each(|&(k, _)| check.feed(k));
                }
                Ok(Response::ScanDone) => break true,
                // `Busy` or `Error` ends the stream: a refused scan.
                Ok(_) => break false,
                Err(_) => {
                    st.failed += 1;
                    st.dead = true;
                    return sl.abandon();
                }
            }
        };
        probe.root(SpanKind::Scan, id, start, t);
        st.first_window_ns += first_window.map_or(0, ns);
        match check.finish() {
            Ok(keys) if complete => sl.cur.units += keys,
            _ => st.failed += 1,
        }
        sl.cur.lat.record(ns(t - start));
        if !sl.live(t) {
            return sl.done;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NoProbe;
    use crate::workload::Workload;
    use conc_set::StructureSpec;

    #[test]
    fn slicer_attributes_work_to_the_slice_it_completed_in() {
        let start = Instant::now();
        let progress = AtomicU64::new(0);
        let seg = Segment {
            start,
            slice: Duration::from_millis(10),
            n: 3,
            progress: &progress,
        };
        let mut sl = Slicer::new(&seg);
        sl.cur.units += 5;
        assert!(sl.live(start + Duration::from_millis(4)));
        sl.cur.units += 2;
        // Crossing two boundaries at once closes two slices.
        assert!(sl.live(start + Duration::from_millis(25)));
        sl.cur.units += 1;
        assert!(!sl.live(seg.end()));
        let units: Vec<u64> = sl.done.iter().map(|s| s.units).collect();
        assert_eq!(units, [7, 0, 1]);
        assert_eq!(progress.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn abandoned_segment_still_has_every_slice() {
        let progress = AtomicU64::new(0);
        let seg = Segment {
            start: Instant::now(),
            slice: Duration::from_millis(10),
            n: 4,
            progress: &progress,
        };
        let mut sl = Slicer::new(&seg);
        sl.cur.units = 9;
        assert!(sl.live(seg.start + seg.slice));
        let done = sl.abandon();
        assert_eq!(done.len(), 4);
        assert_eq!(done[0].units, 9);
        assert!(done[1..].iter().all(|s| s.units == 0));
    }

    #[test]
    fn mem_segment_counts_ops_and_keeps_a_true_ledger() {
        let w = Workload::MemUpdate;
        let set = StructureSpec::parse(w.spec()).unwrap().build();
        w.prefill_keys().for_each(|k| {
            set.insert(k, 1);
        });
        let tape = w.point_tape(1, 0);
        let mut st = PointState::new(&tape, w.keys());
        let progress = AtomicU64::new(0);
        let seg = Segment {
            start: Instant::now(),
            slice: Duration::from_millis(20),
            n: 2,
            progress: &progress,
        };
        let slices = mem_segment(&*set, &mut st, false, &seg, &mut NoProbe);
        assert_eq!(slices.len(), 2);
        let units: u64 = slices.iter().map(|s| s.units).sum();
        assert_eq!(units, st.pos as u64);
        assert_eq!(
            slices.iter().map(|s| s.lat.count()).sum::<u64>(),
            units / MEM_SAMPLE as u64
        );
        crate::oracle::check_ledgers(w, &*set, &[st.ledger]).unwrap();
    }
}
