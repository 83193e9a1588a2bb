//! Spans around the benchmark's calls into each layer. The load loops are
//! generic over [`Probe`]: with [`NoProbe`] every hook compiles to
//! nothing, so the measured runs carry no tracing code; with [`Tracer`]
//! every op or burst is bracketed, every span feeds its kind's totals,
//! and the spans of one op in 64 are kept for the trace file.

use std::fmt::Write as _;
use std::time::Instant;

use crate::hist::Hist;

/// The boundaries the benchmark can see from outside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// `ConcurrentOrderedSet::{get, insert, remove}` on the in-process
    /// workloads (root spans).
    Get,
    Insert,
    Remove,
    /// One burst of 16 requests, first `send` to last reply (root).
    Burst,
    /// One streamed range scan, `send` to `ScanDone` (root).
    Scan,
    /// `Client::{send, flush, recv}` (children of a burst or scan).
    Send,
    Flush,
    Recv,
}

pub const KINDS: usize = 8;

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Get => "conc-set.get",
            SpanKind::Insert => "conc-set.insert",
            SpanKind::Remove => "conc-set.remove",
            SpanKind::Burst => "burst",
            SpanKind::Scan => "scan",
            SpanKind::Send => "netsvc.send",
            SpanKind::Flush => "netsvc.flush",
            SpanKind::Recv => "netsvc.recv",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    /// The op, burst or scan the span belongs to (per thread).
    pub op: u64,
}

pub trait Probe {
    const ON: bool;
    /// Start the next op; returns the id its root span will carry.
    fn begin_op(&mut self) -> u64;
    fn root(&mut self, kind: SpanKind, id: u64, start: Instant, end: Instant);
    fn child(&mut self, kind: SpanKind, parent: u64, start: Instant, end: Instant);
}

pub struct NoProbe;

impl Probe for NoProbe {
    const ON: bool = false;
    #[inline(always)]
    fn begin_op(&mut self) -> u64 {
        0
    }
    #[inline(always)]
    fn root(&mut self, _: SpanKind, _: u64, _: Instant, _: Instant) {}
    #[inline(always)]
    fn child(&mut self, _: SpanKind, _: u64, _: Instant, _: Instant) {}
}

/// Running totals of one span kind.
#[derive(Clone, Default)]
pub struct Totals {
    pub ns: u64,
    pub hist: Hist,
}

/// Keep the spans of one op in this many.
const KEEP_ONE_IN: u64 = 64;
/// Upper limit of kept spans per thread (34 per burst ⇒ ~3800 bursts).
const KEEP_CAP: usize = 1 << 17;

pub struct Tracer {
    origin: Instant,
    thread: u64,
    next_id: u64,
    op: u64,
    keep: bool,
    pub spans: Vec<Span>,
    pub totals: [Totals; KINDS],
}

impl Tracer {
    pub fn new(origin: Instant, thread: usize) -> Self {
        Tracer {
            origin,
            thread: thread as u64,
            next_id: 0,
            op: 0,
            keep: false,
            spans: Vec::new(),
            totals: Default::default(),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        // Distinct across threads, so one trace file has unique ids.
        (self.thread + 1) << 48 | self.next_id
    }

    fn record(&mut self, kind: SpanKind, id: u64, parent: u64, start: Instant, end: Instant) {
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.duration_since(self.origin).as_nanos() as u64;
        let t = &mut self.totals[kind as usize];
        t.ns += end_ns - start_ns;
        t.hist.record(end_ns - start_ns);
        if self.keep && self.spans.len() < KEEP_CAP {
            self.spans.push(Span {
                kind,
                start_ns,
                end_ns,
                id,
                parent,
                op: self.op,
            });
        }
    }

    pub fn total(&self, kind: SpanKind) -> &Totals {
        &self.totals[kind as usize]
    }
}

impl Probe for Tracer {
    const ON: bool = true;
    fn begin_op(&mut self) -> u64 {
        self.op += 1;
        self.keep = self.op.is_multiple_of(KEEP_ONE_IN);
        self.fresh_id()
    }
    fn root(&mut self, kind: SpanKind, id: u64, start: Instant, end: Instant) {
        self.record(kind, id, 0, start, end);
    }
    fn child(&mut self, kind: SpanKind, parent: u64, start: Instant, end: Instant) {
        let id = self.fresh_id();
        self.record(kind, id, parent, start, end);
    }
}

/// A span's self time: its duration minus what its children cover.
/// `siblings` are the spans of the same op (a span's children precede it).
fn self_ns(span: &Span, siblings: &[Span]) -> u64 {
    let covered: u64 = siblings
        .iter()
        .filter(|s| s.parent == span.id)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

/// The trace file: one JSON object with the kept spans of every thread,
/// each with its self time.
pub fn to_json(workload: &str, seed: u64, tracers: &[Tracer]) -> String {
    let mut s = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"kept_one_op_in\": {KEEP_ONE_IN}, \"spans\": [\n"
    );
    let mut first = true;
    for t in tracers {
        for (i, sp) in t.spans.iter().enumerate() {
            // The spans of one op are adjacent, children first.
            let op_start = t.spans[..i]
                .iter()
                .rposition(|s| s.op != sp.op)
                .map_or(0, |p| p + 1);
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"thread\": {}, \"op\": {}, \"id\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                sp.kind.name(),
                t.thread,
                sp.op,
                sp.id,
                sp.parent,
                sp.start_ns,
                sp.end_ns,
                self_ns(sp, &t.spans[op_start..i])
            );
        }
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_point_at_their_root_and_self_time_subtracts_them() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tr = Tracer::new(t0, 0);
        // Skip to an op that is kept.
        let mut id = 0;
        for _ in 0..KEEP_ONE_IN {
            id = tr.begin_op();
        }
        tr.child(SpanKind::Send, id, at(0), at(2));
        tr.child(SpanKind::Flush, id, at(2), at(5));
        tr.child(SpanKind::Recv, id, at(6), at(9));
        tr.root(SpanKind::Burst, id, at(0), at(10));
        assert_eq!(tr.spans.len(), 4);
        let root = tr.spans.iter().find(|s| s.parent == 0).unwrap();
        assert_eq!(root.id, id);
        assert!(tr
            .spans
            .iter()
            .all(|s| s.op == KEEP_ONE_IN && (s.parent == 0 || s.parent == id)));
        assert_eq!(self_ns(root, &tr.spans), 2_000);
        assert_eq!(tr.total(SpanKind::Flush).ns, 3_000);
        assert_eq!(tr.total(SpanKind::Burst).hist.count(), 1);
        let json = to_json("net-pipe", 1, &[tr]);
        // Leaves keep their whole duration; the burst keeps what they leave.
        assert_eq!(json.matches("\"self_ns\": 3000").count(), 2, "{json}");
        assert_eq!(json.matches("\"self_ns\": 2000").count(), 2, "{json}");
    }

    #[test]
    fn only_sampled_ops_are_kept_but_all_are_totalled() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0, 1);
        for _ in 0..(3 * KEEP_ONE_IN) {
            let id = tr.begin_op();
            tr.root(SpanKind::Get, id, t0, t0 + Duration::from_nanos(100));
        }
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.total(SpanKind::Get).hist.count(), 3 * KEEP_ONE_IN);
        let json = to_json("mem-read", 1, &[tr]);
        assert_eq!(json.matches("\"name\": \"conc-set.get\"").count(), 3);
    }
}
