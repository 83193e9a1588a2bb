//! The five workloads: what each runs, on which structure, and the op
//! tapes generated from `(seed, workload, thread)` before timing starts.

use crate::rng::SplitMix64;

/// Load threads (in-process) or connections (loopback). Closed loop: each
/// issues its next op or burst only after the previous one was answered.
pub const THREADS: usize = 2;
/// Requests per burst on the loopback workloads (one flush per burst).
pub const BURST: usize = 16;
/// Keys covered by one `net-scan` range scan, and its window.
pub const SCAN_SPAN: u64 = 4096;
pub const SCAN_WINDOW: u64 = 256;
/// Point ops per thread tape; the tape is replayed cyclically.
pub const TAPE_LEN: usize = 1 << 20;
/// Scan start keys on the scanner's tape.
pub const SCAN_TAPE_LEN: usize = 1 << 14;
/// The shard domain `sharded(..)` partitions (set in every child's
/// environment as `LLX_SHARD_DOMAIN`, and passed to `with_domain`).
pub const SHARD_DOMAIN: u64 = 65_536;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MemRead,
    MemUpdate,
    MemContend,
    NetPipe,
    NetScan,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Insert,
    Remove,
}

/// One point op, packed: kind in the top two bits, key below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op(u64);

impl Op {
    pub fn new(kind: Kind, key: u64) -> Self {
        Op((kind as u64) << 62 | key)
    }
    #[inline]
    pub fn kind(self) -> Kind {
        match self.0 >> 62 {
            0 => Kind::Get,
            1 => Kind::Insert,
            _ => Kind::Remove,
        }
    }
    #[inline]
    pub fn key(self) -> u64 {
        self.0 & ((1 << 62) - 1)
    }
}

/// What a load thread does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Point,
    Scan,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MemRead,
        Workload::MemUpdate,
        Workload::MemContend,
        Workload::NetPipe,
        Workload::NetScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MemRead => "mem-read",
            Workload::MemUpdate => "mem-update",
            Workload::MemContend => "mem-contend",
            Workload::NetPipe => "net-pipe",
            Workload::NetScan => "net-scan",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::MemRead => "in-process chromatic, 8192 keys, 100% get: search and one epoch pin per op do all the work; llx-scx, pool and netsvc do none",
            Workload::MemUpdate => "in-process chromatic, 65536 keys, 50/50 insert/remove: LLX/SCX, the SCX-record pool and epoch defer/collect at low contention",
            Workload::MemContend => "in-process scx-multiset (the paper's example), 64 keys, 50/50 insert/remove: real conflicts, SCX aborts, helping, records handed between threads",
            Workload::NetPipe => "loopback sharded(chromatic,4), 65536 keys, 90/5/5 get/insert/remove in bursts of 16: codec, syscalls, batching under one pin; the only use of the sharded facade",
            Workload::NetScan => "loopback chromatic, 65536 keys: one connection streams 4096-key scans (window 256) beside one sending update/get bursts: reads beside writes",
        }
    }

    /// The structure spec, in the `StructureSpec` grammar.
    pub fn spec(self) -> &'static str {
        match self {
            Workload::MemContend => "scx-multiset",
            Workload::NetPipe => "sharded(chromatic,4)",
            _ => "chromatic",
        }
    }

    /// Whether the structure is the multiset (else the chromatic tree).
    pub fn on_multiset(self) -> bool {
        self == Workload::MemContend
    }

    /// The bare backend under [`spec`](Self::spec).
    pub fn base_spec(self) -> &'static str {
        if self.on_multiset() {
            "scx-multiset"
        } else {
            "chromatic"
        }
    }

    /// Size of the key universe `[0, keys)`.
    pub fn keys(self) -> u64 {
        match self {
            Workload::MemRead => 8192,
            Workload::MemContend => 64,
            _ => 65_536,
        }
    }

    /// The keys present before the load starts: every even one.
    pub fn prefill_keys(self) -> impl Iterator<Item = u64> {
        (0..self.keys()).filter(|&k| prefilled(k))
    }

    /// Percent of point ops that are `get`; the rest split evenly between
    /// insert and remove.
    pub fn get_percent(self) -> u64 {
        match self {
            Workload::MemRead => 100,
            Workload::MemUpdate | Workload::MemContend => 0,
            Workload::NetPipe => 90,
            Workload::NetScan => 50,
        }
    }

    pub fn is_net(self) -> bool {
        matches!(self, Workload::NetPipe | Workload::NetScan)
    }

    pub fn role(self, thread: usize) -> Role {
        if self == Workload::NetScan && thread == 0 {
            Role::Scan
        } else {
            Role::Point
        }
    }

    /// The first thread that runs point ops (its tape feeds the ladder).
    pub fn point_thread(self) -> usize {
        (0..THREADS)
            .find(|&t| self.role(t) == Role::Point)
            .expect("every workload has a point-op thread")
    }

    fn index(self) -> u64 {
        Workload::ALL
            .iter()
            .position(|&w| w == self)
            .expect("ALL lists every workload") as u64
    }

    /// Whether the point ops may touch `key`. On `net-scan` the keys
    /// `≡ 0 (mod 4)` are prefilled and never written, so every scan must
    /// return them.
    pub fn writable(self, key: u64) -> bool {
        self != Workload::NetScan || !key.is_multiple_of(4)
    }

    /// The point-op tape of `thread`.
    pub fn point_tape(self, seed: u64, thread: usize) -> Vec<Op> {
        let mut rng = SplitMix64::stream(seed, self.index(), thread as u64);
        let keys = self.keys();
        let get = self.get_percent();
        (0..TAPE_LEN)
            .map(|_| {
                let key = loop {
                    let k = rng.below(keys);
                    if self.writable(k) {
                        break k;
                    }
                };
                let roll = rng.below(200);
                let kind = if roll < 2 * get {
                    Kind::Get
                } else if (roll - 2 * get).is_multiple_of(2) {
                    Kind::Insert
                } else {
                    Kind::Remove
                };
                Op::new(kind, key)
            })
            .collect()
    }

    /// The scanner's tape: the low key of each `[lo, lo + SCAN_SPAN)`.
    pub fn scan_tape(self, seed: u64, thread: usize) -> Vec<u64> {
        let mut rng = SplitMix64::stream(seed, self.index(), thread as u64);
        (0..SCAN_TAPE_LEN)
            .map(|_| rng.below(self.keys() - SCAN_SPAN + 1))
            .collect()
    }
}

/// Every even key is present before the load starts.
pub fn prefilled(key: u64) -> bool {
    key.is_multiple_of(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_packing_round_trips() {
        for kind in [Kind::Get, Kind::Insert, Kind::Remove] {
            let op = Op::new(kind, 65_535);
            assert_eq!((op.kind(), op.key()), (kind, 65_535));
        }
    }

    #[test]
    fn same_seed_same_tape() {
        let w = Workload::NetPipe;
        assert_eq!(w.point_tape(9, 1)[..256], w.point_tape(9, 1)[..256]);
        assert_ne!(w.point_tape(9, 1)[..256], w.point_tape(10, 1)[..256]);
        assert_ne!(w.point_tape(9, 0)[..256], w.point_tape(9, 1)[..256]);
    }

    #[test]
    fn tapes_follow_the_mix() {
        for w in Workload::ALL {
            let tape = w.point_tape(1, w.point_thread());
            let gets = tape.iter().filter(|o| o.kind() == Kind::Get).count() as f64;
            let ins = tape.iter().filter(|o| o.kind() == Kind::Insert).count() as f64;
            let n = tape.len() as f64;
            assert!((gets / n - w.get_percent() as f64 / 100.0).abs() < 0.01);
            assert!((ins / n - (100 - w.get_percent()) as f64 / 200.0).abs() < 0.01);
            assert!(tape
                .iter()
                .all(|o| o.key() < w.keys() && w.writable(o.key())));
        }
    }

    #[test]
    fn scan_spans_stay_inside_the_universe() {
        let w = Workload::NetScan;
        assert!(w
            .scan_tape(5, 0)
            .iter()
            .all(|&lo| lo + SCAN_SPAN <= w.keys()));
    }
}
