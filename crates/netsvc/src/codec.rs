//! The wire protocol: length-prefixed frames around fixed-layout binary
//! requests and responses.
//!
//! # Frame layout
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 LE    | payload: len bytes  |
//! +----------------+---------------------+
//! ```
//!
//! `len` counts the payload only and must be in `1..=`[`MAX_PAYLOAD`];
//! anything else is a malformed frame and the peer must drop the
//! connection (after a length-field lie the stream has no recoverable
//! frame boundary). The payload's first byte is an opcode; all integers
//! are little-endian and every layout is fixed-width, so decoding is
//! exact-length checked: trailing bytes are as malformed as missing
//! ones.
//!
//! # Request payloads
//!
//! | op | name       | layout after the opcode byte                  |
//! |----|------------|-----------------------------------------------|
//! | 0  | Get        | `structure: u16`, `key: u64`                  |
//! | 1  | Insert     | `structure: u16`, `key: u64`, `count: u64`    |
//! | 2  | Remove     | `structure: u16`, `key: u64`, `count: u64`    |
//! | 3  | Len        | `structure: u16`                              |
//! | 4  | RangeCount | `structure: u16`, `lo: u64`, `hi: u64`        |
//! | 5  | RangeScan  | `structure: u16`, `lo: u64`, `hi: u64`, `window: u64` |
//! | 6  | Stats      | (empty — server-global, no structure id)      |
//!
//! `structure` indexes the server's spec list (the order given to
//! [`Server::spawn`](crate::Server::spawn)).
//!
//! # Response payloads
//!
//! | op | name       | layout after the opcode byte                  |
//! |----|------------|-----------------------------------------------|
//! | 0  | Value      | `value: u64`                                  |
//! | 1  | Error      | `len: u16`, `len` bytes of UTF-8              |
//! | 2  | ScanWindow | `n: u32`, then `n` × (`key: u64`, `count: u64`) |
//! | 3  | ScanDone   | (empty)                                       |
//! | 4  | Busy       | (empty)                                       |
//! | 5  | Stats      | 9 × `u64` ([`NetStats`] fields in declaration order) |
//!
//! Point requests answer with exactly one `Value` or `Error` frame. A
//! `RangeScan` answers with a *stream*: zero or more `ScanWindow`
//! frames (one per validated cursor window, ≤ `window` pairs each)
//! terminated by one `ScanDone` — so a scan over an arbitrarily large
//! range needs only one window of memory at either end of the wire.
//! An overloaded server may answer a `RangeScan` with a single `Busy`
//! frame instead of a stream (and sheds whole connections with `Busy`
//! at accept time); `Busy` is a definite "not executed" — safe to
//! retry after backoff. `Stats` answers one `Stats` frame.

use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload. A length field above this is a
/// protocol violation, not a big frame: the cap rejects garbage/hostile
/// lengths before any allocation and bounds per-connection memory.
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// Largest scan window the server honors; chosen so a full
/// `ScanWindow` frame (`1 + 4 + 16·n` bytes) still fits
/// [`MAX_PAYLOAD`]. Larger requested windows are clamped, not
/// rejected.
pub const MAX_SCAN_WINDOW: u64 = 4000;

/// One client request. See the [module docs](self) for the wire
/// layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Occurrences of `key` in structure `structure`.
    Get {
        /// Index into the server's spec list.
        structure: u16,
        /// The key to look up.
        key: u64,
    },
    /// Add `count` occurrences of `key`; answers the number added.
    Insert {
        /// Index into the server's spec list.
        structure: u16,
        /// The key to insert.
        key: u64,
        /// Occurrences to add (distinct structures treat any count as 1).
        count: u64,
    },
    /// Remove `count` occurrences of `key`; answers the number removed.
    Remove {
        /// Index into the server's spec list.
        structure: u16,
        /// The key to remove.
        key: u64,
        /// Occurrences to remove.
        count: u64,
    },
    /// Total occurrences across all keys.
    Len {
        /// Index into the server's spec list.
        structure: u16,
    },
    /// Occurrences with keys in `[lo, hi]`, one consistent snapshot.
    RangeCount {
        /// Index into the server's spec list.
        structure: u16,
        /// Inclusive lower key bound.
        lo: u64,
        /// Inclusive upper key bound.
        hi: u64,
    },
    /// Stream the `(key, count)` pairs of `[lo, hi]` window by window.
    RangeScan {
        /// Index into the server's spec list.
        structure: u16,
        /// Inclusive lower key bound.
        lo: u64,
        /// Inclusive upper key bound.
        hi: u64,
        /// Keys per validated window (clamped to `1..=`[`MAX_SCAN_WINDOW`]).
        window: u64,
    },
    /// Server-global session/robustness counters ([`NetStats`]). The
    /// only request without a structure id.
    Stats,
}

/// Server-global counters answered to a [`Request::Stats`]; every field
/// is monotonic over the server's lifetime except `active_sessions`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Currently live session threads.
    pub active_sessions: u64,
    /// Sessions ever accepted (shed connections not included).
    pub total_sessions: u64,
    /// Connections refused at accept time because the session cap
    /// (`LLX_NET_MAX_SESSIONS`) was reached; each was answered `Busy`.
    pub shed_sessions: u64,
    /// Sessions evicted by the idle-deadline reaper (no complete frame
    /// within `LLX_NET_IDLE_MS` — slow-loris clients land here).
    pub idle_evictions: u64,
    /// Sessions that ended in an error: I/O failure, protocol
    /// violation, EOF mid-frame, or an injected wire fault.
    pub session_errors: u64,
    /// Sessions that ended with a clean EOF at a frame boundary (the
    /// client's `Drop` shutdown lands here).
    pub clean_drains: u64,
    /// `RangeScan` requests rejected with `Busy` (scan-stream cap
    /// reached, or the server was draining for shutdown).
    pub scans_rejected: u64,
    /// Batches executed across all sessions.
    pub batches: u64,
    /// Requests executed across all sessions.
    pub batched_ops: u64,
}

/// One server response frame. See the [module docs](self) for the wire
/// layout and the request → response mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The point operation's result (occurrences found/added/removed,
    /// a length, or a range total).
    Value(u64),
    /// The request was well-framed but unserviceable (unknown
    /// structure id, out-of-domain key, …). The connection stays up.
    Error(String),
    /// One validated scan window: its pairs held simultaneously at the
    /// window's linearization point (per-window atomicity, exactly the
    /// windowed-cursor contract).
    ScanWindow(Vec<(u64, u64)>),
    /// The scan's range is exhausted; the stream is complete.
    ScanDone,
    /// The server is over capacity (session cap at accept, scan cap, or
    /// shutdown drain). The request was definitely **not** executed;
    /// retry after backoff.
    Busy,
    /// Server-global counters, answering [`Request::Stats`].
    Stats(NetStats),
}

/// A protocol-level failure: an I/O error, a malformed frame, or a
/// connection closed at a frame boundary.
#[derive(Debug)]
pub enum NetError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer violated the framing or payload layout; the connection
    /// must be dropped (there is no recoverable frame boundary).
    Malformed(String),
    /// The peer closed the connection cleanly between frames.
    Closed,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Malformed(m) => write!(f, "malformed frame: {m}"),
            NetError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Little-endian field reader with exact-length accounting.
struct Fields<'a> {
    buf: &'a [u8],
}

impl<'a> Fields<'a> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], String> {
        if self.buf.len() < N {
            return Err(format!(
                "payload truncated: wanted {N} more bytes, have {}",
                self.buf.len()
            ));
        }
        let (head, rest) = self.buf.split_at(N);
        self.buf = rest;
        Ok(head.try_into().expect("split_at(N) yields N bytes"))
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take::<2>()?))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    fn finish(self) -> Result<(), String> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after the payload",
                self.buf.len()
            ))
        }
    }
}

impl Request {
    /// Append this request's payload (opcode + fields) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            Request::Get { structure, key } => {
                buf.push(0);
                buf.extend_from_slice(&structure.to_le_bytes());
                buf.extend_from_slice(&key.to_le_bytes());
            }
            Request::Insert {
                structure,
                key,
                count,
            } => {
                buf.push(1);
                buf.extend_from_slice(&structure.to_le_bytes());
                buf.extend_from_slice(&key.to_le_bytes());
                buf.extend_from_slice(&count.to_le_bytes());
            }
            Request::Remove {
                structure,
                key,
                count,
            } => {
                buf.push(2);
                buf.extend_from_slice(&structure.to_le_bytes());
                buf.extend_from_slice(&key.to_le_bytes());
                buf.extend_from_slice(&count.to_le_bytes());
            }
            Request::Len { structure } => {
                buf.push(3);
                buf.extend_from_slice(&structure.to_le_bytes());
            }
            Request::RangeCount { structure, lo, hi } => {
                buf.push(4);
                buf.extend_from_slice(&structure.to_le_bytes());
                buf.extend_from_slice(&lo.to_le_bytes());
                buf.extend_from_slice(&hi.to_le_bytes());
            }
            Request::RangeScan {
                structure,
                lo,
                hi,
                window,
            } => {
                buf.push(5);
                buf.extend_from_slice(&structure.to_le_bytes());
                buf.extend_from_slice(&lo.to_le_bytes());
                buf.extend_from_slice(&hi.to_le_bytes());
                buf.extend_from_slice(&window.to_le_bytes());
            }
            Request::Stats => buf.push(6),
        }
    }

    /// Decode one request payload; the payload must be consumed
    /// exactly.
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        let Some((&op, rest)) = payload.split_first() else {
            return Err("empty payload".to_string());
        };
        let mut f = Fields { buf: rest };
        let req = match op {
            0 => Request::Get {
                structure: f.u16()?,
                key: f.u64()?,
            },
            1 => Request::Insert {
                structure: f.u16()?,
                key: f.u64()?,
                count: f.u64()?,
            },
            2 => Request::Remove {
                structure: f.u16()?,
                key: f.u64()?,
                count: f.u64()?,
            },
            3 => Request::Len {
                structure: f.u16()?,
            },
            4 => Request::RangeCount {
                structure: f.u16()?,
                lo: f.u64()?,
                hi: f.u64()?,
            },
            5 => Request::RangeScan {
                structure: f.u16()?,
                lo: f.u64()?,
                hi: f.u64()?,
                window: f.u64()?,
            },
            6 => Request::Stats,
            other => return Err(format!("unknown request opcode {other}")),
        };
        f.finish()?;
        Ok(req)
    }

    /// The structure id the request addresses. [`Request::Stats`] is
    /// server-global and answers `0` here; the session loop intercepts
    /// it before any structure lookup, so the value is never consulted.
    pub fn structure(&self) -> u16 {
        match *self {
            Request::Get { structure, .. }
            | Request::Insert { structure, .. }
            | Request::Remove { structure, .. }
            | Request::Len { structure }
            | Request::RangeCount { structure, .. }
            | Request::RangeScan { structure, .. } => structure,
            Request::Stats => 0,
        }
    }
}

impl Response {
    /// Append this response's payload (opcode + fields) to `buf`.
    ///
    /// Error messages longer than `MAX_PAYLOAD - 3` bytes (the room
    /// the opcode and the `u16` length leave; below `u16::MAX`) and
    /// windows larger than [`MAX_SCAN_WINDOW`] are truncated — the
    /// encoder never produces an over-[`MAX_PAYLOAD`] frame.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Value(v) => {
                buf.push(0);
                buf.extend_from_slice(&v.to_le_bytes());
            }
            Response::Error(msg) => {
                buf.push(1);
                let bytes = msg.as_bytes();
                let take = floor_char_boundary(msg, bytes.len().min(MAX_PAYLOAD - 3));
                buf.extend_from_slice(&(take as u16).to_le_bytes());
                buf.extend_from_slice(&bytes[..take]);
            }
            Response::ScanWindow(pairs) => {
                buf.push(2);
                let n = pairs.len().min(MAX_SCAN_WINDOW as usize);
                buf.extend_from_slice(&(n as u32).to_le_bytes());
                for &(k, c) in &pairs[..n] {
                    buf.extend_from_slice(&k.to_le_bytes());
                    buf.extend_from_slice(&c.to_le_bytes());
                }
            }
            Response::ScanDone => buf.push(3),
            Response::Busy => buf.push(4),
            Response::Stats(s) => {
                buf.push(5);
                for v in [
                    s.active_sessions,
                    s.total_sessions,
                    s.shed_sessions,
                    s.idle_evictions,
                    s.session_errors,
                    s.clean_drains,
                    s.scans_rejected,
                    s.batches,
                    s.batched_ops,
                ] {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
    }

    /// Decode one response payload; the payload must be consumed
    /// exactly.
    pub fn decode(payload: &[u8]) -> Result<Response, String> {
        let Some((&op, rest)) = payload.split_first() else {
            return Err("empty payload".to_string());
        };
        let mut f = Fields { buf: rest };
        let resp = match op {
            0 => Response::Value(f.u64()?),
            1 => {
                let len = f.u16()? as usize;
                if f.buf.len() != len {
                    return Err(format!(
                        "error-message length {len} disagrees with payload ({} bytes left)",
                        f.buf.len()
                    ));
                }
                let msg = std::str::from_utf8(f.buf)
                    .map_err(|e| format!("error message is not UTF-8: {e}"))?
                    .to_string();
                return Ok(Response::Error(msg));
            }
            2 => {
                let n = f.u32()? as usize;
                if n > MAX_SCAN_WINDOW as usize {
                    return Err(format!(
                        "scan window of {n} pairs exceeds the cap {MAX_SCAN_WINDOW}"
                    ));
                }
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    pairs.push((f.u64()?, f.u64()?));
                }
                Response::ScanWindow(pairs)
            }
            3 => Response::ScanDone,
            4 => Response::Busy,
            5 => Response::Stats(NetStats {
                active_sessions: f.u64()?,
                total_sessions: f.u64()?,
                shed_sessions: f.u64()?,
                idle_evictions: f.u64()?,
                session_errors: f.u64()?,
                clean_drains: f.u64()?,
                scans_rejected: f.u64()?,
                batches: f.u64()?,
                batched_ops: f.u64()?,
            }),
            other => return Err(format!("unknown response opcode {other}")),
        };
        f.finish()?;
        Ok(resp)
    }
}

/// `str::floor_char_boundary` is unstable; the hand-rolled equivalent
/// for truncating error messages on a UTF-8 boundary.
fn floor_char_boundary(s: &str, mut at: usize) -> usize {
    while at > 0 && !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Write one frame (header + payload).
///
/// # Panics
///
/// Panics if `payload` is empty or longer than [`MAX_PAYLOAD`] — both
/// encoders stay within the bound by construction, so this is a local
/// logic error, never a peer-triggered one.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(
        !payload.is_empty() && payload.len() <= MAX_PAYLOAD,
        "frame payload of {} bytes outside 1..={MAX_PAYLOAD}",
        payload.len()
    );
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Read one complete frame, blocking; returns its payload.
///
/// Distinguishes a clean close (EOF on the first header byte →
/// [`NetError::Closed`]) from a truncated frame (EOF anywhere later →
/// [`NetError::Malformed`]). Handles arbitrary read fragmentation —
/// the header and payload may arrive one byte at a time.
pub fn read_frame(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<(), NetError> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(NetError::Closed),
            Ok(0) => {
                return Err(NetError::Malformed(format!(
                    "connection closed after {got} header bytes"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 || len > MAX_PAYLOAD {
        return Err(NetError::Malformed(format!(
            "frame length {len} outside 1..={MAX_PAYLOAD}"
        )));
    }
    payload.clear();
    payload.resize(len, 0);
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(NetError::Malformed(format!(
                    "connection closed {got} bytes into a {len}-byte payload"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(())
}

/// Incremental frame re-assembler for the server's batch-drain loop:
/// bytes go in as they arrive (in arbitrary fragments), complete
/// frames come out. Partial frames — a header split across TCP
/// segments, a payload missing its tail — simply stay buffered until
/// the rest arrives.
///
/// [`next_frame_with`](FrameAssembler::next_frame_with) lends each
/// complete payload to a closure straight out of the assembler's
/// buffer — the server decodes requests that way, with no per-frame
/// allocation; [`next_frame`](FrameAssembler::next_frame) is the owning
/// convenience over it.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted when it outgrows the live
    /// remainder so per-connection memory stays O(bytes buffered).
    start: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Feed bytes received from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start >= self.buf.len().saturating_sub(self.start) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame's payload, `Ok(None)` if more bytes
    /// are needed, or [`NetError::Malformed`] on an in-stream framing
    /// violation (after which the connection is beyond recovery).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        self.next_frame_with(<[u8]>::to_vec)
    }

    /// [`next_frame`](FrameAssembler::next_frame) without the copy:
    /// pop the next complete frame and hand its payload, borrowed from
    /// the assembler's buffer, to `f`; answers what `f` returns. The
    /// `Ok(None)` and [`NetError::Malformed`] cases are `next_frame`'s
    /// (`f` is not called for them).
    pub fn next_frame_with<T>(
        &mut self,
        f: impl FnOnce(&[u8]) -> T,
    ) -> Result<Option<T>, NetError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4-byte slice")) as usize;
        if len == 0 || len > MAX_PAYLOAD {
            return Err(NetError::Malformed(format!(
                "frame length {len} outside 1..={MAX_PAYLOAD}"
            )));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let out = f(&avail[4..4 + len]);
        self.start += 4 + len;
        Ok(Some(out))
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Get {
                structure: 0,
                key: 7,
            },
            Request::Insert {
                structure: 1,
                key: u64::MAX - 2,
                count: 3,
            },
            Request::Remove {
                structure: 65535,
                key: 0,
                count: 1,
            },
            Request::Len { structure: 2 },
            Request::RangeCount {
                structure: 3,
                lo: 10,
                hi: 20,
            },
            Request::RangeScan {
                structure: 4,
                lo: 0,
                hi: u64::MAX,
                window: 128,
            },
            Request::Stats,
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in all_requests() {
            let mut buf = Vec::new();
            req.encode(&mut buf);
            assert_eq!(Request::decode(&buf).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Value(0),
            Response::Value(u64::MAX),
            Response::Error("unknown structure id 9".to_string()),
            Response::Error(String::new()),
            Response::ScanWindow(vec![]),
            Response::ScanWindow(vec![(1, 2), (3, 4), (u64::MAX - 2, 1)]),
            Response::ScanDone,
            Response::Busy,
            Response::Stats(NetStats::default()),
            Response::Stats(NetStats {
                active_sessions: 3,
                total_sessions: 100,
                shed_sessions: 7,
                idle_evictions: 2,
                session_errors: 5,
                clean_drains: 90,
                scans_rejected: 11,
                batches: u64::MAX,
                batched_ops: 12345,
            }),
        ];
        for resp in cases {
            let mut buf = Vec::new();
            resp.encode(&mut buf);
            assert_eq!(Response::decode(&buf).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        for req in all_requests() {
            let mut buf = Vec::new();
            req.encode(&mut buf);
            // Every strict prefix is truncated.
            for cut in 0..buf.len() {
                assert!(
                    Request::decode(&buf[..cut]).is_err(),
                    "{req:?} truncated to {cut} bytes must not decode"
                );
            }
            // Trailing garbage is rejected too.
            buf.push(0xAA);
            assert!(Request::decode(&buf).is_err(), "{req:?} + trailing byte");
        }
        assert!(Request::decode(&[]).is_err(), "empty payload");
        assert!(Request::decode(&[99, 0, 0]).is_err(), "unknown opcode");
        assert!(Response::decode(&[99]).is_err(), "unknown response opcode");
        // An Error response whose length field lies.
        assert!(Response::decode(&[1, 10, 0, b'h', b'i']).is_err());
        // A ScanWindow claiming more pairs than the cap.
        let mut big = vec![2u8];
        big.extend_from_slice(&(MAX_SCAN_WINDOW as u32 + 1).to_le_bytes());
        assert!(Response::decode(&big).is_err());
    }

    #[test]
    fn assembler_handles_one_byte_fragments() {
        let mut wire = Vec::new();
        let reqs = all_requests();
        for req in &reqs {
            let mut payload = Vec::new();
            req.encode(&mut payload);
            write_frame(&mut wire, &payload).unwrap();
        }
        let mut asm = FrameAssembler::new();
        let mut decoded = Vec::new();
        for &b in &wire {
            asm.extend(&[b]);
            while let Some(payload) = asm.next_frame().unwrap() {
                decoded.push(Request::decode(&payload).unwrap());
            }
        }
        assert_eq!(decoded, reqs);
        assert_eq!(asm.pending_bytes(), 0);
    }

    #[test]
    fn assembler_rejects_hostile_lengths() {
        let mut asm = FrameAssembler::new();
        asm.extend(&u32::MAX.to_le_bytes());
        assert!(matches!(asm.next_frame(), Err(NetError::Malformed(_))));
        let mut asm = FrameAssembler::new();
        asm.extend(&0u32.to_le_bytes());
        assert!(matches!(asm.next_frame(), Err(NetError::Malformed(_))));
    }

    #[test]
    fn read_frame_distinguishes_close_from_truncation() {
        let mut buf = Vec::new();
        // Clean close: no bytes at all.
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut { empty }, &mut buf),
            Err(NetError::Closed)
        ));
        // Truncated header.
        let partial: &[u8] = &[5, 0];
        assert!(matches!(
            read_frame(&mut { partial }, &mut buf),
            Err(NetError::Malformed(_))
        ));
        // Truncated payload.
        let mut wire = Vec::new();
        write_frame(&mut wire, &[1, 2, 3, 4, 5]).unwrap();
        wire.truncate(wire.len() - 2);
        assert!(matches!(
            read_frame(&mut wire.as_slice(), &mut buf),
            Err(NetError::Malformed(_))
        ));
        // And the happy path, byte-fragmented.
        struct OneByte<'a>(&'a [u8]);
        impl Read for OneByte<'_> {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() || out.is_empty() {
                    return Ok(0);
                }
                out[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let mut wire = Vec::new();
        write_frame(&mut wire, &[9, 8, 7]).unwrap();
        read_frame(&mut OneByte(&wire), &mut buf).unwrap();
        assert_eq!(buf, vec![9, 8, 7]);
    }

    #[test]
    fn long_error_messages_truncate_on_char_boundaries() {
        for msg in ["é".repeat(40_000), "x".repeat(70_000)] {
            // Both exceed u16::MAX bytes; the truncated payload must
            // still fit a frame.
            let mut buf = Vec::new();
            Response::Error(msg).encode(&mut buf);
            assert!(buf.len() <= MAX_PAYLOAD, "{}-byte Error payload", buf.len());
            let decoded = Response::decode(&buf).unwrap();
            match decoded {
                Response::Error(m) => assert!(m.len() <= u16::MAX as usize),
                other => panic!("expected Error, got {other:?}"),
            }
        }
    }
}
