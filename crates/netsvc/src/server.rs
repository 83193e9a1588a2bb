//! The threaded TCP server: one session thread per connection,
//! server-side op batching, streamed range scans, and the robustness
//! envelope (session cap, idle reaper, overload shedding).
//!
//! # Batching
//!
//! A session does not serve requests one read() at a time. Each cycle
//! it blocks for the *first* complete frame; if that read filled the
//! whole 16 KiB read buffer, the client may have pipelined more, so the
//! session drains the socket without blocking (a read that came back
//! short already took everything the socket held, and skips the drain).
//! It then cuts the re-assembled frames into one batch of up to
//! [`ServerConfig::batch_cap`] requests, decoding each request straight
//! out of the assembler's buffer. The batch's point operations
//! all execute under a **single epoch pin**: `crossbeam_epoch::pin()`
//! is re-entrant, so the per-operation pins inside the structures
//! collapse into cheap re-entries and the epoch-entry cost — the fee
//! the paper's reclamation assumption charges every operation — is
//! paid once per batch instead of once per op. Replies are framed in
//! request order, in place, into one per-session out-buffer, which goes
//! to the socket in a single write at the end of the batch (and before
//! any early exit that owes the client an `Error` frame). That is why
//! pipeline depth translates into server-side throughput: depth-N
//! clients amortize both the syscalls and the epoch machinery N ways.
//!
//! # Scan streaming
//!
//! A [`Request::RangeScan`] maps onto the structure's windowed
//! [`ScanCursor`](conc_set::ScanCursor): the session drives
//! `next_window` and frames each validated window as its own
//! [`Response::ScanWindow`] into the out-buffer, then
//! [`Response::ScanDone`]. The out-buffer goes to the socket whenever
//! it reaches a fixed 32 KiB high-water mark, and at `ScanDone`, so a
//! stream of 4 KiB windows costs one write per eight windows while the
//! client still sees it progress. Memory at the server is bounded
//! regardless of range size: at most one out-buffer (under the
//! high-water mark plus one frame) and one window per session;
//! writers are never blocked (cursor validation retries only the dirty
//! window, with backoff); and the stream is interleaved *between* a
//! batch's point replies at its request's position, preserving
//! in-order replies. The batch pin is dropped before a scan starts —
//! each window pins internally, so a long stream never holds one epoch
//! open.
//!
//! # Robustness
//!
//! Three bounds keep a hostile or unlucky client population from
//! exhausting the server ([`NetStats`] counts each):
//!
//! * **Session cap** ([`ServerConfig::max_sessions`]): past the cap,
//!   new connections are *shed at accept time* — answered one
//!   [`Response::Busy`] frame, drained briefly so the refusal arrives
//!   as a clean FIN rather than an RST, and closed. No session thread
//!   is spawned; the drain helpers are themselves capped.
//! * **Idle reaper** ([`ServerConfig::idle_deadline`]): a session that
//!   completes no frame within the deadline is evicted. The clock only
//!   resets on *complete frames*, so a slow-loris client dribbling a
//!   byte per read-timeout poll cannot hold its thread.
//! * **Scan cap** ([`ServerConfig::max_scans`]): at most this many
//!   `RangeScan` streams run concurrently; excess scans (and any scan
//!   arriving while the server drains for shutdown) answer a single
//!   `Busy` frame while point ops keep flowing.
//!
//! Injected wire faults (`net.conn.drop`, `net.frame.torn`,
//! `net.scan.drop` — see the `faultpoint` crate) exercise exactly the
//! session exit paths the counters classify.
//!
//! # Lifecycle
//!
//! The accept loop polls a shutdown flag between non-blocking accepts;
//! sessions poll it on a 50 ms read timeout while idle, finish the
//! batch they are executing (in-flight batches drain, new scans answer
//! `Busy`), and exit. A client disconnect anywhere — between frames,
//! mid-frame, or mid-scan-stream — just ends that session: the cursor
//! and buffers drop with the stack, the active-session count
//! decrements, nothing wedges.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use conc_set::{ConcurrentOrderedSet, ScanOpts, ScanStep, StructureSpec};

use crate::codec::{
    write_frame, FrameAssembler, NetError, NetStats, Request, Response, MAX_PAYLOAD,
    MAX_SCAN_WINDOW,
};

/// Server construction knobs; [`ServerConfig::default`] reads the
/// `LLX_NET_*` environment via [`workloads::knobs`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`LLX_NET_ADDR`, default `127.0.0.1:0` — an
    /// OS-assigned loopback port; read the actual one back from
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Max requests per session batch (`LLX_NET_BATCH`, default 64).
    pub batch_cap: usize,
    /// Max live sessions before accept-time shedding
    /// (`LLX_NET_MAX_SESSIONS`, default 256).
    pub max_sessions: usize,
    /// Evict a session that completes no frame for this long
    /// (`LLX_NET_IDLE_MS`, default 10s; zero disables the reaper).
    pub idle_deadline: Duration,
    /// Max concurrent `RangeScan` streams before scans answer `Busy`
    /// (`LLX_NET_MAX_SCANS`, default 32). Zero refuses every stream —
    /// a fully degraded point-ops-only server.
    pub max_scans: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: workloads::knobs::net_addr(),
            batch_cap: workloads::knobs::net_batch(),
            max_sessions: workloads::knobs::net_max_sessions(),
            idle_deadline: workloads::knobs::net_idle_deadline(),
            max_scans: workloads::knobs::net_max_scans(),
        }
    }
}

/// The per-session slice of the config, shared by the accept loop.
#[derive(Clone)]
struct SessionCfg {
    batch_cap: usize,
    idle_deadline: Duration,
    max_scans: usize,
    max_sessions: usize,
}

/// Shared server state: the structures and the counters every session
/// updates.
struct Shared {
    /// The served structures, indexed by the protocol's `structure`
    /// id, in spec-list order.
    sets: Vec<Arc<dyn ConcurrentOrderedSet>>,
    /// Canonical spec strings, parallel to `sets`.
    names: Vec<String>,
    /// Set once by [`Server::shutdown`]; accept loop and sessions poll
    /// it.
    shutdown: AtomicBool,
    /// Live session threads.
    active_sessions: AtomicUsize,
    /// Live `RangeScan` streams (bounded by `max_scans`).
    active_scans: AtomicUsize,
    /// Live shed-drain helper threads (bounded by [`SHED_DRAIN_CAP`]).
    shed_drains: AtomicUsize,
    /// Batches executed across all sessions.
    batches: AtomicU64,
    /// Requests executed across all sessions (batched_ops / batches =
    /// achieved amortization).
    batched_ops: AtomicU64,
    /// Sessions ever accepted (spawned, not shed).
    total_sessions: AtomicU64,
    /// Connections answered `Busy` and closed at accept time.
    shed_sessions: AtomicU64,
    /// Sessions evicted by the idle-deadline reaper.
    idle_evictions: AtomicU64,
    /// Sessions that ended in an error (I/O, protocol, injected).
    session_errors: AtomicU64,
    /// Sessions that ended with a clean EOF at a frame boundary.
    clean_drains: AtomicU64,
    /// `RangeScan` requests answered `Busy`.
    scans_rejected: AtomicU64,
}

impl Shared {
    fn stats(&self) -> NetStats {
        NetStats {
            // ord: control-plane gauge/counter reads for reporting, not protocol steps
            active_sessions: self.active_sessions.load(Ordering::SeqCst) as u64,
            total_sessions: self.total_sessions.load(Ordering::SeqCst), // ord: stats counter
            shed_sessions: self.shed_sessions.load(Ordering::SeqCst),   // ord: stats counter
            idle_evictions: self.idle_evictions.load(Ordering::SeqCst), // ord: stats counter
            session_errors: self.session_errors.load(Ordering::SeqCst), // ord: stats counter
            clean_drains: self.clean_drains.load(Ordering::SeqCst),     // ord: stats counter
            scans_rejected: self.scans_rejected.load(Ordering::SeqCst), // ord: stats counter
            batches: self.batches.load(Ordering::SeqCst),               // ord: stats counter
            batched_ops: self.batched_ops.load(Ordering::SeqCst),       // ord: stats counter
        }
    }
}

/// How a session ended, for the exit-path counters.
enum SessionEnd {
    /// Clean EOF at a frame boundary (normal client disconnect).
    Clean,
    /// The server is shutting down; the session drained and left.
    Shutdown,
    /// Evicted by the idle-deadline reaper.
    IdleEvicted,
    /// EOF mid-frame: the client died with a partial frame buffered.
    TornEof,
}

/// A running network service over a set of structure specs. Dropping
/// the handle shuts the server down.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("structures", &self.shared.names)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Build one structure per spec and serve them all; returns once
    /// the listener is bound and accepting.
    pub fn spawn(specs: &[StructureSpec], config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            sets: specs.iter().map(|s| Arc::from(s.build())).collect(),
            names: specs.iter().map(|s| s.to_string()).collect(),
            shutdown: AtomicBool::new(false),
            active_sessions: AtomicUsize::new(0),
            active_scans: AtomicUsize::new(0),
            shed_drains: AtomicUsize::new(0),
            batches: AtomicU64::new(0),
            batched_ops: AtomicU64::new(0),
            total_sessions: AtomicU64::new(0),
            shed_sessions: AtomicU64::new(0),
            idle_evictions: AtomicU64::new(0),
            session_errors: AtomicU64::new(0),
            clean_drains: AtomicU64::new(0),
            scans_rejected: AtomicU64::new(0),
        });
        let cfg = SessionCfg {
            batch_cap: config.batch_cap.max(1),
            idle_deadline: config.idle_deadline,
            max_scans: config.max_scans,
            max_sessions: config.max_sessions.max(1),
        };
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("netsvc-accept".into())
                .spawn(move || accept_loop(listener, shared, cfg))?
        };
        Ok(Server {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves the `:0` ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Canonical spec strings, in `structure`-id order.
    pub fn structure_names(&self) -> &[String] {
        &self.shared.names
    }

    /// Direct handle to a served structure (for in-process conservation
    /// checks at quiescence).
    pub fn structure(&self, id: u16) -> Option<Arc<dyn ConcurrentOrderedSet>> {
        self.shared.sets.get(id as usize).cloned()
    }

    /// Currently live session threads.
    pub fn active_sessions(&self) -> usize {
        // ord: control-plane gauge polled at ms granularity, not a protocol step
        self.shared.active_sessions.load(Ordering::SeqCst)
    }

    /// `(batches, requests)` executed so far across all sessions; the
    /// ratio is the achieved per-batch amortization.
    pub fn batch_stats(&self) -> (u64, u64) {
        (
            self.shared.batches.load(Ordering::SeqCst), // ord: stats counter, off hot path
            self.shared.batched_ops.load(Ordering::SeqCst), // ord: stats counter, off hot path
        )
    }

    /// The server-global counter snapshot (the in-process view of what
    /// a [`Request::Stats`] answers over the wire).
    pub fn stats(&self) -> NetStats {
        self.shared.stats()
    }

    /// Stop accepting, wake idle sessions, and wait (bounded) for all
    /// session threads to exit. In-flight batches drain; new scans
    /// answer `Busy` while the flag is up.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // ord: lifecycle flag polled at ms granularity, not a protocol step
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Sessions notice the flag within one 50 ms read timeout; give
        // stragglers (e.g. one mid-scan-stream) a grace period rather
        // than blocking shutdown on a hostile client.
        let deadline = Instant::now() + Duration::from_secs(5);
        // ord: control-plane gauge (see active_sessions)
        while self.shared.active_sessions.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Accept connections until shutdown, one session thread each; over
/// the session cap, shed with one `Busy` frame instead of spawning.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>, cfg: SessionCfg) {
    // ord: lifecycle flag, polled between accepts
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // ord: session gauge read; the cap is advisory backpressure, not mutual exclusion
                if shared.active_sessions.load(Ordering::SeqCst) >= cfg.max_sessions {
                    shared.shed_sessions.fetch_add(1, Ordering::SeqCst); // ord: stats counter
                    shed(stream, &shared);
                    continue;
                }
                let session_shared = Arc::clone(&shared);
                let session_cfg = cfg.clone();
                // ord: session gauge, once per connection
                shared.active_sessions.fetch_add(1, Ordering::SeqCst);
                shared.total_sessions.fetch_add(1, Ordering::SeqCst); // ord: stats counter
                let spawned =
                    thread::Builder::new()
                        .name("netsvc-session".into())
                        .spawn(move || {
                            match session(stream, &session_shared, &session_cfg) {
                                Ok(SessionEnd::Clean) => {
                                    // ord: stats counter, once per session
                                    session_shared.clean_drains.fetch_add(1, Ordering::SeqCst);
                                }
                                Ok(SessionEnd::Shutdown) => {}
                                Ok(SessionEnd::IdleEvicted) => {
                                    // ord: stats counter, once per session
                                    session_shared.idle_evictions.fetch_add(1, Ordering::SeqCst);
                                }
                                Ok(SessionEnd::TornEof) | Err(_) => {
                                    // ord: stats counter, once per session
                                    session_shared.session_errors.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            session_shared
                                .active_sessions
                                // ord: session gauge, once per connection
                                .fetch_sub(1, Ordering::SeqCst);
                        });
                if spawned.is_err() {
                    // Spawn failure drops the connection; the count
                    // must not leak a phantom session.
                    // ord: session gauge, once per connection
                    shared.active_sessions.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Shed-drain helpers alive at once; past this, shed connections get a
/// best-effort `Busy` and an abrupt close.
const SHED_DRAIN_CAP: usize = 32;

/// How long a shed drain waits for the client's FIN before giving up.
const SHED_DRAIN_DEADLINE: Duration = Duration::from_millis(250);

/// Shed one over-cap connection: answer `Busy`, half-close, then read
/// the socket dry until the client hangs up (bounded by
/// [`SHED_DRAIN_DEADLINE`]). The drain matters: the client has usually
/// already pipelined a request, and closing with those bytes unread
/// makes the kernel send an RST that can destroy the in-flight `Busy`
/// frame — turning a definite "not executed" refusal into an ambiguous
/// connection error the client must treat as `Unknown`. Draining on a
/// short-lived helper thread keeps the accept loop unblocked; the
/// [`SHED_DRAIN_CAP`] bound keeps a connection flood from turning the
/// helpers back into thread-per-connection.
fn shed(stream: TcpStream, shared: &Arc<Shared>) {
    let mut payload = Vec::new();
    Response::Busy.encode(&mut payload);
    let took_slot = shared
        .shed_drains
        // ord: bounded-budget gauge; fetch_update supplies the claim atomicity
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < SHED_DRAIN_CAP).then_some(n + 1)
        })
        .is_ok();
    if !took_slot {
        // Flooded past the drain budget: best effort only.
        let _ = write_frame(&mut (&stream), &payload);
        return;
    }
    let drain_shared = Arc::clone(shared);
    let spawned = thread::Builder::new()
        .name("netsvc-shed".into())
        .spawn(move || {
            let _ = write_frame(&mut (&stream), &payload);
            let _ = stream.shutdown(std::net::Shutdown::Write);
            stream
                .set_read_timeout(Some(Duration::from_millis(50)))
                .ok();
            let deadline = Instant::now() + SHED_DRAIN_DEADLINE;
            let mut sink = [0u8; 256];
            while Instant::now() < deadline {
                match (&stream).read(&mut sink) {
                    Ok(0) => break, // client's FIN: handshake complete
                    Ok(_) => {}     // discard whatever it pipelined
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut => {}
                    Err(_) => break,
                }
            }
            // ord: bounded-budget gauge, release on drain end
            drain_shared.shed_drains.fetch_sub(1, Ordering::SeqCst);
        });
    if spawned.is_err() {
        // ord: bounded-budget gauge, release on spawn failure
        shared.shed_drains.fetch_sub(1, Ordering::SeqCst);
    }
}

/// RAII slot in the bounded concurrent-scan budget.
struct ScanSlot<'a>(&'a Shared);

impl<'a> ScanSlot<'a> {
    /// Claim a slot unless the budget is exhausted.
    fn acquire(shared: &'a Shared, max_scans: usize) -> Option<ScanSlot<'a>> {
        shared
            .active_scans
            // ord: bounded-budget gauge; fetch_update is the atomicity, SC matches the file's discipline
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < max_scans).then_some(n + 1)
            })
            .ok()
            .map(|_| ScanSlot(shared))
    }
}

impl Drop for ScanSlot<'_> {
    fn drop(&mut self) {
        // ord: bounded-budget gauge, release on scan end
        self.0.active_scans.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A scan stream sends the out-buffer once it holds this many bytes:
/// eight 256-key windows per write, and a bound on what a stream
/// buffers at the server.
const SCAN_HIGH_WATER: usize = 32 * 1024;

/// A session's reply path: responses are framed in place at the end of
/// one reusable buffer, which reaches the socket in a single
/// `write_all` per [`send`](OutBuf::send).
struct OutBuf<W: Write> {
    sock: W,
    buf: Vec<u8>,
}

impl<W: Write> OutBuf<W> {
    fn new(sock: W) -> Self {
        OutBuf {
            sock,
            buf: Vec::new(),
        }
    }

    /// Frame one response: reserve the 4-byte header, encode the
    /// payload behind it, patch the length in — the bytes
    /// [`write_frame`] would write, without a payload `Vec`. The
    /// `net.frame.torn` fault point cuts the frame mid-payload, sends
    /// the buffer (earlier complete frames, then the header and half
    /// the payload) and fails, which drops the connection — the
    /// torn-write failure mode a crashing server produces.
    ///
    /// # Panics
    ///
    /// Panics if the payload is outside `1..=`[`MAX_PAYLOAD`], as
    /// [`write_frame`] does.
    fn reply(&mut self, resp: &Response) -> Result<(), NetError> {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        resp.encode(&mut self.buf);
        let len = self.buf.len() - start - 4;
        assert!(
            (1..=MAX_PAYLOAD).contains(&len),
            "frame payload of {len} bytes outside 1..={MAX_PAYLOAD}"
        );
        self.buf[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
        if faultpoint::fire("net.frame.torn") {
            self.buf.truncate(start + 4 + len / 2);
            self.send()?;
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "injected torn frame",
            )));
        }
        Ok(())
    }

    /// Write everything buffered in one `write_all`; a no-op when empty.
    fn send(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.sock.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

/// One connection's lifetime: batch-read, batch-execute, reply
/// in order, repeat until disconnect, protocol violation, idle
/// eviction, or shutdown. The out-buffer is empty at the top of every
/// cycle: each batch, and each exit that owes the client bytes, sends
/// it.
fn session(stream: TcpStream, shared: &Shared, cfg: &SessionCfg) -> Result<SessionEnd, NetError> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .ok();
    let mut reader = &stream;
    let mut out = OutBuf::new(&stream);
    let mut asm = FrameAssembler::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut batch: Vec<Result<Request, String>> = Vec::with_capacity(cfg.batch_cap);
    // The reaper clock: arms at accept, re-arms only when a batch of
    // *complete* frames is cut. Byte dribble does not touch it.
    let mut last_frame = Instant::now();
    loop {
        batch.clear();
        // Phase 1: block (on a shutdown-polling timeout) until at
        // least one complete frame is buffered. Frames left over from
        // the previous cut are found before any read.
        let mut chunk_filled = false;
        loop {
            match asm.next_frame_with(Request::decode) {
                Ok(Some(req)) => {
                    batch.push(req);
                    break;
                }
                Ok(None) => {}
                Err(violation) => {
                    // A framing lie leaves no recoverable boundary:
                    // report once and drop the connection.
                    out.reply(&Response::Error(violation.to_string()))?;
                    out.send()?;
                    return Err(violation);
                }
            }
            // ord: lifecycle flag, polled once per read timeout
            if shared.shutdown.load(Ordering::SeqCst) {
                return Ok(SessionEnd::Shutdown);
            }
            if !cfg.idle_deadline.is_zero() && last_frame.elapsed() >= cfg.idle_deadline {
                // The reaper: no complete frame within the deadline.
                // One parting Error frame (best effort), then evict.
                let _ = out
                    .reply(&Response::Error(format!(
                        "idle deadline exceeded: no complete frame in {:?}",
                        cfg.idle_deadline
                    )))
                    .and_then(|()| out.send().map_err(NetError::Io));
                return Ok(SessionEnd::IdleEvicted);
            }
            match reader.read(&mut chunk) {
                Ok(0) => {
                    // EOF: clean only at a frame boundary — a partial
                    // frame left buffered means the peer tore the
                    // stream mid-frame.
                    return Ok(if asm.pending_bytes() == 0 {
                        SessionEnd::Clean
                    } else {
                        SessionEnd::TornEof
                    });
                }
                Ok(n) => {
                    asm.extend(&chunk[..n]);
                    chunk_filled = n == chunk.len();
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        // Phase 2: a read that filled `chunk` may have left pipelined
        // bytes in the socket; drain them without blocking. A shorter
        // read took everything the socket held at that moment, so the
        // drain's two ioctls and its would-block read are skipped. A failed mode
        // switch ends the session: stuck non-blocking, phase 1 would
        // spin on `WouldBlock`; stuck blocking, the drain would stall.
        if chunk_filled {
            reader.set_nonblocking(true)?;
            loop {
                match reader.read(&mut chunk) {
                    Ok(0) => break, // half-closed; serve what we have
                    Ok(n) => asm.extend(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            reader.set_nonblocking(false)?;
        }
        let mut framing_violation = None;
        while batch.len() < cfg.batch_cap {
            match asm.next_frame_with(Request::decode) {
                Ok(Some(req)) => batch.push(req),
                Ok(None) => break,
                Err(e) => {
                    // Serve the complete frames first, then report and
                    // drop the connection: past a framing lie there is
                    // no next frame boundary.
                    framing_violation = Some(e);
                    break;
                }
            }
        }
        last_frame = Instant::now();
        // Execute the batch: point ops share one epoch pin; a scan
        // releases it (each window re-pins internally) and streams its
        // windows in place, keeping replies in request order.
        shared.batches.fetch_add(1, Ordering::SeqCst); // ord: stats counter, once per batch
        shared
            .batched_ops
            // ord: stats counter, once per batch
            .fetch_add(batch.len() as u64, Ordering::SeqCst);
        {
            let mut pin = Some(crossbeam_epoch::pin());
            for req in batch.drain(..) {
                // Injected mid-batch connection kill: the replies
                // already framed reach the wire, the remaining requests
                // of the batch get none and the socket drops abruptly —
                // the client-side ambiguity the Retry/Unknown protocol
                // exists for.
                if faultpoint::fire("net.conn.drop") {
                    out.send()?;
                    return Err(NetError::Io(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "injected connection drop mid-batch",
                    )));
                }
                match req {
                    Ok(Request::RangeScan {
                        structure,
                        lo,
                        hi,
                        window,
                    }) => {
                        drop(pin.take());
                        match shared.sets.get(structure as usize) {
                            Some(set) => {
                                // ord: lifecycle flag; draining servers reject new streams
                                let draining = shared.shutdown.load(Ordering::SeqCst);
                                let slot = if draining {
                                    None
                                } else {
                                    ScanSlot::acquire(shared, cfg.max_scans)
                                };
                                match slot {
                                    Some(_slot) => {
                                        if !stream_scan(&**set, lo, hi, window, shared, &mut out)? {
                                            // Aborted for shutdown:
                                            // drop the connection, the
                                            // process is going away.
                                            return Ok(SessionEnd::Shutdown);
                                        }
                                    }
                                    None => {
                                        // Graceful degradation: this
                                        // stream is refused, the
                                        // connection and its point ops
                                        // keep working.
                                        shared.scans_rejected.fetch_add(1, Ordering::SeqCst); // ord: stats counter
                                        out.reply(&Response::Busy)?;
                                    }
                                }
                            }
                            None => {
                                out.reply(&Response::Error(unknown_structure(shared, structure)))?
                            }
                        }
                    }
                    Ok(Request::Stats) => out.reply(&Response::Stats(shared.stats()))?,
                    Ok(req) => {
                        if pin.is_none() {
                            pin = Some(crossbeam_epoch::pin());
                        }
                        out.reply(&point_op(shared, &req))?;
                    }
                    Err(msg) => {
                        drop(pin.take());
                        out.reply(&Response::Error(format!("bad request: {msg}")))?;
                        out.send()?;
                        return Err(NetError::Malformed(msg));
                    }
                }
            }
        }
        if let Some(violation) = framing_violation {
            out.reply(&Response::Error(violation.to_string()))?;
            out.send()?;
            return Err(violation);
        }
        out.send()?;
    }
}

fn unknown_structure(shared: &Shared, id: u16) -> String {
    format!(
        "unknown structure id {id} (serving {} structures: {})",
        shared.names.len(),
        shared.names.join(", ")
    )
}

/// Execute one point request. Out-of-domain arguments answer `Error`
/// instead of tripping the trait's panic inside a session thread.
fn point_op(shared: &Shared, req: &Request) -> Response {
    let Some(set) = shared.sets.get(req.structure() as usize) else {
        return Response::Error(unknown_structure(shared, req.structure()));
    };
    let domain_err = |what: &str, v: u64, cap: u64| {
        Response::Error(format!("{what} {v} outside the served domain (max {cap})"))
    };
    match *req {
        Request::Get { key, .. } => {
            if key > conc_set::MAX_KEY {
                return domain_err("key", key, conc_set::MAX_KEY);
            }
            Response::Value(set.get(key))
        }
        Request::Insert { key, count, .. } => {
            if key > conc_set::MAX_KEY {
                return domain_err("key", key, conc_set::MAX_KEY);
            }
            if count == 0 || count > conc_set::MAX_COUNT {
                return domain_err("count", count, conc_set::MAX_COUNT);
            }
            Response::Value(set.insert(key, count))
        }
        Request::Remove { key, count, .. } => {
            if key > conc_set::MAX_KEY {
                return domain_err("key", key, conc_set::MAX_KEY);
            }
            if count == 0 || count > conc_set::MAX_COUNT {
                return domain_err("count", count, conc_set::MAX_COUNT);
            }
            Response::Value(set.remove(key, count))
        }
        Request::Len { .. } => Response::Value(set.len()),
        Request::RangeCount { lo, hi, .. } => Response::Value(set.range_count(lo, hi)),
        Request::RangeScan { .. } | Request::Stats => {
            unreachable!("scans and stats are handled by the session loop")
        }
    }
}

/// Drive a windowed cursor over `[lo, hi]`, framing one `ScanWindow`
/// per validated window and a final `ScanDone` into the out-buffer.
/// Bounded memory (one window, and an out-buffer sent whenever it
/// reaches [`SCAN_HIGH_WATER`] — so the client sees the stream progress
/// while the scan is still running), bounded retry work per window
/// (cursor contract), and a send at `ScanDone`. Returns `false` if the
/// stream was abandoned because the server began shutting down (the
/// caller drops the connection).
fn stream_scan(
    set: &dyn ConcurrentOrderedSet,
    lo: u64,
    hi: u64,
    window: u64,
    shared: &Shared,
    out: &mut OutBuf<impl Write>,
) -> Result<bool, NetError> {
    let window = window.clamp(1, MAX_SCAN_WINDOW);
    let mut cursor = set.scan(lo, hi, ScanOpts::windowed(window));
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(window as usize);
    let mut attempts = 0u32;
    loop {
        // ord: lifecycle flag, polled once per window
        if shared.shutdown.load(Ordering::SeqCst) {
            out.send()?;
            return Ok(false);
        }
        // Injected mid-stream kill: the client got some windows, then
        // the connection vanished without a ScanDone.
        if faultpoint::fire("net.scan.drop") {
            out.send()?;
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "injected connection drop mid-scan-stream",
            )));
        }
        pairs.clear();
        match cursor.next_window(&mut |k, c| pairs.push((k, c))) {
            ScanStep::Emitted { .. } => {
                attempts = 0;
                let resp = Response::ScanWindow(std::mem::take(&mut pairs));
                out.reply(&resp)?;
                if out.buf.len() >= SCAN_HIGH_WATER {
                    out.send()?;
                }
                // Reclaim the window buffer for the next attempt.
                let Response::ScanWindow(v) = resp else {
                    unreachable!()
                };
                pairs = v;
            }
            ScanStep::Retry => {
                // Writers are never blocked; the scanner pays for the
                // conflict. Spin a little, then yield.
                attempts += 1;
                if attempts > 8 {
                    thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            ScanStep::Done => {
                out.reply(&Response::ScanDone)?;
                out.send()?;
                return Ok(true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_response() -> Vec<Response> {
        vec![
            Response::Value(0),
            Response::Value(u64::MAX),
            Response::Error("unknown structure id 9".to_string()),
            Response::Error(String::new()),
            // Longer than the u16 length field: the encoder truncates.
            Response::Error("é".repeat(40_000)),
            Response::ScanWindow(vec![]),
            Response::ScanWindow(vec![(1, 2), (3, 4)]),
            Response::ScanWindow((0..MAX_SCAN_WINDOW).map(|k| (k, k + 1)).collect()),
            Response::ScanDone,
            Response::Busy,
            Response::Stats(NetStats {
                active_sessions: 1,
                total_sessions: 2,
                shed_sessions: 3,
                idle_evictions: 4,
                session_errors: 5,
                clean_drains: 6,
                scans_rejected: 7,
                batches: 8,
                batched_ops: u64::MAX,
            }),
        ]
    }

    /// The out-buffer frames responses in place byte-for-byte as
    /// `write_frame(encode(resp))` does, and `net.frame.torn` leaves the
    /// earlier complete frames on the wire ahead of exactly a header and
    /// half a payload. One test, because the fault registry is global.
    #[test]
    fn in_place_framing_matches_write_frame_and_tears_after_complete_frames() {
        faultpoint::clear();
        let mut out = OutBuf::new(Vec::new());
        let mut expected = Vec::new();
        for resp in every_response() {
            let mut payload = Vec::new();
            resp.encode(&mut payload);
            write_frame(&mut expected, &payload).unwrap();
            let start = out.buf.len();
            out.reply(&resp).unwrap();
            assert_eq!(out.buf[start..], expected[start..], "{resp:?}");
        }
        assert!(out.sock.is_empty(), "reply() buffers; only send() writes");
        out.send().unwrap();
        assert_eq!(out.sock, expected);
        assert!(out.buf.is_empty());
        let mut asm = FrameAssembler::new();
        asm.extend(&out.sock);
        for resp in every_response() {
            let mut want = Vec::new();
            resp.encode(&mut want);
            let got = asm.next_frame_with(Response::decode).unwrap().unwrap();
            assert_eq!(got.unwrap(), Response::decode(&want).unwrap());
        }
        assert_eq!(asm.pending_bytes(), 0);

        // Two complete frames, then the third reply tears.
        faultpoint::configure("net.frame.torn=once:3", faultpoint::DEFAULT_SEED).unwrap();
        let mut out = OutBuf::new(Vec::new());
        out.reply(&Response::Value(7)).unwrap();
        out.reply(&Response::Busy).unwrap();
        let torn = Response::ScanWindow(vec![(1, 1), (2, 2), (3, 3)]);
        assert!(
            out.reply(&torn).is_err(),
            "the injected tear fails the reply"
        );
        faultpoint::clear();
        let mut complete = Vec::new();
        for resp in [Response::Value(7), Response::Busy] {
            let mut payload = Vec::new();
            resp.encode(&mut payload);
            write_frame(&mut complete, &payload).unwrap();
        }
        let mut payload = Vec::new();
        torn.encode(&mut payload);
        assert_eq!(out.sock[..complete.len()], complete[..]);
        let tail = &out.sock[complete.len()..];
        assert_eq!(tail.len(), 4 + payload.len() / 2);
        assert_eq!(tail[..4], (payload.len() as u32).to_le_bytes());
        assert_eq!(tail[4..], payload[..payload.len() / 2]);
        assert!(out.buf.is_empty(), "the torn buffer was sent");
    }
}
