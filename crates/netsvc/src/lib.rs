//! A network service tier over the [`conc_set`] structure zoo: a
//! std-only threaded TCP server with a compact binary protocol,
//! server-side op batching, and streamed windowed range scans.
//!
//! The paper's primitives build *shared-memory* structures; this crate
//! completes the systems story by putting the whole registry — every
//! [`StructureSpec`](conc_set::StructureSpec) the `LLX_STRUCT` grammar
//! can express, `sharded(...)` composites included — behind a socket,
//! the way such structures are actually consumed (a cache shard, an
//! index server). Three design points carry over from the paper's
//! concerns:
//!
//! * **Batching amortizes the epoch machinery.** A session drains every
//!   request the client has pipelined into one batch and executes the
//!   point ops under a single `crossbeam_epoch::pin()`; the
//!   reclamation fee the paper's GC assumption charges per operation is
//!   paid once per batch (the repository benchmark's `net-pipe`
//!   workload reports the resulting batch size as
//!   `netsvc.batch_mean_ops`).
//! * **Scans stream without blocking writers.** `RangeScan` maps to the
//!   windowed [`ScanCursor`](conc_set::ScanCursor) of PR 4: each
//!   validated window travels as its own frame, so server memory is one
//!   window regardless of range size, conflicts retry only the dirty
//!   window, and the consistency the wire offers is exactly the
//!   cursor's per-window atomicity.
//! * **No runtime dependencies.** Threads and blocking sockets from
//!   `std` only — one session thread per connection, no async runtime,
//!   nothing to install.
//!
//! * **Failure is a first-class input.** The server bounds what a
//!   hostile client population can take from it (session cap with
//!   accept-time `Busy` shedding, an idle-deadline reaper that evicts
//!   slow-loris connections, a concurrent-scan cap) and counts every
//!   exit path in a wire-queryable [`NetStats`]; the
//!   [`ResilientClient`] adds timeouts, jittered capped-exponential
//!   reconnect, and an at-most-once mutation protocol
//!   ([`MutationOutcome`]) that never double-applies. The `faultpoint`
//!   crate's injection points (`net.conn.drop`, `net.frame.torn`,
//!   `net.scan.drop`) drive exactly these paths deterministically.
//!
//! See [`codec`] for the wire protocol, [`server`] for batching and
//! lifecycle, [`client`] for the pipelining-friendly blocking client
//! and the resilient wrapper.
//!
//! # Example
//!
//! ```
//! use conc_set::StructureSpec;
//! use netsvc::{Client, Server, ServerConfig};
//!
//! let specs = vec![StructureSpec::parse("scx-multiset").unwrap()];
//! let server = Server::spawn(&specs, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! assert_eq!(client.insert(0, 7, 2).unwrap(), 2);
//! assert_eq!(client.get(0, 7).unwrap(), 2);
//! assert_eq!(client.range_scan(0, 0, 100, 8).unwrap(), vec![(7, 2)]);
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod codec;
pub mod server;

pub use client::{
    Client, ClientConfig, ClientCounters, MutationOutcome, ResilientClient, RetryPolicy,
};
pub use codec::{
    FrameAssembler, NetError, NetStats, Request, Response, MAX_PAYLOAD, MAX_SCAN_WINDOW,
};
pub use server::{Server, ServerConfig};
