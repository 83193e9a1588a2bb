//! Behavioral server tests: scan streaming, disconnect resilience,
//! batching, and concurrent clients with conservation laws.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use conc_set::StructureSpec;
use netsvc::codec::{read_frame, write_frame, Request};
use netsvc::{Client, Response, Server, ServerConfig};

fn spawn_server(specs: &str) -> Server {
    let specs = StructureSpec::parse_list(specs).unwrap();
    Server::spawn(
        &specs,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            batch_cap: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Wait (bounded) for the server's live-session count to drain.
fn await_sessions_drained(server: &Server) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_sessions() > 0 {
        assert!(
            Instant::now() < deadline,
            "sessions failed to drain: {} still active",
            server.active_sessions()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn scans_stream_window_by_window_and_resume_across_frames() {
    let server = spawn_server("patricia");
    let mut client = Client::connect(server.local_addr()).unwrap();
    for k in 0..100u64 {
        client.insert(0, k, 1).unwrap();
    }
    // window=8 over 100 keys: the stream must arrive as multiple
    // ScanWindow frames whose pairs are ascending and contiguous —
    // the cursor resumed from the previous window's end, not from lo.
    client
        .send(&Request::RangeScan {
            structure: 0,
            lo: 0,
            hi: 99,
            window: 8,
        })
        .unwrap();
    client.flush().unwrap();
    let mut windows = 0usize;
    let mut keys = Vec::new();
    loop {
        match client.recv().unwrap() {
            Response::ScanWindow(pairs) => {
                assert!(pairs.len() <= 8, "window over budget: {}", pairs.len());
                windows += 1;
                keys.extend(pairs.iter().map(|&(k, _)| k));
            }
            Response::ScanDone => break,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(
        windows >= 100 / 8,
        "expected a real stream, got {windows} windows"
    );
    assert_eq!(keys, (0..100).collect::<Vec<u64>>());
    // The connection serves point ops after a stream.
    assert_eq!(client.len(0).unwrap(), 100);
    server.shutdown();
}

#[test]
fn scan_stream_interleaves_at_its_pipeline_position() {
    let server = spawn_server("scx-multiset");
    let mut client = Client::connect(server.local_addr()).unwrap();
    for k in [1u64, 2, 3] {
        client.insert(0, k, 2).unwrap();
    }
    // Pipeline: get(1), scan, get(3). Replies must arrive exactly in
    // that order, the scan as a frame sub-stream in the middle.
    client
        .send(&Request::Get {
            structure: 0,
            key: 1,
        })
        .unwrap();
    client
        .send(&Request::RangeScan {
            structure: 0,
            lo: 0,
            hi: 10,
            window: 2,
        })
        .unwrap();
    client
        .send(&Request::Get {
            structure: 0,
            key: 3,
        })
        .unwrap();
    client.flush().unwrap();
    assert_eq!(client.recv().unwrap(), Response::Value(2));
    let mut pairs = Vec::new();
    loop {
        match client.recv().unwrap() {
            Response::ScanWindow(w) => pairs.extend(w),
            Response::ScanDone => break,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert_eq!(pairs, vec![(1, 2), (2, 2), (3, 2)]);
    assert_eq!(client.recv().unwrap(), Response::Value(2));
    server.shutdown();
}

#[test]
fn disconnect_mid_scan_stream_cleans_up_the_session() {
    let server = spawn_server("scx-multiset");
    let mut client = Client::connect(server.local_addr()).unwrap();
    // A large structure scanned one key per window produces far more
    // stream bytes (20 000 frames of 25 B, about 500 KB) than the
    // socket buffers hold, even with the server coalescing frames into
    // 32 KiB writes, so the server is necessarily still writing when
    // the client hangs up.
    let keys = 20_000u64;
    for burst in (0..keys).rev().collect::<Vec<_>>().chunks(500) {
        for &k in burst {
            client
                .send(&Request::Insert {
                    structure: 0,
                    key: k,
                    count: 1,
                })
                .unwrap();
        }
        client.flush().unwrap();
        for _ in burst {
            assert_eq!(client.recv().unwrap(), Response::Value(1));
        }
    }
    client
        .send(&Request::RangeScan {
            structure: 0,
            lo: 0,
            hi: keys - 1,
            window: 1,
        })
        .unwrap();
    client.flush().unwrap();
    // Read a window to prove the stream started, then drop the
    // connection mid-stream.
    match client.recv().unwrap() {
        Response::ScanWindow(w) => assert_eq!(w, vec![(0, 1)]),
        other => panic!("unexpected frame {other:?}"),
    }
    drop(client);
    // The session must notice the broken pipe, drop its cursor, and
    // exit — no wedged thread, and the server keeps serving.
    await_sessions_drained(&server);
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.len(0).unwrap(), keys);
    assert_eq!(client.range_count(0, 0, keys - 1).unwrap(), keys);
    server.shutdown();
}

#[test]
fn a_burst_larger_than_the_read_chunk_is_drained_and_answered_in_order() {
    // The session reads 16 KiB at a time and drains the socket only
    // after a read that filled the whole chunk. A single write of
    // 1 200 pipelined Gets (15 B frames, 18 000 B) takes that path.
    let server = spawn_server("scx-multiset");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let distinct = 100u64;
    let count_of = |k: u64| k % 13 + 1;
    for k in 0..distinct {
        assert_eq!(client.insert(0, k, count_of(k)).unwrap(), count_of(k));
    }
    let (batches_before, ops_before) = server.batch_stats();
    let n = 1200u64;
    let key_of = |i: u64| (i * 7) % distinct;
    let mut wire = Vec::new();
    let mut payload = Vec::new();
    for i in 0..n {
        payload.clear();
        Request::Get {
            structure: 0,
            key: key_of(i),
        }
        .encode(&mut payload);
        write_frame(&mut wire, &payload).unwrap();
    }
    assert!(
        wire.len() > 16 * 1024,
        "the burst must exceed one read chunk"
    );
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    sock.write_all(&wire).unwrap();
    for i in 0..n {
        read_frame(&mut sock, &mut payload).unwrap();
        assert_eq!(
            Response::decode(&payload).unwrap(),
            Response::Value(count_of(key_of(i))),
            "reply {i} out of order"
        );
    }
    let (batches, ops) = server.batch_stats();
    let (batches, ops) = (batches - batches_before, ops - ops_before);
    assert_eq!(ops, n, "every request accounted to a batch");
    assert!(
        batches >= n.div_ceil(64) && batches < ops,
        "{batches} batches for {ops} ops at batch cap 64"
    );
    drop(sock);
    drop(client);
    server.shutdown();
}

#[test]
fn pipelined_bursts_batch_server_side() {
    let server = spawn_server("scx-multiset");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let depth = 64u64;
    let rounds = 5u64;
    for r in 0..rounds {
        for i in 0..depth {
            client
                .send(&Request::Insert {
                    structure: 0,
                    key: r * depth + i,
                    count: 1,
                })
                .unwrap();
        }
        client.flush().unwrap();
        for _ in 0..depth {
            assert_eq!(client.recv().unwrap(), Response::Value(1));
        }
    }
    let (batches, ops) = server.batch_stats();
    assert_eq!(ops, rounds * depth, "every request accounted to a batch");
    // Each flushed burst lands in the socket buffer in one write, so
    // the drain loop must have packed *some* batch with >1 request —
    // the whole point of server-side batching. (Strictly fewer batches
    // than ops; scheduling noise can split bursts, but never into one
    // batch per op for 5 × 64 single-write bursts.)
    assert!(
        batches < ops,
        "no batching happened: {batches} batches for {ops} ops"
    );
    server.shutdown();
}

#[test]
fn concurrent_clients_on_a_sharded_structure_conserve_occurrences() {
    // The tentpole wiring test: several clients hammer one
    // `sharded(scx-multiset,4)` through the socket; at quiescence the
    // insert/remove ledger must equal the served structure's len()
    // (the stress harness's conservation law, here crossing the wire),
    // and the structure must still validate shard by shard.
    let server = spawn_server("sharded(scx-multiset,4)");
    let addr = server.local_addr();
    let clients = 4usize;
    let ops_per_client = 300u64;
    let mut handles = Vec::new();
    for t in 0..clients {
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut inserted = 0u64;
            let mut removed = 0u64;
            // Deterministic per-thread streams over a small hot range
            // so removes genuinely contend with other clients' state.
            let mut x = 0x9E3779B97F4A7C15u64.wrapping_mul(t as u64 + 1) | 1;
            for i in 0..ops_per_client {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let key = x % 512;
                if i % 3 == 0 {
                    removed += client.remove(0, key, 1).unwrap();
                } else {
                    inserted += client.insert(0, key, 1).unwrap();
                }
            }
            (inserted, removed)
        }));
    }
    let mut inserted = 0u64;
    let mut removed = 0u64;
    for h in handles {
        let (i, r) = h.join().unwrap();
        inserted += i;
        removed += r;
    }
    // Quiescent now: the wire ledger must balance against both the
    // remote len() and a streamed full-range scan.
    let mut client = Client::connect(addr).unwrap();
    let len = client.len(0).unwrap();
    assert_eq!(inserted - removed, len, "conservation over the wire");
    let scanned: u64 = client
        .range_scan(0, 0, 1023, 64)
        .unwrap()
        .iter()
        .map(|&(_k, c)| c)
        .sum();
    assert_eq!(scanned, len, "streamed scan agrees at quiescence");
    // And in-process: the served instance itself validates per shard.
    let set = server.structure(0).unwrap();
    set.validate().unwrap();
    assert_eq!(set.len(), len);
    server.shutdown();
}

#[test]
fn shutdown_with_idle_connections_returns_promptly() {
    let server = spawn_server("scx-multiset");
    let addr = server.local_addr();
    // Three idle clients parked in the blocking-read phase.
    let _idle: Vec<Client> = (0..3).map(|_| Client::connect(addr).unwrap()).collect();
    let deadline = Instant::now();
    server.shutdown();
    assert!(
        deadline.elapsed() < Duration::from_secs(5),
        "shutdown hung on idle sessions"
    );
}

#[test]
fn every_registered_spec_serves_over_the_wire() {
    // One server over the whole zoo plus a sharded composite: the
    // structure-id space maps spec-list order, and each structure
    // round-trips an insert/get/scan through its own id.
    let specs: Vec<&str> = conc_set::backend_names()
        .chain(["sharded(patricia,4)"])
        .collect();
    let server = spawn_server(&specs.join(","));
    assert_eq!(server.structure_names().len(), specs.len());
    let mut client = Client::connect(server.local_addr()).unwrap();
    for sid in 0..specs.len() as u16 {
        assert_eq!(client.insert(sid, 11, 1).unwrap(), 1, "structure {sid}");
        assert_eq!(client.get(sid, 11).unwrap(), 1, "structure {sid}");
        assert_eq!(
            client.range_scan(sid, 0, 100, 4).unwrap(),
            vec![(11, 1)],
            "structure {sid}"
        );
        assert_eq!(client.remove(sid, 11, 1).unwrap(), 1, "structure {sid}");
    }
    server.shutdown();
}
