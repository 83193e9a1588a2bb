//! One workload, one round, in this process: set up (several times, for a
//! steady `setup_s`), warm up, measure slice by slice, run the oracle, and
//! — in a traced run — repeat the load under spans and read every layer.
//! Results go to stdout as lines the parent parses (see [`crate::parent`]).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use conc_set::{ConcurrentOrderedSet, StructureSpec};
use llx_scx::{PoolStats, StatsSnapshot};
use multiset::Multiset;
use netsvc::{Client, Request, Response, Server, ServerConfig};

use crate::hist::Hist;
use crate::load::{
    mem_segment, net_point_segment, net_scan_segment, PointState, ScanState, Segment, SliceRec,
};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::oracle::check_ledgers;
use crate::probes;
use crate::procstat::{self, LOAD_THREAD};
use crate::stats::{iqr_share, median};
use crate::trace::{self, NoProbe, SpanKind, Tracer};
use crate::workload::{Op, Role, Workload, SHARD_DOMAIN, THREADS};

pub struct ChildArgs {
    pub workload: Workload,
    pub seed: u64,
    /// One-second slices to measure.
    pub seconds: u64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

const SLICE: Duration = Duration::from_secs(1);
/// Load run and discarded before the first slice: long enough for some
/// millions of reads, or several updates of every key.
const WARM_UP: Duration = Duration::from_millis(500);
/// Set-ups per child; `setup_s` is their median and the last one is used.
const SETUP_REPS: usize = 3;
/// The depth-1 round-trip probe of a traced loopback run.
const RTT_PROBE: Duration = Duration::from_millis(1500);
/// The in-process scan probe of a traced `net-scan` run.
const SCAN_PROBE: Duration = Duration::from_millis(1000);

/// A traced run splits its slices: most stay untraced (they give the
/// counters and the rate the traced slices are compared with).
fn split(seconds: u64, trace: bool) -> (usize, usize) {
    let s = seconds.max(1) as usize;
    if trace {
        ((s / 3).max(2), (s / 5).max(2))
    } else {
        (s, 0)
    }
}

/// How long a run of `seconds` slices should take at most when nothing is
/// wrong; the parent's watchdog allows three times this.
pub fn nominal(seconds: u64, trace: bool) -> Duration {
    let (untraced, traced) = split(seconds, trace);
    let load = WARM_UP + SLICE * (untraced + traced) as u32;
    let extras = if trace { 20 } else { 0 };
    load + Duration::from_secs(10 + extras)
}

/// Everything a run needs, built by [`setup`].
struct Rig {
    set: Arc<dyn ConcurrentOrderedSet>,
    /// `mem-contend` in a traced run: the same structure, typed, so its
    /// domain's step counters can be read.
    counted: Option<Arc<Multiset<u64>>>,
    server: Option<Server>,
    clients: Vec<Client>,
    point_tapes: Vec<Vec<Op>>,
    scan_tapes: Vec<Vec<u64>>,
}

/// Build the structure (behind a server on the loopback workloads),
/// prefill every even key, generate the tapes, connect the clients.
fn setup(w: Workload, seed: u64, counted: bool) -> Result<Rig, String> {
    let spec = StructureSpec::parse(w.spec()).map_err(|e| e.to_string())?;
    let mut rig = Rig {
        set: Arc::new(Multiset::<u64>::new()),
        counted: None,
        server: None,
        clients: Vec::new(),
        point_tapes: Vec::new(),
        scan_tapes: Vec::new(),
    };
    if w.is_net() {
        // Written out, not `ServerConfig::default()`, which reads the
        // `LLX_NET_*` environment.
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            batch_cap: 64,
            max_sessions: 256,
            idle_deadline: Duration::from_secs(10),
            max_scans: 32,
        };
        let server = Server::spawn(&[spec], config).map_err(|e| format!("server: {e}"))?;
        rig.set = server.structure(0).expect("the server serves one spec");
        rig.server = Some(server);
    } else if counted && w == Workload::MemContend {
        let set = Arc::new(Multiset::<u64>::new_with_stats());
        rig.set = set.clone();
        rig.counted = Some(set);
    } else {
        rig.set = Arc::from(spec.build());
    }
    for key in w.prefill_keys() {
        rig.set.insert(key, 1);
    }
    for t in 0..THREADS {
        let (point, scan) = match w.role(t) {
            Role::Point => (w.point_tape(seed, t), Vec::new()),
            Role::Scan => (Vec::new(), w.scan_tape(seed, t)),
        };
        rig.point_tapes.push(point);
        rig.scan_tapes.push(scan);
    }
    if let Some(server) = &rig.server {
        for _ in 0..THREADS {
            let c = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
            rig.clients.push(c);
        }
    }
    Ok(rig)
}

/// Run the epoch shim's queue dry; returns how long that took.
fn drain_epoch() -> Duration {
    let start = Instant::now();
    for _ in 0..64 {
        crossbeam_epoch::pin().flush();
        if crossbeam_epoch::queued_reclaims() == 0 {
            break;
        }
    }
    start.elapsed()
}

fn teardown(rig: Rig) {
    let Rig {
        set,
        server,
        clients,
        ..
    } = rig;
    drop(clients);
    if let Some(server) = server {
        server.shutdown();
    }
    drop(set);
    drain_epoch();
}

/// What one load thread hands back.
struct ThreadOut {
    role: Role,
    untraced: Vec<SliceRec>,
    traced: Vec<SliceRec>,
    ledger: Vec<i32>,
    attempted: u64,
    failed: u64,
    tracer: Option<Tracer>,
    frames: u64,
    first_window_ns: u64,
    client: Option<Client>,
}

/// Counters read at the two ends of the untraced window.
#[derive(Clone, Copy)]
struct Counters {
    pool: PoolStats,
    batches: (u64, u64),
    steps: Option<StatsSnapshot>,
    proc: procstat::Snapshot,
}

fn counters(rig: &Rig, with_proc: bool) -> Counters {
    Counters {
        pool: llx_scx::pool_stats(),
        batches: rig.server.as_ref().map_or((0, 0), Server::batch_stats),
        steps: rig.counted.as_ref().and_then(|m| m.stats()),
        proc: if with_proc {
            procstat::snapshot()
        } else {
            procstat::Snapshot::default()
        },
    }
}

fn sleep_until(t: Instant) {
    thread::sleep(t.saturating_duration_since(Instant::now()));
}

/// One load thread: the three segments back to back.
#[allow(clippy::too_many_arguments)]
fn load_thread(
    w: Workload,
    thread: usize,
    set: &dyn ConcurrentOrderedSet,
    mut client: Option<Client>,
    point_tape: &[Op],
    scan_tape: &[u64],
    segs: &[Segment<'_>; 3],
    traced: bool,
) -> ThreadOut {
    let role = w.role(thread);
    let mut tracer = traced.then(|| Tracer::new(segs[0].start, thread));
    let mut point = (role == Role::Point).then(|| PointState::new(point_tape, w.keys()));
    let mut scan = (role == Role::Scan).then(|| ScanState::new(scan_tape));
    let read_only = w.get_percent() == 100;
    sleep_until(segs[0].start);
    let mut outs = Vec::new();
    for (i, seg) in segs.iter().enumerate() {
        if seg.n == 0 {
            outs.push(Vec::new());
            continue;
        }
        // Only the last segment runs under spans.
        let spans = if i == 2 { tracer.as_mut() } else { None };
        let slices = match (&mut point, &mut scan, &mut client, spans) {
            (Some(st), _, None, Some(tr)) => mem_segment(set, st, read_only, seg, tr),
            (Some(st), _, None, None) => mem_segment(set, st, read_only, seg, &mut NoProbe),
            (Some(st), _, Some(c), Some(tr)) => net_point_segment(c, st, seg, tr),
            (Some(st), _, Some(c), None) => net_point_segment(c, st, seg, &mut NoProbe),
            (_, Some(st), Some(c), Some(tr)) => net_scan_segment(c, st, seg, tr),
            (_, Some(st), Some(c), None) => net_scan_segment(c, st, seg, &mut NoProbe),
            _ => unreachable!("a scanner always has a connection"),
        };
        outs.push(slices);
    }
    let traced_slices = outs.pop().expect("three segments");
    let untraced = outs.pop().expect("three segments");
    let (attempted, failed, ledger) = match (&mut point, &scan) {
        (Some(st), _) => (st.pos as u64, st.failed, std::mem::take(&mut st.ledger)),
        (_, Some(st)) => (st.pos as u64, st.failed, Vec::new()),
        _ => unreachable!("a thread has a role"),
    };
    ThreadOut {
        role,
        untraced,
        traced: traced_slices,
        ledger,
        attempted,
        failed,
        tracer,
        frames: scan.as_ref().map_or(0, |s| s.frames),
        first_window_ns: scan.as_ref().map_or(0, |s| s.first_window_ns),
        client,
    }
}

impl ThreadOut {
    fn slices(&self, traced: bool) -> &[SliceRec] {
        if traced {
            &self.traced
        } else {
            &self.untraced
        }
    }
}

/// Per-slice rate of `role`'s threads, units per second.
fn rates(outs: &[ThreadOut], role: Role, traced: bool) -> Vec<f64> {
    let n = outs
        .iter()
        .map(|o| o.slices(traced).len())
        .max()
        .unwrap_or(0);
    (0..n)
        .map(|i| {
            outs.iter()
                .filter(|o| o.role == role)
                .map(|o| o.slices(traced).get(i).map_or(0, |s| s.units))
                .sum::<u64>() as f64
                / SLICE.as_secs_f64()
        })
        .collect()
}

fn latencies(outs: &[ThreadOut], role: Role) -> Hist {
    let mut h = Hist::new();
    for s in outs
        .iter()
        .filter(|o| o.role == role)
        .flat_map(|o| &o.untraced)
    {
        h.merge(&s.lat);
    }
    h
}

/// Two connections, depth 1, `get` only: the loopback round trip (p50).
fn rtt_probe(clients: &mut [Client], tapes: &[&[Op]]) -> f64 {
    let mut all = Hist::new();
    let hists: Vec<Hist> = thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tapes)
            .map(|(client, tape)| {
                s.spawn(move || {
                    let mut h = Hist::new();
                    let start = Instant::now();
                    for op in tape.iter().cycle() {
                        let a = Instant::now();
                        let req = Request::Get {
                            structure: 0,
                            key: op.key(),
                        };
                        if !matches!(client.call(&req), Ok(Response::Value(_))) {
                            break;
                        }
                        let b = Instant::now();
                        h.record((b - a).as_nanos() as u64);
                        if b - start >= RTT_PROBE {
                            break;
                        }
                    }
                    h
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rtt probe thread"))
            .collect()
    });
    hists.iter().for_each(|h| all.merge(h));
    all.quantile(0.5).unwrap_or(0.0)
}

fn emit(name: &str, value: f64, unit: &str) {
    println!("metric {name} {value} {unit}");
}

/// What the load phase of a run leaves behind.
struct Round {
    rig: Rig,
    outs: Vec<ThreadOut>,
    /// Slices in the untraced and the traced window.
    untraced_n: usize,
    traced_n: usize,
    /// Counters at the two ends of the untraced window.
    at_a: Counters,
    at_b: Counters,
    queued_max: usize,
}

/// Warm-up, untraced slices, traced slices: the load threads run them
/// back to back while this thread reads counters at the boundaries.
fn load(args: &ChildArgs, mut rig: Rig) -> Round {
    let w = args.workload;
    let (untraced_n, traced_n) = split(args.seconds, args.trace);
    let t0 = Instant::now() + Duration::from_millis(50);
    let progress: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();
    let segments = |progress| {
        let mut start = t0;
        [(WARM_UP, 1), (SLICE, untraced_n), (SLICE, traced_n)].map(|(slice, n)| {
            let seg = Segment {
                start,
                slice,
                n,
                progress,
            };
            start = seg.end();
            seg
        })
    };
    let total_slices = untraced_n + traced_n;
    let mut clients: Vec<Option<Client>> = rig.clients.drain(..).map(Some).collect();
    clients.resize_with(THREADS, || None);
    let mut queued_max = 0usize;
    let (mut at_a, mut at_b) = (None, None);
    let outs = thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(t, client)| {
                let (rig, segs) = (&rig, segments(&progress[t]));
                thread::Builder::new()
                    .name(LOAD_THREAD.into())
                    .spawn_scoped(s, move || {
                        load_thread(
                            w,
                            t,
                            &*rig.set,
                            client,
                            &rig.point_tapes[t],
                            &rig.scan_tapes[t],
                            &segs,
                            args.trace,
                        )
                    })
                    .expect("spawn a load thread")
            })
            .collect();
        // At each slice boundary: a progress line (the parent's watchdog
        // prints the last one if the run wedges), and the counter
        // snapshots at the two ends of the untraced window.
        for i in 0..=total_slices {
            sleep_until(t0 + WARM_UP + SLICE * i as u32);
            if i == 0 {
                at_a = Some(counters(&rig, args.trace));
            }
            if i == untraced_n {
                at_b = Some(counters(&rig, args.trace));
            }
            if args.trace {
                queued_max = queued_max.max(crossbeam_epoch::queued_reclaims());
            }
            let done: Vec<String> = progress
                .iter()
                .map(|p| p.load(Ordering::Relaxed).to_string()) // ord: progress figure only
                .collect();
            println!("slice {i}/{total_slices} units {}", done.join(" "));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("a load thread panicked"))
            .collect()
    });
    Round {
        rig,
        outs,
        untraced_n,
        traced_n,
        at_a: at_a.expect("the loop passes the boundary"),
        at_b: at_b.expect("the loop passes the boundary"),
        queued_max,
    }
}

/// The per-layer readings of a traced run, `0` until set.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Self {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }
    fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in PER_LAYER")) = value;
    }
    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// Run the child; `Err` is a failure to run at all (bad environment, no
/// loopback), not a failed oracle — that is reported in the result line.
pub fn run(args: &ChildArgs) -> Result<(), String> {
    let w = args.workload;
    check_environment()?;
    let spin_ref = if args.trace {
        probes::host_spin_ref()
    } else {
        0.0
    };

    // Set up several times; keep the last.
    let mut setup_times = Vec::new();
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = rig.take() {
            teardown(old);
        }
        let start = Instant::now();
        rig = Some(setup(w, args.seed, args.trace)?);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let setup_s = median(&setup_times);

    let Round {
        mut rig,
        mut outs,
        untraced_n,
        traced_n,
        at_a,
        at_b,
        queued_max,
    } = load(args, rig.expect("SETUP_REPS is at least one"));

    // The loopback round trip, on the still-open connections.
    let mut rtt_p50 = 0.0;
    if args.trace && w.is_net() {
        let mut open: Vec<Client> = outs.iter_mut().filter_map(|o| o.client.take()).collect();
        let tape = &rig.point_tapes[w.point_thread()];
        let tapes: Vec<&[Op]> = (0..open.len()).map(|i| &tape[i * 4096..]).collect();
        rtt_p50 = rtt_probe(&mut open, &tapes);
    }
    outs.iter_mut().for_each(|o| o.client = None);

    // Quiescence: connections closed and their sessions gone.
    let mut net_stats = None;
    if let Some(server) = &rig.server {
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.active_sessions() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        net_stats = Some(server.stats());
    }
    let drain = drain_epoch();

    // The oracle.
    let attempted = outs.iter().map(|o| o.attempted).sum::<u64>().max(1);
    let mut failed: u64 = outs.iter().map(|o| o.failed).sum();
    let ledgers: Vec<Vec<i32>> = outs
        .iter_mut()
        .filter(|o| o.role == Role::Point)
        .map(|o| std::mem::take(&mut o.ledger))
        .collect();
    let mut complaints = Vec::new();
    if let Err(e) = check_ledgers(w, &*rig.set, &ledgers) {
        complaints.push(e);
    }
    if let Some(s) = net_stats {
        if s.session_errors + s.scans_rejected + s.shed_sessions > 0 {
            complaints.push(format!(
                "server counted {} session errors, {} rejected scans, {} shed sessions",
                s.session_errors, s.scans_rejected, s.shed_sessions
            ));
        }
    }
    if !complaints.is_empty() {
        // A failed oracle fails every op of the round.
        failed = attempted;
        complaints.iter().for_each(|c| println!("note {c}"));
    }
    let rss_peak = procstat::rss_peak_mb();

    // End-to-end metrics, from the untraced slices.
    let point_rates = rates(&outs, Role::Point, false);
    let point_lat = latencies(&outs, Role::Point);
    let has_scan = (0..THREADS).any(|t| w.role(t) == Role::Scan);
    let (scan_rates, scan_lat) = if has_scan {
        (
            rates(&outs, Role::Scan, false),
            latencies(&outs, Role::Scan),
        )
    } else {
        // No scan stream: a point op is a scan of one key.
        (point_rates.clone(), point_lat.clone())
    };
    let q = |h: &Hist, q: f64| h.quantile(q).unwrap_or(0.0);
    let e2e: BTreeMap<&str, f64> = BTreeMap::from([
        ("ops_per_s", median(&point_rates)),
        ("p50_ns", q(&point_lat, 0.5)),
        ("p99_ns", q(&point_lat, 0.99)),
        ("scan_keys_per_s", median(&scan_rates)),
        ("scan_p50_ns", q(&scan_lat, 0.5)),
        ("scan_p99_ns", q(&scan_lat, 0.99)),
        ("setup_s", setup_s),
    ]);
    for m in END_TO_END {
        emit(m.name, e2e[m.name], m.unit);
    }

    // Ungated extras: the tail the sample supports, and the pool counters
    // (reading them costs nothing, so the measured rounds report them too).
    if let Some((pct, v)) = point_lat.highest_supported() {
        emit(&format!("x.tail_p{pct}_ns"), v, "ns");
    }
    emit("x.latency_samples", point_lat.count() as f64, "count");
    emit("x.slice_iqr_share", iqr_share(&point_rates), "share");
    // Work done over a window, from its per-slice rates.
    let units = |rates: &[f64]| rates.iter().sum::<f64>() * SLICE.as_secs_f64();
    let point_ops = units(&point_rates);
    let per_op = |n: u64| n as f64 / point_ops.max(1.0);
    let pool = at_b.pool.delta_since(&at_a.pool);
    let pool_metrics = [
        ("llx-scx.scx_allocs_per_op", per_op(pool.hits + pool.misses)),
        ("llx-scx.pool_hit_rate", pool.hit_rate().unwrap_or(0.0)),
        ("llx-scx.pool_defers_per_op", per_op(pool.defers)),
        ("llx-scx.pool_handoffs_per_op", per_op(pool.handoffs)),
    ];
    if !args.trace {
        for (name, v) in pool_metrics {
            emit(&format!("x.{name}"), v, "count");
        }
        teardown(rig);
        println!("result {attempted} {failed}");
        return Ok(());
    }

    let mut layer = Layers::new();
    pool_metrics
        .iter()
        .for_each(|&(name, v)| layer.set(name, v));

    // Spans of the traced slices, summed over the threads.
    let tracers: Vec<Tracer> = outs.iter_mut().filter_map(|o| o.tracer.take()).collect();
    let span_ns = |kind: SpanKind| tracers.iter().map(|t| t.total(kind).ns).sum::<u64>() as f64;
    let span_p50 = |kind: SpanKind| {
        let mut h = Hist::new();
        tracers.iter().for_each(|t| h.merge(&t.total(kind).hist));
        q(&h, 0.5)
    };
    // An "op" of a loopback workload: a point reply, or one key delivered
    // by a scan.
    let scan_keys = if has_scan { units(&scan_rates) } else { 0.0 };
    let items_u = (point_ops + scan_keys).max(1.0);
    let items_t =
        (units(&rates(&outs, Role::Point, true)) + units(&rates(&outs, Role::Scan, true))).max(1.0);
    if w.is_net() {
        layer.set("netsvc.send_ns_per_op", span_ns(SpanKind::Send) / items_t);
        layer.set("netsvc.flush_ns_per_op", span_ns(SpanKind::Flush) / items_t);
        layer.set("netsvc.recv_ns_per_op", span_ns(SpanKind::Recv) / items_t);
        let (batches, ops) = (
            at_b.batches.0 - at_a.batches.0,
            at_b.batches.1 - at_a.batches.1,
        );
        layer.set("netsvc.batch_mean_ops", ops as f64 / batches.max(1) as f64);
        let server_cpu = at_b.proc.server.since(at_a.proc.server).run_ns as f64;
        let client_cpu = at_b.proc.load.since(at_a.proc.load).run_ns as f64;
        layer.set("netsvc.server_cpu_ns_per_op", server_cpu / items_u);
        layer.set("netsvc.client_cpu_ns_per_op", client_cpu / items_u);
        layer.set("netsvc.rtt_p50_ns", rtt_p50);
        layer.set("netsvc.p99_ns", q(&point_lat, 0.99));
        if has_scan {
            let scanners = || outs.iter().filter(|o| o.role == Role::Scan);
            let scans = scanners().map(|o| o.attempted).sum::<u64>().max(1) as f64;
            let first: u64 = scanners().map(|o| o.first_window_ns).sum();
            let frames: u64 = scanners().map(|o| o.frames).sum();
            layer.set("netsvc.scan_first_window_ns", first as f64 / scans);
            layer.set("netsvc.scan_frames_per_scan", frames as f64 / scans);
        }
        let s = net_stats.expect("a loopback run has a server");
        layer.set("netsvc.session_errors", s.session_errors as f64);
        layer.set("netsvc.scans_rejected", s.scans_rejected as f64);
        layer.set("netsvc.shed_sessions", s.shed_sessions as f64);
    }
    let user = at_b.proc.user_ticks.saturating_sub(at_a.proc.user_ticks) as f64;
    let sys = at_b.proc.sys_ticks.saturating_sub(at_a.proc.sys_ticks) as f64;
    layer.set("netsvc.sys_cpu_share", sys / (user + sys).max(1.0));
    let all = at_b.proc.all.since(at_a.proc.all);
    layer.set("proc.cpu_ns_per_op", all.run_ns as f64 / items_u);
    layer.set(
        "proc.runq_wait_share",
        all.wait_ns as f64 / (all.run_ns + all.wait_ns).max(1) as f64,
    );
    layer.set("proc.rss_peak_mb", rss_peak);
    layer.set("proc.host_spin_ref", spin_ref);
    layer.set("crossbeam-epoch.queued_reclaims_max", queued_max as f64);
    layer.set("crossbeam-epoch.drain_ms", drain.as_secs_f64() * 1e3);
    layer.set(
        "bench.trace_overhead_share",
        1.0 - (items_t / traced_n as f64) / (items_u / untraced_n as f64),
    );
    layer.set("bench.slice_iqr_share", iqr_share(&point_rates));
    let scan_samples = if has_scan { scan_lat.count() } else { 0 };
    layer.set(
        "bench.latency_samples",
        (point_lat.count() + scan_samples) as f64,
    );

    // Step counters of the multiset's domain over the untraced window.
    if let (Some(a), Some(b)) = (at_a.steps, at_b.steps) {
        let d = b.diff(&a);
        layer.set("llx-scx.llx_per_op", per_op(d.llx_attempts));
        layer.set("llx-scx.scx_per_op", per_op(d.scx_attempts));
        layer.set(
            "llx-scx.scx_abort_share",
            d.scx_aborts as f64 / d.scx_attempts.max(1) as f64,
        );
        layer.set(
            "llx-scx.llx_fail_share",
            d.llx_fails as f64 / d.llx_attempts.max(1) as f64,
        );
        layer.set("llx-scx.helps_per_op", per_op(d.helps));
    }

    // Per-kind op times (p50 of the traced spans), in-process only: over
    // the wire the structure's ops are not visible from outside.
    if !w.is_net() {
        if w.on_multiset() {
            layer.set("multiset.insert_ns", span_p50(SpanKind::Insert));
            layer.set("multiset.remove_ns", span_p50(SpanKind::Remove));
        } else {
            layer.set("trees.get_ns", span_p50(SpanKind::Get));
            layer.set("trees.insert_ns", span_p50(SpanKind::Insert));
            layer.set("trees.remove_ns", span_p50(SpanKind::Remove));
        }
    }

    // Write the trace, then free the run before the probes.
    std::fs::create_dir_all(&args.out_dir).map_err(|e| format!("out dir: {e}"))?;
    let path = args.out_dir.join(format!("trace-{}.json", w.name()));
    std::fs::write(&path, trace::to_json(w.name(), args.seed, &tracers))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("note trace written to {}", path.display());
    drop(tracers);
    let tape = std::mem::take(&mut rig.point_tapes[w.point_thread()]);
    let scan_tape = has_scan.then(|| std::mem::take(&mut rig.scan_tapes[0]));
    teardown(rig);

    // The ladder and the fixed probes, single-threaded, after the load.
    let ladder = probes::ladder(w, &tape);
    layer.set("conc-set.dyn_ns_per_op", ladder.dyn_ns);
    layer.set("conc-set.sharded_ns_per_op", ladder.sharded_ns);
    layer.set("netsvc.codec_ns_per_op", ladder.codec_ns);
    layer.set("llx-scx.cas_per_commit", ladder.cas_per_commit);
    layer.set("llx-scx.writes_per_commit", ladder.writes_per_commit);
    // Two threads against one, through the same `dyn` calls.
    let scaling = median(&point_rates) * ladder.dyn_ns / 1e9;
    if w.on_multiset() {
        layer.set("multiset.direct_ns_per_op", ladder.direct_ns);
        layer.set("multiset.scaling_2t", scaling);
    } else {
        layer.set("trees.direct_ns_per_op", ladder.direct_ns);
        layer.set("trees.height", ladder.height as f64);
        if !w.is_net() {
            layer.set("trees.scaling_2t", scaling);
        }
    }
    if w == Workload::NetPipe {
        // The wire tax: CPU both sides spend per request beyond what the
        // same request costs through the sharded facade in-process.
        let cpu =
            layer.get("netsvc.server_cpu_ns_per_op") + layer.get("netsvc.client_cpu_ns_per_op");
        layer.set("netsvc.self_ns_per_op", cpu - ladder.sharded_ns);
    }
    if let Some(scan_tape) = scan_tape {
        let (ns_per_key, retry_share) = probes::scan_probe(w, &scan_tape, &tape, SCAN_PROBE);
        layer.set("conc-set.scan_ns_per_key", ns_per_key);
        layer.set("conc-set.scan_retry_share", retry_share);
    }
    layer.set("crossbeam-epoch.pin_ns", probes::pin_ns());
    layer.set("llx-scx.llx_scx_ns", probes::llx_scx_ns());
    for m in PER_LAYER {
        emit(m.name, layer.get(m.name), m.unit);
    }
    println!("result {attempted} {failed}");
    Ok(())
}

/// The child measures only in the environment the parent pinned.
fn check_environment() -> Result<(), String> {
    for (key, value) in std::env::vars() {
        let pinned = key == "LLX_SHARD_DOMAIN" && value == SHARD_DOMAIN.to_string();
        if (key.starts_with("LLX_") || key.starts_with("PROPTEST_")) && !pinned {
            return Err(format!(
                "{key} is set: the child must be started by the parent, which pins the environment"
            ));
        }
    }
    if std::env::var("LLX_SHARD_DOMAIN").is_err() {
        return Err("LLX_SHARD_DOMAIN is not pinned: start the child through the parent".into());
    }
    Ok(())
}
