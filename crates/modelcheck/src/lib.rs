//! Deterministic schedule exploration for the LLX/SCX concurrency core.
//!
//! This crate provides three cooperating pieces, in the spirit of loom/CHESS:
//!
//! 1. **Instrumented sync types** ([`sync`]): drop-in wrappers around
//!    `std::sync::atomic` types plus a scheduler-aware `Mutex`. Outside a
//!    model execution they pass straight through to std. Inside one, every
//!    atomic operation is a *preemption point*: the thread hands control to
//!    the controller, which decides who runs next.
//! 2. **A lockstep scheduler + DFS explorer** ([`Explorer`]): runs N real OS
//!    threads one-at-a-time via a handshake, records the choice made at each
//!    preemption point, and systematically re-executes the scenario with
//!    different choices (prefix replay) until every schedule within a
//!    *preemption bound* has been enumerated.
//! 3. **A vector-clock happens-before checker** (the `hb` module): each store
//!    is logged as `(thread, vector-timestamp, value)`; acquire loads and
//!    SeqCst operations merge release edges into per-thread clocks; a load
//!    that observes a store not ordered before it by happens-before is
//!    flagged as an ordering warning.
//!
//! The concurrency crates route their atomics through a `crate::sync` facade
//! that re-exports std normally and these types under `--cfg llx_model`, so
//! the production code is byte-identical unless the model cfg is on.
//!
//! Executions are *sequentially consistent*: the scheduler serializes every
//! instrumented operation, so weak-memory reorderings are not explored. The
//! happens-before checker compensates by flagging loads whose justification
//! relies on the accidental SC ordering rather than declared acquire/release
//! edges — those are the interleavings a weak machine could break.

use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex as StdMutex, OnceLock};

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// A vector timestamp: one logical-clock component per model thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VClock(Vec<u64>);

impl VClock {
    fn tick(&mut self, tid: usize) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    /// `self ≤ other` component-wise: every event in `self` is known to `other`.
    fn leq(&self, other: &VClock) -> bool {
        self.0
            .iter()
            .enumerate()
            .all(|(i, &v)| v <= other.0.get(i).copied().unwrap_or(0))
    }
}

// ---------------------------------------------------------------------------
// Happens-before checker state
// ---------------------------------------------------------------------------

use std::sync::atomic::Ordering;

#[derive(Clone, Debug)]
struct StoreInfo {
    tid: usize,
    clock: VClock,
    value: u64,
    ord: Ordering,
}

#[derive(Default)]
struct LocState {
    /// Join of the clocks of all release-or-stronger stores to this location.
    release: VClock,
    last_store: Option<StoreInfo>,
}

struct Hb {
    clocks: Vec<VClock>,
    /// Clock joined by every SeqCst access; models the single total order S.
    sc: VClock,
    locs: HashMap<usize, LocState>,
    /// Deduplicated (location, store-tid, load-tid) triples already reported.
    reported: std::collections::HashSet<(usize, usize, usize)>,
    warnings: Vec<String>,
}

impl Hb {
    fn new(nthreads: usize) -> Self {
        Hb {
            clocks: vec![VClock::default(); nthreads],
            sc: VClock::default(),
            locs: HashMap::new(),
            reported: std::collections::HashSet::new(),
            warnings: Vec::new(),
        }
    }

    fn is_acquire(ord: Ordering) -> bool {
        matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
    }

    fn is_release(ord: Ordering) -> bool {
        matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
    }

    fn store(&mut self, tid: usize, loc: usize, value: u64, ord: Ordering) {
        self.clocks[tid].tick(tid);
        if ord == Ordering::SeqCst {
            self.clocks[tid].join(&self.sc.clone());
            self.sc.join(&self.clocks[tid]);
        }
        let entry = self.locs.entry(loc).or_default();
        if Self::is_release(ord) {
            entry.release.join(&self.clocks[tid]);
        } else {
            // A relaxed store interrupts any release sequence from this
            // location for the purposes of this (conservative) checker.
            entry.release = VClock::default();
        }
        entry.last_store = Some(StoreInfo {
            tid,
            clock: self.clocks[tid].clone(),
            value,
            ord,
        });
    }

    fn load(&mut self, tid: usize, loc: usize, ord: Ordering) {
        self.clocks[tid].tick(tid);
        if ord == Ordering::SeqCst {
            self.clocks[tid].join(&self.sc.clone());
            self.sc.join(&self.clocks[tid]);
        }
        let entry = self.locs.entry(loc).or_default();
        if Self::is_acquire(ord) {
            let rel = entry.release.clone();
            self.clocks[tid].join(&rel);
        }
        if let Some(st) = &entry.last_store {
            if st.tid != tid && !st.clock.leq(&self.clocks[tid]) {
                // The executed (SC) order delivered this value, but no
                // happens-before edge justifies the thread seeing it.
                if self.reported.insert((loc, st.tid, tid)) {
                    self.warnings.push(format!(
                        "load@{loc:#x} by t{tid} (ord {ord:?}) observes store of {} by t{} \
                         (ord {:?}) without a happens-before edge",
                        st.value, st.tid, st.ord
                    ));
                }
            }
        }
    }

    fn rmw(&mut self, tid: usize, loc: usize, value: u64, ord: Ordering) {
        self.load(tid, loc, ord);
        self.store(tid, loc, value, ord);
    }

    fn fence(&mut self, tid: usize, ord: Ordering) {
        self.clocks[tid].tick(tid);
        if ord == Ordering::SeqCst {
            self.clocks[tid].join(&self.sc.clone());
            self.sc.join(&self.clocks[tid]);
        }
    }
}

// ---------------------------------------------------------------------------
// Lockstep scheduler
// ---------------------------------------------------------------------------

thread_local! {
    static TID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
    /// Set once a worker's body has returned: its TLS destructors are
    /// running, where an abort must not unwind (a panic there aborts the
    /// process), so they run on unscheduled instead.
    static EXITING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Unwind a worker at a preemption point of an aborted execution,
/// unless it is already unwinding or running its TLS destructors: a
/// second panic there would abort the process, so those operations run
/// unscheduled.
fn abort_unwind() {
    if !std::thread::panicking() && !EXITING.with(|e| e.get()) {
        panic::panic_any(ModelAbort);
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TStatus {
    /// Waiting at a preemption point for the controller to grant a turn.
    Waiting,
    /// Currently holds the (single) turn.
    Running,
    /// Spinning on a model mutex held by someone else.
    BlockedOn(usize),
    Finished,
}

/// Panic payload used to unwind workers when an execution is aborted
/// (step-limit exceeded, or another thread already failed).
struct ModelAbort;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Turn {
    Controller,
    Worker(usize),
}

struct SchedState {
    active: bool,
    turn: Turn,
    status: Vec<TStatus>,
    /// A turn grant not yet consumed by an instrumented op. Decouples the
    /// controller's decision from OS-thread startup timing: the grant waits
    /// for the worker, so the decision trace is deterministic.
    granted: Vec<bool>,
    /// Set when the controller wants every worker to unwind at its next
    /// preemption point.
    abort: bool,
    hb: Option<Hb>,
}

struct Sched {
    state: StdMutex<SchedState>,
    cv: Condvar,
}

fn sched() -> &'static Sched {
    static S: OnceLock<Sched> = OnceLock::new();
    S.get_or_init(|| Sched {
        state: StdMutex::new(SchedState {
            active: false,
            turn: Turn::Controller,
            status: Vec::new(),
            granted: Vec::new(),
            abort: false,
            hb: None,
        }),
        cv: Condvar::new(),
    })
}

/// Is the current thread a registered model worker in an active execution?
fn model_tid() -> Option<usize> {
    TID.with(|t| t.get())
}

/// Block until `pred` on the scheduler state holds, then run `f` under the lock.
fn with_state_when<R>(
    pred: impl Fn(&SchedState) -> bool,
    f: impl FnOnce(&mut SchedState) -> R,
) -> R {
    let s = sched();
    let mut guard = s.state.lock().unwrap_or_else(|e| e.into_inner());
    while !pred(&guard) {
        guard = s.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
    }
    let r = f(&mut guard);
    s.cv.notify_all();
    r
}

/// Worker side: the preemption point before every instrumented operation.
///
/// If the thread holds the turn with its grant already consumed (it just ran
/// an op), hand the turn back as `Waiting`; then wait for a fresh grant and
/// consume it. A grant issued before the thread reached this point (e.g.
/// during startup) is consumed directly, so the controller's decision trace
/// does not depend on OS-thread timing.
fn yield_point(tid: usize) {
    let s = sched();
    let mut g = s.state.lock().unwrap_or_else(|e| e.into_inner());
    if !g.active {
        return;
    }
    if g.turn == Turn::Worker(tid) && !g.granted[tid] {
        g.status[tid] = TStatus::Waiting;
        g.turn = Turn::Controller;
        s.cv.notify_all();
    }
    while g.active && !g.abort && !(g.turn == Turn::Worker(tid) && g.granted[tid]) {
        g = s.cv.wait(g).unwrap_or_else(|e| e.into_inner());
    }
    let abort = g.active && g.abort;
    if !abort && g.active {
        g.granted[tid] = false;
    }
    drop(g);
    if abort {
        abort_unwind();
    }
}

/// Worker side: a `try_lock` failed. Hand the turn back as `BlockedOn(addr)`
/// so the controller deprioritizes this thread until the mutex is released,
/// then wait for (and consume) a fresh grant before retrying.
fn block_on_mutex(tid: usize, addr: usize) {
    let s = sched();
    let mut g = s.state.lock().unwrap_or_else(|e| e.into_inner());
    if !g.active {
        drop(g);
        std::thread::yield_now();
        return;
    }
    if g.turn == Turn::Worker(tid) {
        g.status[tid] = TStatus::BlockedOn(addr);
        g.turn = Turn::Controller;
        s.cv.notify_all();
    }
    while g.active && !g.abort && !(g.turn == Turn::Worker(tid) && g.granted[tid]) {
        g = s.cv.wait(g).unwrap_or_else(|e| e.into_inner());
    }
    let abort = g.active && g.abort;
    if !abort && g.active {
        g.granted[tid] = false;
    }
    drop(g);
    if abort {
        abort_unwind();
    }
}

/// Worker side: a model mutex was unlocked; wake anyone blocked on it.
fn mutex_released(addr: usize) {
    if model_tid().is_none() {
        return;
    }
    let s = sched();
    let mut guard = s.state.lock().unwrap_or_else(|e| e.into_inner());
    if !guard.active {
        return;
    }
    for st in guard.status.iter_mut() {
        if *st == TStatus::BlockedOn(addr) {
            *st = TStatus::Waiting;
        }
    }
    s.cv.notify_all();
}

/// Record an operation with the happens-before checker (turn is held, so
/// access to the shared state is serialized).
enum HbOp {
    Load(Ordering),
    Store(u64, Ordering),
    Rmw(u64, Ordering),
    Fence(Ordering),
}

fn hb_record(tid: usize, loc: usize, op: HbOp) {
    let s = sched();
    let mut guard = s.state.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(hb) = guard.hb.as_mut() {
        match op {
            HbOp::Load(ord) => hb.load(tid, loc, ord),
            HbOp::Store(v, ord) => hb.store(tid, loc, v, ord),
            HbOp::Rmw(v, ord) => hb.rmw(tid, loc, v, ord),
            HbOp::Fence(ord) => hb.fence(tid, ord),
        }
    }
}

/// Called by every instrumented atomic op before touching memory.
/// Returns the tid when the op should also be HB-recorded.
fn pre_op() -> Option<usize> {
    let tid = model_tid()?;
    yield_point(tid);
    Some(tid)
}

// ---------------------------------------------------------------------------
// DFS exploration
// ---------------------------------------------------------------------------

/// One execution of a scenario: thread bodies plus an optional post-join check.
pub struct Execution {
    pub threads: Vec<Box<dyn FnOnce() + Send>>,
    pub check: Option<Box<dyn FnOnce()>>,
}

impl Execution {
    pub fn new(threads: Vec<Box<dyn FnOnce() + Send>>) -> Self {
        Execution {
            threads,
            check: None,
        }
    }

    pub fn with_check(mut self, check: impl FnOnce() + 'static) -> Self {
        self.check = Some(Box::new(check));
        self
    }
}

/// A schedule that violated an assertion, plus the decision trace to replay it.
#[derive(Clone, Debug)]
pub struct Failure {
    pub schedule: Vec<usize>,
    pub message: String,
}

/// Outcome of exhausting (or capping) the schedule space of one scenario.
#[derive(Debug, Default)]
pub struct Report {
    /// Complete schedules executed.
    pub schedules: u64,
    /// Schedules cut off by the per-execution step limit.
    pub abandoned: u64,
    /// Assertion failures, with their decision traces.
    pub failures: Vec<Failure>,
    /// True when the DFS ran out of untried branches (i.e. every schedule
    /// within the preemption bound was covered) rather than hitting a cap.
    pub exhaustive: bool,
    /// Happens-before warnings (advisory; deduplicated across schedules).
    pub warnings: Vec<String>,
}

impl Report {
    /// Panic unless the space was fully enumerated with zero failures.
    pub fn assert_clean(&self, name: &str) {
        assert!(
            self.failures.is_empty(),
            "model scenario `{name}`: {} failing schedule(s); first: {:?}",
            self.failures.len(),
            self.failures[0]
        );
        assert!(
            self.exhaustive,
            "model scenario `{name}`: exploration hit a cap before exhausting the space \
             ({} schedules, {} abandoned)",
            self.schedules, self.abandoned
        );
        assert!(
            self.schedules > 0,
            "model scenario `{name}`: ran no schedules"
        );
    }
}

/// A DFS branch point: the decision prefix leading here and the alternative
/// choices not yet taken.
struct Frame {
    prefix: Vec<usize>,
    choices: Vec<usize>,
    next: usize,
}

/// Deterministic schedule explorer with a preemption bound.
pub struct Explorer {
    /// Max number of *voluntary* context switches (switching away from a
    /// thread that could continue) per schedule. Forced switches are free.
    pub bound: usize,
    /// Per-execution instrumented-op limit; schedules exceeding it are
    /// counted as `abandoned` (typically a spin loop the bound cut short).
    pub max_steps: u64,
    /// Global cap on executed schedules (0 = unlimited).
    pub max_schedules: u64,
    /// Consecutive steps one thread may run before the controller forces a
    /// free round-robin switch; keeps SC spin loops from starving the peer
    /// they are waiting on.
    pub starvation_limit: u32,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            bound: 2,
            max_steps: 20_000,
            max_schedules: 0,
            starvation_limit: 256,
        }
    }
}

/// Serializes explorations process-wide: the scheduler/HB state is global.
fn explore_lock() -> &'static StdMutex<()> {
    static L: OnceLock<StdMutex<()>> = OnceLock::new();
    L.get_or_init(|| StdMutex::new(()))
}

impl Explorer {
    /// Build an explorer from the environment: `LLX_MODEL_BOUND` (default 2)
    /// caps voluntary preemptions per schedule, `LLX_MODEL_STEPS` and
    /// `LLX_MODEL_SCHEDULES` cap execution length and schedule count.
    pub fn from_env() -> Self {
        fn env_usize(k: &str, d: usize) -> usize {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        }
        Explorer {
            bound: env_usize("LLX_MODEL_BOUND", 2),
            max_steps: env_usize("LLX_MODEL_STEPS", 20_000) as u64,
            max_schedules: env_usize("LLX_MODEL_SCHEDULES", 0) as u64,
            starvation_limit: 256,
        }
    }

    /// Exhaustively enumerate schedules of the scenario produced by `factory`.
    ///
    /// `factory` is called once per schedule and must return a fresh
    /// [`Execution`] over fresh shared state. Exploration stops at the first
    /// failing schedule (its decision trace is in the report), when the DFS
    /// frontier empties (`exhaustive = true`), or at `max_schedules`.
    pub fn explore<F>(&self, _name: &str, mut factory: F) -> Report
    where
        F: FnMut() -> Execution,
    {
        let _serial = explore_lock().lock().unwrap_or_else(|e| e.into_inner());

        // Suppress the default "thread panicked" spew for model workers:
        // worker panics are captured and reported through the Report.
        let prev_hook = panic::take_hook();
        panic::set_hook(Box::new(|info| {
            if model_tid().is_none() {
                // Not a model worker (e.g. the test harness itself).
                eprintln!("{info}");
            }
        }));

        let mut report = Report::default();
        let mut stack: Vec<Frame> = Vec::new();
        let mut prefix: Vec<usize> = Vec::new();
        let mut warn_seen = std::collections::HashSet::new();

        loop {
            let exec = factory();
            let outcome = self.run_one(exec, &prefix, &mut stack);
            report.schedules += 1;
            if outcome.abandoned {
                report.abandoned += 1;
            }
            for w in outcome.warnings {
                if warn_seen.insert(w.clone()) {
                    report.warnings.push(w);
                }
            }
            if let Some(msg) = outcome.failure {
                report.failures.push(Failure {
                    schedule: outcome.trace,
                    message: msg,
                });
                break;
            }
            if self.max_schedules > 0 && report.schedules >= self.max_schedules {
                break;
            }
            // Advance the DFS: find the deepest frame with an untried choice.
            loop {
                match stack.last_mut() {
                    None => {
                        report.exhaustive = true;
                        break;
                    }
                    Some(f) if f.next < f.choices.len() => {
                        prefix = f.prefix.clone();
                        prefix.push(f.choices[f.next]);
                        f.next += 1;
                        break;
                    }
                    Some(_) => {
                        stack.pop();
                    }
                }
            }
            if report.exhaustive {
                break;
            }
        }

        panic::set_hook(prev_hook);
        report.warnings.sort();
        report
    }

    /// Convenience: explore and panic unless clean (fixed-semantics tests).
    pub fn check<F>(&self, name: &str, factory: F) -> Report
    where
        F: FnMut() -> Execution,
    {
        let r = self.explore(name, factory);
        r.assert_clean(name);
        r
    }
}

struct Outcome {
    trace: Vec<usize>,
    failure: Option<String>,
    abandoned: bool,
    warnings: Vec<String>,
}

impl Explorer {
    fn run_one(&self, exec: Execution, prefix: &[usize], stack: &mut Vec<Frame>) -> Outcome {
        let n = exec.threads.len();
        assert!(n >= 1, "model execution needs at least one thread");

        // Arm the scheduler.
        {
            let s = sched();
            let mut st = s.state.lock().unwrap_or_else(|e| e.into_inner());
            st.active = true;
            st.abort = false;
            st.turn = Turn::Controller;
            st.status = vec![TStatus::Waiting; n];
            st.granted = vec![false; n];
            st.hb = Some(Hb::new(n));
        }

        // Failure slot shared with workers via the panic capture below.
        let failures: std::sync::Arc<StdMutex<Vec<String>>> =
            std::sync::Arc::new(StdMutex::new(Vec::new()));

        let mut handles = Vec::with_capacity(n);
        for (i, body) in exec.threads.into_iter().enumerate() {
            let failures = failures.clone();
            let h = std::thread::Builder::new()
                .name(format!("model-w{i}-exit"))
                .spawn(move || {
                    // The body runs on an inner thread whose exit is part
                    // of this worker's schedule: its TLS destructors (the
                    // epoch shim orphaning leftover closures, the pool
                    // folding its counters) run under the worker's TID
                    // before the worker reports Finished, so what they
                    // publish is ordered like any other step.
                    let inner = std::thread::Builder::new().name(format!("model-w{i}"));
                    let _ = std::thread::scope(|s| {
                        inner
                            .spawn_scoped(s, || {
                                TID.with(|t| t.set(Some(i)));
                                // No initial handshake: the first
                                // instrumented op is the first preemption
                                // point and consumes the first grant.
                                let r = panic::catch_unwind(AssertUnwindSafe(body));
                                EXITING.with(|e| e.set(true));
                                if let Err(payload) = r {
                                    if !payload.is::<ModelAbort>() {
                                        let msg = panic_message(payload);
                                        failures
                                            .lock()
                                            .unwrap_or_else(|e| e.into_inner())
                                            .push(msg);
                                    }
                                }
                            })
                            .expect("spawn model worker")
                            .join()
                    });
                    with_state_when(
                        |_| true,
                        |st| {
                            st.status[i] = TStatus::Finished;
                            if i < st.granted.len() {
                                st.granted[i] = false;
                            }
                            if st.turn == Turn::Worker(i) {
                                st.turn = Turn::Controller;
                            }
                        },
                    );
                })
                .expect("spawn model worker");
            handles.push(h);
        }

        // Controller loop.
        let mut trace: Vec<usize> = Vec::new();
        let mut preemptions = 0usize;
        let mut last: Option<usize> = None;
        let mut run_len = 0u32;
        let mut steps = 0u64;
        let mut abandoned = false;
        let mut diverged = false;

        loop {
            // Wait until we hold the turn and every thread is parked in a
            // decidable state (waiting / blocked / finished).
            let snapshot = with_state_when(
                |st| {
                    st.turn == Turn::Controller
                        && st.status.iter().all(|s| !matches!(s, TStatus::Running))
                },
                |st| st.status.clone(),
            );

            // Stop at the first recorded failure and unwind the rest,
            // unscheduled, as for an abandoned execution. Checked here,
            // with every worker parked or finished (a worker records its
            // failure before it reports Finished), so the failing schedule
            // ends at the same step on every run; a check right after a
            // grant would race the granted worker.
            if !failures
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty()
            {
                with_state_when(|_| true, |st| st.abort = true);
                break;
            }

            let enabled: Vec<usize> = snapshot
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, TStatus::Waiting))
                .map(|(i, _)| i)
                .collect();
            let unfinished = snapshot.iter().any(|s| !matches!(s, TStatus::Finished));

            if !unfinished {
                break;
            }

            if enabled.is_empty() {
                // Everyone left is blocked on a mutex. Re-enable them all:
                // the holder may be a descheduled model thread (it will run
                // and release) or — defensively — a non-model thread.
                let any_blocked = with_state_when(
                    |st| st.turn == Turn::Controller,
                    |st| {
                        let mut any = false;
                        for s in st.status.iter_mut() {
                            if matches!(s, TStatus::BlockedOn(_)) {
                                *s = TStatus::Waiting;
                                any = true;
                            }
                        }
                        any
                    },
                );
                if !any_blocked {
                    // Nothing enabled, nothing blocked, yet unfinished
                    // threads remain: they are mid-handshake; loop again.
                    continue;
                }
                continue;
            }

            if steps >= self.max_steps {
                abandoned = true;
                break;
            }

            // Choose who runs this step.
            let step = trace.len();
            let replaying = !diverged && step < prefix.len();
            let chosen = if replaying && enabled.contains(&prefix[step]) {
                prefix[step]
            } else {
                if replaying {
                    // The schedule shifted under a prior thread's changed
                    // behaviour; fall back to the default policy from here.
                    diverged = true;
                }
                let may_preempt = match last {
                    Some(l) if enabled.contains(&l) => {
                        run_len >= self.starvation_limit || preemptions < self.bound
                    }
                    _ => true,
                };
                let default = match last {
                    Some(l) if enabled.contains(&l) && run_len < self.starvation_limit => l,
                    Some(l) => *enabled.iter().find(|&&t| t > l).unwrap_or(&enabled[0]),
                    None => enabled[0],
                };
                // Branch: record untried alternatives, but only when taking
                // them would respect the preemption bound.
                if !replaying && may_preempt && run_len < self.starvation_limit {
                    let alts: Vec<usize> =
                        enabled.iter().copied().filter(|&t| t != default).collect();
                    if !alts.is_empty() {
                        stack.push(Frame {
                            prefix: trace.clone(),
                            choices: alts,
                            next: 0,
                        });
                    }
                }
                default
            };

            if let Some(l) = last {
                if chosen != l && enabled.contains(&l) {
                    preemptions += 1;
                }
            }
            run_len = if last == Some(chosen) { run_len + 1 } else { 1 };
            last = Some(chosen);
            trace.push(chosen);
            steps += 1;

            // Grant the turn and let the worker run to its next yield.
            with_state_when(
                |st| st.turn == Turn::Controller,
                |st| {
                    st.status[chosen] = TStatus::Running;
                    st.granted[chosen] = true;
                    st.turn = Turn::Worker(chosen);
                },
            );
        }

        if abandoned {
            // Unwind every still-parked worker.
            with_state_when(|_| true, |st| st.abort = true);
        }

        for h in handles {
            let _ = h.join();
        }

        // Disarm and harvest HB warnings.
        let warnings = {
            let s = sched();
            let mut st = s.state.lock().unwrap_or_else(|e| e.into_inner());
            st.active = false;
            st.abort = false;
            st.turn = Turn::Controller;
            st.status.clear();
            st.granted.clear();
            st.hb.take().map(|h| h.warnings).unwrap_or_default()
        };

        let mut failure = {
            let mut f = failures.lock().unwrap_or_else(|e| e.into_inner());
            let first = f.drain(..).next();
            first
        };

        // Post-join invariant check runs uninstrumented on this thread.
        if failure.is_none() && !abandoned {
            if let Some(check) = exec.check {
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(check)) {
                    failure = Some(panic_message(payload));
                }
            }
        }

        Outcome {
            trace,
            failure,
            abandoned,
            warnings,
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

// ---------------------------------------------------------------------------
// Instrumented sync types
// ---------------------------------------------------------------------------

/// Scheduler-instrumented drop-in replacements for `std::sync` primitives.
///
/// Each operation (a) yields to the lockstep scheduler when called from a
/// registered model worker, making it a preemption point, and (b) feeds the
/// happens-before checker with the *declared* ordering while executing the
/// real operation at SeqCst (the model explores SC interleavings; the checker
/// reports where the declared orderings would not justify what was observed).
pub mod sync {
    pub use std::sync::atomic::Ordering;

    use super::{hb_record, model_tid, pre_op, HbOp};

    /// Instrumented `fence`: a preemption point plus an SC-clock join.
    pub fn fence(ord: Ordering) {
        if let Some(tid) = pre_op() {
            std::sync::atomic::fence(ord);
            hb_record(tid, 0, HbOp::Fence(ord));
        } else {
            std::sync::atomic::fence(ord);
        }
    }

    macro_rules! int_atomic {
        ($name:ident, $raw:ty, $prim:ty) => {
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $raw,
            }

            impl $name {
                pub const fn new(v: $prim) -> Self {
                    Self {
                        inner: <$raw>::new(v),
                    }
                }

                #[inline]
                fn loc(&self) -> usize {
                    self as *const _ as usize
                }

                pub fn load(&self, ord: Ordering) -> $prim {
                    if let Some(tid) = pre_op() {
                        let v = self.inner.load(Ordering::SeqCst);
                        hb_record(tid, self.loc(), HbOp::Load(ord));
                        v
                    } else {
                        self.inner.load(ord)
                    }
                }

                pub fn store(&self, v: $prim, ord: Ordering) {
                    if let Some(tid) = pre_op() {
                        self.inner.store(v, Ordering::SeqCst);
                        hb_record(tid, self.loc(), HbOp::Store(v as u64, ord));
                    } else {
                        self.inner.store(v, ord)
                    }
                }

                pub fn swap(&self, v: $prim, ord: Ordering) -> $prim {
                    if let Some(tid) = pre_op() {
                        let old = self.inner.swap(v, Ordering::SeqCst);
                        hb_record(tid, self.loc(), HbOp::Rmw(v as u64, ord));
                        old
                    } else {
                        self.inner.swap(v, ord)
                    }
                }

                pub fn compare_exchange(
                    &self,
                    cur: $prim,
                    new: $prim,
                    ok: Ordering,
                    err: Ordering,
                ) -> Result<$prim, $prim> {
                    if let Some(tid) = pre_op() {
                        let r = self.inner.compare_exchange(
                            cur,
                            new,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                        match r {
                            Ok(_) => hb_record(tid, self.loc(), HbOp::Rmw(new as u64, ok)),
                            // A failed CAS is a load from the HB viewpoint.
                            Err(_) => hb_record(tid, self.loc(), HbOp::Load(err)),
                        }
                        r
                    } else {
                        self.inner.compare_exchange(cur, new, ok, err)
                    }
                }

                pub fn compare_exchange_weak(
                    &self,
                    cur: $prim,
                    new: $prim,
                    ok: Ordering,
                    err: Ordering,
                ) -> Result<$prim, $prim> {
                    self.compare_exchange(cur, new, ok, err)
                }

                pub fn fetch_add(&self, v: $prim, ord: Ordering) -> $prim {
                    if let Some(tid) = pre_op() {
                        let old = self.inner.fetch_add(v, Ordering::SeqCst);
                        hb_record(tid, self.loc(), HbOp::Rmw(old.wrapping_add(v) as u64, ord));
                        old
                    } else {
                        self.inner.fetch_add(v, ord)
                    }
                }

                pub fn fetch_sub(&self, v: $prim, ord: Ordering) -> $prim {
                    if let Some(tid) = pre_op() {
                        let old = self.inner.fetch_sub(v, Ordering::SeqCst);
                        hb_record(tid, self.loc(), HbOp::Rmw(old.wrapping_sub(v) as u64, ord));
                        old
                    } else {
                        self.inner.fetch_sub(v, ord)
                    }
                }

                pub fn get_mut(&mut self) -> &mut $prim {
                    self.inner.get_mut()
                }

                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }
            }
        };
    }

    int_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    int_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    int_atomic!(AtomicIsize, std::sync::atomic::AtomicIsize, isize);
    int_atomic!(AtomicU8, std::sync::atomic::AtomicU8, u8);

    #[derive(Debug, Default)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        pub const fn new(v: bool) -> Self {
            Self {
                inner: std::sync::atomic::AtomicBool::new(v),
            }
        }

        #[inline]
        fn loc(&self) -> usize {
            self as *const _ as usize
        }

        pub fn load(&self, ord: Ordering) -> bool {
            if let Some(tid) = pre_op() {
                let v = self.inner.load(Ordering::SeqCst);
                hb_record(tid, self.loc(), HbOp::Load(ord));
                v
            } else {
                self.inner.load(ord)
            }
        }

        pub fn store(&self, v: bool, ord: Ordering) {
            if let Some(tid) = pre_op() {
                self.inner.store(v, Ordering::SeqCst);
                hb_record(tid, self.loc(), HbOp::Store(v as u64, ord));
            } else {
                self.inner.store(v, ord)
            }
        }

        pub fn swap(&self, v: bool, ord: Ordering) -> bool {
            if let Some(tid) = pre_op() {
                let old = self.inner.swap(v, Ordering::SeqCst);
                hb_record(tid, self.loc(), HbOp::Rmw(v as u64, ord));
                old
            } else {
                self.inner.swap(v, ord)
            }
        }

        pub fn compare_exchange(
            &self,
            cur: bool,
            new: bool,
            ok: Ordering,
            err: Ordering,
        ) -> Result<bool, bool> {
            if let Some(tid) = pre_op() {
                let r = self
                    .inner
                    .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst);
                match r {
                    Ok(_) => hb_record(tid, self.loc(), HbOp::Rmw(new as u64, ok)),
                    Err(_) => hb_record(tid, self.loc(), HbOp::Load(err)),
                }
                r
            } else {
                self.inner.compare_exchange(cur, new, ok, err)
            }
        }

        pub fn get_mut(&mut self) -> &mut bool {
            self.inner.get_mut()
        }
    }

    pub struct AtomicPtr<T> {
        inner: std::sync::atomic::AtomicPtr<T>,
    }

    impl<T> std::fmt::Debug for AtomicPtr<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("AtomicPtr").finish_non_exhaustive()
        }
    }

    impl<T> Default for AtomicPtr<T> {
        fn default() -> Self {
            Self::new(std::ptr::null_mut())
        }
    }

    impl<T> AtomicPtr<T> {
        pub const fn new(p: *mut T) -> Self {
            Self {
                inner: std::sync::atomic::AtomicPtr::new(p),
            }
        }

        #[inline]
        fn loc(&self) -> usize {
            self as *const _ as usize
        }

        pub fn load(&self, ord: Ordering) -> *mut T {
            if let Some(tid) = pre_op() {
                let v = self.inner.load(Ordering::SeqCst);
                hb_record(tid, self.loc(), HbOp::Load(ord));
                v
            } else {
                self.inner.load(ord)
            }
        }

        pub fn store(&self, p: *mut T, ord: Ordering) {
            if let Some(tid) = pre_op() {
                self.inner.store(p, Ordering::SeqCst);
                hb_record(tid, self.loc(), HbOp::Store(p as usize as u64, ord));
            } else {
                self.inner.store(p, ord)
            }
        }

        pub fn swap(&self, p: *mut T, ord: Ordering) -> *mut T {
            if let Some(tid) = pre_op() {
                let old = self.inner.swap(p, Ordering::SeqCst);
                hb_record(tid, self.loc(), HbOp::Rmw(p as usize as u64, ord));
                old
            } else {
                self.inner.swap(p, ord)
            }
        }

        pub fn compare_exchange(
            &self,
            cur: *mut T,
            new: *mut T,
            ok: Ordering,
            err: Ordering,
        ) -> Result<*mut T, *mut T> {
            if let Some(tid) = pre_op() {
                let r = self
                    .inner
                    .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst);
                match r {
                    Ok(_) => hb_record(tid, self.loc(), HbOp::Rmw(new as usize as u64, ok)),
                    Err(_) => hb_record(tid, self.loc(), HbOp::Load(err)),
                }
                r
            } else {
                self.inner.compare_exchange(cur, new, ok, err)
            }
        }

        pub fn compare_exchange_weak(
            &self,
            cur: *mut T,
            new: *mut T,
            ok: Ordering,
            err: Ordering,
        ) -> Result<*mut T, *mut T> {
            self.compare_exchange(cur, new, ok, err)
        }

        pub fn get_mut(&mut self) -> &mut *mut T {
            self.inner.get_mut()
        }
    }

    // -- scheduler-aware Mutex ---------------------------------------------

    use std::sync::{LockResult, PoisonError, TryLockError};

    /// A `std::sync::Mutex` wrapper that cooperates with the lockstep
    /// scheduler: inside a model execution, `lock()` spins on `try_lock`
    /// through preemption points instead of parking the OS thread, so a
    /// descheduled holder can be scheduled to release it.
    pub struct Mutex<T: ?Sized> {
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        pub const fn new(t: T) -> Self {
            Self {
                inner: std::sync::Mutex::new(t),
            }
        }
    }

    impl<T: ?Sized> Mutex<T> {
        #[inline]
        fn addr(&self) -> usize {
            self as *const _ as *const () as usize
        }

        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            let Some(tid) = model_tid() else {
                return match self.inner.lock() {
                    Ok(g) => Ok(MutexGuard {
                        guard: Some(g),
                        addr: self.addr(),
                    }),
                    Err(e) => Err(PoisonError::new(MutexGuard {
                        guard: Some(e.into_inner()),
                        addr: self.addr(),
                    })),
                };
            };
            // One preemption point per acquisition attempt: the first is a
            // plain yield, each retry waits as BlockedOn(addr) so a
            // descheduled holder can be run to release it.
            super::yield_point(tid);
            loop {
                match self.inner.try_lock() {
                    Ok(g) => {
                        return Ok(MutexGuard {
                            guard: Some(g),
                            addr: self.addr(),
                        })
                    }
                    Err(TryLockError::Poisoned(e)) => {
                        return Err(PoisonError::new(MutexGuard {
                            guard: Some(e.into_inner()),
                            addr: self.addr(),
                        }))
                    }
                    Err(TryLockError::WouldBlock) => {
                        super::block_on_mutex(tid, self.addr());
                    }
                }
            }
        }

        pub fn try_lock(&self) -> Result<MutexGuard<'_, T>, TryLockError<MutexGuard<'_, T>>> {
            if let Some(tid) = model_tid() {
                super::yield_point(tid);
            }
            match self.inner.try_lock() {
                Ok(g) => Ok(MutexGuard {
                    guard: Some(g),
                    addr: self.addr(),
                }),
                Err(TryLockError::Poisoned(e)) => {
                    Err(TryLockError::Poisoned(PoisonError::new(MutexGuard {
                        guard: Some(e.into_inner()),
                        addr: self.addr(),
                    })))
                }
                Err(TryLockError::WouldBlock) => Err(TryLockError::WouldBlock),
            }
        }

        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.inner.get_mut()
        }
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.inner.fmt(f)
        }
    }

    pub struct MutexGuard<'a, T: ?Sized> {
        guard: Option<std::sync::MutexGuard<'a, T>>,
        addr: usize,
    }

    impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.guard.as_ref().unwrap()
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.guard.as_mut().unwrap()
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            self.guard.take();
            super::mutex_released(self.addr);
        }
    }
}

// ---------------------------------------------------------------------------
// Tests: the scheduler and checker verifying themselves
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::sync::{AtomicU64, Ordering};
    use super::*;
    use std::sync::Arc;

    /// Classic store-buffer shape: under SC (which the scheduler enforces),
    /// at least one thread must see the other's store. Every schedule up to
    /// the bound must satisfy r0 + r1 >= 1.
    #[test]
    fn store_buffer_is_sc() {
        let ex = Explorer {
            bound: 3,
            ..Explorer::default()
        };
        let report = ex.check("store_buffer", || {
            let x = Arc::new(AtomicU64::new(0));
            let y = Arc::new(AtomicU64::new(0));
            let r0 = Arc::new(AtomicU64::new(9));
            let r1 = Arc::new(AtomicU64::new(9));
            let (x1, y1, r0c) = (x.clone(), y.clone(), r0.clone());
            let (x2, y2, r1c) = (x.clone(), y.clone(), r1.clone());
            Execution::new(vec![
                Box::new(move || {
                    x1.store(1, Ordering::SeqCst);
                    r0c.store(y1.load(Ordering::SeqCst), Ordering::SeqCst);
                }),
                Box::new(move || {
                    y2.store(1, Ordering::SeqCst);
                    r1c.store(x2.load(Ordering::SeqCst), Ordering::SeqCst);
                }),
            ])
            .with_check(move || {
                let a = r0.load(Ordering::Relaxed);
                let b = r1.load(Ordering::Relaxed);
                assert!(a + b >= 1, "store-buffer outcome r0=0, r1=0 under SC");
            })
        });
        // Two threads, two ops each: several schedules, all must pass.
        assert!(report.schedules >= 4, "got {} schedules", report.schedules);
    }

    /// The explorer must *find* a bug that only one interleaving exposes:
    /// a lost update from a non-atomic read-modify-write.
    #[test]
    fn finds_lost_update() {
        let ex = Explorer::default();
        let report = ex.explore("lost_update", || {
            let c = Arc::new(AtomicU64::new(0));
            let mk = |c: Arc<AtomicU64>| {
                Box::new(move || {
                    let v = c.load(Ordering::SeqCst);
                    c.store(v + 1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            };
            Execution::new(vec![mk(c.clone()), mk(c.clone())]).with_check(move || {
                assert_eq!(c.load(Ordering::Relaxed), 2, "lost update");
            })
        });
        assert!(
            !report.failures.is_empty(),
            "explorer failed to find the lost update: {report:?}"
        );
        // The failure must be deterministic: replaying is the same DFS path.
        assert!(!report.failures[0].schedule.is_empty());
    }

    /// Replay determinism: exploring the same scenario twice produces the
    /// same schedule count and the same failing trace.
    #[test]
    fn deterministic_replay() {
        let run = || {
            Explorer::default().explore("det", || {
                let c = Arc::new(AtomicU64::new(0));
                let mk = |c: Arc<AtomicU64>| {
                    Box::new(move || {
                        let v = c.load(Ordering::SeqCst);
                        c.store(v + 1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send>
                };
                Execution::new(vec![mk(c.clone()), mk(c.clone())]).with_check(move || {
                    assert_eq!(c.load(Ordering::Relaxed), 2);
                })
            })
        };
        let (a, b) = (run(), run());
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(
            a.failures.first().map(|f| f.schedule.clone()),
            b.failures.first().map(|f| f.schedule.clone())
        );
    }

    /// Message passing with Release/Acquire carries a happens-before edge:
    /// no warnings. The same shape with Relaxed must produce a warning on
    /// some schedule (the data read is not justified).
    #[test]
    fn hb_checker_flags_relaxed_message_passing() {
        let run = |store_ord: Ordering, load_ord: Ordering| {
            Explorer::default().explore("mp", move || {
                let data = Arc::new(AtomicU64::new(0));
                let flag = Arc::new(AtomicU64::new(0));
                let (d1, f1) = (data.clone(), flag.clone());
                let (d2, f2) = (data.clone(), flag.clone());
                Execution::new(vec![
                    Box::new(move || {
                        d1.store(42, Ordering::Relaxed);
                        f1.store(1, store_ord);
                    }),
                    Box::new(move || {
                        if f2.load(load_ord) == 1 {
                            let _ = d2.load(Ordering::Relaxed);
                        }
                    }),
                ])
            })
        };
        let clean = run(Ordering::Release, Ordering::Acquire);
        assert!(
            clean.warnings.is_empty(),
            "release/acquire MP should carry HB: {:?}",
            clean.warnings
        );
        let racy = run(Ordering::Relaxed, Ordering::Relaxed);
        assert!(
            !racy.warnings.is_empty(),
            "relaxed MP data read should be flagged as unjustified"
        );
    }

    /// The scheduler-aware mutex must not deadlock when a lock holder is
    /// descheduled, and must serialize critical sections.
    #[test]
    fn model_mutex_serializes() {
        use super::sync::Mutex;
        let report = Explorer::default().check("mutex", || {
            let m = Arc::new(Mutex::new(0u64));
            let mk = |m: Arc<Mutex<u64>>| {
                Box::new(move || {
                    let mut g = m.lock().unwrap();
                    *g += 1;
                }) as Box<dyn FnOnce() + Send>
            };
            let mc = m.clone();
            Execution::new(vec![mk(m.clone()), mk(m.clone())]).with_check(move || {
                assert_eq!(*mc.lock().unwrap(), 2);
            })
        });
        assert!(report.schedules >= 1);
    }

    /// Preemption bound 0 still runs (one schedule per initial thread order
    /// is not explored — run-to-completion only), and is exhaustive.
    #[test]
    fn bound_zero_is_run_to_completion() {
        let ex = Explorer {
            bound: 0,
            ..Explorer::default()
        };
        let report = ex.check("rtc", || {
            let c = Arc::new(AtomicU64::new(0));
            let mk = |c: Arc<AtomicU64>| {
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Box<dyn FnOnce() + Send>
            };
            Execution::new(vec![mk(c.clone()), mk(c.clone())])
        });
        assert!(report.exhaustive);
    }
}
