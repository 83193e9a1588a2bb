//! Experiment harness regenerating the paper's measurable claims.
//!
//! Usage: `cargo run -p bench-harness --release -- [e1|e2|e3|e6|e7|e8|compare|scanwin|chaos|all]`
//!
//! The experiment index is `--help` (the [`EXPERIMENTS`] table) and
//! README.md "Benchmarks". Latency and throughput numbers that count
//! come from the repository benchmark (`benchmark/`, BENCHMARK.json),
//! not from here.

mod experiments;
mod runner;

/// One experiment: CLI name, entry point, whether `all` runs it, and
/// its `--help` text.
struct Experiment {
    name: &'static str,
    run: fn(),
    in_all: bool,
    about: &'static str,
}

/// The dispatcher and the usage text both read this table, so a name
/// cannot be listed without being accepted or the other way round.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "e1",
        run: experiments::e1_step_complexity,
        in_all: true,
        about: "step complexity of uncontended SCX (paper §1: k+1 CAS, f+2 writes)",
    },
    Experiment {
        name: "e2",
        run: experiments::e2_disjoint_success,
        in_all: true,
        about: "disjoint SCXs all succeed (paper §3.2 progress guarantee)",
    },
    Experiment {
        name: "e3",
        run: experiments::e3_vlx_cost,
        in_all: true,
        about: "VLX cost (k reads per validation)",
    },
    Experiment {
        name: "e6",
        run: experiments::e6_progress,
        in_all: true,
        about: "progress under contention: obstruction-free KCSS vs SCX",
    },
    Experiment {
        name: "e7",
        run: experiments::e7_search_ablation,
        in_all: true,
        about: "search ablation: read-based vs LLX-based traversals",
    },
    Experiment {
        name: "e8",
        run: experiments::e8_helping_stats,
        in_all: true,
        about: "helping statistics under contention",
    },
    Experiment {
        name: "compare",
        run: experiments::compare,
        in_all: true,
        about: "every ConcurrentOrderedSet structure through one sweep
             (threads x update-mix x key-range), one column per structure",
    },
    Experiment {
        name: "scanwin",
        run: experiments::scanwin,
        in_all: true,
        about: "windowed scan cursors vs atomic scans under a fixed-rate
             writer: retry work per scan/window, every structure,
             window-size x range sweep (LLX_SCAN_WINDOW pins one size)",
    },
    Experiment {
        name: "chaos",
        run: experiments::chaos,
        in_all: false,
        about: "resilience soak: LLX_CHAOS_RUNS seeded runs of a loopback
             netsvc server + resilient clients under deterministic
             fault injection (connection kills, torn frames, pool and
             epoch starvation — LLX_FAULT_SPEC/LLX_FAULT_SEED);
             asserts op-ledger conservation, at-most-once mutations,
             zero SCX-record leaks, bounded completion; a failing
             seed replays with tools/fault-replay.sh
             (not part of `all`: it binds a socket and arms the
             process-global fault injector)",
    },
];

fn usage() -> String {
    let mut s = String::from(
        "\
bench-harness: experiment harness for the LLX/SCX reproduction

USAGE:
    bench-harness [EXPERIMENT]

EXPERIMENTS:
",
    );
    for e in EXPERIMENTS {
        s.push_str(&format!("    {:<8} {}\n", e.name, e.about));
    }
    s.push_str(
        "    all      run every experiment above except chaos, in order (default)

ENVIRONMENT:
    LLX_STRUCT selects the structures for compare/scanwin as a comma
    list of specs: bare registry names and sharded facades mix freely,
    e.g. LLX_STRUCT='patricia,sharded(patricia,8)' (default: the whole
    registry; sharded(name) takes its shard count from LLX_SHARDS, the
    partition covers [0, LLX_SHARD_DOMAIN)); LLX_BENCH_CELL_MILLIS sets
    the duration of each timed cell; see workloads::knobs for the full
    knob list

OPTIONS:
    -h, --help    print this help and exit",
    );
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = match args.as_slice() {
        [] => "all",
        [one] => one.as_str(),
        _ => {
            eprintln!(
                "expected at most one argument, got {}\n\n{}",
                args.len(),
                usage()
            );
            std::process::exit(2);
        }
    };
    if matches!(which, "--help" | "-h" | "help") {
        println!("{}", usage());
        return;
    }
    let selected: Vec<fn()> = EXPERIMENTS
        .iter()
        .filter(|e| e.name == which || (which == "all" && e.in_all))
        .map(|e| e.run)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment {which:?}\n\n{}", usage());
        std::process::exit(2);
    }
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("# LLX/SCX reproduction experiments");
    println!("host parallelism: {available} (thread counts above this measure contention/oversubscription, not parallel speedup)");
    for run in selected {
        run();
    }
    print_pool_stats();
}

/// The SCX-record pool's process-global counters (also carried in
/// `llx_scx::StatsSnapshot`), printed after every run: block reuse,
/// batched defers and the cross-thread shard handoffs.
fn print_pool_stats() {
    let p = llx_scx::pool_stats();
    let allocs = p.hits + p.misses;
    if allocs == 0 {
        println!("\nSCX-record pool: no SCX allocations in this run");
        return;
    }
    println!(
        "\nSCX-record pool: {} block reuses / {} allocator hits ({:.1}% reuse), {} batched defers, {} cross-thread handoffs",
        p.hits,
        p.misses,
        100.0 * p.hits as f64 / allocs as f64,
        p.defers,
        p.handoffs,
    );
}
