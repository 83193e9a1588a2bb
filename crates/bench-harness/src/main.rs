//! Experiment harness regenerating the paper's measurable claims.
//!
//! Usage: `cargo run -p bench-harness --release -- [e1|e2|e3|e4|e5|e6|e7|e8|all]`
//!
//! See DESIGN.md §6 for the experiment index and EXPERIMENTS.md for
//! recorded results.

mod experiments;
mod json;
mod runner;

const USAGE: &str = "\
bench-harness: experiment harness for the LLX/SCX reproduction

USAGE:
    bench-harness [EXPERIMENT]

EXPERIMENTS:
    e1       step complexity of uncontended SCX (paper §1: k+1 CAS, f+2 writes)
    e2       disjoint SCXs all succeed (paper §3.2 progress guarantee)
    e3       VLX cost (k reads per validation)
    e4       multiset throughput scaling: LLX/SCX vs kCAS vs locks
    e5       tree throughput scaling: chromatic vs BST vs Patricia vs coarse lock
    e6       progress under contention: obstruction-free KCSS vs SCX
    e7       search ablation: read-based vs LLX-based traversals
    e8       helping statistics under contention
    compare  every ConcurrentOrderedSet structure through one sweep
             (threads x update-mix x key-range), one column per structure
    scanwin  windowed scan cursors vs atomic scans under a fixed-rate
             writer: retry work per scan/window, every structure,
             window-size x range sweep (LLX_SCAN_WINDOW pins one size)
    lat      per-op tail latency (p50/p99/p99.9/max, log2 histogram)
             across epoch-collection modes (inline/budgeted/background)
             and mixes (mixed, pipeline), every structure, with the
             per-cell SCX-record pool hit rate
    serve    network service tier end to end: a loopback netsvc server
             over every selected spec, LLX_NET_CONNS client
             connections, pipeline depth 1 vs LLX_NET_PIPELINE,
             per-request latency + achieved server-side batching
             (not part of `all`: it binds a socket)
    chaos    resilience soak: LLX_CHAOS_RUNS seeded runs of a loopback
             netsvc server + resilient clients under deterministic
             fault injection (connection kills, torn frames, pool and
             epoch starvation — LLX_FAULT_SPEC/LLX_FAULT_SEED);
             asserts op-ledger conservation, at-most-once mutations,
             zero SCX-record leaks, bounded completion; a failing
             seed replays with tools/fault-replay.sh
             (not part of `all`: it binds a socket and arms the
             process-global fault injector)
    all      run every experiment in order (default)

ENVIRONMENT:
    LLX_STRUCT selects the structures for compare/scanwin/lat as a
    comma list of specs: bare registry names and sharded facades mix
    freely, e.g. LLX_STRUCT='patricia,sharded(patricia,8)' (default:
    the whole registry; sharded(name) takes its shard count from
    LLX_SHARDS, the partition covers [0, LLX_SHARD_DOMAIN));
    LLX_BENCH_PAR=1 runs compare/scanwin sweep cells on parallel scoped
    threads (default off so 1-core baselines stay comparable);
    LLX_BENCH_JSON=PATH mirrors --json; LLX_EPOCH_BUDGET sets the
    budgeted-mode closures/tick for `lat`; see workloads::knobs for
    the full knob list

OPTIONS:
    --json PATH   also write every experiment table + the pool
                  counters as JSON to PATH (machine-readable trail
                  for cross-PR benchmark tracking)
    -h, --help    print this help and exit\
";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        println!("{USAGE}");
        return;
    }
    let mut json_path = std::env::var("LLX_BENCH_JSON").ok();
    if let Some(i) = args.iter().position(|a| a == "--json") {
        if i + 1 >= args.len() {
            eprintln!("--json requires a path\n\n{USAGE}");
            std::process::exit(2);
        }
        json_path = Some(args.remove(i + 1));
        args.remove(i);
    }
    let which = args.first().map(String::as_str).unwrap_or("all");
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("# LLX/SCX reproduction experiments");
    println!("host parallelism: {available} (thread counts above this measure contention/oversubscription, not parallel speedup)");
    match which {
        "e1" => experiments::e1_step_complexity(),
        "e2" => experiments::e2_disjoint_success(),
        "e3" => experiments::e3_vlx_cost(),
        "e4" => experiments::e4_multiset_scaling(),
        "e5" => experiments::e5_tree_scaling(),
        "e6" => experiments::e6_progress(),
        "e7" => experiments::e7_search_ablation(),
        "e8" => experiments::e8_helping_stats(),
        "compare" => experiments::compare(),
        "scanwin" => experiments::scanwin(),
        "lat" => experiments::lat(),
        "serve" => experiments::serve(),
        "chaos" => experiments::chaos(),
        "all" => {
            experiments::e1_step_complexity();
            experiments::e2_disjoint_success();
            experiments::e3_vlx_cost();
            experiments::e4_multiset_scaling();
            experiments::e5_tree_scaling();
            experiments::e6_progress();
            experiments::e7_search_ablation();
            experiments::e8_helping_stats();
            experiments::compare();
            experiments::scanwin();
            // Last on purpose: `lat` flips the process into background
            // reclamation (sticky), which would skew earlier cells.
            experiments::lat();
        }
        other => {
            eprintln!("unknown experiment {other:?}\n\n{USAGE}");
            std::process::exit(2);
        }
    }
    print_pool_stats();
    if let Some(path) = json_path {
        match json::write(&path) {
            Ok(()) => println!("wrote JSON results to {path}"),
            Err(e) => {
                eprintln!("failed to write JSON results to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The SCX-record pool's process-global counters (also carried in
/// `llx_scx::StatsSnapshot`), printed after every run: pool efficacy
/// used to be invisible outside dedicated A/B benches, and the
/// handoff counter is the baseline for the planned cross-thread
/// shard handoff.
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
