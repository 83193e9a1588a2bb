//! The fixed-duration throughput runner and the table printer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Run `threads` workers for `duration`, returning total operations per
/// second.
///
/// `make_worker` is called once per thread (with the thread index) to
/// build that thread's stateful worker — typically closing over a
/// seeded generator — so per-thread streams are deterministic without
/// thread-local hacks. Each worker call must perform at least one
/// operation and return how many it completed.
///
/// Threads are scoped: workers may borrow the structures under test
/// from the caller's stack frame.
pub fn run_throughput<'a, F>(threads: usize, duration: Duration, make_worker: F) -> f64
where
    F: Fn(usize) -> Box<dyn FnMut() -> u64 + Send + 'a> + Sync + 'a,
{
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let stop = &stop;
                let barrier = &barrier;
                let make_worker = &make_worker;
                scope.spawn(move || {
                    let mut worker = make_worker(t);
                    barrier.wait();
                    let mut ops = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        ops += worker();
                    }
                    ops
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let elapsed = start.elapsed().as_secs_f64();
        total as f64 / elapsed
    })
}

/// Render a table: header row plus data rows, space-aligned.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format ops/sec human-readably.
pub fn fmt_ops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}
