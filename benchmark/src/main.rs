//! The repo's benchmark (see `README.md` beside `Cargo.toml`).
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run, the driver's contract
//! benchmark run --seed N [--smoke]                           every workload: 6 interleaved rounds + traced phase
//! benchmark repeat --seed N                                  two full sets of the same build, compared
//! benchmark manifest                                         print BENCHMARK.json
//! ```

mod child;
mod hist;
mod load;
mod metrics;
mod oracle;
mod parent;
mod probes;
mod procstat;
mod report;
mod rng;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use workload::Workload;

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
  benchmark run    [--seed <u64>] [--smoke] [--out <dir>]
  benchmark repeat [--seed <u64>] [--smoke] [--out <dir>]
  benchmark manifest
workloads: mem-read mem-update mem-contend net-pipe net-scan";

/// The options every entry point shares.
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be from 1 to 60".into());
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => o.smoke = true,
            "--out" => o.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "repeat" | "manifest" | "child")) => (c, &args[1..]),
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => ("one", &args[..]),
    };
    let outcome = parse(rest).and_then(|o| match command {
        "manifest" => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        "child" => child::run(&child::ChildArgs {
            workload: o.workload.ok_or("child needs --workload")?,
            seed: o.seed,
            seconds: o.seconds.ok_or("child needs --seconds")?,
            trace: o.trace,
            out_dir: o.out_dir,
        })
        .map(|()| true),
        "one" => report::one(
            o.workload
                .ok_or(format!("--workload is required\n{USAGE}"))?,
            o.seed,
            o.seconds.unwrap_or(metrics::RUN_SECONDS),
            o.trace,
            &o.out_dir,
        ),
        "run" => report::run(o.seed, o.smoke, &o.out_dir),
        "repeat" => report::repeat(o.seed, o.smoke, &o.out_dir),
        _ => unreachable!("matched above"),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
