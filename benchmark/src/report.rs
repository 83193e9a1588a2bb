//! The entry points a person or the driver calls: one run, a full set
//! (`run`), and two sets compared (`repeat`); and what they print.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use crate::metrics::{self, MetricDef, END_TO_END, PER_LAYER};
use crate::parent::{run_round, Reading, RoundResult};
use crate::procstat;
use crate::workload::{Workload, SHARD_DOMAIN, THREADS};

/// Rounds per workload, in a single driver run and in a full set alike.
/// Each round is a fresh child process, and a reported value is the *mean*
/// of its rounds' values. What differs from run to run on this host is
/// largely per-process state with a long right tail (which CPU the
/// scheduler woke a peer on, how the two threads' epoch ticks fall —
/// `mem-read`'s p99 reads anything from 470 to 1040 ns in 6 s rounds), and
/// the way to steady that is to average over processes, not to measure one
/// process for longer. Within a round a rate is still the median of its
/// one-second slices. From 30 six-second rounds per workload, resampled
/// into sets of ten runs of k rounds: the spread of `mem-read` p99 is 32 %
/// at k = 1, 19 % at k = 3, 12.5 % at k = 6, and it exceeds the 25 % bound
/// in 72 %, 20 % and 0.4 % of the sets; the median of three rounds was no
/// steadier than one round (27 % against 26 %).
const ROUNDS: u64 = 6;
/// In a full set (`run`, `repeat`) the workloads are interleaved within a
/// round and the order rotates from round to round, because the host also
/// drifts by ±12 % over minutes and neighbours in time share that.
/// `--smoke`: enough to exercise every path and oracle, not to measure.
const SMOKE_SECONDS: u64 = 2;
const SMOKE_TRACE_SECONDS: u64 = 6;

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The run header; refuses a host that cannot run the load threads at once.
fn header(seed: u64) -> Result<String, String> {
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    if parallelism < THREADS {
        return Err(format!(
            "available_parallelism is {parallelism}: the workloads need {THREADS} threads running at once, and a 1-core reading measures contention only"
        ));
    }
    Ok(format!(
        "# seed={seed} available_parallelism={parallelism} load_1m={} rev={} rustc=\"{}\" env=\"LLX_* and PROPTEST_* removed, LLX_SHARD_DOMAIN={SHARD_DOMAIN}\"",
        procstat::loadavg_1m(),
        tool_line("git", &["rev-parse", "HEAD"]),
        tool_line("rustc", &["-V"]),
    ))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `table` and no other.
fn result_line(round: &RoundResult, table: &[MetricDef]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in table {
        let value = round
            .value(m.name)
            .ok_or_else(|| format!("the child did not report {}", m.name))?;
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(m.name),
            json_number(value),
            json_string(m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        round.correct(),
        round.attempted,
        round.failed,
        metrics.join(", ")
    ))
}

fn complain(what: &str, round: &RoundResult) {
    for note in &round.notes {
        eprintln!("# {what}: {note}");
    }
    if let Some(why) = &round.broken {
        eprintln!("# {what}: FAILED: {why}");
    } else if round.failed > 0 {
        eprintln!(
            "# {what}: FAILED: {} of {} operations failed",
            round.failed, round.attempted
        );
    }
}

/// The rounds of one workload as one result: each reading is the mean of
/// the rounds that reported it, op counts add up, and a round that broke
/// breaks the whole.
fn combine(rounds: &[RoundResult]) -> RoundResult {
    let mut out = RoundResult::default();
    for round in rounds {
        out.attempted += round.attempted;
        out.failed += round.failed;
        out.notes.extend(round.notes.iter().cloned());
        out.broken = out.broken.or_else(|| round.broken.clone());
        for r in &round.readings {
            if out.value(&r.name).is_none() {
                let values: Vec<f64> = rounds.iter().filter_map(|x| x.value(&r.name)).collect();
                out.readings.push(Reading {
                    value: values.iter().sum::<f64>() / values.len() as f64,
                    ..r.clone()
                });
            }
        }
    }
    out
}

/// How `seconds` one-second slices are dealt to the rounds of one run:
/// [`ROUNDS`] of them if there is a slice for each, the first ones taking
/// the remainder.
fn deal(seconds: u64) -> Vec<u64> {
    let rounds = ROUNDS.min(seconds).max(1);
    (0..rounds)
        .map(|i| seconds / rounds + u64::from(i < seconds % rounds))
        .collect()
}

/// One workload, one run: the driver's contract. An untraced run deals its
/// seconds to [`ROUNDS`] children; a traced run is one child.
pub fn one(w: Workload, seed: u64, seconds: u64, trace: bool, out: &Path) -> Result<bool, String> {
    eprintln!("{}", header(seed)?);
    let slices = if trace { vec![seconds] } else { deal(seconds) };
    let results: Vec<RoundResult> = slices
        .into_iter()
        .map(|n| run_round(w, seed, n, trace, out))
        .collect();
    let round = combine(&results);
    complain(w.name(), &round);
    if round.broken.is_some() {
        return Ok(false);
    }
    for r in &round.readings {
        println!("{} {} {} {}", w.name(), r.name, r.value, r.unit);
    }
    let table = if trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_line(&round, table)?);
    Ok(true)
}

/// What a full set holds for one workload.
#[derive(Default)]
struct Measured {
    rounds: Vec<RoundResult>,
    /// The rounds as one result (see [`combine`]).
    mean: RoundResult,
    traced: RoundResult,
}

/// One full set: the measured rounds of every workload and its traced run.
struct Set {
    header: String,
    seed: u64,
    /// In the order of [`Workload::ALL`].
    workloads: Vec<Measured>,
}

fn run_set(seed: u64, smoke: bool, out: &Path) -> Result<Set, String> {
    let header = header(seed)?;
    eprintln!("{header}");
    let (slices, trace_seconds) = if smoke {
        (vec![SMOKE_SECONDS], SMOKE_TRACE_SECONDS)
    } else {
        (deal(metrics::RUN_SECONDS), metrics::RUN_SECONDS)
    };
    let n = Workload::ALL.len();
    let mut workloads: Vec<Measured> = (0..n).map(|_| Measured::default()).collect();
    for (round, &seconds) in slices.iter().enumerate() {
        for i in 0..n {
            let slot = (i + round) % n;
            let w = Workload::ALL[slot];
            let result = run_round(w, seed, seconds, false, out);
            let what = format!("round {}/{} {}", round + 1, slices.len(), w.name());
            complain(&what, &result);
            eprintln!(
                "# {what}: ops_per_s={} p50_ns={} p99_ns={}",
                result.value("ops_per_s").unwrap_or(0.0),
                result.value("p50_ns").unwrap_or(0.0),
                result.value("p99_ns").unwrap_or(0.0),
            );
            workloads[slot].rounds.push(result);
        }
    }
    for (w, measured) in Workload::ALL.iter().zip(&mut workloads) {
        measured.mean = combine(&measured.rounds);
        measured.traced = run_round(*w, seed, trace_seconds, true, out);
        complain(&format!("traced {}", w.name()), &measured.traced);
        eprintln!("# traced {}: done", w.name());
    }
    Ok(Set {
        header,
        seed,
        workloads,
    })
}

impl Set {
    fn of(&self, w: Workload) -> &Measured {
        let slot = Workload::ALL.iter().position(|&x| x == w);
        &self.workloads[slot.expect("ALL lists every workload")]
    }

    /// Mean over the rounds that reported `name`; `None` if none did.
    fn e2e(&self, w: Workload, name: &str) -> Option<f64> {
        self.of(w).mean.value(name)
    }

    /// Failed ÷ attempted, each round weighing the same (a crashed round
    /// has no op count of its own and counts as wholly failed).
    fn failed_share(&self, w: Workload) -> f64 {
        let m = self.of(w);
        let shares: Vec<f64> = m
            .rounds
            .iter()
            .chain([&m.traced])
            .map(|r| r.failed as f64 / r.attempted.max(1) as f64)
            .collect();
        shares.iter().sum::<f64>() / shares.len() as f64
    }

    fn layer(&self, w: Workload, name: &str) -> Option<f64> {
        self.of(w).traced.value(name)
    }

    fn ok(&self) -> bool {
        Workload::ALL.iter().all(|&w| self.failed_share(w) == 0.0)
    }

    /// Every metric as `workload metric value unit`.
    fn print(&self) {
        for w in Workload::ALL {
            for m in END_TO_END {
                if let Some(v) = self.e2e(w, m.name) {
                    println!("{} {} {} {}", w.name(), m.name, v, m.unit);
                }
            }
            println!("{} failed_share {} share", w.name(), self.failed_share(w));
            // The ungated extras of the measured rounds, without their mark.
            for r in &self.of(w).mean.readings {
                if let Some(name) = r.name.strip_prefix("x.") {
                    println!("{} {} {} {}", w.name(), name, r.value, r.unit);
                }
            }
            for m in PER_LAYER {
                if let Some(v) = self.layer(w, m.name) {
                    println!("{} {} {} {}", w.name(), m.name, v, m.unit);
                }
            }
        }
    }

    /// The same as one JSON document, with each round's own readings.
    fn to_json(&self) -> String {
        let mut s = format!(
            "{{\n  \"header\": {},\n  \"seed\": {},\n  \"claim\": null,\n  \"workloads\": {{\n",
            json_string(&self.header),
            self.seed
        );
        let blocks: Vec<String> = Workload::ALL
            .iter()
            .map(|&w| {
                let rounds = &self.of(w).rounds;
                let e2e: Vec<String> = END_TO_END
                    .iter()
                    .map(|m| {
                        let per_round: Vec<String> = rounds
                            .iter()
                            .map(|r| r.value(m.name).map_or("null".into(), json_number))
                            .collect();
                        format!(
                            "        {}: {{\"value\": {}, \"unit\": {}, \"rounds\": [{}]}}",
                            json_string(m.name),
                            self.e2e(w, m.name).map_or("null".into(), json_number),
                            json_string(m.unit),
                            per_round.join(", ")
                        )
                    })
                    .collect();
                let layers: Vec<String> = PER_LAYER
                    .iter()
                    .filter_map(|m| {
                        let v = self.layer(w, m.name)?;
                        Some(format!(
                            "        {}: {{\"value\": {}, \"unit\": {}}}",
                            json_string(m.name),
                            json_number(v),
                            json_string(m.unit)
                        ))
                    })
                    .collect();
                format!(
                    "    {}: {{\n      \"failed_share\": {},\n      \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }}\n    }}",
                    json_string(w.name()),
                    json_number(self.failed_share(w)),
                    e2e.join(",\n"),
                    layers.join(",\n")
                )
            })
            .collect();
        s.push_str(&blocks.join(",\n"));
        s.push_str("\n  }\n}\n");
        s
    }

    fn write_json(&self, out: &Path, stem: &str) -> Result<(), String> {
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
        let path = out.join(format!("{stem}-{}.json", self.seed));
        std::fs::write(&path, self.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("# wrote {}", path.display());
        Ok(())
    }
}

/// `run`: one full set; `false` if any operation failed.
pub fn run(seed: u64, smoke: bool, out: &Path) -> Result<bool, String> {
    let set = run_set(seed, smoke, out)?;
    set.print();
    set.write_json(out, "run")?;
    Ok(set.ok())
}

/// `repeat`: two full sets of the same build. Prints both medians and
/// their relative difference for every (workload, end-to-end metric);
/// `false` if any differs by more than the metric's bound, if an
/// operation failed, or if the single-thread step counts did not repeat.
pub fn repeat(seed: u64, smoke: bool, out: &Path) -> Result<bool, String> {
    let first = run_set(seed, smoke, out)?;
    first.write_json(out, "repeat-a")?;
    let second = run_set(seed, smoke, out)?;
    second.write_json(out, "repeat-b")?;
    let mut ok = first.ok() && second.ok();
    println!("{}", first.header);
    println!("{}", second.header);
    println!();
    println!("| workload | metric | unit | set 1 | set 2 | difference | bound | |");
    println!("|---|---|---|---:|---:|---:|---:|---|");
    for w in Workload::ALL {
        for m in END_TO_END {
            let (Some(a), Some(b)) = (first.e2e(w, m.name), second.e2e(w, m.name)) else {
                println!(
                    "| {} | {} | {} | missing | missing | | | FAIL |",
                    w.name(),
                    m.name,
                    m.unit
                );
                ok = false;
                continue;
            };
            let diff = (b - a) / a;
            // Bounds are off in a smoke run: two seconds measure nothing.
            let within = smoke || diff.abs() <= m.bound;
            ok &= within;
            println!(
                "| {} | {} | {} | {:.6} | {:.6} | {:+.1} % | {:.0} % | {} |",
                w.name(),
                m.name,
                m.unit,
                a,
                b,
                diff * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "FAIL" }
            );
        }
        let shares = (first.failed_share(w), second.failed_share(w));
        println!(
            "| {} | failed_share | share | {} | {} | | 0 | {} |",
            w.name(),
            shares.0,
            shares.1,
            if shares == (0.0, 0.0) { "ok" } else { "FAIL" }
        );
    }
    println!();
    println!("| workload | count that must repeat exactly | set 1 | set 2 | |");
    println!("|---|---|---:|---:|---|");
    for name in ["llx-scx.cas_per_commit", "llx-scx.writes_per_commit"] {
        let w = Workload::MemContend;
        let (a, b) = (first.layer(w, name), second.layer(w, name));
        let same = a.is_some() && a == b;
        ok &= same;
        println!(
            "| {} | {} | {} | {} | {} |",
            w.name(),
            name,
            a.map_or("missing".into(), |v| v.to_string()),
            b.map_or("missing".into(), |v| v.to_string()),
            if same { "ok" } else { "FAIL" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_with(table: &[MetricDef]) -> RoundResult {
        RoundResult {
            readings: table
                .iter()
                .enumerate()
                .map(|(i, m)| Reading {
                    name: m.name.into(),
                    value: 1.5 + i as f64,
                    unit: m.unit.into(),
                })
                .collect(),
            attempted: 10,
            failed: 0,
            ..RoundResult::default()
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&round_with(END_TO_END), END_TO_END).unwrap();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 1.5, \"unit\": \"ops/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 7.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(!line.contains('\n'));
    }

    #[test]
    fn result_line_refuses_a_missing_metric() {
        let mut round = round_with(END_TO_END);
        round.readings.pop();
        assert!(result_line(&round, END_TO_END).is_err());
        // A traced run must carry every per-layer metric instead.
        assert!(result_line(&round_with(END_TO_END), PER_LAYER).is_err());
        assert!(result_line(&round_with(PER_LAYER), PER_LAYER).is_ok());
    }

    #[test]
    fn failed_ops_make_the_result_incorrect() {
        let mut round = round_with(END_TO_END);
        round.failed = 3;
        assert!(result_line(&round, END_TO_END)
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 3,"));
    }

    #[test]
    fn rounds_combine_to_their_mean_and_a_broken_round_breaks_the_run() {
        let mut a = round_with(END_TO_END);
        let mut b = round_with(END_TO_END);
        b.readings[0].value = 4.5;
        b.failed = 2;
        let both = combine(&[a.clone(), b.clone()]);
        assert_eq!(both.value("ops_per_s"), Some(3.0));
        assert_eq!(both.value("p50_ns"), Some(2.5));
        assert_eq!((both.attempted, both.failed), (20, 2));
        assert!(!both.correct() && both.broken.is_none());
        a.broken = Some("watchdog".into());
        assert!(combine(&[b, a]).broken.is_some());
    }

    #[test]
    fn seconds_are_dealt_to_the_rounds() {
        assert_eq!(deal(18), [3, 3, 3, 3, 3, 3]);
        assert_eq!(deal(20), [4, 4, 3, 3, 3, 3]);
        assert_eq!(deal(4), [1, 1, 1, 1]);
        assert_eq!(deal(1), [1]);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(2.0), "2");
    }
}
