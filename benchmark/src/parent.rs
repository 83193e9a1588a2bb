//! The parent side: start each (workload, round) as a fresh child process
//! in a pinned environment, watch it, and collect what it printed.
//!
//! A fresh process per round keeps the process-global pool counters, epoch
//! garbage and `VmHWM` of one workload out of the next, and contains a
//! crash or a wedge of the program under test: the watchdog kills a child
//! that overruns three times its nominal duration, so a wedge is a
//! reported failure, never a hang.

use std::ffi::OsString;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use crate::child;
use crate::workload::{Workload, SHARD_DOMAIN};

/// What a watched process printed, and how it ended.
pub struct Watched {
    pub lines: Vec<String>,
    /// `None`: the watchdog killed it.
    pub status: Option<ExitStatus>,
}

/// Run `cmd` with its stdout captured; kill it if it outlives `limit`.
pub fn watch(mut cmd: Command, limit: Duration) -> std::io::Result<Watched> {
    let mut child = cmd.stdout(Stdio::piped()).spawn()?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let deadline = Instant::now() + limit;
    let mut lines = Vec::new();
    let status = loop {
        lines.extend(rx.try_iter());
        if let Some(status) = child.try_wait()? {
            break Some(status);
        }
        if Instant::now() >= deadline {
            child.kill()?;
            child.wait()?;
            break None;
        }
        thread::sleep(Duration::from_millis(20));
    };
    // The pipe is closed now (the process ended), so the reader finishes.
    reader.join().expect("the reader thread does not panic");
    lines.extend(rx.try_iter());
    Ok(Watched { lines, status })
}

/// Strip every `LLX_*` and `PROPTEST_*` variable and set the one the
/// `sharded(..)` spec needs, so nothing in the caller's environment can
/// change what is measured.
pub fn pin_environment(cmd: &mut Command, inherited: impl IntoIterator<Item = OsString>) {
    for key in inherited {
        let name = key.to_string_lossy();
        if name.starts_with("LLX_") || name.starts_with("PROPTEST_") {
            cmd.env_remove(&key);
        }
    }
    cmd.env("LLX_SHARD_DOMAIN", SHARD_DOMAIN.to_string());
}

/// One metric line of a child.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// How one (workload, round) ended.
#[derive(Debug, Clone, Default)]
pub struct RoundResult {
    pub readings: Vec<Reading>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// Why the round counts as failed as a whole, if it does.
    pub broken: Option<String>,
}

impl RoundResult {
    pub fn correct(&self) -> bool {
        self.broken.is_none() && self.failed == 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.readings
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.value)
    }
}

/// Read a child's lines (see `child::run` for what it prints).
pub fn parse(watched: &Watched) -> RoundResult {
    let mut out = RoundResult::default();
    let mut last_slice = None;
    let mut have_result = false;
    for line in &watched.lines {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("metric") => {
                let (Some(name), Some(value), Some(unit)) =
                    (words.next(), words.next(), words.next())
                else {
                    continue;
                };
                if let Ok(value) = value.parse() {
                    out.readings.push(Reading {
                        name: name.into(),
                        value,
                        unit: unit.into(),
                    });
                }
            }
            Some("result") => {
                let mut num = || words.next().and_then(|w| w.parse::<u64>().ok());
                if let (Some(a), Some(f)) = (num(), num()) {
                    (out.attempted, out.failed) = (a, f);
                    have_result = true;
                }
            }
            Some("note") => out.notes.push(line["note".len()..].trim().to_string()),
            Some("slice") => last_slice = Some(line.clone()),
            _ => {}
        }
    }
    let last = last_slice.unwrap_or_else(|| "no slice completed".into());
    out.broken = match watched.status {
        None => Some(format!(
            "watchdog: killed after its time limit; last: {last}"
        )),
        Some(s) if !s.success() => Some(format!("child ended with {s}; last: {last}")),
        Some(_) if !have_result => Some("child printed no result".into()),
        Some(_) => None,
    };
    if out.broken.is_some() {
        // A crash or a watchdog kill fails every op of the round.
        out.attempted = out.attempted.max(1);
        out.failed = out.attempted;
    }
    out
}

/// A round that never ran: wholly failed.
fn never_ran(why: String) -> RoundResult {
    RoundResult {
        attempted: 1,
        failed: 1,
        broken: Some(why),
        ..RoundResult::default()
    }
}

/// Run one (workload, round) in a fresh child of this executable.
pub fn run_round(w: Workload, seed: u64, seconds: u64, trace: bool, out_dir: &Path) -> RoundResult {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return never_ran(format!("cannot find this executable: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir);
    pin_environment(&mut cmd, std::env::vars_os().map(|(key, _)| key));
    match watch(cmd, child::nominal(seconds, trace) * 3) {
        Ok(watched) => parse(&watched),
        Err(e) => never_ran(format!("cannot start the child: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sleeping_child_is_killed_and_fails_its_round() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo slice 1/8 units 5 7; exec sleep 30"]);
        let start = Instant::now();
        let watched = watch(cmd, Duration::from_millis(300)).unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the watchdog fired late"
        );
        assert!(watched.status.is_none());
        let round = parse(&watched);
        assert!(!round.correct());
        assert_eq!((round.attempted, round.failed), (1, 1));
        let why = round.broken.unwrap();
        assert!(
            why.contains("watchdog") && why.contains("slice 1/8 units 5 7"),
            "{why}"
        );
    }

    #[test]
    fn a_crashed_child_fails_its_round() {
        let mut cmd = Command::new("sh");
        cmd.args([
            "-c",
            "echo metric ops_per_s 10 ops/s; echo result 100 0; exit 3",
        ]);
        let round = parse(&watch(cmd, Duration::from_secs(10)).unwrap());
        assert!(!round.correct());
        assert_eq!((round.attempted, round.failed), (100, 100));
    }

    #[test]
    fn a_clean_child_is_read_back() {
        let mut cmd = Command::new("sh");
        cmd.args([
            "-c",
            "echo slice 1/1 units 1 1; echo metric p50_ns 146.5 ns; echo note hello there; echo result 1000 0",
        ]);
        let round = parse(&watch(cmd, Duration::from_secs(10)).unwrap());
        assert!(round.correct());
        assert_eq!(round.value("p50_ns"), Some(146.5));
        assert_eq!(round.readings[0].unit, "ns");
        assert_eq!(round.notes, ["hello there"]);
        assert_eq!((round.attempted, round.failed), (1000, 0));
    }

    #[test]
    fn a_child_without_a_result_line_fails() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "echo metric p50_ns 1 ns"]);
        assert!(!parse(&watch(cmd, Duration::from_secs(10)).unwrap()).correct());
    }

    #[test]
    fn the_environment_is_pinned() {
        let mut cmd = Command::new("true");
        let inherited = ["LLX_EPOCH_BG", "PATH", "PROPTEST_CASES", "LLX_SHARD_DOMAIN"];
        pin_environment(&mut cmd, inherited.map(OsString::from));
        let mut envs: Vec<(String, Option<String>)> = cmd
            .get_envs()
            .map(|(k, v)| {
                let text = |s: &std::ffi::OsStr| s.to_string_lossy().into_owned();
                (text(k), v.map(text))
            })
            .collect();
        envs.sort();
        assert_eq!(
            envs,
            [
                ("LLX_EPOCH_BG".into(), None),
                ("LLX_SHARD_DOMAIN".into(), Some(SHARD_DOMAIN.to_string())),
                ("PROPTEST_CASES".into(), None),
            ]
        );
    }
}
