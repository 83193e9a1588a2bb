//! The `bench-harness` command line, driven as a child process: the
//! help text and the dispatcher agree, `e1` reproduces the paper's
//! step counts, and anything that is not exactly one known experiment
//! name is refused.

use std::process::{Command, Output};

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench-harness"))
        .args(args)
        // Timed cells only have to prove the plumbing here.
        .env("LLX_BENCH_CELL_MILLIS", "1")
        .env_remove("LLX_STRUCT")
        .output()
        .expect("spawn bench-harness")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_lists_exactly_the_experiments_the_dispatcher_accepts() {
    let out = harness(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = stdout(&out);
    // Name lines of the EXPERIMENTS section are indented by exactly
    // four spaces; continuation lines are indented further.
    let listed: Vec<&str> = help
        .lines()
        .skip_while(|l| *l != "EXPERIMENTS:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter(|l| l.starts_with("    ") && !l.starts_with("     "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        listed,
        ["e1", "e2", "e3", "e6", "e7", "e8", "compare", "scanwin", "chaos", "all"]
    );
    // `e1` has its own test; `compare`/`scanwin` are ci's compare-smoke
    // stage, `chaos` its chaos stage, and `all` is their union.
    for name in ["e2", "e3", "e6", "e7", "e8"] {
        let out = harness(&[name]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "listed experiment {name} was not accepted: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn e1_table_shows_k_plus_1_cas_and_f_plus_2_writes() {
    let out = harness(&["e1"]);
    assert_eq!(out.status.code(), Some(0));
    // Columns: k, SCX CAS (f=0), SCX wr (f=0), SCX CAS (f=k), SCX wr (f=k), ...
    let rows: Vec<Vec<u64>> = stdout(&out)
        .lines()
        .map(|l| {
            l.split_whitespace()
                .take(5)
                .map_while(|c| c.parse().ok())
                .collect()
        })
        .filter(|r: &Vec<u64>| r.len() == 5)
        .collect();
    assert_eq!(rows.len(), 16, "one row per k in 1..=16");
    for r in rows {
        let k = r[0];
        assert_eq!(
            r[1..],
            [k + 1, 2, k + 1, k + 2],
            "k = {k}: SCX must cost k+1 CAS and f+2 writes at f = 0 and f = k"
        );
    }
}

#[test]
fn anything_but_one_known_name_exits_2_with_usage_on_stderr() {
    let refused: [&[&str]; 6] = [
        &["bogus"],
        &["lat"],
        &["serve"],
        &["e4"],
        &["e5"],
        &["e1", "--json", "x"],
    ];
    for args in refused {
        let out = harness(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("USAGE:"),
            "{args:?}: no usage on stderr"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}
