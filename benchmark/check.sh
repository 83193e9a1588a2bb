#!/usr/bin/env bash
# The benchmark's own gate: format, lints, unit tests, and a smoke run of
# every workload (1 round x 2 s, oracle on, bounds off; ~1.5 min).
# Run from anywhere; needs no network. `ci.sh` is outside this package's
# paths - wiring a stage there is a one-line follow-up.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
cargo run --offline --release --quiet -- run --smoke --seed 1 --out out
echo "benchmark/check.sh: ok"
