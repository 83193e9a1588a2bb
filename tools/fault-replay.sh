#!/usr/bin/env bash
# Replay one failing chaos seed, bit-for-bit.
#
#   tools/fault-replay.sh SEED [extra env...]
#
# `bench-harness chaos` prints the seed of a failing run; fault
# decisions are a pure function of (spec, seed, per-point hit index),
# so re-running that single seed reproduces the same injection
# schedule. Seeds print in hex (0xfa17) but decimal works too.
#
# Environment passes straight through, so the failing configuration can
# be pinned exactly, e.g.:
#
#   LLX_FAULT_SPEC='net.conn.drop=prob:0.01' LLX_CHAOS_OPS=5000 \
#       tools/fault-replay.sh 0xfa19
#
# A debug binary (slower, but with the update-CAS detector and the
# Data-record lifecycle check compiled in) replays with:
#
#   LLX_REPLAY_PROFILE=debug tools/fault-replay.sh 0xfa19
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${1:?usage: tools/fault-replay.sh SEED [env LLX_FAULT_SPEC=... etc]}"
# Accept 0x-hex (as printed by the chaos table) or decimal.
SEED=$(( SEED ))

PROFILE="${LLX_REPLAY_PROFILE:-release}"
if [[ "$PROFILE" == release ]]; then
    cargo build -q --release -p bench-harness
    BIN=target/release/bench-harness
else
    cargo build -q -p bench-harness
    BIN=target/debug/bench-harness
fi

echo "replaying chaos seed $SEED (single run, $PROFILE profile)"
LLX_FAULT_SEED="$SEED" LLX_CHAOS_RUNS=1 exec "$BIN" chaos
