#!/usr/bin/env bash
# Replay one failing chaos seed, bit-for-bit.
#
#   tools/fault-replay.sh SEED [extra env...]
#
# The chaos test (crates/netsvc/tests/chaos.rs) prints the seed of a
# failing run; fault decisions are a pure function of (spec, seed,
# per-point hit index), so re-running the test from that seed
# reproduces the same injection schedule in its first run. Seeds print
# in hex (0xfa17) but decimal works too.
#
# Environment passes straight through, so the failing configuration can
# be pinned exactly, e.g.:
#
#   LLX_FAULT_SPEC='net.conn.drop=prob:0.01' tools/fault-replay.sh 0xfa19
#
# Replays run in release by default. A debug build (slower, but with
# the update-CAS detector and the Data-record lifecycle check compiled
# in) replays with:
#
#   LLX_REPLAY_PROFILE=debug tools/fault-replay.sh 0xfa19
set -euo pipefail
cd "$(dirname "$0")/.."

SEED="${1:?usage: tools/fault-replay.sh SEED [env LLX_FAULT_SPEC=... etc]}"
# Accept 0x-hex (as printed by the chaos test) or decimal.
SEED=$(( SEED ))

PROFILE="${LLX_REPLAY_PROFILE:-release}"
PROFILE_FLAG=()
if [[ "$PROFILE" == release ]]; then
    PROFILE_FLAG=(--release)
fi

echo "replaying chaos from seed $SEED ($PROFILE profile)"
LLX_FAULT_SEED="$SEED" exec cargo test -q "${PROFILE_FLAG[@]}" -p netsvc --test chaos -- --nocapture
