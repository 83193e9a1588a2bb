#!/usr/bin/env bash
# CI gate for the LLX/SCX reproduction workspace, organized as named
# stages with per-stage wall-clock timing.
#
#   ./ci.sh                 run every stage
#   ./ci.sh --quick         formatting + release build + tests only
#   ./ci.sh --stage NAME    run a single stage (see `--list`)
#   ./ci.sh --list          print the stage names and exit
#
# Stages (in order):
#   fmt            cargo fmt --check
#   build          tier-1 release build (ROADMAP.md)
#   test           tier-1 test suite (debug profile, small default knobs);
#                  also the only stage that runs the doctests and
#                  builds the examples (`cargo test` does both)
#   debug-stress   llx-scx, trees and multiset suites again with a
#                  longer churn phase: the generation-stamp ABA
#                  detectors, the Data-record lifecycle check and the
#                  reclamation ledgers only exist under
#                  debug_assertions, and rare races need soak time the
#                  tier-1 defaults don't give
#   scanwin        windowed scan cursors under churn: a release leg
#                  running the long windowed-scan stress/cursor tests
#                  (per-window conservation laws checked mid-churn) and
#                  a debug leg so the generation-stamp ABA detectors
#                  soak the new cursor paths
#   shard          the sharded scale-out facade: linearizability, stress
#                  conservation, scan-cursor edge cases and the sharded
#                  integration suite all at LLX_STRUCT='sharded(patricia,4)'
#                  (release), a debug ABA soak across the shard seams,
#                  and a best-of-3 compare leg asserting the facade's
#                  wide-range read throughput stays at parity with the
#                  bare backend
#   compare-smoke  bench-harness `compare` and `scanwin` at tiny knobs
#                  (with a scan mix); asserts both tables parse and
#                  include every registered structure, so a broken
#                  registry or scan knob cannot silently drop a column
#   chaos          resilience soak under deterministic fault injection:
#                  bench-harness `chaos` (resilient clients vs a
#                  loopback server while the injector kills connections
#                  mid-batch, tears frames, starves the SCX pool and
#                  skips epoch ticks) across five seeds in release
#                  under `timeout`, asserting op-ledger conservation,
#                  at-most-once mutations, zero SCX-record leaks and
#                  bounded completion; plus a debug leg, so the
#                  generation-stamp ABA detectors soak under skipped
#                  collection ticks. A failing seed replays
#                  bit-for-bit with tools/fault-replay.sh
#   lin-long       long-history linearizability: every structure
#                  records >= 2048-event rounds (LLX_LIN_EVENTS) and
#                  the per-key-compositional JIT checker must accept
#                  them (the 64-event WGL oracle cannot represent this
#                  regime); also reruns the small rounds with
#                  LLX_LIN_CHECKER=jit and the WGL/JIT differential +
#                  corpus suites in release
#   bench-check    the repository benchmark's own gate
#                  (benchmark/check.sh: fmt, clippy, unit tests and a
#                  smoke run of every BENCHMARK.json workload), so a
#                  change that breaks an API benchmark/ compiles
#                  against fails here. Regressions are judged by the
#                  benchmark's parent-vs-change runs, not by ci.
#   model          deterministic schedule exploration (crates/modelcheck):
#                  builds the workspace with `--cfg llx_model` so every
#                  atomic routes through the instrumented sync facades,
#                  then exhaustively explores the tests/model.rs kernels
#                  up to the preemption bound. Two legs: the real
#                  protocol must come back clean, and a second build
#                  with `--cfg llx_model_bugs` re-introduces the PR-2
#                  seed races, which the explorer must re-find
#                  deterministically. A full ./ci.sh run explores the
#                  clean kernels at bound 1 to stay quick;
#                  `./ci.sh --stage model` uses the default bound 2
#                  (override with LLX_MODEL_BOUND). The regression
#                  tests pin bound >= 2 themselves.
#   audit          ordering-discipline audit (tools/ordering-audit.sh):
#                  every SeqCst/Relaxed site must carry a `// ord:`
#                  justification or an allowlist entry
#   clippy         cargo clippy --workspace --all-targets -D warnings
set -euo pipefail
cd "$(dirname "$0")"

ALL_STAGES=(fmt build test debug-stress scanwin shard compare-smoke chaos lin-long bench-check model audit clippy)
QUICK_STAGES=(fmt build test)

# The header's "Stages (in order)" list must name exactly ALL_STAGES, in
# order: it is edited by hand, so check it on every invocation.
HEADER_STAGES=$(awk '/^# Stages/ { on = 1; next } on && /^#   [a-z]/ { print $2 } !/^#/ { exit }' "$(basename "$0")")
if [[ "$HEADER_STAGES" != "$(printf '%s\n' "${ALL_STAGES[@]}")" ]]; then
    echo "ci.sh header stage list disagrees with ALL_STAGES:" >&2
    echo "  header:     $(tr '\n' ' ' <<<"$HEADER_STAGES")" >&2
    echo "  ALL_STAGES: ${ALL_STAGES[*]}" >&2
    exit 2
fi

QUICK=0
ONLY=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --quick) QUICK=1 ;;
        --stage)
            ONLY="${2:?--stage requires a stage name}"
            shift
            ;;
        --list)
            printf '%s\n' "${ALL_STAGES[@]}"
            exit 0
            ;;
        -h|--help)
            # The header comment block, however long it grows.
            awk 'NR == 1 { next } /^#/ { sub(/^# ?/, ""); print; next } { exit }' "$0"
            exit 0
            ;;
        *)
            echo "unknown argument: $1 (try --help)" >&2
            exit 2
            ;;
    esac
    shift
done

if [[ -n "$ONLY" ]]; then
    case " ${ALL_STAGES[*]} " in
        *" $ONLY "*) ;;
        *)
            echo "unknown stage: $ONLY (known: ${ALL_STAGES[*]})" >&2
            exit 2
            ;;
    esac
fi

stage_fmt() {
    cargo fmt --check
}

stage_build() {
    cargo build --release
}

stage_test() {
    cargo test -q
}

stage_debug_stress() {
    # The `test` stage already runs these suites (debug profile) at the
    # small default knobs; re-run them with a much longer churn phase so
    # the debug-only detectors — the generation-stamp ABA asserts at
    # LLX revalidation and freezing-CAS displacement, and the
    # Data-record lifecycle check on the recycled node path the trees
    # and multiset drive — get enough soak to catch rare races, not
    # just a smoke pass.
    LLX_STRESS_MILLIS=600 cargo test -q -p llx-scx -p trees -p multiset
}

stage_scanwin() {
    # Release leg: long windowed scans under real churn. The stress
    # harness asserts the per-window conservation laws on every emitted
    # window (tiling, in-window ascent and bounds, key budget, positive
    # counts) plus the quiescent windowed-scan = len() law; two window
    # sizes cover tiny windows (maximal boundary count) and mid-size.
    LLX_SCAN_WINDOW=3 LLX_STRESS_MILLIS=350 cargo test -q --release -p llx-scx-repro \
        --test conc_stress every_structure_balances_under_windowed_scans
    LLX_SCAN_WINDOW=3 LLX_STRESS_MILLIS=350 cargo test -q --release -p llx-scx-repro \
        --test scan_cursor
    LLX_SCAN_WINDOW=16 LLX_STRESS_MILLIS=250 cargo test -q --release -p llx-scx-repro \
        --test scan_cursor windowed_scans_survive_concurrent_churn
    # Debug leg: the generation-stamp ABA detectors and reclamation
    # ledgers only exist under debug_assertions — soak the cursor's
    # LLX-revalidation paths with them armed.
    LLX_SCAN_WINDOW=4 LLX_STRESS_MILLIS=250 cargo test -q -p llx-scx-repro \
        --test scan_cursor windowed_scans_survive_concurrent_churn
}

stage_shard() {
    # Release legs: the whole generic harness surface driven through the
    # spec grammar at a 4-shard Patricia facade — WGL/JIT-cross-checked
    # linearizability, the stress conservation laws, every scan-cursor
    # edge case, and the sharded integration suite (seam resume,
    # boundary keys, validation report).
    LLX_STRUCT='sharded(patricia,4)' LLX_STRESS_MILLIS=150 \
        cargo test -q --release -p llx-scx-repro \
        --test linearizability --test conc_stress --test scan \
        --test scan_cursor --test sharded
    # Debug soak: the generation-stamp ABA detectors and reclamation
    # ledgers only exist under debug_assertions — run the churn legs
    # with them armed while stitched cursors cross shard seams.
    LLX_STRUCT='sharded(patricia,4)' LLX_SCAN_WINDOW=4 LLX_STRESS_MILLIS=250 \
        cargo test -q -p llx-scx-repro --test sharded --test scan_cursor
    # Perf leg: the facade's per-op overhead (routing) on the
    # wide-range read row must stay bounded — the gate catches
    # pathological regressions (e.g. routing gone O(shards)), not the
    # single-digit facade tax. Best-of-3 per column with 25% tolerance:
    # observed overhead swings 5-15% run-to-run on the 1-core host, so
    # anything tighter flakes on scheduler noise.
    #
    # Each run is still time-boxed (any hang must fail the stage, not
    # block CI), but with no retry: the recycling use-after-free that
    # used to wedge compare runs in an infinite help loop is fixed
    # (packed stage-2 claim word in ScxHeader::rc), so a timeout here
    # is a real bug again, not known flakiness to paper over.
    cargo build -q --release -p bench-harness
    local _run
    for _run in 1 2 3; do
        LLX_BENCH_CELL_MILLIS=100 LLX_STRUCT='patricia,sharded(patricia,4)' \
            timeout 300 target/release/bench-harness compare
    done | awk '
        function v(s) {
            if (s ~ /G$/) return s * 1e9
            if (s ~ /M$/) return s * 1e6
            if (s ~ /k$/) return s * 1e3
            return s + 0
        }
        /^ *1024 +0% +4 / { b = v($4); s = v($5); if (b > bb) bb = b; if (s > bs) bs = s; n++ }
        END {
            if (n != 3) { print "expected 3 read-row samples, got " n > "/dev/stderr"; exit 1 }
            printf "    shard perf: bare best %.4g ops/s, sharded(patricia,4) best %.4g ops/s\n", bb, bs
            if (bs < 0.75 * bb) {
                print "sharded(patricia,4) read throughput fell >25% below bare patricia" > "/dev/stderr"
                exit 1
            }
        }'
}

stage_compare_smoke() {
    local out structures s rows
    out="$(LLX_BENCH_CELL_MILLIS=15 LLX_SCAN_PCT=10 LLX_SCAN_RANGE=8 \
        cargo run -q --release -p bench-harness -- compare)"
    structures=(scx-multiset chromatic bst patricia kcas-multiset hoh-multiset coarse-multiset)
    for s in "${structures[@]}"; do
        if ! grep -q "$s" <<<"$out"; then
            echo "compare output is missing structure column '$s'" >&2
            echo "$out" >&2
            return 1
        fi
    done
    rows=$(grep -cE '^ *(64|1024) ' <<<"$out" || true)
    if [[ "$rows" -ne 14 ]]; then
        echo "compare table has $rows data rows, expected 14" >&2
        echo "$out" >&2
        return 1
    fi
    # Every data row must carry range+upd+thr plus one cell per structure.
    if ! awk -v want=$((3 + ${#structures[@]})) \
        '/^ *(64|1024) / { if (NF != want) { print "malformed row (" NF " fields): " $0; exit 1 } }' \
        <<<"$out"; then
        return 1
    fi
    echo "    compare table: 14 rows x ${#structures[@]} structure columns, all present"

    # Spec-selected columns: LLX_STRUCT must narrow the sweep to the
    # listed specs, with a sharded facade appearing under its canonical
    # spec name next to the bare backend (3 key columns + 2 structures).
    out="$(LLX_BENCH_CELL_MILLIS=15 LLX_STRUCT='patricia,sharded(patricia,4)' \
        cargo run -q --release -p bench-harness -- compare)"
    if ! grep -q 'sharded(patricia,4)' <<<"$out"; then
        echo "compare under LLX_STRUCT is missing the sharded(patricia,4) column" >&2
        echo "$out" >&2
        return 1
    fi
    if grep -q 'scx-multiset' <<<"$out"; then
        echo "compare under LLX_STRUCT leaked an unselected structure column" >&2
        echo "$out" >&2
        return 1
    fi
    if ! awk '/^ *(64|1024) / { if (NF != 5) { print "malformed sharded row (" NF " fields): " $0; exit 1 } }' \
        <<<"$out"; then
        return 1
    fi
    echo "    compare table under LLX_STRUCT: sharded(patricia,4) column present, unselected columns absent"

    # The scanwin table: one row per structure (LLX_SCAN_WINDOW pins a
    # single window size, 2 ranges), every structure present, and the
    # windowed columns well-formed (9 fields per data row).
    out="$(LLX_BENCH_CELL_MILLIS=15 LLX_SCAN_WINDOW=8 \
        cargo run -q --release -p bench-harness -- scanwin)"
    for s in "${structures[@]}"; do
        if [[ "$(grep -cE "^ *$s " <<<"$out")" -ne 2 ]]; then
            echo "scanwin output is missing rows for structure '$s'" >&2
            echo "$out" >&2
            return 1
        fi
    done
    if ! awk '/^ *[a-z-]+-?multiset |^ *(chromatic|bst|patricia) / \
        { if (NF != 9) { print "malformed scanwin row (" NF " fields): " $0; exit 1 } }' \
        <<<"$out"; then
        return 1
    fi
    if ! grep -q "SCX-record pool:" <<<"$out"; then
        echo "scanwin output is missing the pool-stats line" >&2
        return 1
    fi
    echo "    scanwin table: $((2 * ${#structures[@]})) rows, all structures present, pool line printed"
}

stage_chaos() {
    # Resilience soak under deterministic fault injection. Release
    # leg: five consecutive seeds of `bench-harness chaos` — resilient
    # clients vs a loopback server while the injector kills
    # connections mid-batch, tears reply frames, drops scan streams,
    # starves the SCX-record pool and skips epoch ticks — asserting
    # op-ledger conservation, at-most-once mutations, zero SCX-record
    # leaks and bounded completion, under `timeout` so a wedged retry
    # loop or session thread fails the stage instead of hanging CI.
    # Debug leg: the same fault mix with the generation-stamp ABA
    # detectors (debug_assertions only) watching the reclamation races.
    cargo build -q --release -p bench-harness
    LLX_CHAOS_RUNS=5 LLX_CHAOS_OPS=1500 \
        timeout 300 target/release/bench-harness chaos
    cargo build -q -p bench-harness
    LLX_CHAOS_RUNS=2 LLX_CHAOS_OPS=400 \
        timeout 300 target/debug/bench-harness chaos
    echo "    chaos: 5 release seeds + 2 debug seeds survived"
}

stage_lin_long() {
    # Long recorded rounds (>= 2048 events per round, every structure)
    # under the per-key JIT checker — the regime the 64-event WGL
    # bitmask cannot reach. Budget: well under 60s; the long tests
    # themselves finish in well under a second in release.
    LLX_LIN_EVENTS=2048 LLX_LIN_CHECKER=jit \
        cargo test -q --release -p llx-scx-repro --test linearizability
    # The checker's own evidence: WGL-vs-JIT differential agreement on
    # thousands of generated histories, the committed bad-history
    # corpus, the partitioner edge cases and the shrinker contracts.
    cargo test -q --release -p linearize \
        --test differential --test corpus --test partition_edge
    echo "    lin-long: 2048-event rounds (JIT), differential + corpus + partition suites ok"
}

stage_bench_check() {
    ./benchmark/check.sh
}

stage_model() {
    # Separate target dirs: the model cfgs change type layouts workspace-wide,
    # so sharing ./target with the other stages would thrash the cache.
    local bound="${LLX_MODEL_BOUND:-1}"
    if [[ -n "$ONLY" ]]; then
        bound="${LLX_MODEL_BOUND:-2}"
    fi
    echo "    exploring clean kernels at preemption bound $bound" \
        "(regression legs pin bound >= 2)"
    # -p scopes to the workspace root's tests/model.rs (crates/multiset has
    # an unrelated `model` test target of its own).
    LLX_MODEL_BOUND="$bound" RUSTFLAGS="--cfg llx_model -Dwarnings" \
        CARGO_TARGET_DIR=target/model \
        cargo test -q -p llx-scx-repro --test model
    LLX_MODEL_BOUND="$bound" RUSTFLAGS="--cfg llx_model --cfg llx_model_bugs -Dwarnings" \
        CARGO_TARGET_DIR=target/model-bugs \
        cargo test -q -p llx-scx-repro --test model
}

stage_audit() {
    ./tools/ordering-audit.sh
}

stage_clippy() {
    cargo clippy --workspace --all-targets -- -D warnings
}

now_ms() {
    date +%s%3N
}

SUMMARY=()
TOTAL_MS=0
run_stage() {
    local name="$1" fn="$2"
    if [[ -n "$ONLY" && "$ONLY" != "$name" ]]; then
        return 0
    fi
    if [[ "$QUICK" == 1 && " ${QUICK_STAGES[*]} " != *" $name "* ]]; then
        return 0
    fi
    echo "==> [$name]"
    local start elapsed
    start=$(now_ms)
    "$fn"
    elapsed=$(( $(now_ms) - start ))
    TOTAL_MS=$((TOTAL_MS + elapsed))
    SUMMARY+=("$(printf '%-14s %6d.%03ds' "$name" $((elapsed / 1000)) $((elapsed % 1000)))")
    echo "    [$name] ok (${elapsed}ms)"
}

run_stage fmt stage_fmt
run_stage build stage_build
run_stage test stage_test
run_stage debug-stress stage_debug_stress
run_stage scanwin stage_scanwin
run_stage shard stage_shard
run_stage compare-smoke stage_compare_smoke
run_stage chaos stage_chaos
run_stage lin-long stage_lin_long
run_stage bench-check stage_bench_check
run_stage model stage_model
run_stage audit stage_audit
run_stage clippy stage_clippy

echo
echo "stage timings:"
printf '  %s\n' "${SUMMARY[@]}"
# The tracked wall-time number: compare it across PRs.
printf '  %-14s %6d.%03ds  (%d stages)\n' total $((TOTAL_MS / 1000)) $((TOTAL_MS % 1000)) "${#SUMMARY[@]}"
echo "CI green."
