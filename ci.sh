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
#                  longer churn phase: the update-CAS detector (one
#                  win per SCX) and the Data-record lifecycle check
#                  only exist under debug_assertions, and rare races
#                  need soak time the tier-1 defaults don't give; then
#                  the reclamation binaries (shim collect/fault/idle,
#                  llx-scx recycle/reclaim/ownership/pool_stats, root
#                  reclaim_global) 5x in release at the
#                  default test-thread count, so tests that share the
#                  epoch shim and the pool run in parallel
#   scanwin        the two tests that read LLX_SCAN_WINDOW (windowed
#                  scans under churn, per-window conservation laws
#                  checked mid-churn) at windows 3 and 16 in release and
#                  4 in debug, so the debug-only detectors
#                  soak the cursor paths; and in release, where the
#                  walk's prefetch and buffer sizing are optimised as
#                  shipped, the deep-structure model agreement and the
#                  per-window allocation count (tests/scan_alloc.rs)
#   shard          the sharded scale-out facade: linearizability, stress
#                  conservation, scan-cursor edge cases and the sharded
#                  integration suite all at LLX_STRUCT='sharded(patricia,4)'
#                  (release), and a debug ABA soak across the shard seams.
#                  Routing cost is the benchmark's to judge: `net-pipe`
#                  is its one sharded(..) workload
#   chaos          the whole netsvc suite in release under `timeout`:
#                  unit tests, server, resilience, protocol, fuzz, and
#                  the resilience soak (crates/netsvc/tests/chaos.rs:
#                  resilient clients vs a loopback server while the
#                  injector kills connections mid-batch, tears frames,
#                  starves the record pool and skips epoch ticks, five
#                  seeds, asserting op-ledger conservation, at-most-once
#                  mutations, a bounded SCX descriptor table and bounded
#                  completion). Batch formation and write coalescing are
#                  timing-dependent, so they run at release speed too;
#                  the `test` stage already runs the suite in debug,
#                  where the debug-only detectors watch. A failing
#                  chaos seed replays bit-for-bit with
#                  tools/fault-replay.sh
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
#                  with `--cfg llx_model_bugs` re-introduces three
#                  races (an info word without its seq, a helper
#                  skipping its re-check after copying a descriptor,
#                  the epoch collect TOCTOU), which the explorer must
#                  re-find deterministically. Both legs run with
#                  --test-threads=1: every live thread that has pinned
#                  owns an epoch slot, so a peer test thread would change
#                  the length of the collector's slot scan between a
#                  regression test's two explorations. A full ./ci.sh run
#                  explores the clean kernels at bound 1 to stay quick;
#                  `./ci.sh --stage model` uses the default bound 2
#                  (override with LLX_MODEL_BOUND). The regression
#                  tests pin bound >= 2 themselves, and the descriptor
#                  reuse kernel (whose race needs three preemptions)
#                  bound >= 3 in both legs.
#   audit          ordering-discipline audit (tools/ordering-audit.sh):
#                  every SeqCst/Relaxed site must carry a `// ord:`
#                  justification or an allowlist entry, and every
#                  allowlist entry must still match a source file
#   clippy         cargo clippy --workspace --all-targets -D warnings
set -euo pipefail
cd "$(dirname "$0")"

ALL_STAGES=(fmt build test debug-stress scanwin shard chaos lin-long bench-check model audit clippy)
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
    # the debug-only detectors — the update-CAS detector (a second win
    # for one SCX panics), and the Data-record lifecycle check on the
    # recycled node path the trees and multiset drive — get enough soak
    # to catch rare races, not just a smoke pass.
    LLX_STRESS_MILLIS=600 cargo test -q -p llx-scx -p trees -p multiset
    # The reclamation binaries, 5x in release at the default test-thread
    # count: their tests run in parallel with no lock between them, so
    # each must hold whichever peer test collects, exits or hands off
    # at the same time.
    local i
    for i in 1 2 3 4 5; do
        echo "    reclamation binaries, release, round $i/5"
        cargo test -q --release -p crossbeam-epoch --test collect --test fault --test idle
        cargo test -q --release -p llx-scx --test recycle --test reclaim \
            --test ownership --test pool_stats
        cargo test -q --release -p llx-scx-repro --test reclaim_global
    done
}

stage_scanwin() {
    # The tests that read LLX_SCAN_WINDOW; the `test` stage runs every
    # other scan test in debug. The stress harness asserts the per-window
    # conservation laws on every emitted window (tiling, in-window
    # ascent and bounds, key budget, positive counts) plus the quiescent
    # windowed-scan = len() law. Release: tiny windows (maximal boundary
    # count) and mid-size, then the deep-structure model agreement and
    # the per-window allocation count, which test the walk's prefetch
    # and buffer sizing as optimised. Debug: the update-CAS detector and
    # the Data-record lifecycle check only exist under debug_assertions.
    local tests=(--test conc_stress --test scan_cursor --
        every_structure_balances_under_windowed_scans windowed_scans_survive_concurrent_churn)
    local w
    for w in 3 16; do
        LLX_SCAN_WINDOW=$w LLX_STRESS_MILLIS=300 cargo test -q --release -p llx-scx-repro "${tests[@]}"
    done
    cargo test -q --release -p llx-scx-repro --test scan_alloc --test scan_cursor -- \
        window_allocations_do_not_grow_with_the_window deep_structures_agree_with_a_model_at_every_window
    LLX_SCAN_WINDOW=4 LLX_STRESS_MILLIS=250 cargo test -q -p llx-scx-repro "${tests[@]}"
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
    # Debug soak: the update-CAS detector and the Data-record lifecycle
    # check only exist under debug_assertions — run the churn legs
    # with them armed while stitched cursors cross shard seams.
    LLX_STRUCT='sharded(patricia,4)' LLX_SCAN_WINDOW=4 LLX_STRESS_MILLIS=250 \
        cargo test -q -p llx-scx-repro --test sharded --test scan_cursor
}

stage_chaos() {
    # The release leg of every netsvc test target, chaos included; the
    # `test` stage runs them in debug. `timeout` turns a wedged retry
    # loop or session thread into a failed stage instead of a hung ci.
    timeout 300 cargo test -q --release -p netsvc
    echo "    chaos: netsvc suite and 5 chaos seeds survived in release"
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
        "(regression legs pin bound >= 2, descriptor_reuse >= 3)"
    # -p scopes to the workspace root's tests/model.rs (crates/multiset has
    # an unrelated `model` test target of its own).
    LLX_MODEL_BOUND="$bound" RUSTFLAGS="--cfg llx_model -Dwarnings" \
        CARGO_TARGET_DIR=target/model \
        cargo test -q -p llx-scx-repro --test model -- --test-threads=1
    LLX_MODEL_BOUND="$bound" RUSTFLAGS="--cfg llx_model --cfg llx_model_bugs -Dwarnings" \
        CARGO_TARGET_DIR=target/model-bugs \
        cargo test -q -p llx-scx-repro --test model -- --test-threads=1
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
