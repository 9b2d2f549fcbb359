#!/bin/sh
# One-shot hardening matrix (ROADMAP.md): every gate the PR
# acceptance bar cares about, driven from a clean shell and
# summarized per stage at the end.
#
# Usage: check_all.sh [source-dir]
#
# Stages:
#   tier1    default build + full ctest suite
#   werror   -DSMTHILL_WERROR=ON build (warnings are errors)
#   lint     smthill_lint over the tree (ctest -R Lint)
#   analyze  smthill_analyze cross-TU passes (ctest -R Analyze)
#   tidy     clang-tidy wrapper (skips without clang-tidy)
#   asan     -DSMTHILL_SANITIZE=address build + FuzzSmoke + QuietSkip
#            + Attachment + JsonFields + EventCatalog
#            + TraceReportHostSpans
#   tsan     -DSMTHILL_SANITIZE=thread build + parallel suites
#   benchdiff  report-only perf diff of bench/BENCH_sim_speed.json
#              against a fresh bench_sim_speed run (never fails the
#              matrix; refresh the baseline when it legitimately moves)
#
# Every stage runs even after a failure; the exit status is nonzero
# iff any stage (other than an explicit skip) failed. Build trees are
# reused across invocations (build/, build-werror/, build-asan/,
# build-tsan/).

set -u

SRC_DIR=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
JOBS=$(nproc 2> /dev/null || echo 4)

RESULTS=""
OVERALL=0

record()
{
    # record <stage> <status>: 0 pass, 77 skip, else fail
    case $2 in
        0)  RESULTS="$RESULTS$1: PASS\n" ;;
        77) RESULTS="$RESULTS$1: SKIP\n" ;;
        *)  RESULTS="$RESULTS$1: FAIL (exit $2)\n"; OVERALL=1 ;;
    esac
}

stage_build()
{
    # stage_build <build-dir> <cmake-args...>
    dir=$1
    shift
    cmake -B "$dir" -S "$SRC_DIR" "$@" > /dev/null &&
        cmake --build "$dir" -j "$JOBS"
}

echo "== tier1: default build + full test suite =="
stage_build "$SRC_DIR/build" &&
    (cd "$SRC_DIR/build" && ctest --output-on-failure -j "$JOBS")
record tier1 $?

echo "== werror: warnings-as-errors build =="
stage_build "$SRC_DIR/build-werror" -DSMTHILL_WERROR=ON
record werror $?

echo "== lint: project linter over the tree =="
(cd "$SRC_DIR/build" && ctest --output-on-failure -R '^Lint$')
record lint $?

echo "== analyze: cross-TU analyzer passes =="
(cd "$SRC_DIR/build" && ctest --output-on-failure -R '^Analyze$')
record analyze $?

echo "== tidy: clang-tidy wrapper =="
"$SRC_DIR/tools/run_clang_tidy.sh" "$SRC_DIR" "$SRC_DIR/build"
record tidy $?

echo "== asan: address-sanitized fuzz smoke + tests =="
stage_build "$SRC_DIR/build-asan" -DSMTHILL_SANITIZE=address &&
    (cd "$SRC_DIR/build-asan" &&
     ctest --output-on-failure -j "$JOBS" -R 'FuzzSmoke|QuietSkip|TsanFixture|Attachment|JsonFields|EventCatalog|TraceReportHostSpans')
record asan $?

echo "== tsan: thread-sanitized parallel suites =="
stage_build "$SRC_DIR/build-tsan" -DSMTHILL_SANITIZE=thread &&
    (cd "$SRC_DIR/build-tsan" &&
     ctest --output-on-failure -j "$JOBS" \
           -R 'ThreadPool|ParallelDeterminism|TsanFixture|FuzzSmoke')
record tsan $?

echo "== benchdiff: report-only perf diff vs the tracked baseline =="
# Report-only by design: microbenchmark numbers shift with host load,
# so the gate informs here and blocks only when run by hand. A fast
# run (min_time 0.05) is plenty to catch a 2x cliff.
if [ -x "$SRC_DIR/build/bench/bench_sim_speed" ] &&
       [ -x "$SRC_DIR/build/tools/smthill_bench_diff" ]; then
    BENCH_NOW=$SRC_DIR/build/bench_sim_speed_now.json
    SMTHILL_STATS_JSON="$BENCH_NOW" \
        "$SRC_DIR/build/bench/bench_sim_speed" \
        --benchmark_min_time=0.05 > /dev/null 2>&1 &&
        "$SRC_DIR/build/tools/smthill_bench_diff" \
            "$SRC_DIR/bench/BENCH_sim_speed.json" "$BENCH_NOW"
    echo "(benchdiff is report-only; refresh bench/BENCH_sim_speed.json"
    echo " when a deliberate perf change moves the baseline)"
    record benchdiff 0
else
    record benchdiff 77
fi

echo
echo "== hardening matrix =="
# shellcheck disable=SC2059
printf "$RESULTS"
exit $OVERALL
