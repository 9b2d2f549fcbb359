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
#   lint     smthill_lint over the tree (ctest -R Lint: six rules)
#            and the layering build tests (LayeringCoreIncludesHarness,
#            LayeringMemoryIncludesPipeline: an upward include in a
#            module target must not compile)
#   tidy     clang-tidy wrapper (skips without clang-tidy)
#   asan     -DSMTHILL_SANITIZE=address build + the ASAN_SUITES
#            regex below (observability/export, open-system churn,
#            learner (HILL, PHASE-HILL, BANDIT, RL), quiet-skip,
#            wakeup-list, zero-allocation, stream-generator,
#            trial-commit and thread-pool suites,
#            FuzzSmoke, TsanFixture)
#   tsan     -DSMTHILL_SANITIZE=thread build + parallel suites and
#            TsanFixtureRacy, which passes only on TSan's race report
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

# The one list of suites run under ASan+UBSan (ROADMAP.md and the
# verify skill point here rather than repeat it).
ASAN_SUITES='Json|JsonFields|StatRegistry|EpochTracer|EpochEvent|EventTrace|TraceReport|MachineReport|Profile|HillMeasurement|HillBootstrap|PartitionMoves|OpenSystem|HillClimbing|PhaseHill|LearnerChurn|ChurnRefeasibility|Bandit|RlAlloc|QuietSkip|Attachment|EventCatalog|TraceReportHostSpans|FuzzSmoke|TsanFixture|CpuWakeup|ZeroAlloc|StreamGenerator|TrialCommit|ThreadPool'

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

echo "== lint: project linter + layering build tests =="
(cd "$SRC_DIR/build" && ctest --output-on-failure -R '^Lint$|^Layering')
record lint $?

echo "== tidy: clang-tidy wrapper =="
"$SRC_DIR/tools/run_clang_tidy.sh" "$SRC_DIR" "$SRC_DIR/build"
record tidy $?

echo "== asan: address-sanitized fuzz smoke + suites =="
stage_build "$SRC_DIR/build-asan" -DSMTHILL_SANITIZE=address &&
    (cd "$SRC_DIR/build-asan" &&
     ctest --output-on-failure -j "$JOBS" -R "$ASAN_SUITES")
record asan $?

echo "== tsan: thread-sanitized parallel suites =="
stage_build "$SRC_DIR/build-tsan" -DSMTHILL_SANITIZE=thread &&
    (cd "$SRC_DIR/build-tsan" &&
     ctest --output-on-failure -j "$JOBS" \
           -R 'ThreadPool|ParallelDeterminism|TrialCommit|TsanFixture|FuzzSmoke')
record tsan $?

echo
echo "== hardening matrix =="
# shellcheck disable=SC2059
printf "$RESULTS"
exit $OVERALL
