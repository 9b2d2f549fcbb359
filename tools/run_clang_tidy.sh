#!/bin/sh
# Run clang-tidy over the project's compilation database with the
# curated check set from .clang-tidy at the repo root.
#
# Usage: run_clang_tidy.sh <source-dir> <build-dir>
#
# Exits 77 (the ctest SKIP_RETURN_CODE for TidyClean) with a notice
# when clang-tidy is not installed, so toolchains without clang see a
# skipped test rather than a failure. Any tidy diagnostic is an
# error: the tree is expected to stay tidy-clean.

set -u

SRC_DIR=${1:?usage: run_clang_tidy.sh <source-dir> <build-dir>}
BUILD_DIR=${2:?usage: run_clang_tidy.sh <source-dir> <build-dir>}

TIDY=""
for candidate in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17 \
                 clang-tidy-16 clang-tidy-15; do
    if command -v "$candidate" > /dev/null 2>&1; then
        TIDY=$candidate
        break
    fi
done

if [ -z "$TIDY" ]; then
    echo "TidyClean: clang-tidy not found on PATH; skipping" \
         "(install clang-tidy to enable this pass)"
    exit 77
fi

# A missing compilation database is an environment gap (generator or
# cache predating CMAKE_EXPORT_COMPILE_COMMANDS), not a lint failure:
# skip like the missing-binary case so ctest reports "skipped".
if [ ! -f "$BUILD_DIR/compile_commands.json" ]; then
    echo "TidyClean: $BUILD_DIR/compile_commands.json missing;" \
         "skipping (re-configure to regenerate the compilation" \
         "database)"
    exit 77
fi

# Every first-party translation unit; generated header TUs are
# covered transitively via the headers they include.
FILES=$(find "$SRC_DIR/src" "$SRC_DIR/bench" "$SRC_DIR/tools" \
             "$SRC_DIR/tests" -name '*.cc' \
             ! -path '*/fixtures/*' | sort)

STATUS=0
for f in $FILES; do
    "$TIDY" -p "$BUILD_DIR" --quiet --warnings-as-errors='*' "$f" \
        || STATUS=1
done

if [ "$STATUS" -eq 0 ]; then
    echo "TidyClean: clean ($TIDY)"
fi
exit $STATUS
