#!/usr/bin/env bash
# Local mirror of the tier-1 verify and of what CI runs: header
# self-containment check, configure, build everything (libraries, 17 test
# suites, 18 benches, 6 examples), then run the full CTest suite.
#
# Usage:
#   scripts/check.sh            # Release build into build/
#   scripts/check.sh --asan     # Debug + ASan/UBSan build into build-asan/
set -euo pipefail

cd "$(dirname "$0")/.."

scripts/check_headers.sh

BUILD_DIR=build
CMAKE_ARGS=()
if [[ "${1:-}" == "--asan" ]]; then
  BUILD_DIR=build-asan
  CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE=Debug -DFROSCH_SANITIZE=ON)
  shift
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"
