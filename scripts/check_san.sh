#!/usr/bin/env bash
# Build one sanitizer preset and run the test suite under it. CI-friendly:
# exits non-zero on any configure, build, or test failure.
# Usage: scripts/check_san.sh <asan|tsan|ubsan> [extra ctest args...]
#
#   asan   address + undefined sanitizers (detect_leaks on)
#   tsan   thread sanitizer; the simulation core is single-threaded by
#          design, so this guards the exporters and any future threaded
#          harness code
#   ubsan  undefined-behavior sanitizer alone: catches UB that the combined
#          asan preset can mask, and builds faster
#
# All three presets are Debug builds, so the lock-debug deadlock validator
# is active. Each *SAN_OPTIONS variable below is only a default: a value
# already set in the environment wins.
set -euo pipefail

san="${1:-}"
case "$san" in
  asan)
    export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
    ;;
  tsan)
    export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
    ;;
  ubsan)
    export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
    ;;
  *)
    echo "usage: $0 <asan|tsan|ubsan> [extra ctest args...]" >&2
    exit 2
    ;;
esac
shift

cd "$(dirname "$0")/.."

cmake --preset "$san"
cmake --build "build-$san" -j "$(nproc)"
ctest --test-dir "build-$san" --output-on-failure -j "$(nproc)" "$@"
