#!/usr/bin/env bash
# Run the chaos suite (randomized fault-injection property tests, ctest
# label `chaos`) under both sanitizer presets: asan+ubsan first, then
# tsan. A fault schedule that leaks a reservation, double-frees an
# allocation, or races a recovery path surfaces here rather than in the
# plain build. CI-friendly: exits non-zero on any configure, build, or
# test failure. Usage: scripts/check_chaos.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

scripts/check_san.sh asan -L chaos "$@"
scripts/check_san.sh tsan -L chaos "$@"
