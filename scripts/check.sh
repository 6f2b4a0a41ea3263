#!/usr/bin/env bash
# Table-driven check driver: build one suite's test targets and run its
# ctest label regex under each of its presets, in order. CI-friendly: exits
# non-zero on any configure, build, or test failure. Extra arguments go to
# every ctest call.
# Usage: scripts/check.sh <suite> [extra ctest args...]
#
#   golden    golden-trace suite under default + asan: the golden stream
#             must be byte-identical across build modes, so a
#             sanitizer-only divergence is a determinism bug, not noise.
#   cluster   functional + chaos-property cluster suites and the golden
#             suite (a one-node fleet must stay byte-identical to the
#             single-machine path) under default + asan.
#   failover  functional failover suite, the 100-seed node-failure
#             chaos-property suite and the golden suite (fault-free runs
#             must stay byte-identical) under default + asan + tsan.
#   chaos     the randomized fault-injection property suites under asan
#             (address + undefined) then tsan: a fault schedule that leaks
#             a reservation, double-frees an allocation, or races a
#             recovery path surfaces here rather than in the plain build.
#   lint      swaplint's sweep of the production tree (any finding not
#             parked in tools/swaplint/baseline.txt fails) plus the
#             fixture self-tests, in the default build.
#
# To refresh the golden files after an intentional behavior change:
#   SWAPSERVE_UPDATE_GOLDEN=1 scripts/check.sh golden
# then re-run without the env var and commit the rewritten
# tests/golden/data/*.golden.
#
# The placement and failover benchmarks are bench binaries, not tests:
#   cmake --build build --target bench_cluster_placement bench_node_failover
#   ./build/bench/bench_cluster_placement
#   ./build/bench/bench_node_failover
#
# Each *SAN_OPTIONS default below applies only when the variable is unset.
set -euo pipefail

usage() {
  echo "usage: $0 <golden|cluster|failover|chaos|lint> [extra ctest args...]" >&2
  exit 2
}

# suite -> targets | ctest label regex | presets (run in order)
suite="${1:-}"
case "$suite" in
  golden)
    targets="golden_trace_test"
    labels="golden"
    presets="default asan"
    ;;
  cluster)
    targets="cluster_test property_cluster_test golden_trace_test"
    labels="cluster|golden"
    presets="default asan"
    ;;
  failover)
    targets="failover_test property_node_failover_test golden_trace_test"
    labels="cluster|golden"
    presets="default asan tsan"
    ;;
  chaos)
    targets="property_chaos_test property_cluster_test property_node_failover_test property_tiered_fleet_chaos_test"
    labels="chaos"
    presets="asan tsan"
    ;;
  lint)
    targets="swaplint lint_fixture_test"
    labels="lint"
    presets="default"
    ;;
  *) usage ;;
esac
shift

cd "$(dirname "$0")/.."

for preset in $presets; do
  case "$preset" in
    default) build_dir=build ;;
    asan)
      build_dir=build-asan
      export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
      export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
      ;;
    tsan)
      build_dir=build-tsan
      export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"
      ;;
  esac
  cmake --preset "$preset" >/dev/null
  # shellcheck disable=SC2086  # targets is a word list
  cmake --build "$build_dir" -j "$(nproc)" --target $targets
  ctest --test-dir "$build_dir" -L "$labels" --output-on-failure "$@"
done

echo "$suite: OK (${presets// / + })"
