#!/usr/bin/env bash
# Request-plane verification battery (DESIGN.md §16):
#
#   1. The JSON + streaming + admission test set (unit, conformance corpus,
#      deterministic fuzz, property suites) in the default build.
#   2. The same set under address+undefined sanitizers (asan preset) and
#      the standalone ubsan preset — the fuzz battery's contract is "never
#      crashes, never trips a sanitizer", which only means something when a
#      sanitizer is watching.
#   3. The request-plane perf gate: bench_request_plane against the
#      checked-in BENCH_request_plane.json — the in-situ parse must hold
#      its >= 2x speedup over the DOM path (speedup_floor), stay
#      allocation-free (alloc ceilings), and no gated metric may regress
#      past regression_gate_pct.
#
# Usage: scripts/check_request_plane.sh [--skip-sanitizers] [--update]
#   --update refreshes the baseline's "post" block (and speedups vs the
#   recorded "pre": each in-situ row is compared with the pre DOM time of
#   the same row) after an intentional perf change; commit the result.
set -euo pipefail

cd "$(dirname "$0")/.."

FILTER='json_|property_request_plane|core_admission|core_streaming|core_router|core_sse'
SKIP_SANITIZERS=0
UPDATE=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitizers) SKIP_SANITIZERS=1 ;;
    --update) UPDATE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "== request plane: default build =="
if [ ! -f build/CMakeCache.txt ]; then
  cmake --preset default >/dev/null
fi
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)" -R "$FILTER"

if [ "$SKIP_SANITIZERS" = 0 ]; then
  echo "== request plane: asan+ubsan build =="
  cmake --preset asan >/dev/null
  cmake --build build-asan -j "$(nproc)"
  export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:strict_string_checks=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)" -R "$FILTER"

  echo "== request plane: ubsan build =="
  cmake --preset ubsan >/dev/null
  cmake --build build-ubsan -j "$(nproc)"
  ctest --test-dir build-ubsan --output-on-failure -j "$(nproc)" -R "$FILTER"
fi

echo "== request plane: perf gate =="
cmake --build build -j "$(nproc)" --target bench_request_plane
CURRENT="build/BENCH_request_plane_current.json"
SWAPSERVE_BENCH_JSON="$CURRENT" ./build/bench/bench_request_plane

if [ "$UPDATE" = 1 ]; then
  python3 - "$CURRENT" BENCH_request_plane.json <<'PY'
import json, sys

current = json.load(open(sys.argv[1]))["per_request"]
baseline_path = sys.argv[2]
baseline = json.load(open(baseline_path))
baseline["post"] = {k: round(v, 4) for k, v in sorted(current.items())}
pre = baseline.get("pre", {})


def pre_key(k):
    # The in-situ rows replaced the DOM path, so they have no "pre" of their
    # own: their speedup is over the pre DOM time of the same row.
    return k if k in pre else k.replace("_insitu_", "_dom_")


baseline["speedup_vs_pre"] = {
    k.replace("_us", ""): round(pre[pre_key(k)] / v, 2)
    for k, v in baseline["post"].items()
    if k.endswith("_us") and v and pre_key(k) in pre
}
with open(baseline_path, "w") as f:
    json.dump(baseline, f, indent=2)
    f.write("\n")
print(f"request-plane: baseline {baseline_path} updated")
PY
  exit 0
fi

python3 - "$CURRENT" BENCH_request_plane.json <<'PY'
import json, sys

current = json.load(open(sys.argv[1]))["per_request"]
baseline = json.load(open(sys.argv[2]))
tolerance = baseline.get("regression_gate_pct", 25) / 100.0
failures = []

# Hard floors from the issue: the in-situ request plane must keep its
# factor over the live-measured DOM path, and stay allocation-free.
for name, floor in baseline.get("speedup_floor", {}).items():
    got = current[f"{name}_dom_us"] / current[f"{name}_insitu_us"]
    if got < floor:
        failures.append(
            f"{name}: in-situ speedup {got:.2f}x is below the {floor}x floor")
    else:
        print(f"request-plane: {name}: in-situ {got:.2f}x vs dom "
              f"(floor {floor}x) ok")
for name, ceiling in baseline.get("alloc_ceiling", {}).items():
    got = current[name]
    if got > ceiling:
        failures.append(f"{name}: {got:.2f} allocs/request exceeds "
                        f"ceiling {ceiling}")
    else:
        print(f"request-plane: {name}: {got:.2f} allocs/request "
              f"(ceiling {ceiling}) ok")

# Soft gate: post metrics (lower is better) within tolerance of baseline.
for name, expected in baseline["post"].items():
    if not name.endswith("_us"):
        continue
    got = current.get(name)
    if got is None:
        failures.append(f"{name}: missing from current run")
    elif got > expected * (1.0 + tolerance):
        failures.append(
            f"{name}: {got:.3f} us/request is more than {tolerance:.0%} "
            f"above baseline {expected:.3f}")
    else:
        print(f"request-plane: {name}: {got:.3f} vs baseline "
              f"{expected:.3f} us ok")

if failures:
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
PY
echo "request-plane: OK"
