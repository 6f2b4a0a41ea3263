#!/usr/bin/env python3
"""Build and run the scenario benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
harness (and the simulator libraries it links) into .bench_build/perfbench;
later calls rebuild incrementally. All arguments are passed to the harness,
whose last line of standard output is the JSON result. The exit code is the
harness's, or non-zero without a result when the build fails or the
simulator sources are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"simulator sources not found under {ROOT}/src")
        return False
    # Build chatter goes to stderr: stdout's last line is the result.
    out = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=out, stderr=out).returncode != 0:
            log("configure failed")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=out, stderr=out).returncode != 0:
        log("build failed")
        return False
    return True


def main():
    if not build():
        return 2
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
