#!/usr/bin/env python3
"""Build and run the LEGO benchmark.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S \
        --trace 0|1

WORKLOAD is gen_fig10, dse_explore or serve_batch; see
perfbench/README.md.

Run from the repository root. The first call configures and builds
perfbench/ (the library from src/ plus the benchmark program) into
.bench_build/ with CMake in Release mode; later calls reuse that build.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lego_perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode:
        sys.stderr.write(proc.stdout.decode())
        sys.exit("perfbench: lego_perfbench exited with %d" % proc.returncode)
    sys.stdout.write(proc.stdout.decode())


if __name__ == "__main__":
    main()
