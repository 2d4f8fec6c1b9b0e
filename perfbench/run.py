#!/usr/bin/env python3
"""Decision-query benchmark entry point.

    python3 perfbench/run.py --workload city|paper|teleop --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the simulator sources
under src/) into .bench_build/perfbench on first use, then runs the
benchmark binary, whose last stdout line is the JSON result. Build output
goes to stderr. The arguments are passed to the binary unchanged; it
validates them.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "runner.h")):
        print("perfbench: no simulator sources under src/", file=sys.stderr)
        return False
    # Keep compiler temporaries inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "perfbench",
            "perfbench_traced", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, env=env).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # --trace 1 runs the frame-pointer build (see CMakeLists.txt).
    args = sys.argv[1:]
    traced = any(a == "--trace" and b == "1" for a, b in zip(args, args[1:]))
    exe = os.path.join(BUILD, "perfbench_traced" if traced else "perfbench")
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
