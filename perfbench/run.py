#!/usr/bin/env python3
"""Build and run the ehsim benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds the benchmark package
(perfbench/CMakeLists.txt, which builds the ehsim library from ../src) in
Release mode under .bench_build/perfbench, then runs one workload. The last
line of standard output is the JSON verdict of ehsim_perfbench; build output
goes to standard error. Exits non-zero, without a verdict, when the build
fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    command = ["cmake", "--build", BUILD, "--target", "ehsim_perfbench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "ehsim_perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
