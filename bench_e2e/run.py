#!/usr/bin/env python3
"""Builds wlansim_bench_e2e from this checkout and runs one workload.

Run from the repository root:

    python3 bench_e2e/run.py --workload dense_bss --seed 1 --seconds 10 --trace 0

The build goes to .bench_build ($CARGO_TARGET_DIR when set) and build output
goes to stderr. With --trace 1 the traced run replaces the measurement and
its spans go to .bench_out/. The last line of stdout is the result JSON.
"""

import argparse
import os
import shutil
import subprocess
import sys

TARGET = "wlansim_bench_e2e"


def build(root):
    """Configures (once) and builds the benchmark; returns the binary path."""
    source = os.path.join(root, "bench_e2e")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        sys.exit("bench_e2e: no wlansim sources in %s to build" % root)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            sys.exit("bench_e2e: configuring the build failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target", TARGET, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        sys.exit("bench_e2e: the build failed")
    return os.path.join(build_dir, TARGET)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    command = [build(root), "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds]
    if args.trace:
        spans = os.path.join(root, ".bench_out")
        os.makedirs(spans, exist_ok=True)
        command.append("--trace=%s" % os.path.join(
            spans, "spans-%s-%d.json" % (args.workload, args.seed)))
    sys.stdout.flush()
    code = subprocess.run(command, cwd=root).returncode
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
