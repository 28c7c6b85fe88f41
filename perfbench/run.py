#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload protect_cold --seed 0 --seconds 10 --trace 0

The C++ program is built with CMake under $CARGO_TARGET_DIR (default
.bench_build) inside the repository. Build output goes to stderr; the last
line of stdout is its JSON result. A failed build exits non-zero
without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["protect_cold", "protect_warm", "campaign"]


def build(build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-scale variant on small circuits")
    ap.add_argument("--write-pins", action="store_true",
                    help="record this run's pinned results instead of "
                         "checking them")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = target if os.path.isabs(target) else os.path.join(ROOT, target)
    exe = build(os.path.join(out_dir, "perfbench"))
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    # Relative paths keep the server's unix socket path short.
    rel = os.path.relpath(out_dir, ROOT)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(rel, "work"),
           "--trace-dir", os.path.join(rel, "trace"),
           "--pins", os.path.relpath(os.path.join(HERE, "pins_seed0.txt"),
                                     ROOT)]
    if args.smoke:
        cmd.append("--smoke")
    if args.write_pins:
        cmd.append("--write-pins")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
