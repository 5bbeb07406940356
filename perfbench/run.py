#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench binary from source (CMake, Release) into
.bench_build/perfbench of the checkout, runs one workload and relays its
output; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: elasticity-sequence, elasticity-mps (NOTES.md).
Exits non-zero without a result when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
BUILD = CHECKOUT / ".bench_build" / "perfbench"
WORKLOADS = ("elasticity-sequence", "elasticity-mps")


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return BUILD / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run failed with exit code {proc.returncode}",
              file=sys.stderr)
        return 1
    try:
        json.loads(lines[-1])
    except ValueError:
        print("perfbench: last output line is not a JSON result",
              file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
