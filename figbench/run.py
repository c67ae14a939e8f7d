#!/usr/bin/env python3
"""Run one figbench workload from the root of a checkout.

    python3 figbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the figbench binary from figbench/ against the checkout's src/ on first use
(into .bench_build/figbench), then runs it. The binary prints a report and,
as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. Build output goes to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "figbench"
WORKLOADS = ("fig05-bitonic-maspar", "fig16-matmul-cm5", "table1-calib-sweep")
# Environment switches that would turn a plane on; the benchmark measures
# the tier-1 configuration, where every plane is compiled in but off.
PLANE_ENV = ("PCM_AUDIT", "PCM_RACE", "PCM_OBS", "PCM_PROCESS_CHAOS")
# Head room beyond --seconds for the reference pass and the last timed pass.
RUN_SLACK_S = 150


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def build(env):
    """Configure (once) and build the binary; return its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"figbench: no pcm sources under {ROOT / 'src'}", file=sys.stderr)
        return None
    if shutil.which("cmake") is None:
        print("figbench: cmake not found", file=sys.stderr)
        return None
    # Keep compiler temporaries inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(env, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            print("figbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return BUILD / "figbench"


def main():
    args = parse_args()
    env = {k: v for k, v in os.environ.items() if k not in PLANE_ENV}
    binary = build(env)
    if binary is None:
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", str(BUILD / "scratch")]
    try:
        return subprocess.run(cmd, env=env,
                              timeout=args.seconds + RUN_SLACK_S).returncode
    except subprocess.TimeoutExpired:
        print("figbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
