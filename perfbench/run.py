#!/usr/bin/env python3
"""The netadv benchmark: build it and run one workload.

    python3 perfbench/run.py --workload fig1|serve|cc_campaign --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/ (a CMake package that
compiles the repo's src/ in Release) into .bench_build/perfbench, then runs
perfbench_netadv with campaign artifacts under .bench_build/work. The
harness itself pins every knob that changes the work: NETADV_THREADS per
workload, NETADV_SCALE=1, NETADV_F32_ROLLOUT=0, and the SIMD backend left to
runtime dispatch (the resolved backend is recorded).

Workloads (a round is a fixed amount of work; rounds repeat for S seconds,
with set-ups spread among them taking about a quarter of the time), each
on one thread:
  fig1         Figure-1 pipeline at reduced size.
  serve        SessionEngine serving mpc, mpc-dp (ssim) and batched
               pensieve sessions.
  cc_campaign  cc + fairness attack campaign and its resume pass through
               exp::run_campaign.

A decision is a protocol decision in fig1 and serve and a job in
cc_campaign. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer breakdown. The last stdout line is the result object; the line
before it records threads, SIMD backend, nproc, build type and the output
digest.

Timings are scaled to a nominal host speed: between every two set-ups or
rounds the harness times a fixed piece of reference work that runs no
netadv code (perfbench/harness/host_speed.cpp), and each span counts as
span * 8 ms / (reference CPU time). A shared host runs the same code up to
twice as slowly for minutes at a time; that stretches the reference work
too, so most of it cancels, while a slower program does not. setup_s is
the median set-up; wall_s, cpu_s and the decision percentiles are medians
over the rounds.

--tiny and --inject-bad-decision exist for perfbench/tests only.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_netadv"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no netadv sources next to {HERE.name}/ (looked in {ROOT})")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_netadv", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-bad-decision", action="store_true")
    args = parser.parse_args()
    # The harness knows the workloads; this only keeps the name a plain
    # word, since it names the run's scratch directory.
    if not args.workload.isidentifier():
        parser.error(f"bad workload name {args.workload!r}")

    if not build():
        return 1

    work = ROOT / ".bench_build" / "work" / f"{args.workload}-{os.getpid()}"
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--repo-root", str(ROOT),
               "--work-dir", str(work)]
    if args.tiny:
        command.append("--tiny")
    if args.inject_bad_decision:
        command.append("--inject-bad-decision")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        log(f"perfbench_netadv exited with {done.returncode}")
        return 1

    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("perfbench_netadv printed no result line")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"malformed result keys {sorted(result)}")
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
