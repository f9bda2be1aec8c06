#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

    python3 perfbench/run.py --workload cold_explore --seed 1 --seconds 25 --trace 0

Builds perfbench/ (which compiles the library sources under src/) into
.bench_build/perfbench, then runs one workload with the parameters recorded
in perfbench/workloads.json. The last line of standard output is the JSON
result; build output goes to standard error. `--workload all` runs every
workload in turn and fails if any of them does.

    python3 perfbench/run.py --record-golden

rewrites perfbench/golden/<workload>.txt, the response fingerprints every
run with the default seed is checked against.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
DATA = os.path.join(ROOT, ".bench_build", "perfbench-data")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "service.h")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j4", "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def flags(config, workload, seed, seconds, trace):
    spec = config["workloads"][workload]
    out = ["--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--out_dir=" + OUT, "--data_dir=" + DATA]
    for name, value in spec["params"].items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        out.append("--%s=%s" % (name, value))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    binary = build()
    os.makedirs(OUT, exist_ok=True)
    os.makedirs(DATA, exist_ok=True)

    if args.record_golden:
        for workload in config["workloads"]:
            golden = os.path.join(HERE, "golden", workload + ".txt")
            cmd = [binary] + flags(config, workload, config["default_seed"],
                                   10, 0)
            subprocess.run(cmd + ["--record_golden=" + golden], check=True)
        return 0

    if args.workload == "all":
        workloads = list(config["workloads"])
    elif args.workload in config["workloads"]:
        workloads = [args.workload]
    else:
        fail("unknown workload %r; known: all, %s" %
             (args.workload, ", ".join(config["workloads"])))
    seed = config["default_seed"] if args.seed is None else args.seed
    code = 0
    for workload in workloads:
        cmd = [binary] + flags(config, workload, seed, args.seconds,
                               args.trace)
        if seed == config["default_seed"]:
            cmd.append("--golden=" +
                       os.path.join(HERE, "golden", workload + ".txt"))
        try:
            result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S))
        code = code or result.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
