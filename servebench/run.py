#!/usr/bin/env python3
"""Build and run the cqa_server benchmark from the root of a checkout.

    python3 servebench/run.py --workload cold_routes --seed 1 --seconds 55 --trace 0

builds servebench/main.exe with dune (the first run compiles the
library closure) and runs it; its last stdout line is the JSON result.  The A/A self-check runs one workload K times back to back, on
seeds SEED..SEED+K-1, and prints each end-to-end metric's median,
quartiles and min/max, with the quartile spread against the metric's
bound from BENCHMARK.json:

    python3 servebench/run.py --aa 5 --workload update_mix --seed 1 --seconds 55
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "servebench", "main.exe")


def build():
    # The shared dune cache lives outside the checkout; keep every write
    # inside it.  Build output goes to stderr: stdout ends with the result.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./servebench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    if r.returncode != 0:
        sys.exit(r.returncode)


def run_once(args, seed, capture):
    cmd = [EXE, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, cwd=ROOT, timeout=170, text=True,
                          stdout=subprocess.PIPE if capture else None)


def aa(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    group = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[group]}
    values = {}
    for i in range(args.aa):
        seed = args.seed + i
        r = run_once(args, seed, capture=True)
        if r.returncode != 0:
            sys.exit(f"run {i + 1} (seed {seed}) exited with {r.returncode}")
        result = json.loads(r.stdout.strip().splitlines()[-1])
        calib = [l for l in r.stdout.splitlines() if l.startswith("host.calib_ms")]
        print(f"run {i + 1}/{args.aa} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"{calib[0] if calib else ''}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':34} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} "
          f"{'max':>11} {'iqr/med':>8} {'bound':>6}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = ("steady" if spread <= bound / 3
                       else "within bound" if spread <= bound else "NOISY")
        print(f"{name:34} {med:11.4f} {q1:11.4f} {q3:11.4f} {min(vs):11.4f} "
              f"{max(vs):11.4f} {spread:8.3f} {bound if bound is not None else '-':>6} "
              f"{verdict}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True,
                   choices=["cold_routes", "update_mix"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--aa", type=int, metavar="K",
                   help="A/A self-check: K back-to-back runs (K >= 2)")
    args = p.parse_args()
    build()
    if args.aa:
        aa(args)
        return 0
    return run_once(args, args.seed, capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
