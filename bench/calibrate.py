#!/usr/bin/env python3
"""Calibrates the benchmark: runs every workload of BENCHMARK.json once
per seed, in several back-to-back sets, and records the raw values and
their spread.

For each set, workload and end-to-end metric it reports the median and
the quartiles (statistics.quantiles, n=4) over the set's runs, and the
spread: the distance between the quartiles as a share of the median.
A check fails when a spread other than setup_s's exceeds the metric's
bound, or when a later set's median is worse than the first set's by
more than the bound; the script then exits 1. Spreads above a third of
the bound, the target for a steady benchmark, are listed as warnings.

Run it from the repository root:

    python3 bench/calibrate.py --sets 3 --runs 10 --out bench/calibration.json
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    samples = {}
    for line in lines:
        if line.strip().startswith("samples "):
            samples = json.loads(line.strip()[len("samples "):])
    return {
        "seed": seed,
        "wall_s": round(wall, 2),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "samples": {k: [float(f"{x:.6g}") for x in v] for k, v in samples.items()},
    }


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def dumps(record):
    """Indented JSON with every list of numbers kept on one line."""
    text = json.dumps(record, indent=1)
    return re.sub(r"\[\s*([-0-9.e,\s]*?)\s*\]",
                  lambda m: "[" + ", ".join(x.strip() for x in m.group(1).split(",")) + "]", text)


def check(sets, names, bounds):
    """Returns the failed checks and the warnings of a calibration."""
    failures, warnings = [], []
    for w in names:
        for m, bound in bounds.items():
            for i, st in enumerate(sets):
                spread = st["summary"][w][m]["spread"]
                if m == "setup_s":
                    continue
                if spread > bound:
                    failures.append(f"set {i + 1} {w} {m}: spread {spread:.3f} above bound {bound}")
                elif spread > bound / 3:
                    warnings.append(f"set {i + 1} {w} {m}: spread {spread:.3f} above a third of bound {bound}")
            meds = [st["summary"][w][m]["median"] for st in sets]
            for i in range(1, len(meds)):
                if meds[i] > meds[0] * (1 + bound):
                    failures.append(f"set {i + 1} {w} {m}: median {meds[i]:.6g} worse than set 1's {meds[0]:.6g} by more than {bound}")
    return failures, warnings


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=3)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set, one seed each")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--commit", default="", help="commit the runs measure, recorded as given")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    contract = json.load(open("BENCHMARK.json"))
    command, seconds = contract["command"], contract["run_seconds"]
    names = [w["name"] for w in contract["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}

    sets = []
    for s in range(args.sets):
        seeds = [s * args.runs + i + 1 for i in range(args.runs)]
        runs = {w: [] for w in names}
        for seed in seeds:
            for w in names:
                r = run_once(command, w, seed, seconds)
                runs[w].append(r)
                print(f"set {s + 1} {w:10s} seed {seed:3d} wall {r['wall_s']:6.1f}s "
                      + " ".join(f"{k}={v:.5g}" for k, v in sorted(r["metrics"].items())), flush=True)
        summary = {w: {m: summarize([r["metrics"][m] for r in runs[w]]) for m in bounds} for w in names}
        sets.append({"seeds": seeds, "runs": runs, "summary": summary})

    failures, warnings = check(sets, names, bounds)
    print(f"\n{'workload':10s} {'metric':18s} {'bound':>6s} " + " ".join(f"{'set' + str(i + 1) + ' median':>14s} {'spread':>7s}" for i in range(len(sets))))
    for w in names:
        for m, bound in bounds.items():
            cells = [f"{st['summary'][w][m]['median']:14.6g} {st['summary'][w][m]['spread']:7.3f}" for st in sets]
            print(f"{w:10s} {m:18s} {bound:6.2f} " + " ".join(cells))

    record = {
        "command": command,
        "run_seconds": seconds,
        "nproc": os.cpu_count(),
        "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip(),
        "machine": platform.machine(),
        "commit": args.commit,
        "sets": sets,
        "failures": failures,
        "warnings": warnings,
    }
    if args.out:
        with open(args.out, "w") as f:
            f.write(dumps(record) + "\n")
    for f in warnings:
        print("warning:", f)
    for f in failures:
        print("FAIL:", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
