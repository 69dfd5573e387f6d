"""Steadiness check: two sets of runs of the same checkout, compared
against the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--workloads verify,spectrum]

Run from the root of a checkout.  Each run lasts run_seconds from
BENCHMARK.json.  Set A uses seeds 1..runs, set B the next `runs` seeds;
the runs of the two sets alternate.  For each workload and end-to-end
metric it prints the median and the spread (distance between the first
and third quartile over the median) of each set, and the shift of B's
median from A's in the worse direction.  A metric agrees when both
spreads stay within its bound and the shift does too; the share of
failed operations must be equal in the two sets.  Exits 1 if anything
disagrees.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 900


def run_once(command, workload, seed, seconds) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_shift(a, b, better) -> float:
    """How much worse B's median is than A's, as a share of A's median."""
    ma, mb = statistics.median(a), statistics.median(b)
    return (mb - ma) / ma if better == "lower" else (ma - mb) / ma


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steadiness.py")
    parser.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    args = parser.parse_args(argv)
    with open(os.path.join(os.getcwd(), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    command = [sys.executable if bench["command"][0] == "python3" else bench["command"][0]]
    command += bench["command"][1:]

    all_agree = True
    report = {}
    for workload in names:
        sets = {"A": [], "B": []}
        for k in range(args.runs):
            for label, offset in (("A", 0), ("B", args.runs)):
                seed = 1 + offset + k
                result = run_once(command, workload, seed, seconds)
                sets[label].append(result)
                print(f"{workload} set {label} seed {seed}: " + json.dumps(
                    {n: m["value"] for n, m in result["metrics"].items()}), file=sys.stderr)
        rows = {}
        shares = {label: sorted({r["failed"] / r["attempted"] for r in runs})
                  for label, runs in sets.items()}
        correct = all(r["correct"] for runs in sets.values() for r in runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            row = {"median_A": statistics.median(a), "median_B": statistics.median(b),
                   "spread_A": spread(a), "spread_B": spread(b),
                   "spread_all": spread(a + b),
                   "worse_shift": worse_shift(a, b, metric["better"]), "bound": bound}
            row["agrees"] = (max(row["spread_A"], row["spread_B"]) <= bound
                             and row["worse_shift"] <= bound)
            all_agree &= row["agrees"]
            rows[name] = row
            print(f"{workload:9s} {name:18s} A {row['median_A']:12.6g} ({row['spread_A']:.3f})"
                  f"  B {row['median_B']:12.6g} ({row['spread_B']:.3f})"
                  f"  all {row['spread_all']:.3f}  shift {row['worse_shift']:+.3f}"
                  f"  bound {bound}  {'ok' if row['agrees'] else 'DISAGREES'}")
        same_share = len(shares["A"]) == 1 and shares["A"] == shares["B"]
        all_agree &= same_share and correct
        print(f"{workload:9s} failed share A {shares['A']} B {shares['B']}"
              f" {'ok' if same_share else 'DISAGREES'}; correct {correct}")
        report[workload] = {"metrics": rows, "failed_share": shares, "correct": correct}
    print(json.dumps(report))
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
