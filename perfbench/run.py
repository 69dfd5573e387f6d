"""Benchmark of singext: the acceptance suite, spectral evaluation and CLI calls.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {verify,spectrum} --seed N \
        --seconds S --trace {0,1}

The package is imported from ./src of that checkout, never from an
installed copy.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Progress goes to stderr;
with --trace 1 the spans are written to perfbench/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
INTERPRETER_PROBES = 3
CLI_PROBES = 8
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=["verify", "spectrum"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_singext(root: str) -> None:
    """Import singext from <root>/src; exits 1 when the checkout has none."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "singext", "__init__.py")):
        sys.exit(f"perfbench: no src/singext under {root}; run from a checkout root")
    sys.path.insert(0, src)
    sys.path.insert(1, HERE)
    import singext
    if os.path.dirname(os.path.dirname(os.path.abspath(singext.__file__))) != src:
        sys.exit(f"perfbench: singext resolved to {singext.__file__}, not {src}")


def setup_probes(root: str, workload: str, seed: int) -> list[dict]:
    """Set up SETUP_PROBES times, each in a fresh interpreter."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               workload, str(seed)],
                              cwd=root, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def interpreter_probes(root: str) -> list[float]:
    """Wall time of a bare `python -c pass`."""
    out = []
    for _ in range(INTERPRETER_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, check=True,
                       timeout=PROBE_TIMEOUT_S)
        out.append(time.perf_counter() - start)
    return out


def run_rounds(workloads, workload, tally, seconds: float):
    """Closed loop: whole rounds until they have taken `seconds`.  The
    workload's CLI probe runs after each of the first CLI_PROBES rounds,
    and after the last one until CLI_PROBES calls are made; probe time
    does not count towards `seconds`.  Returns the rounds' Timings, the
    probe latencies and the number of rounds."""
    timings, probes, rounds = workloads.Timings(), [], 0
    probe_tally = type(tally)()
    spent = 0.0
    while not rounds or spent < seconds:
        start = time.perf_counter()
        timings.add(workload.round(tally, inprocess=False))
        spent += time.perf_counter() - start
        rounds += 1
        if len(probes) < CLI_PROBES:
            probes.append(workload.probe(probe_tally))
    while len(probes) < CLI_PROBES:
        probes.append(workload.probe(probe_tally))
    tally.take_problems(probe_tally, "CLI probe")
    return timings, probes, rounds


def end_to_end(args, root, workloads, tally) -> dict:
    setups = setup_probes(root, args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](root, args.seed)
    wl.prepare()
    timings, probes, rounds = run_rounds(workloads, wl, tally, args.seconds)
    metrics = wl.end_to_end(timings, probes)
    metrics["setup_s"] = workloads.median([p["import_s"] + p["build_s"] for p in setups])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"perfbench: {rounds} rounds, {len(probes)} CLI probes", file=sys.stderr)
    return metrics


def per_layer(args, root, workloads, tracing, tally) -> dict:
    probes = setup_probes(root, args.workload, args.seed)
    interpreter = interpreter_probes(root)
    cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    # A traced round makes one pass of the workload, so that counts per
    # round are counts per pass.
    untraced = cls(root, args.seed)
    untraced.grid_passes = 1
    untraced.prepare()
    with tracer.installed("setup"):
        traced = cls(root, args.seed)
        traced.grid_passes = 1
        traced.prepare()
    # Untraced and traced rounds alternate, so that both see the same
    # machine speed and their difference is the tracing overhead.
    plain, fast, rounds = workloads.Timings(), workloads.Timings(), 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        plain.add(untraced.round(tally, inprocess=True))
        with tracer.installed("rounds"):
            fast.add(traced.round(tally, inprocess=True))
        rounds += 1
    # Layers the workload never reaches are measured on one round of
    # each other workload and of the README calls, so that every
    # per-layer figure is measured.
    side = workloads.Tally()
    with tracer.installed("reference"):
        for name, other in workloads.REFERENCE.items():
            if name != args.workload:
                wl = other(root, args.seed)
                wl.grid_passes = 1
                wl.prepare()
                wl.round(side, inprocess=True)
    tally.take_problems(side, "reference round")

    os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
    path = os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["label", "start", "end", "parent", "phase"],
                   "spans": tracer.spans}, fh)

    metrics = tracing.layer_metrics(tracer.spans, rounds, workloads.CLI_LABELS)
    metrics["cli.interpreter_s"] = workloads.median(interpreter)
    metrics["cli.import_s"] = workloads.median([p["import_s"] for p in probes])
    base = cls.pass_s(plain)
    metrics["tracing.overhead_pct"] = 100.0 * (cls.pass_s(fast) - base) / base
    print(f"perfbench: {rounds} untraced and {rounds} traced rounds, "
          f"{len(tracer.spans)} spans -> {os.path.relpath(path, root)}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    import_singext(root)
    import tracing
    import workloads

    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end" if args.trace == 0 else "per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    tally = workloads.Tally()
    if args.trace == 0:
        values = end_to_end(args, root, workloads, tally)
    else:
        values = per_layer(args, root, workloads, tracing, tally)
    missing = sorted(set(units) ^ set(values))
    if missing:
        sys.exit(f"perfbench: metric names disagree with BENCHMARK.json: {missing}")
    for problem in tally.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
