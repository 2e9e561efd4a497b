#!/usr/bin/env python3
"""Is the benchmark steady enough for its own bounds?

    python3 bench/stability.py [--seeds 10] [--workload NAME ...] [--trace]

Runs the benchmark as two sets.  A set runs every workload once per
seed (1..N), the second set in reverse workload order.  For each
workload x end-to-end metric it then reports, against the metric's
bound in ``BENCHMARK.json``:

* the spread of each set: the distance between the first and third
  quartile of its N values (``statistics.quantiles(values, n=4)``) as a
  share of their median.  It must stay within the bound (``setup_s``
  excepted), and should stay below a third of it;
* the gap: how much worse the second set's median is than the first's.
  It must stay within the bound for every metric.

Metrics that are exact for a seed (``virtual_ns_per_op``,
``mem_bytes_per_key``, and with ``--trace`` every per-layer ``count``
of the first seed's traced run) must match bit for bit between the
sets.  Exits non-zero beyond a bound or on an inexact repeat, and
writes the measured spreads to ``bench/out/stability.json`` — the
numbers the bounds in ``BENCHMARK.json`` were set from.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench

EXACT = ("virtual_ns_per_op", "mem_bytes_per_key")


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
    lines = done.stdout.splitlines()
    for line in lines:
        if line.startswith(("# PIN DRIFT", "# WARNING")):
            print(f"{workload} seed {seed}: {line[2:]}")
    return {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = bench.load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", action="store_true",
                        help="also compare the exact per-layer counts")
    args = parser.parse_args()
    workloads = args.workload or names
    seconds = spec["run_seconds"]

    sets = []
    for order in (workloads, workloads[::-1]):
        values: dict = {w: {} for w in workloads}
        counts: dict = {}
        for seed in range(1, args.seeds + 1):
            for w in order:
                for name, value in run_once(w, seed, 0, seconds).items():
                    values[w].setdefault(name, []).append(value)
                print(f"set {len(sets) + 1} seed {seed} {w}: "
                      f"ops_per_s {values[w]['ops_per_s'][-1]:.0f}", flush=True)
        if args.trace:
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for w in order:
                traced = run_once(w, 1, 1, seconds)
                counts[w] = {n: v for n, v in traced.items() if units[n] == "count"}
        sets.append((values, counts))

    (first, counts1), (second, counts2) = sets
    status = 0
    report: dict = {}
    print(f"\n{'workload':<14}{'metric':<20}{'bound':>7}{'spread1':>9}"
          f"{'spread2':>9}{'gap':>9}  verdict")
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = first[w][name], second[w][name]
            sign = 1 if metric["better"] == "lower" else -1
            gap = sign * (statistics.median(b) - statistics.median(a)) \
                / statistics.median(a)
            spreads = (spread(a), spread(b))
            verdict = "ok"
            if name != "setup_s" and max(spreads) > bound / 3:
                verdict = "loose (spread above a third of the bound)"
            if gap > bound or (name != "setup_s" and max(spreads) > bound):
                verdict = "BEYOND BOUND"
                status = 1
            if name in EXACT and a != b:
                verdict = "INEXACT REPEAT"
                status = 1
            report.setdefault(w, {})[name] = {
                "bound": bound, "spreads": spreads, "gap": gap,
                "medians": (statistics.median(a), statistics.median(b))}
            print(f"{w:<14}{name:<20}{bound:>7.2f}{spreads[0]:>9.3f}"
                  f"{spreads[1]:>9.3f}{gap:>+9.3f}  {verdict}")
        if counts1.get(w) != counts2.get(w):
            status = 1
            print(f"{w:<14}exact counts differ: {counts1.get(w)} != {counts2.get(w)}")
    os.makedirs(bench.OUT_DIR, exist_ok=True)
    with open(os.path.join(bench.OUT_DIR, "stability.json"), "w") as f:
        json.dump({"seeds": args.seeds, "report": report}, f, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
