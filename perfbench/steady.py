"""Steadiness check: two interleaved sets of runs must agree.

    python3 perfbench/steady.py [--runs 10]

For each workload of ``BENCHMARK.json``, runs ``perfbench/run.py``
``--runs`` times for set A (seeds 1..N) and set B (seeds 101..100+N),
alternating A and B and which of the two goes first, each for the
``run_seconds`` of ``BENCHMARK.json``.  For every end-to-end metric it
prints each set's median and quartiles (``statistics.quantiles(n=4)``),
the spread (interquartile distance over the median) and whether the
sets agree: the spread of each set is within the metric's bound, and
neither median is worse than the other by more than the bound.  The share of failed operations must be the same in every run.
Exits 1 on any disagreement.  Raw results go to
``perfbench/steady-results.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def worse_by(better: str, base: float, other: float) -> float:
    """How much worse *other* is than *base*, as a share of *base*."""
    if base == 0:
        return 0.0
    change = (other - base) / base
    return change if better == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    raw: dict = {}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            pair = [("A", 1 + i), ("B", 101 + i)]
            if i % 2:
                pair.reverse()
            for name, seed in pair:
                result = run_once(workload, seed, bench["run_seconds"])
                sets[name].append(result)
                print(f"{workload} set {name} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()), flush=True)
        raw[workload] = sets
        shares = {r["failed"] / r["attempted"]
                  for runs in sets.values() for r in runs}
        if len(shares) != 1 or not all(
                r["correct"] for runs in sets.values() for r in runs):
            print(f"{workload}: failed shares differ or a run was wrong: "
                  f"{sorted(shares)}")
            ok = False
        print(f"\n{workload}: failed share {sorted(shares)}")
        print(f"  {'metric':<20} {'set':<3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
        for name in sets["A"][0]["metrics"]:
            spec = metrics[name]
            summary = {s: summarize([r["metrics"][name]["value"]
                                     for r in runs])
                       for s, runs in sets.items()}
            drift = max(worse_by(spec["better"], summary["A"]["median"],
                                 summary["B"]["median"]),
                        worse_by(spec["better"], summary["B"]["median"],
                                 summary["A"]["median"]))
            agree = drift <= spec["bound"] and all(
                s["spread"] <= spec["bound"] for s in summary.values())
            ok = ok and agree
            for s in ("A", "B"):
                row = summary[s]
                verdict = ("" if s == "A" else
                           f"{'agree' if agree else 'DISAGREE'} "
                           f"(medians {drift * 100:+.1f}%)")
                print(f"  {name:<20} {s:<3} {row['median']:12.4f} "
                      f"{row['q1']:12.4f} {row['q3']:12.4f} "
                      f"{row['spread'] * 100:6.1f}% {spec['bound']:6.2f}  "
                      f"{verdict}")
        print(flush=True)
    with open(os.path.join(HERE, "steady-results.json"), "w") as handle:
        json.dump(raw, handle, indent=1)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
