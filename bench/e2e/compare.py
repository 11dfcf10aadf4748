#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark results (README.md in this directory).

    python3 bench/e2e/compare.py BENCHMARK.json BASE CHANGE [--layers]

BASE and CHANGE are result files written by gmpsvm_bench --json (run.py keeps
them in .bench_build/e2e/results/), or directories holding them: typically
ten runs of each side, made alternately, each with another --seed. For every
workload and end-to-end metric it prints both sides' median and quartiles
and a verdict:

  improved    the change is better in at least 9 of 10 pairs (ties count
              for neither) and the medians differ by more than the base's
              interquartile range;
  worse       the change's median is worse than the base's by more than the
              metric's bound;
  unresolved  neither, and either side's spread (interquartile range over
              median) is wider than the bound, so "unchanged" cannot be
              claimed;
  unchanged   otherwise.

Runs pair by seed when both sides ran the same seeds, else in file-name
order. --layers also prints the per-layer medians, marking metrics that read
exactly the same in every run. Exits 1 if any verdict is "worse".
Standard library only.
"""

import argparse
import json
import pathlib
import statistics
import sys


def load_results(path):
    path = pathlib.Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    results = []
    for f in files:
        with open(f) as handle:
            result = json.load(handle)
        if "workload" in result and "metrics" in result:
            results.append(result)
    return results


def by_workload(results):
    grouped = {}
    for result in results:
        grouped.setdefault(result["workload"], []).append(result)
    return grouped


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def pair_up(base, change):
    """Pairs runs by seed when the seed sets match, else in order."""
    base_seeds = [r["seed"] for r in base]
    change_seeds = [r["seed"] for r in change]
    if sorted(base_seeds) == sorted(change_seeds) and len(set(base_seeds)) == len(base_seeds):
        by_seed = {r["seed"]: r for r in change}
        return [(r, by_seed[r["seed"]]) for r in base]
    return list(zip(base, change))


def verdict(spec, base_values, change_values, pairs):
    """Returns (verdict, pairs the change won)."""
    sign = 1.0 if spec["better"] == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base_values)
    c_q1, c_med, c_q3 = quartiles(change_values)
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - b_med) > (b_q3 - b_q1):
        return "improved", wins
    if b_med != 0 and -sign * (c_med - b_med) / abs(b_med) > spec["bound"]:
        return "worse", wins
    spread = max((b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    return ("unresolved" if spread > spec["bound"] else "unchanged"), wins


def summary(values):
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def value(result, name):
    return result["metrics"][name]["value"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmark", help="BENCHMARK.json")
    parser.add_argument("base", help="base result file or directory")
    parser.add_argument("change", help="change result file or directory")
    parser.add_argument("--layers", action="store_true", help="also print per-layer medians")
    args = parser.parse_args()

    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    base = by_workload(load_results(args.base))
    change = by_workload(load_results(args.change))
    any_worse = False
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in base or workload not in change:
            print(f"{workload}: not run on both sides")
            continue
        b_runs, c_runs = base[workload], change[workload]
        pairs = pair_up(b_runs, c_runs)
        print(f"{workload}: {len(b_runs)} base runs, {len(c_runs)} change runs, "
              f"{len(pairs)} pairs; all correct: base "
              f"{all(r['correct'] for r in b_runs)}, change {all(r['correct'] for r in c_runs)}; "
              f"failed ops: base {sum(r['ops_failed'] for r in b_runs)}, "
              f"change {sum(r['ops_failed'] for r in c_runs)}")
        print(f"  {'metric':<14} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32} "
              f"{'delta':>7} {'wins':>7}  verdict (bound)")
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            b_values = [value(r, name) for r in b_runs]
            c_values = [value(r, name) for r in c_runs]
            value_pairs = [(value(b, name), value(c, name)) for b, c in pairs]
            result, wins = verdict(spec, b_values, c_values, value_pairs)
            any_worse |= result == "worse"
            b_med, c_med = quartiles(b_values)[1], quartiles(c_values)[1]
            delta = (c_med - b_med) / abs(b_med) if b_med else 0.0
            print(f"  {name:<14} {summary(b_values):>32} {summary(c_values):>32} "
                  f"{delta:>+7.1%} {wins:>3}/{len(value_pairs):<3}  {result} ({spec['bound']})")
        if args.layers:
            for spec in benchmark["per_layer"]:
                name = spec["name"]
                b_values = [value(r, name) for r in b_runs if name in r["metrics"]]
                c_values = [value(r, name) for r in c_runs if name in r["metrics"]]
                if not b_values or not c_values:
                    continue
                exact = len(set(b_values) | set(c_values)) == 1
                print(f"    {name:<36} {statistics.median(b_values):>14.6g} "
                      f"{statistics.median(c_values):>14.6g} {spec['unit']}"
                      f"{'  (exact)' if exact else ''}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
