#!/usr/bin/env python3
"""A/A noise study: two sets of runs of every workload on one build.

    bench/aa.sh [--runs N] [--no-write]

Sets A and B are collected in alternating rounds (A B B A A B ...), N
rounds each (default 5, the least that gives quartiles a meaning), every
round at its own seed and the workloads alternating within a round. Prints
per (workload, metric) both medians, both interquartile spreads as a share
of the median, and the gap between the medians. Unless --no-write it then
sets the `bound` of every end-to-end metric in BENCHMARK.json to the
largest of: the metric's floor, twice the worst gap, three times the worst
spread (so a spread stays under a third of its bound) - capped at 0.25,
the most the driver allows. A metric whose worst gap is above 10 %, or
whose worst spread is above 15 % (too close to that cap to be sure of
staying under it), is named for demotion to `per_layer`; the script does
not move it. The raw values are left in
bench/out/aa-A.json and aa-B.json, in the shape `bench/compare` reads.
"""
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib

FLOORS = {"txn_per_s": 0.05, "setup_s": 0.25}
DEFAULT_FLOOR = 0.10
DEMOTE_GAP_ABOVE = 0.10
DEMOTE_SPREAD_ABOVE = 0.15


def main():
    args = sys.argv[1:]
    runs = int(args[args.index("--runs") + 1]) if "--runs" in args else 5
    sets = {"A": None, "B": None}
    for i in range(runs):
        for label in ("A", "B") if i % 2 == 0 else ("B", "A"):
            print(f"set {label}, round {i + 1}/{runs}", file=sys.stderr)
            one = benchlib.collect(1, 1000 + 2 * i + (label == "B"))
            if sets[label] is None:
                sets[label] = one
            else:
                for w, metrics in one.items():
                    for name, values in metrics.items():
                        sets[label][w][name] += values
    out = benchlib.ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    for label, data in sets.items():
        (out / f"aa-{label}.json").write_text(json.dumps(data, indent=1))

    bench = benchlib.declared()
    worst = {}
    print(f"{'workload':<18}{'metric':<22}{'median A':>12}{'median B':>12}{'iqr A':>8}{'iqr B':>8}{'gap':>8}")
    for w in sets["A"]:
        for m in bench["end_to_end"]:
            name = m["name"]
            a, b = sets["A"][w][name], sets["B"][w][name]
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb = benchlib.spread(a), benchlib.spread(b)
            gap = abs(ma - mb) / ma
            print(f"{w:<18}{name:<22}{ma:>12.5g}{mb:>12.5g}{sa:>8.1%}{sb:>8.1%}{gap:>8.1%}")
            seen = worst.setdefault(name, {"gap": 0.0, "spread": 0.0})
            seen["gap"] = max(seen["gap"], gap)
            seen["spread"] = max(seen["spread"], sa, sb)

    print()
    for metric in bench["end_to_end"]:
        seen = worst[metric["name"]]
        floor = FLOORS.get(metric["name"], DEFAULT_FLOOR)
        metric["bound"] = round(min(0.25, max(floor, 2 * seen["gap"], 3 * seen["spread"])), 3)
        demote = metric["name"] != "setup_s" and (
            seen["gap"] > DEMOTE_GAP_ABOVE or seen["spread"] > DEMOTE_SPREAD_ABOVE)
        print(f"{metric['name']:<22} worst spread {seen['spread']:.1%}, worst gap {seen['gap']:.1%}"
              f" -> bound {metric['bound']}" + ("  <- too noisy to gate on: demote to per_layer" if demote else ""))
    if "--no-write" not in args:
        (benchlib.ROOT / "BENCHMARK.json").write_text(json.dumps(bench, indent=2) + "\n")
        print("bounds written to BENCHMARK.json")


if __name__ == "__main__":
    main()
