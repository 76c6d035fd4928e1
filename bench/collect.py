#!/usr/bin/env python3
"""Collects timed runs of every workload into one file for `bench/compare`.

    bench/collect.py OUT.json [--runs N] [--seed FIRST]

N runs (default 10) of each workload, alternating workloads, run i at seed
FIRST + i (default 100). Check out and build the commit you want measured
first; run this once per commit, then `bench/compare A.json B.json`.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib


def main():
    args = sys.argv[1:]
    if not args or args[0].startswith("--"):
        raise SystemExit(__doc__)
    runs = int(args[args.index("--runs") + 1]) if "--runs" in args else 10
    seed = int(args[args.index("--seed") + 1]) if "--seed" in args else 100
    Path(args[0]).write_text(json.dumps(benchlib.collect(runs, seed), indent=1))


if __name__ == "__main__":
    main()
