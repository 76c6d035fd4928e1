"""Shared by aa.py, collect.py and compare: run the benchmark, read results."""
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared():
    """BENCHMARK.json as a dict."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values):
    """Interquartile distance as a share of the median (the driver's measure)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def run_once(workload, seed, seconds, trace=0, extra=()):
    """One run; returns the parsed result object (the last stdout line)."""
    out = subprocess.run(
        ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def collect(runs, first_seed, seed_step=1, log=sys.stderr):
    """`runs` timed runs of every workload, workloads alternating, each round
    at its own seed. Returns {workload: {metric: [values]}}, with the share
    of failed transactions under the key "failed_share"."""
    bench = declared()
    data = {w["name"]: {} for w in bench["workloads"]}
    for i in range(runs):
        seed = first_seed + i * seed_step
        for w in data:
            result = run_once(w, seed, bench["run_seconds"])
            if not result["correct"]:
                raise SystemExit(f"{w} seed {seed}: outputs incorrect")
            values = {name: m["value"] for name, m in result["metrics"].items()}
            values["failed_share"] = result["failed"] / result["attempted"]
            for name, v in values.items():
                data[w].setdefault(name, []).append(v)
            print(f"  run {i + 1}/{runs} {w} seed {seed}", file=log)
    return data
