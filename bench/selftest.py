#!/usr/bin/env python3
"""Smoke-runs every workload both ways and validates what comes out.

    bench/selftest.sh

Checks BENCHMARK.json against the limits of the benchmark contract, then
runs `bench/run.sh --smoke` on every workload with --trace 0 and --trace 1
and requires of each result: exactly the keys correct / attempted / failed /
metrics; every metric name made of [A-Za-z0-9_.-], with a unit and a finite
value; the set of names and the units equal to what BENCHMARK.json declares
for that mode. Finally it runs the command in a directory holding only
BENCHMARK.json and bench/ and requires a non-zero exit with no result.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(why):
    raise SystemExit(f"selftest: FAIL: {why}")


def check_declaration(bench):
    if set(bench) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys are {sorted(bench)}")
    if not 2 <= len(bench["workloads"]) <= 8:
        fail("2 to 8 workloads")
    if not 1 <= len(bench["end_to_end"]) <= 16 or not 1 <= len(bench["per_layer"]) <= 128:
        fail("1 to 16 end-to-end and 1 to 128 per-layer metrics")
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        fail("run_seconds is a whole number from 1 to 60")
    names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in bench[k]]
    for n in names:
        if not NAME.match(n):
            fail(f"bad name {n!r}")
    if len(set(names)) != len(names):
        fail("a name is used twice")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload {w['name']}: exactly a name and a one-line why of at most 200 characters")
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end-to-end {m['name']}: keys or bound")
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per-layer {m['name']}: keys")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"{m['name']}: unit or direction")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    if len(json.dumps(bench)) > 64 * 1024:
        fail("BENCHMARK.json is over 64 KiB")


def check_result(result, declared, what):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys are {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
        fail(f"{what}: correct/attempted/failed = {result['correct']}/{result['attempted']}/{result['failed']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{what}: names differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"undeclared {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if not NAME.match(name) or set(m) != {"value", "unit"}:
            fail(f"{what}: metric {name!r} malformed")
        if m["unit"] != want[name]:
            fail(f"{what}: {name} has unit {m['unit']!r}, declared {want[name]!r}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{what}: {name} is not a finite number")


def main():
    bench = benchlib.declared()
    check_declaration(bench)
    t0 = time.time()
    for w in (x["name"] for x in bench["workloads"]):
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = benchlib.run_once(w, 7, bench["run_seconds"], trace, ("--smoke",))
            check_result(result, declared, f"{w} --trace {trace}")
            print(f"selftest: {w} --trace {trace}: {len(result['metrics'])} metrics ok")
        if not (benchlib.ROOT / "bench" / "out" / f"trace-{w}.json").exists():
            fail(f"{w}: no trace file written")
    smoke_s = time.time() - t0
    print(f"selftest: smoke runs took {smoke_s:.1f} s")

    bare = benchlib.ROOT / "bench" / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(benchlib.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(benchlib.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("target", "out"))
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = subprocess.run(bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                               "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the command must fail, printing no result, without the repository around it")
    print("selftest: bare-directory run failed as it must")
    print("selftest: PASS")


if __name__ == "__main__":
    main()
