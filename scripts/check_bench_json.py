#!/usr/bin/env python3
"""Schema check for the machine-readable bench artifacts.

Usage: check_bench_json.py BENCH_throughput.json BENCH_ledger.json [more.json ...]

A bench-bin artifact is dispatched on its top-level "bench" tag. A
document without one must be the result line of e2ebench/run.py (its
"correct", "failed" and "metrics" keys) from a traced run: a per-layer
ledger. Its metrics must be exactly the per_layer metrics BENCHMARK.json
names, each in the unit named there with a finite value. The check is
deliberately shallow otherwise — field presence and types, not values —
so a schema drift fails CI while a slow runner does not.
"""

import json
import math
import os
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")


def fail(path, msg):
    raise SystemExit(f"{path}: schema check FAILED: {msg}")


def expect(path, obj, key, types):
    if key not in obj:
        fail(path, f"missing key {key!r} in {sorted(obj)}")
    if not isinstance(obj[key], types):
        fail(path, f"key {key!r} has type {type(obj[key]).__name__}, wanted {types}")


def check_throughput(path, doc):
    expect(path, doc, "stamp_unix", (int, float))
    expect(path, doc, "sizes", list)
    expect(path, doc, "results", list)
    if not doc["results"]:
        fail(path, "results array is empty")
    for rec in doc["results"]:
        expect(path, rec, "n", (int, float))
        expect(path, rec, "engine", str)
        expect(path, rec, "into_tps", (int, float))


def check_ledger(path, doc):
    expect(path, doc, "correct", bool)
    expect(path, doc, "metrics", dict)
    if not doc["correct"] or doc.get("failed") != 0:
        fail(path, f"correct is {doc['correct']} and failed {doc.get('failed')!r}, wanted true and 0")
    with open(BENCHMARK, encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    got = doc["metrics"]
    if set(got) != set(units):
        fail(path, f"metrics missing {sorted(set(units) - set(got))}, "
                   f"unexpected {sorted(set(got) - set(units))}")
    for name, unit in units.items():
        metric = got[name]
        if not isinstance(metric, dict) or metric.get("unit") != unit:
            fail(path, f"{name}: {metric!r} is not in {unit!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(path, f"{name}: value {value!r} is not a finite number")


# An e2ebench/run.py result line carries no "bench" tag: it is a ledger.
CHECKS = {"throughput": check_throughput, "ledger": check_ledger}


def main(argv):
    if len(argv) < 2:
        raise SystemExit(__doc__.strip())
    for path in argv[1:]:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        kind = doc.get("bench", "ledger")
        check = CHECKS.get(kind)
        if check is None:
            fail(path, f"unknown bench tag {kind!r} (known: {sorted(CHECKS)})")
        check(path, doc)
        print(f"{path}: ok ({kind} schema)")


if __name__ == "__main__":
    main(sys.argv)
