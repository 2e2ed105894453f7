#!/usr/bin/env python3
"""Schema check for the machine-readable bench artifacts.

Usage: check_bench_json.py BENCH_stream.json [more.json ...]

Each artifact is dispatched on its top-level "bench" tag. The check is
deliberately shallow — field presence and types, not values — so a
schema drift fails CI while a slow runner does not.
"""

import json
import sys

HIST_FIELDS = {
    "count": (int, float),
    "mean_ns": (int, float),
    "p50_ns": (int, float, type(None)),
    "p90_ns": (int, float, type(None)),
    "p99_ns": (int, float, type(None)),
    "p999_ns": (int, float, type(None)),
    "min_ns": (int, float, type(None)),
    "max_ns": (int, float, type(None)),
    "saturated": (int, float),
}


def fail(path, msg):
    raise SystemExit(f"{path}: schema check FAILED: {msg}")


def expect(path, obj, key, types):
    if key not in obj:
        fail(path, f"missing key {key!r} in {sorted(obj)}")
    if not isinstance(obj[key], types):
        fail(path, f"key {key!r} has type {type(obj[key]).__name__}, wanted {types}")


def check_histogram(path, where, hist):
    if not isinstance(hist, dict):
        fail(path, f"{where}: histogram summary is {type(hist).__name__}, wanted object")
    for key, types in HIST_FIELDS.items():
        if key not in hist:
            fail(path, f"{where}: histogram missing {key!r}")
        if not isinstance(hist[key], types):
            fail(path, f"{where}.{key}: type {type(hist[key]).__name__}")
    if hist["count"] > 0 and hist["p50_ns"] is None:
        fail(path, f"{where}: non-empty histogram with null p50_ns")


def check_scheduler(path, where, sched, workers):
    expect(path, sched, "worker_transforms", list)
    if len(sched["worker_transforms"]) != workers:
        fail(
            path,
            f"{where}.worker_transforms has {len(sched['worker_transforms'])} entries "
            f"for {workers} workers",
        )
    # Symbols run on the calling thread (StreamPipeline::try_run).
    expect(path, sched, "caller_transforms", (int, float))


def check_stream(path, doc):
    for key in ("stamp_unix", "n", "symbols", "reps", "workers", "call_workers", "sample_every"):
        expect(path, doc, key, (int, float))
    expect(path, doc, "smoke", bool)
    expect(path, doc, "arms", dict)
    for arm in (
        "sequential_tps",
        "threaded_call_tps",
        "stream_tps",
        "stream_mc_tps",
    ):
        expect(path, doc["arms"], arm, (int, float))
        if doc["arms"][arm] <= 0:
            fail(path, f"arms.{arm} must be positive, got {doc['arms'][arm]}")
    expect(path, doc, "stream_vs_call", (int, float))
    expect(path, doc, "queue", dict)
    expect(path, doc["queue"], "capacity", (int, float))
    expect(path, doc["queue"], "high_water", (int, float))
    # The transform counters from the multi-worker contention arm.
    # Shallow like everything else, except the one invariant that is
    # load-bearing: one transform count per pool worker.
    expect(path, doc, "scheduler", dict)
    sched = doc["scheduler"]
    for key in ("workers", "channels"):
        expect(path, sched, key, (int, float))
    check_scheduler(path, "scheduler", sched, sched["workers"])
    expect(path, doc, "channels", list)
    if not doc["channels"]:
        fail(path, "channels array is empty")
    for chan in doc["channels"]:
        expect(path, chan, "channel", (int, float))
        for stage in ("latency", "queue_wait", "transform", "reorder_park"):
            if stage not in chan:
                fail(path, f"channel {chan.get('channel')}: missing stage {stage!r}")
            check_histogram(path, f"channel {chan.get('channel')}.{stage}", chan[stage])
        delivered = chan["latency"]["count"]
        if delivered <= 0:
            fail(path, f"channel {chan.get('channel')}: latency histogram is empty")


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


def check_net(path, doc):
    for key in ("stamp_unix", "n", "cp", "frames", "reps", "workers", "window"):
        expect(path, doc, key, (int, float))
    expect(path, doc, "smoke", bool)
    expect(path, doc, "arms", dict)
    for arm in ("direct_tps", "tcp_tps"):
        expect(path, doc["arms"], arm, (int, float))
        if doc["arms"][arm] <= 0:
            fail(path, f"arms.{arm} must be positive, got {doc['arms'][arm]}")
    expect(path, doc, "tcp_vs_direct", (int, float))
    # The load-shedding ledger: the one value judgment the checker
    # makes, because a flood that never shed proves nothing.
    expect(path, doc, "flood", dict)
    flood = doc["flood"]
    for key in ("frames", "accepted", "shed", "retry_after_ms"):
        expect(path, flood, key, (int, float))
    if flood["shed"] < 1:
        fail(path, f"flood.shed must be >= 1, got {flood['shed']}")
    if flood["accepted"] + flood["shed"] != flood["frames"]:
        fail(
            path,
            f"flood ledger unbalanced: {flood['accepted']} accepted + "
            f"{flood['shed']} shed != {flood['frames']} frames",
        )
    # The embedded admin document — the same JSON a live STATS frame
    # returns. Server counters, then the full pipeline snapshot with
    # its per-channel stage histograms.
    expect(path, doc, "admin", dict)
    admin = doc["admin"]
    expect(path, admin, "server", str)
    if admin["server"] != "afft_net":
        fail(path, f"admin.server is {admin['server']!r}, wanted 'afft_net'")
    for key in ("channels", "connections_live", "connections_accepted", "frames_in", "shed",
                "protocol_errors"):
        expect(path, admin, key, (int, float))
    expect(path, admin, "poisoned", bool)
    expect(path, admin, "pipeline", dict)
    pipe = admin["pipeline"]
    for key in ("submitted", "completed", "delivered", "rejected", "queue_capacity"):
        expect(path, pipe, key, (int, float))
    expect(path, pipe, "scheduler", dict)
    check_scheduler(path, "admin.pipeline.scheduler", pipe["scheduler"], doc["workers"])
    expect(path, pipe, "per_channel", list)
    if not pipe["per_channel"]:
        fail(path, "admin.pipeline.per_channel is empty")
    for chan in pipe["per_channel"]:
        for key in ("channel", "submitted", "completed", "delivered"):
            expect(path, chan, key, (int, float))
    expect(path, pipe, "channels", list)
    if len(pipe["channels"]) != len(pipe["per_channel"]):
        fail(path, "admin.pipeline.channels and per_channel differ in length")
    for chan in pipe["channels"]:
        for stage in ("latency", "queue_wait", "transform", "reorder_park"):
            if stage not in chan:
                fail(path, f"admin channel {chan.get('channel')}: missing stage {stage!r}")
            check_histogram(path, f"admin channel {chan.get('channel')}.{stage}", chan[stage])


CHECKS = {"stream": check_stream, "throughput": check_throughput, "net": check_net}


def main(argv):
    if len(argv) < 2:
        raise SystemExit(__doc__.strip())
    for path in argv[1:]:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        expect(path, doc, "bench", str)
        check = CHECKS.get(doc["bench"])
        if check is None:
            fail(path, f"unknown bench tag {doc['bench']!r} (known: {sorted(CHECKS)})")
        check(path, doc)
        print(f"{path}: ok ({doc['bench']} schema)")


if __name__ == "__main__":
    main(sys.argv)
