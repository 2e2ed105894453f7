#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

One run (what BENCHMARK.json's command does):

    python3 e2ebench/run.py --workload serve_bulk --seed 1 --seconds 10 --trace 0

builds the shipped `afft_net` server and the benchmark binary from the
checkout (into $CARGO_TARGET_DIR, default `.bench_build`), runs one
workload and passes its output through: the last line is the result
JSON. The exit code is non-zero on a build failure, a run failure or any
wrong output.

A summary over several seeds (median, quartile spread and count of every
end-to-end metric, per workload, against the bounds in BENCHMARK.json):

    python3 e2ebench/run.py --summary --runs 5 [--workloads a,b] [--first-seed 100]
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Library tuning variables; cleared so the shipped defaults are measured.
CLEARED_ENV = ["AFFT_NO_SIMD", "AFFT_STREAM_WORKERS", "AFFT_OBS", "AFFT_WISDOM"]
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def bench_env():
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    return env, target


def build(env):
    """Builds the server and the benchmark; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file():
        raise SystemExit("run.py: no workspace manifest beside the benchmark; nothing to build")
    steps = [
        ["cargo", "build", "--release", "--offline", "--locked", "-q",
         "--manifest-path", str(ROOT / "Cargo.toml"), "-p", "afft-net", "--bin", "afft_net"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise SystemExit(f"run.py: build failed: {' '.join(cmd)}")
    target = Path(env["CARGO_TARGET_DIR"]) / "release"
    return target / "afft_net", target / "afft_e2ebench"


def source_id():
    """The git commit, or a hash of the sources when the checkout has no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates", HERE / "src"]
    files = []
    for r in roots:
        files.extend([r] if r.is_file() else sorted(p for p in r.rglob("*") if p.is_file()))
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def run_once(bins, env, workload, seed, seconds, trace, capture):
    """Runs one workload; returns (exit code, stdout text or None)."""
    server, bench = bins
    trace_out = Path(env["CARGO_TARGET_DIR"]) / "e2ebench-traces" / f"{workload}-seed{seed}.jsonl"
    cmd = [str(bench), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--server", str(server), "--trace-out", str(trace_out),
           "--commit", source_id()]
    # Own process group, so a timeout also stops the server child.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return proc.returncode, out.decode() if capture else None


def summary(args, bins, env):
    sys.stdout.reconfigure(line_buffering=True)  # each workload's table as it finishes
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0
    for workload in workloads:
        values, units = {}, {}
        for i in range(args.runs):
            seed = args.first_seed + i
            code, out = run_once(bins, env, workload, seed, seconds, 0, capture=True)
            if code != 0 or not out:
                print(f"{workload} seed {seed}: exit {code}")
                worst = max(worst, 1)
                continue
            result = json.loads(out.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"\n{workload}: {args.runs} runs x {seconds} s, seeds {args.first_seed}..")
        print(f"  {'metric':<20} {'unit':<10} {'median':>14} {'IQR/median':>11} {'bound':>7} "
              f"{'n':>3}  <bound/3  values")
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name, {}).get("bound", float("nan"))
            ok = name == "setup_s" or spread <= bound / 3
            print(f"  {name:<20} {units[name]:<10} {med:>14.6g} {spread:>11.4f} {bound:>7} "
                  f"{len(vals):>3}  {'yes' if ok else 'NO':<8}  {' '.join(f'{v:.5g}' for v in vals)}")
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--summary", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads")
    args = parser.parse_args()
    env, _ = bench_env()
    bins = build(env)
    if args.summary:
        return summary(args, bins, env)
    if not args.workload:
        parser.error("--workload is required")
    code, _ = run_once(bins, env, args.workload, args.seed, args.seconds or 10, args.trace,
                       capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
