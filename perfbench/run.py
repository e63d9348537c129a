#!/usr/bin/env python3
"""Builds the meshmp benchmark driver from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stream|collectives|faults \
        --seed N --seconds S --trace 0|1

The driver (perfbench/driver.cpp) and the meshmp library are compiled with
CMake into $CARGO_TARGET_DIR (default .bench_build) under the checkout. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where `metrics` holds every end_to_end metric of BENCHMARK.json with
--trace 0 and every per_layer metric with --trace 1. `attempted`/`failed`
count correctness checks: the driver's own (delivery, sums, scatter chunks,
membership agreement, buffer-pool quiesce, run-twice identity) plus, at the
default seed 1, one per simulated row compared against perfbench/reference.json
and against the repository's published figure baselines.

Each check counts once per run however many passes ran, so `attempted`
depends only on the workload and on whether the seed is the default one.
--record-reference rewrites perfbench/reference.json from a seed-1 run of
every workload.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1
WORKLOADS = ("stream", "collectives", "faults")
# Rows of the published figure programs a workload shares points with.
BASELINES = {
    "stream": ("bench/baselines/BENCH_fig3_aggregate_bw.json", "stream."),
    "collectives": ("bench/baselines/BENCH_fig5_collectives.json", "coll."),
}
DEADLINE_S = 175  # the whole command must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures once, then lets the build tool skip what is up to date."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "meshmp_perfbench")


def run_driver(binary, workload, seed, seconds, trace, deadline):
    env = {k: v for k, v in os.environ.items()
           if k not in ("MESHMP_THREADS", "MESHMP_TRACE", "MESHMP_DIGEST_OUT")}
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out",
                os.path.join(build_dir(), f"spans_{workload}_{seed}.json")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"driver did not finish {workload} in time")
        return None
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        return None
    lines = proc.stdout.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def same_row(want, got):
    return (want["point"] == got["point"] and want["events"] == got["events"]
            and want["values"] == got["values"])


def reference_failures(result, reference):
    """One check per reference row; returns (attempted, failures)."""
    want = reference.get(result["workload"], [])
    got = {r["point"]: r for r in result["rows"]}
    failures = []
    for row in want:
        if row["point"] not in got or not same_row(row, got[row["point"]]):
            failures.append(f"reference: row {row['point']} differs")
    attempted = len(want)
    if not want:
        attempted, failures = 1, ["reference: no rows for this workload"]
    return attempted, failures


def printed(v):
    """A value as the figure baselines print it: six significant digits."""
    return float(f"{v:.6g}")


def baseline_failures(result):
    """Rows sharing a size with a published figure baseline must equal it
    to the baseline's printed precision."""
    if result["workload"] not in BASELINES:
        return 0, []
    path, prefix = BASELINES[result["workload"]]
    with open(os.path.join(ROOT, path)) as f:
        rows = {printed(r["bytes"]): r for r in json.load(f)["rows"]}
    attempted, failures = 0, []
    for row in result["rows"]:
        if not row["point"].startswith(prefix):
            continue
        base = rows.get(printed(row["values"]["bytes"]))
        if base is None:
            continue
        attempted += 1
        mine = {k: printed(v) for k, v in row["values"].items()}
        if any(mine.get(k) != printed(v) for k, v in base.items()):
            failures.append(f"baseline: row {row['point']} differs from {path}")
    return attempted, failures


def metric_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    binary = build()
    if binary is None:
        log("build failed")
        return 1

    if args.record_reference:
        ref = {}
        for w in WORKLOADS:
            res = run_driver(binary, w, DEFAULT_SEED, 0.1, 0,
                             time.monotonic() + 600)
            if res is None or res["failures"]:
                log(f"not recording: {w} failed")
                return 1
            ref[w] = res["rows"]
        with open(REFERENCE, "w") as f:
            json.dump(ref, f, indent=1)
            f.write("\n")
        return 0

    if args.workload is None:
        ap.error("--workload is required")
    specs = metric_specs()
    res = run_driver(binary, args.workload, args.seed, args.seconds,
                     args.trace, deadline)
    if res is None:
        return 1

    attempted = res["checks"]
    failures = list(res["failures"])
    if args.seed == DEFAULT_SEED:
        with open(REFERENCE) as f:
            reference = json.load(f)
        for a, fl in (reference_failures(res, reference),
                      baseline_failures(res)):
            attempted += a
            failures += fl
    for msg in failures:
        log(f"FAILED: {msg}")

    measured = dict(res["end_to_end"])
    measured["pass_ratio"] = 1 - len(failures) / attempted
    wanted = specs["per_layer"] if args.trace else specs["end_to_end"]
    source = res["per_layer"] if args.trace else measured
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            log(f"driver did not report {m['name']}")
            return 1
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
