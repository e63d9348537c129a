#!/usr/bin/env python3
"""Self-test of the meshmp benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py [--workloads stream,collectives,faults]

It builds the driver through run.py (same build directory) and checks that

  1. BENCHMARK.json is well formed: every metric name matches
     [A-Za-z0-9_.-]+, is used once, and carries a unit and a direction;
  2. every workload is correct at the default seed: no failed check, so the
     failure ratio is 0 and pass_ratio is 1;
  3. two traced runs at one seed attempt the same checks and report
     identical deterministic per-layer values (every metric whose unit is
     not a host measurement);
  4. a deliberately altered reference row is reported as a failure;
  5. every stored stream and collectives reference row is compared with the
     published Fig. 3 or Fig. 5 baseline row of its size, and equals it.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import copy
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import run  # noqa: E402  (same directory)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Units of host measurements, which vary from run to run by nature.
HOST_UNITS = {"s", "ms", "ns", "MB", "share"}
SEED = run.DEFAULT_SEED


def bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "0.1", "--trace",
           str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode())
        return None
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def check_spec(spec, fails):
    names = []
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            names.append(m["name"])
            if not NAME.match(m["name"]):
                fails.append(f"bad metric name {m['name']!r}")
            if not UNIT.match(m.get("unit", "")):
                fails.append(f"{m['name']}: missing or bad unit")
            if m.get("better") not in ("higher", "lower"):
                fails.append(f"{m['name']}: missing direction")
    for w in spec["workloads"]:
        names.append(w["name"])
    if len(names) != len(set(names)):
        fails.append("a metric or workload name is used twice")
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        fails.append("no setup_s end-to-end metric")


def check_baselines(reference, fails):
    for workload, (path, prefix) in run.BASELINES.items():
        rows = reference[workload]
        result = {"workload": workload, "rows": rows}
        attempted, bad = run.baseline_failures(result)
        shared = sum(r["point"].startswith(prefix) for r in rows)
        if attempted != shared:
            fails.append(f"{workload}: {attempted} of {shared} rows compared "
                         f"with {path}")
        fails.extend(bad)


def check_altered_reference(reference, fails):
    """The driver's own seed-1 rows pass against the stored reference and
    fail against one with a single value nudged."""
    binary = run.build()
    res = binary and run.run_driver(binary, "collectives", SEED, 0.1, 0,
                                    time.monotonic() + 600)
    if not res:
        fails.append("collectives: driver run failed")
        return
    altered = copy.deepcopy(reference)
    altered["collectives"][0]["values"]["broadcast_us"] *= 1 + 1e-9
    if run.reference_failures(res, reference)[1]:
        fails.append("collectives: rows differ from the stored reference")
    if not run.reference_failures(res, altered)[1]:
        fails.append("an altered reference row was not reported as a failure")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = ap.parse_args()
    fails = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(run.REFERENCE) as f:
        reference = json.load(f)
    check_spec(spec, fails)
    check_baselines(reference, fails)
    check_altered_reference(reference, fails)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in args.workloads.split(","):
        res = bench(w, 0)
        if res is None or not res["correct"] or res["failed"] != 0:
            fails.append(f"{w}: not correct at seed {SEED}")
        elif res["metrics"]["pass_ratio"]["value"] != 1:
            fails.append(f"{w}: pass_ratio below 1")
        a, b = bench(w, 1), bench(w, 1)
        if a is None or b is None:
            fails.append(f"{w}: traced run failed")
            continue
        if a["attempted"] != b["attempted"]:
            fails.append(f"{w}: attempted checks differ between two runs")
        for name, unit in units.items():
            if unit in HOST_UNITS:
                continue
            if a["metrics"][name]["value"] != b["metrics"][name]["value"]:
                fails.append(f"{w}: {name} differs between two runs")

    for msg in fails:
        print(f"FAIL: {msg}")
    print("selftest:", "ok" if not fails else f"{len(fails)} failure(s)")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
