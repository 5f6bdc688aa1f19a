"""Measure every workload and write perfbench/results.json.

    python3 perfbench/record.py      # from the checkout root

Runs each workload RUNS times untraced, each time with another seed
(100, 101, ...), and once traced at the default seed, all for BENCHMARK.json's
run_seconds.  For each end-to-end metric it records
the median and quartiles of the runs and the spread, (q3 - q1) / median,
which BENCHMARK.json's bounds must exceed; for each per-layer metric, the
traced run's value.  Every run must pass its output checks.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import DEFAULT_SEED, HERE, WORKLOADS

FIRST_SEED = 100
RUNS = 10


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit("%s seed %d failed: %s" % (workload, seed, result))
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    doc = {
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "seconds": seconds,
        "seeds": [FIRST_SEED, FIRST_SEED + RUNS - 1],
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in WORKLOADS:
        values, units = {}, {}
        for i in range(RUNS):
            start = time.monotonic()
            result = bench(workload, FIRST_SEED + i, seconds, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print("%s seed %d (%.0f s): %s" % (
                workload, FIRST_SEED + i, time.monotonic() - start,
                " ".join("%s=%.4g" % (k, v[-1]) for k, v in values.items())), flush=True)
        summary = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "runs": vs}
            print("  %-16s median %-12.6g spread %.3f" % (name, med, summary[name]["spread"]), flush=True)
        doc["end_to_end"][workload] = summary
        traced = bench(workload, DEFAULT_SEED, seconds, 1)
        doc["per_layer"][workload] = traced["metrics"]
    with open(os.path.join(HERE, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
