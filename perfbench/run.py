"""linestab benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a linestab checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each was chosen): bundled-cli,
generic-full, compare-queries, linking.  The timed phase runs in a fresh
worker process (worker.py): ops one at a time, closed loop, one client, no
threads.  The package is imported from the checkout's `src/`.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json.
Set-up is done at least MIN_SETUPS times, each in a fresh process, and more
often (up to MAX_SETUPS) while less than SETUP_BUDGET_S has gone into it; the
last set-up goes on to the timed phase:

    setup_s        median, over the set-ups, of the time from the start of the
                   process to the end of set-up (import, input generation and,
                   on compare-queries, the stabiliser build)
    wall_s         median wall time of one pass over the workload's ops
    largest_job_s  median time of the workload's largest op: Rybnikov full
                   `stabiliser`, `generic(12)`, Rybnikov `tlg`; on
                   compare-queries, the Rybnikov reduced stabiliser build
                   during set-up (median over the set-ups)
    op_ms.p90      latency of one op: nearest-rank 90th percentile over the
                   workload's ops.  A CLI command (18, 7 and 6 a pass) stands
                   for a process of its own and counts once, with its median
                   over the passes; on generic-full the p90 is therefore the
                   generic(12) job.  Compare queries (128 a pass) share one
                   process, so every query run of every pass counts.  There
                   is no p50: on the CLI workloads it falls on commands of a
                   few milliseconds whose run-to-run spread on a shared
                   2-vCPU VM reached 0.3 of their median.
    peak_rss_mib   ru_maxrss of the process that ran the timed phase

With `--trace 1` one process runs set-up under the tracer, then a warm-up
pass, then untraced and traced passes in U T T U blocks (worker.py), and
reports per-layer self times, call counts and size counters (set-up plus one
traced pass), and the tracing overhead: median traced minus median untraced
pass wall time.  Identical passes differ by 5-10% on a shared 2-vCPU VM, so
an overhead smaller than that (linking and generic-full make few traced
calls) is not resolved and may read negative.
The spans are written to perfbench/_work/<workload>/trace.jsonl.

Every op's output is checked; the last stdout line is the result object.
The exit code is 0 only when every op was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bundled-cli", "generic-full", "compare-queries", "linking")
DEFAULT_SEED = 1  # the seed the goldens and the per-layer baseline were taken at
MIN_SETUPS, MAX_SETUPS = 3, 15
SETUP_BUDGET_S = 3.0
TIME_LIMIT_S = 170.0


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def spawn(args, phase, deadline):
    """Run one worker process to completion and return its result object."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--phase", phase,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - t0, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups, run):
    largest = run["largest_s"] or [s["largest_setup_s"] for s in setups]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (statistics.median(run["walls"]), "s"),
        "largest_job_s": (statistics.median(largest), "s"),
        "op_ms.p90": (nearest_rank(run["latency_ms"], 0.90), "ms"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
    }


def per_layer(run):
    sys.path.insert(0, HERE)
    import tracing

    untraced = statistics.median(run["walls"])
    traced = statistics.median(run["traced_walls"])
    units = {m: unit for m, (unit, _) in tracing.COUNTER_METRICS.items()}
    units.update(tracing.RATIO_METRICS)
    out = {}
    for name, value in run["layers"].items():
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        out[name] = (value, unit)
    out["trace.untraced_wall_s"] = (untraced, "s")
    out["trace.traced_wall_s"] = (traced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "linestab", "__init__.py")):
        print("run from the root of a linestab checkout (no src/linestab here)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = []
        start = time.monotonic()
        while not args.trace and (
                len(setups) < MIN_SETUPS - 1
                or (len(setups) < MAX_SETUPS - 1 and time.monotonic() - start < SETUP_BUDGET_S)):
            setups.append(spawn(args, "setup", deadline))
        run = spawn(args, "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print("benchmark run failed: %s" % exc, file=sys.stderr)
        return 1
    metrics = per_layer(run) if args.trace else end_to_end(setups + [run], run)

    for name, (value, unit) in metrics.items():
        print("%-44s %14.6g %s" % (name, value, unit))
    print("%-44s %14.6g (%d of %d ops failed)"
          % ("error_rate", run["failed"] / run["attempted"], run["failed"], run["attempted"]))
    correct = run["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
