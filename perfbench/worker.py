"""One benchmark process: set up a workload, then time its ops.

Started by run.py from the root of a linestab checkout, which it imports from
`src/`.  `--phase setup` stops after set-up; `--phase run` then runs whole
passes over the workload's ops, one op at a time, until `--seconds` have
passed.  With `--trace 1`, set-up runs under the tracer; then one untraced
warm-up pass is timed into neither list, and untraced (U) and traced (T)
passes follow in whole U T T U blocks, at least one block even past
`--seconds`, so both kinds get equal counts from the same stretch of the run.
The last line of stdout is a JSON object with the raw timings.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--phase", choices=("setup", "run"), required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() when the parent started this process")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import linestab

    if not os.path.abspath(linestab.__file__).startswith(src + os.sep):
        print("linestab was imported from %s, not %s" % (linestab.__file__, src), file=sys.stderr)
        return 2
    import tracing
    import workloads

    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    workdir = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    wl = workloads.build(args.workload, args.seed, workdir, goldens)
    setup_s = time.monotonic() - args.t0
    if tracer:
        tracer.remove()
    result = {"setup_s": setup_s, "largest_setup_s": wl.largest_s}
    if args.phase == "setup":
        print(json.dumps(result))
        return 0

    clock = time.perf_counter
    walls, traced_walls, largest = [], [], []
    op_ms = [[] for _ in wl.ops]
    attempted = failed = 0
    deadline = clock() + args.seconds
    p = -1 if tracer else 0  # pass -1 is the warm-up
    while True:
        traced = tracer is not None and p % 4 in (1, 2)
        if traced:
            tracer.install()
        wall = 0.0
        for i, op in enumerate(wl.ops):
            if tracer:
                tracer.op = p * len(wl.ops) + i
            attempted += 1
            if op.isolated:
                gc.collect()
            start = clock()
            try:
                output = op.run()
            except Exception as exc:  # noqa: BLE001 - a crashing op is a failed op
                traceback.print_exc()
                output = exc
            dt = clock() - start
            wall += dt
            op_ms[i].append(dt * 1000.0)
            if op.label == wl.largest:
                largest.append(dt)
            try:
                if isinstance(output, Exception):
                    raise workloads.CheckError("raised %r" % output)
                op.check(output)
            except workloads.CheckError as exc:
                failed += 1
                print("FAILED %s: %s" % (op.label, exc), file=sys.stderr)
        if traced:
            tracer.remove()
        if p >= 0:
            (traced_walls if traced else walls).append(wall)
        p += 1
        if clock() >= deadline and (tracer is None or (p > 0 and p % 4 == 0)):
            break

    # An isolated op stands for a command in a process of its own, so each
    # counts once, with its median over the passes.  Queries share one
    # process, so every run of every query counts.
    latency_ms = []
    for op, samples in zip(wl.ops, op_ms):
        latency_ms += [statistics.median(samples)] if op.isolated else samples
    result.update(
        walls=walls,
        traced_walls=traced_walls,
        largest_s=largest,
        latency_ms=latency_ms,
        attempted=attempted,
        failed=failed,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer:
        result["layers"] = tracer.summary(len(traced_walls))
        tracer.write(os.path.join(workdir, "trace.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
