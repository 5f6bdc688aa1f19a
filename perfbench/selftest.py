"""Self-test of the benchmark's checker and size counters.

    python3 perfbench/selftest.py [WORKLOAD ...]    # from the checkout root

1. Copies perfbench/ to perfbench/_work/selftest/, changes the golden of one
   generic-full op in the copy, runs the copy's run.py, and requires the run
   to count that op, and only that op, as failed and to exit non-zero.
2. Runs each named workload (default: all) traced twice at the default seed
   and requires every count metric to repeat exactly and to equal the
   baseline in results.json.
3. Requires the Rybnikov reduced quotient, recorded in the compare-queries
   trace, to have the seed commit's sizes: 624 x 612 relations, 17,836
   nonzeros, 390 unit pivots.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from run import DEFAULT_SEED, HERE, WORKLOADS

TAMPERED = "stabiliser/full/generic6"
RYBNIKOV_QUOTIENT = {"rows": 624, "cols": 612, "nnz": 17836, "unit_pivots": 390}


def bench(workload, *extra, bench_dir=HERE):
    cmd = [sys.executable, os.path.join(bench_dir, "run.py"), "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--seconds", "1", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}


def main(argv) -> int:
    workloads = argv or WORKLOADS
    with open(os.path.join(HERE, "results.json"), encoding="utf-8") as fh:
        baseline = json.load(fh)["per_layer"]
    problems = []

    copy = os.path.join(HERE, "_work", "selftest", "perfbench")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    with open(os.path.join(copy, "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    goldens["cli"][TAMPERED]["group"] = "Z/2"
    with open(os.path.join(copy, "goldens.json"), "w", encoding="utf-8") as fh:
        json.dump(goldens, fh)
    code, result, stderr = bench("generic-full", "--trace", "0", bench_dir=copy)
    failures = [line for line in stderr.splitlines() if line.startswith("FAILED ")]
    if (code == 0 or result["correct"] or not failures or result["failed"] != len(failures)
            or any(not line.startswith("FAILED %s:" % TAMPERED) for line in failures)):
        problems.append("tampered golden was not caught (exit %d, %d of %d ops failed)"
                        % (code, result["failed"], result["attempted"]))
    print("tampered golden: exit %d, %s" % (code, stderr.strip().splitlines()[-1]))

    for workload in workloads:
        first, second = (counts(bench(workload, "--trace", "1")[1]) for _ in range(2))
        expected = {k: v["value"] for k, v in baseline[workload].items() if v["unit"] != "s"}
        for name in sorted(set(first) | set(expected)):
            values = (first.get(name), second.get(name), expected.get(name))
            if len(set(values)) != 1:
                problems.append("%s %s: runs %s, %s; baseline %s" % ((workload, name) + values))
        print("%s: %d count metrics checked" % (workload, len(first)))

    if "compare-queries" in workloads:
        with open(os.path.join(HERE, "_work", "compare-queries", "trace.jsonl")) as fh:
            spans = [json.loads(line) for line in fh]
        found = [s for s in spans if s["name"] == "exactalg.quotient_group" and s["rows"] == 624]
        if not found or any(found[0][k] != v for k, v in RYBNIKOV_QUOTIENT.items()):
            problems.append("Rybnikov reduced quotient sizes: %s" % (found[:1],))
        else:
            print("Rybnikov reduced quotient: %s" % RYBNIKOV_QUOTIENT)

    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
