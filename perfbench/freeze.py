"""Write perfbench/goldens.json from the outputs of the current tree.

    python3 perfbench/freeze.py      # from the root of a linestab checkout

Runs every op of every workload once at the default seed and records the
`result` of each CLI report and the verdict and coordinate digest of each
compare query.  The CLI results do not depend on the seed; the query
goldens are checked only at the default seed.  Refreeze only on purpose,
after a documented change to the reports or to class coordinates.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import workloads

    goldens = {"seed": workloads.DEFAULT_SEED, "cli": {}, "queries": []}
    for name in workloads.FACTORIES:
        workdir = os.path.join(HERE, "_work", "freeze-" + name)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        wl = workloads.build(name, workloads.DEFAULT_SEED, workdir, None)
        for op in wl.ops:
            output = op.run()
            op.check(output)
            if op.label.startswith("query/"):
                goldens["queries"].append(op.golden(output))
            else:
                goldens["cli"][op.label] = op.golden(output)
        print("froze %s: %d ops" % (name, len(wl.ops)))
    goldens["cli"] = dict(sorted(goldens["cli"].items()))
    with open(os.path.join(HERE, "goldens.json"), "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, ensure_ascii=False, sort_keys=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
