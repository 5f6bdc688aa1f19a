"""Spans and size counters around the public functions of each linestab module.

Nothing inside the package is changed.  A span is recorded by replacing a
public function, in every linestab module that binds its name, with a wrapper
that times the call.  Calls made inside the package go through those module
bindings too, so a call from `stabiliser` into `quotient_group` or from
`lattice_kernel` into `hermite` opens a child span.

Size counters are read from the arguments and results of the wrapped calls.
The time spent computing them is charged to neither the span nor its parent:
it shows up only as tracing overhead.
"""

from __future__ import annotations

import json
import sys
import time

# (module, public function) pairs that get a span, in pipeline order.
SPANS = (
    ("cli", "main"),
    ("combinatorics", "parse_combinatorics"),
    ("combinatorics", "build_graph"),
    ("graphhomology", "cycle_basis"),
    ("graphhomology", "meridian_homology"),
    ("orderings", "parse_ordering"),
    ("orderings", "decompose_adjacent"),
    ("stabiliser", "gs_generators"),
    ("stabiliser", "stabiliser"),
    ("stabiliser", "reduce_to_class"),
    ("stabiliser", "transition"),
    ("inclusion", "parse_inclusion"),
    ("inclusion", "compare"),
    ("exactalg", "quotient_group"),
    ("exactalg", "lattice_kernel"),
    ("exactalg", "hermite"),
    ("looplink", "tlg"),
    ("looplink", "tlg_generator_positions"),
    ("looplink", "lln"),
    ("pi1", "pi1_presentation"),
    ("pi1", "abelianise"),
)

SPAN_NAMES = tuple("%s.%s" % pair for pair in SPANS)


def _nnz(rows) -> int:
    return sum(len(r) - r.count(0) for r in rows)


def _units(rows) -> int:
    return sum(r.count(1) + r.count(-1) for r in rows)


def _max_bits(rows) -> int:
    return max((max(max(r), -min(r)).bit_length() for r in rows if r), default=0)


def _quotient_sizes(args, group):
    ambient, relations = args
    return {
        "rows": relations.rows,
        "cols": relations.cols,
        "nnz": _nnz(relations.data),
        "unit_nnz": _units(relations.data),
        "unit_pivots": ambient - group.coord_count,
        "to_smith_bits": _max_bits(group.to_smith.data),
    }


def _forms_sizes(args, _lattice):
    forms = args[0]
    return {"forms_rows": forms.rows, "forms_cols": forms.cols, "forms_nnz": _nnz(forms.data)}


def _generator_sizes(_args, gens):
    return {"cells": gens.rows * gens.cols, "gen_nnz": _nnz(gens.data)}


def _word_length(_args, word):
    return {"swaps": len(word)}


def _graph_sizes(_args, g):
    return {
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "cycle_rank": g.edge_count - g.vertex_count + 1,
    }


COUNTERS = {
    "exactalg.quotient_group": _quotient_sizes,
    "exactalg.lattice_kernel": _forms_sizes,
    "stabiliser.gs_generators": _generator_sizes,
    "orderings.decompose_adjacent": _word_length,
    "combinatorics.build_graph": _graph_sizes,
}

# Per-layer size metrics: name -> (unit, span attribute summed over spans).
COUNTER_METRICS = {
    "exactalg.quotient.rows": ("count", "rows"),
    "exactalg.quotient.cols": ("count", "cols"),
    "exactalg.quotient.nnz": ("count", "nnz"),
    "exactalg.quotient.unit_pivots": ("count", "unit_pivots"),
    "exactalg.lattice_kernel.forms_nnz": ("count", "forms_nnz"),
    "stabiliser.gs_generators.cells": ("count", "cells"),
    "stabiliser.gs_generators.nnz": ("count", "gen_nnz"),
    "stabiliser.transition.swaps": ("count", "swaps"),
    "graph.vertices": ("count", "vertices"),
    "graph.edges": ("count", "edges"),
    "graph.cycle_rank": ("count", "cycle_rank"),
}
# Derived from the sums above or taken as a maximum.
RATIO_METRICS = {
    "exactalg.quotient.unit_share": "ratio",
    "exactalg.to_smith.max_bits": "bits",
}


class Tracer:
    """Records spans while installed; restores the package when removed.

    A span is (name, start, end, parent, op): parent is the index of the
    enclosing span or -1, and op is whatever the caller last stored in
    `op` (an op index, or "setup").  Attributes from COUNTERS are kept per
    span in `attrs`.
    """

    def __init__(self):
        self.op = "setup"
        self.spans: list = []
        self.attrs: dict[int, dict] = {}
        # Time spent computing counters inside each span's interval, which
        # the parent's self time must not absorb.
        self._extra: dict[int, float] = {}
        self._stack: list[int] = []
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "linestab" or name.startswith("linestab."))
        ]
        self._patches = []  # (module, attribute, original, wrapper)
        for mod_name, fn_name in SPANS:
            original = getattr(sys.modules["linestab." + mod_name], fn_name)
            wrapper = self._wrap("%s.%s" % (mod_name, fn_name), original)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is original:
                        self._patches.append((m, attr, original, wrapper))

    def install(self) -> None:
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def remove(self) -> None:
        for m, attr, original, _ in self._patches:
            setattr(m, attr, original)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, attrs, extra = self.spans, self._stack, self.attrs, self._extra
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if counter is not None:
                attrs[sid] = counter(args, result)
                extra[sid] = clock() - end
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus its children's
        intervals, where a child's interval includes its counter time."""
        out = [s[2] - s[1] for s in self.spans]
        for sid, (_, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                out[parent] -= end - start + self._extra.get(sid, 0.0)
        return out

    def summary(self, traced_passes: int) -> dict[str, float]:
        """Per-layer totals: everything recorded during set-up plus the
        average over the traced passes."""
        selfs = self.self_times()
        setup, passes = {}, {}
        bits = 0
        for sid, (name, _, _, _, op) in enumerate(self.spans):
            sums = setup if op == "setup" else passes
            attrs = self.attrs.get(sid, {})
            for key, value in ((name + ".self_s", selfs[sid]), (name + ".calls", 1), *attrs.items()):
                sums[key] = sums.get(key, 0) + value
            bits = max(bits, attrs.get("to_smith_bits", 0))

        def total(key):
            # Sums over whole passes, so the division is exact for counts.
            return setup.get(key, 0) + passes.get(key, 0) / max(traced_passes, 1)

        out = {}
        for name in SPAN_NAMES:
            out[name + ".self_s"] = total(name + ".self_s")
            out[name + ".calls"] = total(name + ".calls")
        for metric, (_, key) in COUNTER_METRICS.items():
            out[metric] = total(key)
        nnz = total("nnz")
        out["exactalg.quotient.unit_share"] = total("unit_nnz") / nnz if nnz else 0.0
        out["exactalg.to_smith.max_bits"] = bits
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                doc = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                doc.update(self.attrs.get(sid, {}))
                fh.write(json.dumps(doc) + "\n")
