"""Outside-in layer tracing for one ``fairalloc`` CLI process.

The tracer wraps, from outside the package, the module attributes that
``fairalloc`` looks up at call time, so nothing under ``src/`` changes. Where
a public function marks a layer boundary it wraps that; where the boundary is
private it wraps the private name, and ``_patches`` marks it. Spans (name,
start, end, parent) stay in memory and are written out when the process ends.
A span's self time is its duration minus the time its child spans cover.

Only traced samples install the wrappers; the untraced CLI processes never
import this module.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

# Layer names, outermost first. ``main`` is the root span around ``cli.main``.
LAYERS = (
    "main",
    "run_experiment", "sample", "aggregate",                   # simulate
    "allocate", "allocate.lp", "allocate.ties", "allocate.probe",  # policies
    "metrics", "envelope",                                     # core
    "kde", "welch",                                            # stats
    "ingest", "masks", "shares",                               # audit
    "load",                                                    # cli
    "write",                                                   # _io
)

# Counters computed from the wrapped calls' arguments and results.
COUNTER_UNITS = {
    "allocate.lp.iterations": "count",
    "allocate.probe.accept_ratio": "ratio",
    "envelope.per_rep": "count/rep",
    "kde.kernel_evals": "count",
    "kde.bytes_computed": "bytes",
    "sample.draws": "count",
    "ingest.rows": "count",
    "ingest.bytes": "bytes",
    "write.files": "count",
    "write.bytes": "bytes",
}
# Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    **COUNTER_UNITS,
    "trace.overhead_s": "s",  # traced minus untraced wall time of cli.main
}


def _count_lp(c, args, kwargs, res):
    c["allocate.lp.iterations"] += int(getattr(res, "nit", 0))


def _count_probe(c, args, kwargs, ok):
    c["allocate.probe.accepted"] += bool(ok)


def _count_kde(c, args, kwargs, curve):
    evals = curve.grid.size * len(args[0])
    c["kde.kernel_evals"] += evals
    c["kde.bytes_computed"] += evals * 8  # float64 grid x sample matrix, computed not measured


def _count_sample(c, args, kwargs, pop):
    c["sample.draws"] += pop.utilities.size


def _count_ingest(c, args, kwargs, dataset):
    c["ingest.rows"] += dataset.n
    c["ingest.bytes"] += os.path.getsize(args[0])


def _count_write(c, args, kwargs, result):
    c["write.files"] += 1
    c["write.bytes"] += len(args[1].encode("utf-8"))


def _count_reps(c, args, kwargs, result):
    c["replications"] += result.replications


def _patches():
    """(owner, attribute, layer, counter, required parent layer) for every
    wrapped name. Private boundaries are marked."""
    from fairalloc import audit, cli, core, policies, simulate

    out = [
        (cli, "run_experiment", "run_experiment", _count_reps, None),
        (cli, "load_population_csv", "load", None, None),
        (cli, "ingest_csv", "ingest", _count_ingest, None),
        (cli, "delta_metrics", "metrics", None, None),
        (cli, "write_text_atomic", "write", _count_write, None),
        (simulate, "_aggregate", "aggregate", None, None),  # private
        (simulate, "delta_metrics", "metrics", None, None),
        (simulate, "envelope", "envelope", None, None),
        (core, "envelope", "envelope", None, None),  # as called by delta_metrics
        # the linprog call inside allocate_utilitarian only; LP feasibility
        # probes stay inside their allocate.probe span
        (policies, "linprog", "allocate.lp", _count_lp, "allocate"),
        (policies, "_lex_least_allowed", "allocate.ties", None, None),  # private
        (policies, "_completion_feasible_hall", "allocate.probe", _count_probe, None),  # private
        (policies, "_completion_feasible_lp", "allocate.probe", _count_probe, None),  # private
        (audit, "_pair_masks", "masks", None, None),  # private
        (audit, "_shares_for_mask", "shares", None, None),  # private
        (audit, "delta_metrics", "metrics", None, None),
        (audit, "envelope", "envelope", None, None),
        (audit, "kde", "kde", _count_kde, None),
        (audit, "welch_t", "welch", None, None),
        (audit, "write_text_atomic", "write", _count_write, None),
    ]
    for name in ("allocate_utilitarian", "allocate_random", "allocate_best",
                 "allocate_worst", "allocate_mixture"):
        out.append((policies, name, "allocate", None, None))
    for cls in (simulate.GaussianGroupParams, simulate.SF1Params, simulate.SF2Params):
        out.append((cls, "sample", "sample", _count_sample, None))
    return out


class Tracer:
    """Span recorder; ``install`` wraps the layer boundaries, ``uninstall``
    restores them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, layer, fn, count, parent_only):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_layer = spans[parent][0] if parent is not None else None
            # a layer re-entering itself (a mixture's child policies) or a
            # call outside its required parent is not a new span
            if parent_layer == layer or (parent_only and parent_layer != parent_only):
                return fn(*args, **kwargs)
            span = [layer, time.perf_counter(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        for owner, attr, layer, count, parent_only in _patches():
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(layer, original, count, parent_only))
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def run(self, fn, *args):
        """Call ``fn`` under the root ``main`` span."""
        return self._wrap("main", fn, None, None)(*args)

    def per_layer(self) -> dict[str, float]:
        """Self time and call count per layer, plus the derived counters."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for name, start, end, parent in self.spans:
            duration = end - start
            self_s[name] += duration
            calls[name] += 1
            if parent is not None:
                self_s[self.spans[parent][0]] -= duration
        c = self.counters
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.calls"] = calls[layer]
        probes = calls["allocate.probe"]
        out["allocate.probe.accept_ratio"] = c["allocate.probe.accepted"] / probes if probes else 0.0
        reps = c["replications"]
        out["envelope.per_rep"] = calls["envelope"] / reps if reps else 0.0
        for key in COUNTER_UNITS:
            out.setdefault(key, int(c[key]))
        return out

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
