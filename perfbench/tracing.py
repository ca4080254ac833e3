"""Spans recorded from outside the program, and the layer metrics built on them.

``instrument`` rebinds every public function of the layer modules, in
every eulerfan module namespace that holds it, to a wrapper that records
a span; leaving the context restores the originals.  No source file is
edited, and names starting with ``_`` are never touched, so work done in
private helpers counts as self time of the public span that calls them.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import types
from array import array
from time import perf_counter

LAYERS = ("eos", "functionals", "classifier", "subsolution", "threshold",
          "reporting", "cli")


class Tracer:
    """Spans kept in memory as flat arrays and written out at the end.

    A span has a name, start, end, parent span (-1 for a root) and the op
    id current when it opened.  Self time is the duration minus the time
    covered by child spans, accumulated as each child closes.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.child = array("d")
        self._stack = []
        self.op_id = 0

    def next_op(self):
        self.op_id += 1

    def wrap(self, span_name, fn):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._ids[span_name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.child.append(0.0)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.end[i] = end
                self._stack.pop()
                parent = self.parent[i]
                if parent >= 0:
                    self.child[parent] += end - self.start[i]
        return traced

    def spans(self, pred):
        """Indices of spans whose name satisfies pred."""
        wanted = {i for i, n in enumerate(self.names) if pred(n)}
        return [i for i, nid in enumerate(self.name) if nid in wanted]

    def named(self, span_name):
        return self.spans(lambda n: n == span_name)

    def layer(self, layer):
        return self.spans(lambda n: n.split(".")[0] == layer)

    def duration(self, i):
        return self.end[i] - self.start[i]

    def self_time(self, i):
        return self.end[i] - self.start[i] - self.child[i]

    def root_time(self):
        return sum(self.duration(i) for i, p in enumerate(self.parent) if p < 0)

    def write_csv(self, fh, label):
        t0 = self.start[0] if len(self.start) else 0.0
        for i, nid in enumerate(self.name):
            fh.write(f"{label},{self.op[i]},{i},{self.names[nid]},{self.parent[i]},"
                     f"{(self.start[i] - t0) * 1e6:.3f},{(self.end[i] - t0) * 1e6:.3f}\n")


@contextlib.contextmanager
def instrument(ef, tracer):
    """Record spans for every public layer function while the context is open."""
    modules = [ef] + [getattr(ef, layer) for layer in LAYERS]
    wrappers = {}
    for layer in LAYERS:
        module = getattr(ef, layer)
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__):
                wrappers[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
    saved = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                saved.append((module, attr, obj))
                setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, obj in saved:
            setattr(module, attr, obj)


def parse_importtime(stderr: str):
    """(eulerfan import seconds, scipy share of it in seconds) from ``-X importtime``.

    The import total sums the top-level eulerfan entries.  The scipy part
    sums the outermost scipy entries nested under them, so modules that
    were already loaded (numpy) are not charged to scipy.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        try:
            us = int(cumulative)
        except ValueError:  # the header line
            continue
        entries.append(((len(name) - len(name.lstrip()) - 1) // 2, us, name.strip()))
    total = scipy = 0
    stack = []
    for depth, us, name in reversed(entries):  # parents before children
        del stack[depth:]
        top = name.split(".")[0]
        tops = [a.split(".")[0] for a in stack]
        if depth == 0 and top == "eulerfan":
            total += us
        elif top == "scipy" and "scipy" not in tops and tops[:1] == ["eulerfan"]:
            scipy += us
        stack.append(name)
    return total * 1e-6, scipy * 1e-6


def _median(values):
    return statistics.median(values) if values else float("nan")


def _ratio(num, den):
    return num / den if den else float("nan")


def own_metrics(tracer, ops):
    """Per-op counts and shares of the eos and functionals layers."""
    total = tracer.root_time()
    eos = tracer.layer("eos")
    note = f"{ops} traced ops"
    return {
        "eos.calls_per_op": (_ratio(len(eos), ops), "count", note),
        "eos.self_share": (_ratio(sum(tracer.self_time(i) for i in eos), total), "share", note),
        "functionals.calls_per_op": (_ratio(len(tracer.layer("functionals")), ops), "count",
                                     note),
    }


def threshold_metrics(tracer, workload):
    columns = tracer.named("threshold.threshold_V")
    probes = tracer.named("threshold.feasible_for_gap")
    n = f"{len(columns)} columns, {len(probes)} probes"
    return {
        "threshold.threshold_V.ms": (
            _median([tracer.duration(i) for i in columns]) * 1e3, "ms", n),
        "threshold.threshold_V.self_ms": (
            _median([tracer.self_time(i) for i in columns]) * 1e3, "ms", n),
        "threshold.probes_per_column": (_ratio(len(probes), len(columns)), "count", n),
        "threshold.feasible_for_gap.ms": (
            _median([tracer.duration(i) for i in probes]) * 1e3, "ms", n),
        "threshold.feasible_fraction": (
            _ratio(workload.feasible_probes, workload.probes), "share",
            f"{workload.feasible_probes} of {workload.probes} probes"),
    }


def region_metrics(tracer, found):
    total = tracer.root_time()
    classify = tracer.named("classifier.classify")
    witness = tracer.named("threshold.subsolution_witness")
    verify = tracer.named("subsolution.verify_subsolution")
    csv = tracer.named("reporting.region_map_csv")
    return {
        "classifier.classify.us": (
            _median([tracer.duration(i) for i in classify]) * 1e6, "us",
            f"{len(classify)} calls"),
        "classifier.self_share": (
            _ratio(sum(tracer.self_time(i) for i in tracer.layer("classifier")), total),
            "share", "of sweep and CSV time"),
        "classifier.wave_curve.calls_per_solve": (
            _ratio(len(tracer.named("classifier.wave_curve")),
                   len(tracer.named("classifier.solve_middle_state"))), "count", ""),
        "threshold.subsolution_witness.ms": (
            _median([tracer.duration(i) for i in witness]) * 1e3, "ms",
            f"{len(witness)} calls"),
        "subsolution.verify_subsolution.us": (
            _median([tracer.duration(i) for i in verify]) * 1e6, "us", f"{len(verify)} calls"),
        "subsolution.witness_pass_ratio": (
            _ratio(found, len(verify)), "share", f"{found} passed of {len(verify)} witnesses"),
        "reporting.region_map_sweep.self_share": (
            _ratio(sum(tracer.self_time(i)
                       for i in tracer.named("reporting.region_map_sweep")), total),
            "share", "of sweep and CSV time"),
        "reporting.region_map_csv.ms": (
            _median([tracer.duration(i) for i in csv]) * 1e3, "ms", f"{len(csv)} maps"),
    }
