"""In-memory spans around calls into the layers of ``eub``, and the per-layer
metrics computed from them.

Spans are recorded only from outside the package: for a traced round the
benchmark replaces, in each consuming module, the names that module imported
from a layer (``eub.montecarlo.sample_generator``, ``eub.cli.s_coefficients``,
...) with a recording wrapper, and puts the originals back afterwards.
Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np


def _rows(args, kwargs):
    # matrices in a stack, rows of a stack of vectors, or N of one matrix
    return int(np.shape(args[0])[0])


def _batch_shape(args, kwargs):
    shape = np.shape(args[0])
    return (int(shape[0]), int(shape[1]))


def _samples(args, kwargs):
    return int(args[1])


# (consuming module, imported name, span name, size of the call or None).
# The span name is "<layer>.<function>", the layer being the module that
# defines the function.
WRAPS = (
    ("eub.montecarlo", "sample_generator", "matrices.sample_generator", None),
    ("eub.montecarlo", "_haar_from_ginibre", "matrices.haar_qr", _rows),
    ("eub.montecarlo", "s_coefficients_batch", "submatrices.batch", _batch_shape),
    ("eub.montecarlo", "_q_rows", "bounds.q_rows", _rows),
    ("eub.montecarlo", "_renyi_rows", "entropy.renyi_rows", _rows),
    ("eub.bounds", "s_coefficients", "submatrices.single", _rows),
    ("eub.bounds", "majorizing_vector", "bounds.majorizing_vector", None),
    ("eub.bounds", "ladder_from_coefficients", "bounds.ladder", None),
    ("eub.bounds", "renyi_entropy", "entropy.renyi_entropy", None),
    ("eub.families", "bound_ladder", "bounds.bound_ladder", None),
    ("eub.families", "bound_mu", "bounds.bound_mu", None),
    ("eub.families", "unistochastic_lift_3", "families.lift", None),
    ("eub.cli", "s_coefficients", "submatrices.single", _rows),
    ("eub.cli", "majorizing_vector", "bounds.majorizing_vector", None),
    ("eub.cli", "ladder_from_coefficients", "bounds.ladder", None),
    ("eub.cli", "renyi_entropy", "entropy.renyi_entropy", None),
    ("eub.cli", "cross_section_scan", "families.scan", None),
    ("eub.cli", "unistochastic_lift_3", "families.lift", None),
    ("eub.cli", "permutation_power", "families.permutation_power", None),
    ("eub.cli", "haar_unitary", "matrices.haar_unitary", None),
    ("eub.cli", "load_matrix", "matrices.load_matrix", None),
    ("eub.cli", "beat_rate", "montecarlo.beat_rate", _samples),
    ("eub.cli", "majorization_fuzz", "montecarlo.majorization_fuzz", _samples),
)

# Top-level calls the benchmark itself makes, by operation kind.
OP_SPANS = {
    "beat_rate": ("montecarlo.beat_rate", _samples),
    "fuzz": ("montecarlo.majorization_fuzz", _samples),
    "gap_stats": ("montecarlo.bound_gap_stats", _samples),
    "cli": ("cli.main", None),
    "verify_check": ("cli.verify_check", None),
    "single": ("submatrices.single", _rows),
}


class Tracer:
    """Records spans as [name, start, end, parent index, size] rows."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, fn, name, size=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   size(args, kwargs) if size else None]
            spans.append(row)
            stack.append(len(spans) - 1)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def install(self):
        for mod_name, attr, name, size in WRAPS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, name, size))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def layer(name):
    return name.split(".", 1)[0]


class SpanStats:
    """Aggregates over one list of spans."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        child_all = [0.0] * n
        child_other = [0.0] * n
        for row in spans:
            parent = row[3]
            if parent >= 0:
                dur = row[2] - row[1]
                child_all[parent] += dur
                if layer(row[0]) != layer(spans[parent][0]):
                    child_other[parent] += dur
        self.by_name = defaultdict(list)
        for i, row in enumerate(spans):
            # (duration, exclusive time, time outside other layers, size)
            dur = row[2] - row[1]
            self.by_name[row[0]].append((dur, dur - child_all[i], dur - child_other[i], row[4]))
        self.root_time = sum(row[2] - row[1] for row in spans if row[3] < 0)

    def calls(self, name, where=None):
        return [s for s in self.by_name.get(name, ()) if where is None or where(s[3])]

    def per_call(self, name, where=None, field=0):
        rows = self.calls(name, where)
        return sum(r[field] for r in rows) / len(rows) if rows else None

    def per_unit(self, names, field=0, where=None, unit=lambda size: size):
        rows = [r for name in names for r in self.calls(name, where)]
        units = sum(unit(r[3]) for r in rows)
        return sum(r[field] for r in rows) / units if units else None

    def exclusive_by_group(self):
        out = defaultdict(float)
        for name, rows in self.by_name.items():
            group = {
                "submatrices.batch": "submatrices_batch",
                "submatrices.single": "submatrices_single",
            }.get(name, layer(name))
            out[group] += sum(r[1] for r in rows)
        return out


_MC_OPS = ("montecarlo.beat_rate", "montecarlo.majorization_fuzz", "montecarlo.bound_gap_stats")


def _n_is(n):
    return lambda size: size[1] == n


def _dim_is(n):
    return lambda size: size == n


# name -> (unit, function of SpanStats returning the value or None when the
# spans hold no call of that layer)
LAYER_METRICS = {
    "matrices.sample_generator_us": ("us", lambda st: _us(st.per_call("matrices.sample_generator"))),
    "matrices.haar_qr_us_per_matrix": ("us", lambda st: _us(st.per_unit(["matrices.haar_qr"]))),
    "montecarlo.self_us_per_sample": ("us", lambda st: _us(st.per_unit(_MC_OPS, field=2))),
    "submatrices.batch_us_per_matrix.n3": ("us", lambda st: _us(_batch(st, 3))),
    "submatrices.batch_us_per_matrix.n4": ("us", lambda st: _us(_batch(st, 4))),
    "submatrices.batch_us_per_matrix.n5": ("us", lambda st: _us(_batch(st, 5))),
    "submatrices.batch_us_per_matrix.n6": ("us", lambda st: _us(_batch(st, 6))),
    "submatrices.single_ms.N8": ("ms", lambda st: _ms(st.per_call("submatrices.single", _dim_is(8)))),
    "submatrices.single_ms.N9": ("ms", lambda st: _ms(st.per_call("submatrices.single", _dim_is(9)))),
    "submatrices.single_ms.N10": ("ms", lambda st: _ms(st.per_call("submatrices.single", _dim_is(10)))),
    "submatrices.single_us.N3": ("us", lambda st: _us(st.per_call("submatrices.single", _dim_is(3)))),
    "bounds.q_rows_us_per_row": ("us", lambda st: _us(st.per_unit(["bounds.q_rows"]))),
    "entropy.renyi_rows_us_per_row": ("us", lambda st: _us(st.per_unit(["entropy.renyi_rows"]))),
    "bounds.ladder_us_per_report": ("us", lambda st: _us(st.per_call("bounds.ladder"))),
    "bounds.majorizing_vector_us": ("us", lambda st: _us(st.per_call("bounds.majorizing_vector"))),
    "entropy.renyi_entropy_us": ("us", lambda st: _us(st.per_call("entropy.renyi_entropy"))),
    "families.scan_self_ms": ("ms", lambda st: _ms(st.per_call("families.scan", field=2))),
    "families.lift_us": ("us", lambda st: _us(st.per_call("families.lift"))),
    "cli.format_ms": ("ms", lambda st: _ms(st.per_call("cli.main", field=2))),
}

COUNT_METRICS = {
    "matrices.sample_generator_calls": "matrices.sample_generator",
    "submatrices.batch_calls": "submatrices.batch",
    "submatrices.single_calls": "submatrices.single",
    "entropy.renyi_entropy_calls": "entropy.renyi_entropy",
}

# Share of the traced operations' time spent in each group's own code
# (exclusive of child spans); the groups partition the traced time.
SHARE_GROUPS = (
    "matrices",
    "montecarlo",
    "submatrices_batch",
    "submatrices_single",
    "bounds",
    "entropy",
    "families",
    "cli",
)


def _batch(st, n):
    return st.per_unit(["submatrices.batch"], where=_n_is(n), unit=lambda size: size[0])


def _us(seconds):
    return None if seconds is None else seconds * 1e6


def _ms(seconds):
    return None if seconds is None else seconds * 1e3


# Per-layer metrics of the batch path's sampling and Q/entropy steps; one
# small beat_rate call measures them all.
SAMPLING_METRICS = {
    "matrices.sample_generator_us",
    "matrices.haar_qr_us_per_matrix",
    "montecarlo.self_us_per_sample",
    "bounds.q_rows_us_per_row",
    "entropy.renyi_rows_us_per_row",
}


def missing_metrics(spans):
    """Time metrics whose layer no span in ``spans`` reaches."""
    st = SpanStats(spans)
    return {name for name, (_, fn) in LAYER_METRICS.items() if fn(st) is None}


def layer_metrics(spans, probe_spans):
    """Per-layer metrics from the workload's spans.

    A time metric whose layer the workload never calls is taken from the
    probe spans instead; the names of those metrics are returned as well.
    """
    st = SpanStats(spans)
    probe = SpanStats(probe_spans)
    metrics, probed = {}, []
    for name, (unit, fn) in LAYER_METRICS.items():
        value = fn(st)
        if value is None:
            value = fn(probe)
            probed.append(name)
        if value is None:
            raise RuntimeError(f"no span measures {name}")
        metrics[name] = {"value": value, "unit": unit}
    for name, span in COUNT_METRICS.items():
        metrics[name] = {"value": len(st.calls(span)), "unit": "count"}
    groups = st.exclusive_by_group()
    for group in SHARE_GROUPS:
        metrics[f"share.{group}_pct"] = {"value": 100.0 * groups.get(group, 0.0) / st.root_time, "unit": "%"}
    return metrics, probed
