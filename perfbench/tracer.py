"""Outside-in tracing of embapprox's public functions for the per-layer run.

Every wrapped call records a span (id, name, start, end, parent span id,
instance id) and adds to its function's call count and self time, which
is the span's duration minus the time its child spans cover.  Callers
resolve functions through their own module's globals (``decide`` and
``derivative`` both bind ``find_crossing_pair``; ``decide`` also binds
``derive``), so a wrapper replaces every binding of the function in every
embapprox module, not only the one in the defining module.

Only the traced run installs wrappers; the timed run stays unwrapped.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

# module -> public functions wrapped in it (a class stands for its constructor)
LAYERS = {
    "transversal": ("find_crossing_pair",),
    "ribbon": ("boundary_walks",),
    "derivative": ("derive", "phi_components", "winding_report", "iterate_derivative"),
    "iso": ("maps_isomorphic",),
    "core": ("normalize_nondegenerate", "parse_instance"),
    "vankampen": ("intersection_cochain", "build_deleted_product", "Drawing"),
    "geometry": ("proper_crossing",),
    "gf2": ("solve_or_certify",),
    "oracle": ("oracle_result",),
    "decide": ("decide_path", "decide_cycle", "decide_deg3_to_circle", "decide_path_via_vk"),
    "corpus": ("generate", "random_deg3_map"),
}

# find_crossing_pair is two searches, traced as two spans: disjoint arcs
# only (the transversal predicate, ".disjoint") and any two arcs (the
# derive precondition, ".any")
FCP = "transversal.find_crossing_pair"

# counters beyond calls and self time: name -> (unit, better)
EXTRA = {
    "transversal.pair_tests": ("count", "lower"),
    "transversal.distinct_pairs": ("count", "lower"),
    "transversal.witness_ratio": ("ratio", "higher"),
    "transversal.cache_entries": ("count", "lower"),
    "derivative.stages": ("count", "lower"),
    "derivative.kprime_max": ("count", "lower"),
    "derivative.gprime_max": ("count", "lower"),
    "iso.stabilized_ratio": ("ratio", "higher"),
    "vankampen.retry_ratio": ("ratio", "lower"),
    "vankampen.cells2": ("count", "lower"),
    "gf2.matrix_cells": ("count", "lower"),
    "gf2.matrix_mb_max": ("MB-computed", "lower"),
    "oracle.lifts_examined": ("count", "lower"),
    "oracle.budget_exceeded": ("count", "lower"),
    "trace.overhead": ("ratio", "lower"),
}


def span_names() -> list[str]:
    names = []
    for module, fns in LAYERS.items():
        for fn in fns:
            base = f"{module}.{fn}"
            names += [f"{base}.disjoint", f"{base}.any"] if base == FCP else [base]
    return names


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span in span_names():
        out.append((f"{span}.calls", "count", "lower"))
        out.append((f"{span}.self_s", "s", "lower"))
    out += [(name, unit, better) for name, (unit, better) in EXTRA.items()]
    return out


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.instance: str | None = None
        self._stack: list[list[int]] = []  # [span id, ns covered by children]

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def wrap(self, fn, name, after=None):
        """fn with a span around each call.

        ``name`` is the span name, or a function of the call's (args, kwargs)
        that gives it; ``after(tracer, result, args, kwargs)`` updates the
        counters when the call returns.
        """
        clock = time.perf_counter_ns
        stack = self._stack
        name_of = name if callable(name) else (lambda args, kwargs: name)

        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            parent = stack[-1][0] if stack else None
            # id: the number of spans opened before this one
            frame = [len(self.spans) + len(stack), 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, frame, start, clock(), parent)
                raise
            self._close(name, frame, start, clock(), parent)
            if after is not None:
                after(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, name, frame, start, end, parent):
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((frame[0], name, start, end, parent, self.instance))


def _after_find_crossing_pair(tracer, result, args, kwargs):
    tracer.counters["transversal.witnesses"] += result is not None


def _after_derive(tracer, step, args, kwargs):
    tracer.counters["derivative.stages"] += 1
    tracer.note_max("derivative.kprime_max", step.kprime.n)
    tracer.note_max("derivative.gprime_max", step.gprime.n)


def _after_maps_isomorphic(tracer, result, args, kwargs):
    tracer.counters["iso.stabilized"] += bool(result)


def _after_build_deleted_product(tracer, complex_, args, kwargs):
    tracer.counters["vankampen.cells2"] += len(complex_.cells2)


def _after_solve_or_certify(tracer, result, args, kwargs):
    # computed from the argument shape: solve_or_certify eliminates on the
    # uint8 matrix [a | b | I], one byte per cell
    rows, cols = args[0].shape
    tracer.counters["gf2.matrix_cells"] += rows * cols
    tracer.note_max("gf2.matrix_mb_max", rows * (cols + 1 + rows) / 1e6)


def _after_oracle_result(tracer, result, args, kwargs):
    tracer.counters["oracle.lifts_examined"] += result.lifts_examined


AFTER = {
    FCP: _after_find_crossing_pair,
    "derivative.derive": _after_derive,
    "iso.maps_isomorphic": _after_maps_isomorphic,
    "vankampen.build_deleted_product": _after_build_deleted_product,
    "gf2.solve_or_certify": _after_solve_or_certify,
    "oracle.oracle_result": _after_oracle_result,
}


def _fcp_span(args, kwargs) -> str:
    disjoint = kwargs["disjoint_only"] if "disjoint_only" in kwargs else args[1]
    return f"{FCP}.disjoint" if disjoint else f"{FCP}.any"


def install(tracer: Tracer) -> None:
    """Wrap every function in LAYERS at every binding inside embapprox."""
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "embapprox"]
    budget_error = sys.modules["embapprox"].OracleBudgetExceeded
    for module, fns in LAYERS.items():
        home = sys.modules[f"embapprox.{module}"]
        for fn_name in fns:
            base = f"{module}.{fn_name}"
            name = _fcp_span if base == FCP else base
            original = getattr(home, fn_name)
            if inspect.isclass(original):
                original.__init__ = tracer.wrap(original.__init__, name, AFTER.get(base))
                continue
            target = original
            if inspect.isgeneratorfunction(original):
                # a generator does its work while iterated; materialize it
                # inside the span so the span covers the work
                def target(*args, _gen=original, **kwargs):
                    return iter(list(_gen(*args, **kwargs)))
            elif base == "oracle.oracle_result":

                def target(*args, _fn=original, **kwargs):
                    try:
                        return _fn(*args, **kwargs)
                    except budget_error:
                        tracer.counters["oracle.budget_exceeded"] += 1
                        raise

            wrapped = tracer.wrap(target, name, AFTER.get(base))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapped)


def layer_values(tracer: Tracer, cache_info) -> dict[str, float]:
    """Every per-layer metric of a finished traced run but trace.overhead.

    ``cache_info`` is transversal's crossing-engine cache statistics for the
    traced pass (None when the engine has no such cache): its hits plus
    misses are the arc-pair tests, its misses the distinct image pairs.
    """
    values: dict[str, float] = {}
    for span in span_names():
        values[f"{span}.calls"] = tracer.calls[span]
        values[f"{span}.self_s"] = tracer.self_ns[span] / 1e9
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    searches = tracer.calls[f"{FCP}.disjoint"] + tracer.calls[f"{FCP}.any"]
    values["transversal.pair_tests"] = cache_info.hits + cache_info.misses if cache_info else 0
    values["transversal.distinct_pairs"] = cache_info.misses if cache_info else 0
    values["transversal.witness_ratio"] = ratio(c["transversal.witnesses"], searches)
    values["transversal.cache_entries"] = cache_info.currsize if cache_info else 0
    values["derivative.stages"] = c["derivative.stages"]
    values["derivative.kprime_max"] = tracer.maxima.get("derivative.kprime_max", 0)
    values["derivative.gprime_max"] = tracer.maxima.get("derivative.gprime_max", 0)
    values["iso.stabilized_ratio"] = ratio(c["iso.stabilized"], tracer.calls["iso.maps_isomorphic"])
    values["vankampen.retry_ratio"] = ratio(
        tracer.calls["vankampen.Drawing"], tracer.calls["vankampen.intersection_cochain"]
    )
    values["vankampen.cells2"] = c["vankampen.cells2"]
    values["gf2.matrix_cells"] = c["gf2.matrix_cells"]
    values["gf2.matrix_mb_max"] = tracer.maxima.get("gf2.matrix_mb_max", 0)
    values["oracle.lifts_examined"] = c["oracle.lifts_examined"]
    values["oracle.budget_exceeded"] = c["oracle.budget_exceeded"]
    return values
