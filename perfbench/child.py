"""One workload run in a fresh interpreter; prints a JSON result as its last line.

Started by run.py with one JSON argument:
  root      checkout root; embapprox is imported from root/src only
  workload  a name in workloads.BUILDERS
  seed      input seed
  mode      "setup": set up, report when ready and the kernel's time
                     around set-up, exit
            "measure": set up, then repeat timed passes for `seconds`
            "pass": set up, then one pass; with `trace`, the tracer wraps
                    the library before set-up and the result holds the
                    per-layer values and spans go to `spans_path`
  tiny      self-test sizes

A pass decides every instance of the workload once, on every route the
instance lists, timing each route call on its own.  The first pass decides
the instances built in set-up; each later pass builds fresh ones.

Times are in reference seconds.  The speed of a shared VM can swing by up
to 2x over seconds to minutes, and CPU time swings with wall time, so
neither is steady on its own.  A fixed pure-Python kernel that does
not touch embapprox is timed between route calls, at least every
CAL_EVERY_NS, and every route call's wall time is scaled by
CAL_REF_NS / (the median kernel time around it).  A change to embapprox
moves the route times and not the kernel's, so comparisons between commits
keep their full size; the raw wall times are reported beside them.  The
kernel is also timed around set-up, which run.setup_time scales.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

# The oracle counts complete lifts against this budget.  Its pruned search
# stops at the first complete lift, so at these sizes the budget never
# binds; an instance that exhausted it would count as unverified.
MAX_LIFTS = 100_000

# The kernel takes about CAL_REF_NS on an unloaded 2-vCPU Xeon VM, so
# there reference seconds read close to wall seconds.
CAL_REF_NS = 500_000
CAL_EVERY_NS = 25_000_000
CAL_SETUP_RUNS = 5  # kernel runs before set-up and again after it

ROUTE_GROUP = {
    "decide_path": "decide",
    "decide_cycle": "decide",
    "decide_deg3_to_circle": "decide",
    "decide_path_via_vk": "vk",
    "oracle_result": "oracle",
}
GROUPS = ("decide", "vk", "oracle")


@dataclass(frozen=True)
class Outcome:
    route: str
    verdict: bool | None
    flagged: bool = False
    error: str | None = None
    budget_exceeded: bool = False


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def step(self, x):
        return (self.a * x + self.b) % 101


def _kernel() -> int:
    """Calls, attribute reads, dict and tuple work, generators and sorting."""
    items = [_Item(i, i + 1) for i in range(40)]
    seen: dict = {}
    acc = 0
    for r in range(40):
        for item in items:
            key = (item.step(r), r & 3)
            if key in seen:
                acc += seen[key]
            else:
                seen[key] = len(seen)
        acc += sum(1 for item in items if item.a & 1)
        acc += sorted((r % 7, r % 5, r % 3, acc % 11))[1]
    return acc


def calibrate() -> int:
    """Wall time of one kernel run, in ns, without the cyclic collector."""
    gc.disable()
    start = time.perf_counter_ns()
    _kernel()
    end = time.perf_counter_ns()
    gc.enable()
    return end - start


@dataclass
class PassResult:
    durations: dict[str, list[float]] = field(default_factory=lambda: {g: [] for g in GROUPS})  # reference ns
    raw_ns: dict[str, int] = field(default_factory=lambda: {g: 0 for g in GROUPS})
    calibrations: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    raised: int = 0
    flagged: int = 0
    decide_calls: int = 0
    unverified: int = 0
    failures: list[tuple] = field(default_factory=list)  # (instance, outcome, reference)


def call_route(api, route: str, phi):
    if route == "oracle_result":
        return api.oracle_result(phi, max_lifts=MAX_LIFTS)
    return getattr(api, route)(phi)


def judge(instance, outcomes: list[Outcome]) -> tuple[bool | None, list[Outcome]]:
    """The reference verdict of an instance and its failed route calls.

    A call fails when it raised, or when its verdict differs from the
    reference.  The reference is the verdict known by construction, else
    the oracle's; an instance the oracle did not settle has none, and its
    verdicts go unchecked.
    """
    reference = instance.expected
    if reference is None:
        settled = [o.verdict for o in outcomes if o.route == "oracle_result" and o.error is None]
        reference = settled[0] if settled else None
    bad = [
        o
        for o in outcomes
        if not o.budget_exceeded
        and (o.error is not None or (reference is not None and o.verdict != reference))
    ]
    return reference, bad


def run_pass(api, instances, tracer=None) -> PassResult:
    budget_error = api.OracleBudgetExceeded
    clock = time.perf_counter_ns
    result = PassResult()
    cals = result.calibrations
    cals.append(calibrate())
    last_cal = clock()
    timed = []  # (group, wall ns, index of the last calibration before the call)
    for inst in instances:
        if tracer is not None:
            tracer.instance = inst.id
        outcomes = []
        for route in inst.routes:
            start = clock()
            try:
                verdict = call_route(api, route, inst.phi)
                end = clock()
                outcome = Outcome(route, verdict.approximable, getattr(verdict, "flagged_for_review", False))
            except budget_error:
                end = clock()
                outcome = Outcome(route, None, error="oracle budget exceeded", budget_exceeded=True)
            except Exception as exc:  # a raising route is a failed operation, not a crash
                end = clock()
                outcome = Outcome(route, None, error=f"{type(exc).__name__}: {exc}")
            timed.append((ROUTE_GROUP[route], end - start, len(cals) - 1))
            outcomes.append(outcome)
            if end - last_cal >= CAL_EVERY_NS:
                cals.append(calibrate())
                last_cal = clock()
        reference, bad = judge(inst, outcomes)
        result.attempted += len(outcomes)
        result.failed += len(bad)
        result.raised += sum(o.error is not None for o in bad)
        result.wrong += sum(o.error is None for o in bad)
        result.unverified += reference is None
        for o in outcomes:
            if ROUTE_GROUP[o.route] == "decide":
                result.decide_calls += 1
                result.flagged += o.flagged
        result.failures += [(inst, o, reference) for o in bad]
    if tracer is not None:
        tracer.instance = None
    cals.append(calibrate())
    # calls between calibrations j and j + 1 run at the speed of the two
    # calibrations on either side
    local = [statistics.median(cals[max(0, j - 1) : j + 3]) for j in range(len(cals) - 1)]
    for group, ns, j in timed:
        result.durations[group].append(ns * CAL_REF_NS / local[j])
        result.raw_ns[group] += ns
    return result


def percentile(xs: list[int], p: float) -> float:
    """Linear interpolation between closest ranks of sorted xs (p in [0, 1])."""
    pos = (len(xs) - 1) * p
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def group_stats(durations: list[float], raw_ns: int) -> dict | None:
    """Totals and percentiles of one route group's call times in one pass."""
    if not durations:
        return None
    xs = sorted(durations)
    n = len(xs)
    # the highest percentile with at least ten samples beyond it
    tail = next((p for p in (99.9, 99.0, 90.0, 50.0) if n * (100 - p) / 100 >= 10), None)
    return {
        "n": n,
        "total_s": sum(xs) / 1e9,
        "raw_s": raw_ns / 1e9,
        "p50_ms": percentile(xs, 0.5) / 1e6,
        "p90_ms": percentile(xs, 0.9) / 1e6,
        "tail": None if tail is None else [tail, percentile(xs, tail / 100) / 1e6],
    }


def pass_summary(res: PassResult, wall_s: float) -> dict:
    return {
        "wall_s": wall_s,
        "route_s": sum(sum(res.durations[g]) for g in GROUPS) / 1e9,
        "cal_ms": statistics.median(res.calibrations) / 1e6,
        **{g: group_stats(res.durations[g], res.raw_ns[g]) for g in GROUPS},
        "attempted": res.attempted,
        "failed": res.failed,
        "wrong": res.wrong,
        "raised": res.raised,
        "flagged": res.flagged,
        "decide_calls": res.decide_calls,
        "unverified": res.unverified,
    }


def failure_listing(api, res: PassResult) -> list[dict]:
    return [
        {
            "id": inst.id,
            "route": o.route,
            "verdict": o.verdict,
            "reference": reference,
            "error": o.error,
            "text": api.format_instance(inst.phi),
        }
        for inst, o, reference in res.failures
    ]


def round_trip(api, instances) -> list[list[str]]:
    """format_instance -> parse_instance of every instance; [id, reason] per failure."""
    failed = []
    for inst in instances:
        text = api.format_instance(inst.phi)
        try:
            if api.format_instance(api.parse_instance(text)) != text:
                failed.append([inst.id, "formatted text changed"])
        except api.EmbapproxError as exc:
            failed.append([inst.id, f"{type(exc).__name__}: {exc}"])
    return failed


def crossing_cache(api):
    """transversal's crossing-engine cache, or None once it has no lru_cache."""
    engine = getattr(api.transversal, "_crossing_component", None)
    return engine if hasattr(engine, "cache_info") else None


def fresh_pass_state(api) -> None:
    """Each pass starts without crossing results cached by earlier passes."""
    cache = crossing_cache(api)
    if cache is not None:
        cache.cache_clear()
    gc.collect()


def main() -> int:
    # the kernel is timed on both sides of set-up; run.py leaves the runs
    # before it out of setup_s
    start = time.monotonic()
    setup_cals = [calibrate() for _ in range(CAL_SETUP_RUNS)]
    setup_skip = time.monotonic() - start
    cfg = json.loads(sys.argv[1])
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    import embapprox as api

    home = os.path.dirname(os.path.abspath(api.__file__))
    if home != os.path.join(os.path.abspath(src), "embapprox"):
        print(f"embapprox was imported from {home}, not from {src}", file=sys.stderr)
        return 2
    import numpy

    import tracer as tracing
    import workloads

    tracer = None
    if cfg["mode"] == "pass" and cfg["trace"]:
        import embapprox.catalog  # noqa: F401  (every module loaded before wrapping)
        import embapprox.corpus  # noqa: F401

        tracer = tracing.Tracer()
        tracing.install(tracer)

    build = workloads.BUILDERS[cfg["workload"]]
    instances = build(cfg["seed"], cfg["tiny"])
    roundtrip_failed = round_trip(api, instances)
    ready = time.monotonic()
    setup_cals += [calibrate() for _ in range(CAL_SETUP_RUNS)]
    out = {"ready": ready, "setup_skip": setup_skip, "setup_cal_ns": statistics.median(setup_cals)}
    if cfg["mode"] == "setup":
        print(json.dumps(out))
        return 0

    passes = []
    failures = []
    loop_start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        if passes:
            instances = build(cfg["seed"], cfg["tiny"])
        fresh_pass_state(api)
        t0 = time.perf_counter()
        res = run_pass(api, instances, tracer)
        now = time.perf_counter()
        passes.append(pass_summary(res, now - t0))
        if len(passes) == 1:
            failures = failure_listing(api, res)
        if cfg["mode"] == "pass" or now + (now - cycle_start) > loop_start + cfg["seconds"]:
            break

    out.update(
        numpy=numpy.__version__,
        instances=len(instances),
        roundtrip_failed=roundtrip_failed,
        passes=passes,
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        cache = crossing_cache(api)
        out["layers"] = tracing.layer_values(tracer, cache.cache_info() if cache else None)
        with open(cfg["spans_path"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        out["spans"] = len(tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
