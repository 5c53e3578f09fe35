"""Self-test of the benchmark at tiny sizes (about 15 seconds).

    python3 perfbench/selftest.py

Checks that
  1. BENCHMARK.json names the metrics, units and directions this code emits;
  2. every end-to-end metric is emitted on every workload whose routes
     define it, and every per-layer metric on every workload;
  3. every layer records calls on the workload where it does the most work;
  4. transversal records zero pair tests on deg3-circle;
  5. per-layer counts repeat exactly between two traced runs;
  6. a deliberately flipped reference is counted as a failed operation,
     both a verdict known by construction and the oracle's verdict;
  7. without the package sources the benchmark fails and prints no result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run
import tracer

# layer -> workloads where it does the most work (README, layer table)
MOST_WORK = {
    "transversal": ("fold-ladder",),
    "ribbon": ("walks-deg3",),
    "derivative": ("corpus-small", "deg3-circle"),
    "iso": ("corpus-small",),
    "core": ("corpus-small",),
    "vankampen": ("corpus-small", "deg3-circle"),
    "geometry": ("corpus-small",),
    "gf2": ("fold-ladder",),
    "oracle": ("corpus-small", "walks-deg3"),
    "decide": run.WORKLOADS,
    "corpus": ("deg3-circle",),
}
# end-to-end metric prefix -> the route whose calls define it
DEFINED_BY = {"decide": None, "vk": "decide.decide_path_via_vk.calls", "oracle": "oracle.oracle_result.calls"}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def layer_calls(values: dict, layer: str) -> int:
    return sum(v for k, v in values.items() if k.startswith(layer + ".") and k.endswith(".calls"))


def counts(values: dict) -> dict:
    """Everything but times and the overhead ratio, which never repeat."""
    return {k: v for k, v in values.items() if not k.endswith("_s") and k != "trace.overhead"}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
        "BENCHMARK.json end_to_end matches run.END_TO_END",
    )
    check(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.per_layer_metrics(),
        "BENCHMARK.json per_layer matches tracer.per_layer_metrics()",
    )
    registered = {w["name"] for w in spec["workloads"]}
    check(registered <= set(run.WORKLOADS), "every BENCHMARK.json workload exists")

    e2e_names = [name for name, _ in run.END_TO_END]
    layer_names = [name for name, _, _ in tracer.per_layer_metrics()]
    for workload in run.WORKLOADS:
        _, traced = run.trace(workload, 1, 1, tiny=True)
        values = {k: v["value"] for k, v in traced["metrics"].items()}
        check(list(values) == layer_names, f"{workload}: every per-layer metric emitted")
        _, timed = run.measure(workload, 1, 1, tiny=True)
        expected = [
            name
            for name in e2e_names
            if DEFINED_BY.get(name.split("_")[0]) is None or values[DEFINED_BY[name.split("_")[0]]] > 0
        ]
        absent = sorted(set(e2e_names) - set(expected)) or "none"
        check(list(timed["metrics"]) == expected, f"{workload}: end-to-end metrics emitted where defined (absent: {absent})")
        if workload in registered:
            check(list(timed["metrics"]) == e2e_names, f"{workload}: registered, so every end-to-end metric emitted")
        for layer, busiest in MOST_WORK.items():
            if workload in busiest:
                check(layer_calls(values, layer) > 0, f"{workload}: layer {layer} records calls")
        if workload == "deg3-circle":
            check(values["transversal.pair_tests"] == 0, "deg3-circle: zero transversal pair tests")
        if workload == "walks-deg3":
            _, again = run.trace(workload, 1, 1, tiny=True)
            repeat = {k: v["value"] for k, v in again["metrics"].items()}
            check(counts(repeat) == counts(values), "walks-deg3: per-layer counts repeat exactly")

    sys.path.insert(0, str(run.ROOT / "src"))
    import embapprox
    import child
    import workloads

    instances = workloads.fold_ladder(1, tiny=True)
    honest = child.run_pass(embapprox, instances)
    flipped = child.run_pass(embapprox, [dataclasses.replace(i, expected=not i.expected) for i in instances])
    check(honest.failed == 0 and flipped.failed == flipped.attempted > 0, "a flipped reference fails every call")
    # without a verdict known by construction the oracle's verdict is the reference
    unknown = workloads.Instance("synthetic", None, ("decide_path", "oracle_result"))
    reference, bad = child.judge(unknown, [child.Outcome("oracle_result", True), child.Outcome("decide_path", False)])
    check(
        reference is True and [o.route for o in bad] == ["decide_path"],
        "a route call that disagrees with the oracle's verdict fails, and only that call",
    )

    bare = run.ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "corpus-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(), "without src/ the benchmark exits nonzero with no result")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
