"""Benchmark of embapprox's decision routes: verdict time, memory and correctness.

    python3 perfbench/run.py --workload corpus-small --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from src/ next to this
directory, never from an installed copy.  Each workload runs in fresh
single-threaded interpreters (child.py); this process never imports
embapprox.

--trace 0  times the routes unwrapped: one measuring interpreter repeats
           passes over the workload for --seconds; the metrics are medians
           over its passes.  Set-up is timed in that interpreter and in
           SETUP_RUNS set-up-only ones around it, and reported as the
           median.  Times are in reference seconds, scaled by a
           calibration kernel timed alongside (see child.py and
           setup_time); the report gives the raw wall times too.
--trace 1  runs one untraced and one traced pass and reports the per-layer
           metrics, with the traced pass's route time over the untraced
           one's as trace.overhead.  Spans go to .perfbench/ in the checkout.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are the
report.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing  # stdlib only; it touches embapprox only when installed
from child import CAL_REF_NS  # child.py imports only the stdlib at module level

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus-small", "fold-ladder", "walks-deg3", "deg3-circle")
SETUP_RUNS = 6  # set-up-only interpreters; import time needs a fresh interpreter per sample
TIME_LIMIT_S = 170  # a whole run, children included

# (name, unit) of the end-to-end metrics, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("decide_s", "s"),
    ("decide_p50_ms", "ms"),
    ("decide_p90_ms", "ms"),
    ("vk_s", "s"),
    ("vk_p50_ms", "ms"),
    ("vk_p90_ms", "ms"),
    ("oracle_s", "s"),
    ("oracle_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
GROUP_METRICS = {
    "decide": ("total_s", "p50_ms", "p90_ms"),
    "vk": ("total_s", "p50_ms", "p90_ms"),
    "oracle": ("total_s", "p50_ms"),
}
ROUTES = {"decide": "derivative route", "vk": "decide_path_via_vk", "oracle": "oracle_result"}


class BenchError(Exception):
    pass


def run_child(cfg: dict, deadline: float) -> tuple[dict, float]:
    """Run child.py to completion; (its JSON result, monotonic spawn time)."""
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(cfg)]
    spawned = time.monotonic()
    remaining = deadline - spawned
    if remaining <= 0:
        raise BenchError("time limit reached before the run finished")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=remaining)
    if proc.returncode != 0:
        raise BenchError(f"{cfg['mode']} run exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def machine_line(numpy_version: str) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    py = ".".join(map(str, sys.version_info[:3]))
    return f"machine: nproc {nproc}, cpu {cpu}, python {py}, numpy {numpy_version}"


def share(num: int, den: int) -> str:
    return f"{num} of {den} ({num / den if den else 0:.4f})"


def verdict_lines(summary: dict, instances: int, roundtrip_failed: list) -> list[str]:
    """Correctness of one pass: every pass decides the same instances the same way."""
    lines = [
        f"wrong_verdicts: {share(summary['wrong'], summary['attempted'])} route calls per pass",
        f"raised: {summary['raised']} route calls per pass",
        f"flagged_share: {share(summary['flagged'], summary['decide_calls'])} derivative-route verdicts",
        f"unverified_share: {share(summary['unverified'], instances)} instances",
        f"round trip: format_instance -> parse_instance failed on {share(len(roundtrip_failed), instances)} instances",
    ]
    if roundtrip_failed:
        lines.append(f"  first: {roundtrip_failed[0][0]}: {roundtrip_failed[0][1]}")
    return lines


def failure_lines(failures: list[dict]) -> list[str]:
    if not failures:
        return ["failing route calls: none"]
    lines = [f"failing route calls: {len(failures)} in the first pass"]
    shown = set()
    for f in failures:
        got = f["error"] or f"approximable={f['verdict']}"
        lines.append(f"FAIL {f['id']} {f['route']}: {got}, reference approximable={f['reference']}")
    for f in failures:
        if f["id"] not in shown:
            shown.add(f["id"])
            lines.append(f"--- {f['id']}")
            lines += f["text"].rstrip("\n").splitlines()
    return lines


def setup_time(result: dict, spawned: float) -> float:
    """Interpreter start to first timed call, in reference seconds.

    Set-up is mostly import and module execution.  Across the fast and
    slow phases of a shared VM it grows with about the square root of the
    kernel's time (route calls grow with the kernel's time itself), so it
    is scaled by the square root of the kernel's speed.  The scaling is a
    factor, so a change to set-up shows at its full relative size.
    """
    wall = result["ready"] - spawned - result["setup_skip"]
    return wall * (CAL_REF_NS / result["setup_cal_ns"]) ** 0.5


def measure(workload: str, seed: int, seconds: int, tiny: bool) -> tuple[list[str], dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    base = {"root": str(ROOT), "workload": workload, "seed": seed, "seconds": seconds, "tiny": tiny}
    setup = []
    for i in range(SETUP_RUNS + 1):
        # the measuring interpreter runs in the middle, so that the set-up
        # samples span the whole run
        mode = "measure" if i == SETUP_RUNS // 2 else "setup"
        result, spawned = run_child({**base, "mode": mode}, deadline)
        setup.append(setup_time(result, spawned))
        if mode == "measure":
            m = result
    passes = m["passes"]
    metrics = {"setup_s": statistics.median(setup)}
    cal = [p["cal_ms"] for p in passes]
    lines = [machine_line(m["numpy"])]
    lines.append(
        f"workload {workload}, seed {seed}, {m['instances']} instances, "
        f"{len(passes)} passes in {seconds} s (median pass {statistics.median(p['wall_s'] for p in passes):.3f} s wall)"
    )
    lines.append(
        f"calibration kernel: median {statistics.median(cal):.3f} ms per pass, range {min(cal):.3f}-{max(cal):.3f} ms; "
        f"reference {CAL_REF_NS / 1e6:.3f} ms"
    )
    lines.append(f"setup_s: {metrics['setup_s']:.4f} s (median of {len(setup)}: {' '.join(f'{s:.3f}' for s in setup)})")
    for group, keys in GROUP_METRICS.items():
        stats = [p[group] for p in passes if p[group]]
        if not stats:
            lines.append(f"{group}: absent (no {ROUTES[group]} calls on this workload)")
            continue
        for key in keys:
            name = f"{group}_s" if key == "total_s" else f"{group}_{key}"
            metrics[name] = statistics.median(s[key] for s in stats)
        tail = stats[0]["tail"]
        tail_text = "no percentile above p50 has ten samples beyond it"
        if tail:
            tail_text = f"p{tail[0]:g} {statistics.median(s['tail'][1] for s in stats):.4f} ms"
        lines.append(
            f"{group} ({ROUTES[group]}): {stats[0]['n']} calls per pass, "
            + ", ".join(f"{n} {metrics[n]:.4f} {u}" for n, u in END_TO_END if n.startswith(group + "_"))
            + f", {tail_text}, raw wall {statistics.median(s['raw_s'] for s in stats):.4f} s"
        )
    metrics["peak_rss_mb"] = m["peak_rss_mb"]
    lines.append(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB")
    lines += verdict_lines(passes[0], m["instances"], m["roundtrip_failed"])
    lines += failure_lines(m["failures"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n, _ in END_TO_END if n in metrics},
    }
    return lines, result


def trace(workload: str, seed: int, seconds: int, tiny: bool) -> tuple[list[str], dict]:
    deadline = time.monotonic() + TIME_LIMIT_S
    base = {"root": str(ROOT), "workload": workload, "seed": seed, "seconds": seconds, "tiny": tiny, "mode": "pass"}
    plain, _ = run_child({**base, "trace": False}, deadline)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    traced, _ = run_child({**base, "trace": True, "spans_path": str(spans_path)}, deadline)

    values = traced["layers"]
    untraced_s, traced_s = plain["passes"][0]["route_s"], traced["passes"][0]["route_s"]
    values["trace.overhead"] = traced_s / untraced_s
    lines = [machine_line(traced["numpy"])]
    lines.append(f"workload {workload}, seed {seed}, {traced['instances']} instances, one traced pass")
    lines.append(
        f"tracing overhead: route time of the traced pass {traced_s:.3f} s / untraced pass {untraced_s:.3f} s"
        f" = {values['trace.overhead']:.3f}"
    )
    lines.append(f"spans: {traced['spans']} written to {spans_path.relative_to(ROOT)}")
    units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    lines += [f"{name}: {values[name]:.6g} {units[name]}" for name in units]
    summary = traced["passes"][0]
    lines += verdict_lines(summary, traced["instances"], traced["roundtrip_failed"])
    lines += failure_lines(traced["failures"])
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "embapprox" / "__init__.py").is_file():
        print(f"perfbench: no embapprox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        lines, result = (trace if args.trace else measure)(args.workload, args.seed, args.seconds, False)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
