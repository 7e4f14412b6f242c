#!/usr/bin/env python3
"""Run one workload of the perispec benchmark and print its metrics.

From the repository root:

    python3 bench/run.py --workload figure-panels --seed 1 --seconds 15 --trace 0

Workloads: figure-panels, large-z, hybrid-tail, oracle-crosscheck (see
``bench/README.md`` for what each one stresses and why). With ``--trace 0``
the end-to-end metrics are printed, with ``--trace 1`` the per-layer ones.
The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Each workload runs in its own single-threaded process (``worker.py``) with
BLAS/OpenMP pinned to one thread; ``setup_s`` is the median of
``SETUP_REPEATS`` fresh interpreters. The program is imported from ``src/``
of the checkout the command runs in, so nothing needs installing. Scratch
files and the full result go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("figure-panels", "large-z", "hybrid-tail", "oracle-crosscheck")
SETUP_REPEATS = 5
#: Everything, the set-up interpreters included, ends within this many seconds.
DEADLINE_S = 170.0

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "points_per_s": "points/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "within_tol_frac": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Modules whose source lines are tracked; a module a later change deletes reads 0.
SRC_MODULES = ("xprec", "special", "hyper", "eigenvalues", "asymptotics", "oracle", "tables", "cli", "validation")

PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_frac": "ratio" for layer in LAYERS},
    "hyper.calls_per_point": "calls/point",
    "hyper.terms": "terms/point",
    "hyper.ns_per_term": "ns",
    "hyper.bit_terms": "bit-terms/point",
    "xprec.bits_mean": "bits",
    "xprec.bits_max": "bits",
    "eigenvalues.series_rows": "rows",
    "eigenvalues.asymptotic_rows": "rows",
    "eigenvalues.derive_calls_per_point": "calls/point",
    "asymptotics.calls_per_point": "calls/point",
    "asymptotics.us_per_point": "us",
    "special.calls_per_point": "calls/point",
    "oracle.ms_per_point": "ms",
    "oracle.failed": "count",
    "cli.bytes_out": "bytes/point",
    "trace.points": "count",
    "trace.overhead_frac": "ratio",
    **{f"{module}.src_lines": "lines" for module in SRC_MODULES},
    "src_lines": "lines",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def src_lines(root: Path) -> dict:
    package = root / "src" / "perispec"
    counts = {}
    for module in SRC_MODULES:
        path = package / f"{module}.py"
        counts[f"{module}.src_lines"] = len(path.read_text().splitlines()) if path.exists() else 0
    counts["src_lines"] = sum(len(p.read_text().splitlines()) for p in package.rglob("*.py"))
    return counts


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _child(args, root: Path, env: dict, deadline: float) -> dict:
    """Run ``worker.py`` with ``args`` and return the JSON of its last line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a workload process")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, timeout=remaining, text=True)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"workload process exceeded the {DEADLINE_S:g} s deadline") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"workload process {' '.join(args)} exited with status {done.returncode}")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Measure one workload; returns the result line and the full record."""
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "perispec" / "__init__.py").is_file():
        raise BenchError(f"no perispec source under {root / 'src'}; run from the repository root")
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    src = str(root / "src")
    env = {
        **os.environ,
        **THREAD_ENV,
        "PYTHONPATH": src + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""),
        "PYTHONHASHSEED": "0",
    }
    common = ["--workload", workload, "--out-dir", str(out_dir)]

    worker = _child(
        [*common, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)] + (["--tiny"] if tiny else []),
        root, env, deadline,
    )
    metrics = dict(worker["metrics"])
    lines = src_lines(root)
    if trace:
        metrics.update(lines)
    else:
        setups = [_child([*common, "--setup"], root, env, deadline)["setup_s"] for _ in range(1 if tiny else SETUP_REPEATS)]
        metrics["setup_s"] = statistics.median(setups)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"workload process did not report {sorted(missing)}")

    correct = worker["problem_count"] == 0 and worker["failed_points"] == 0 and worker["certified_failed"] == 0
    result = {
        "correct": correct,
        "attempted": worker["points"],
        "failed": worker["failed_points"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **worker["versions"],
        "git_commit": git_commit(root),
        **lines,
    }
    record = {
        "result": result,
        "provenance": provenance,
        "run": {k: v for k, v in worker.items() if k not in ("metrics", "versions")},
    }
    if not trace:
        record["run"]["setup_s_each"] = setups
    name = f"{workload}-seed{seed}-trace{trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perispec benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result, run_info = record["result"], record["run"]
    for name, metric in result["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    checked, bad = run_info["checked"], run_info["check_failed"]
    print(
        f"checked {checked} points against the reference: {bad} outside the requested tolerance "
        f"(failed_frac {bad / checked if checked else 0.0:.4g}), {run_info['certified_failed']} of them "
        f"on a path that claims it; {run_info['calls']} calls, {run_info['failed_points']} points from failed calls"
    )
    for problem in run_info["problems"]:
        print(f"problem: {problem.rstrip()}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
