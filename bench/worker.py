"""Workload process of the perispec benchmark; ``run.py`` starts it.

    worker.py --setup   --workload W
        Time ``import perispec`` plus the workload's first call in this fresh
        interpreter, and print the seconds as JSON.
    worker.py --workload W --seed S --seconds T --trace 0|1 --out-dir D
        Warm up with that same call, run the closed loop, check the outputs
        against the reference outside the timed region, and print one JSON
        object with the run's numbers.

With ``--trace 1`` the loop first runs untraced for T/2 seconds, then the
same calls again with the layer entry points rebound to span recorders; the
ratio of the two is the tracing overhead, and the traced pass gives the
per-layer numbers. ``--tiny`` stops after a few calls, for the self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

from tracing import LAYERS, Tracer
from workloads import WORKLOADS

TINY_CALLS = 3
MAX_PROBLEMS_REPORTED = 10


class Loop:
    """What one pass of the closed loop did."""

    def __init__(self):
        self.specs = []
        self.latencies = []  # seconds per call
        self.points = 0
        self.failed_points = 0
        self.problems = []
        self.checks = []
        self.bytes_out = 0

    @property
    def call_s(self) -> float:
        return sum(self.latencies)


def run_loop(wl, groups, seconds, min_calls, max_calls=None, tracer=None) -> Loop:
    """Closed loop over ``groups``; stops at a group boundary once both
    ``seconds`` have passed and ``min_calls`` calls were made."""
    loop = Loop()
    perf = time.perf_counter
    start = perf()
    for group in groups:
        for spec in group:
            if tracer is not None:
                tracer.request = len(loop.specs) + 1
            t0 = perf()
            try:
                output = wl.call(spec)
            except Exception:  # a failed call is counted, reported and the loop goes on
                loop.latencies.append(perf() - t0)
                output = None
                loop.problems.append(traceback.format_exc(limit=3))
            else:
                loop.latencies.append(perf() - t0)
            loop.specs.append(spec)
            points = wl.points(spec)
            loop.points += points
            if output is None:
                loop.failed_points += points
            else:
                got = wl.collect(spec, output)
                if not got.call_ok:
                    loop.failed_points += points
                loop.problems.extend(got.problems)
                loop.checks.extend(got.checks)
                loop.bytes_out += got.bytes_out
            if max_calls is not None and len(loop.specs) >= max_calls:
                return loop
        if perf() - start >= seconds and len(loop.specs) >= min_calls:
            return loop
    return loop


def check_outputs(loop: Loop) -> dict:
    """Hold every sampled point against the reference (untimed)."""
    import reference  # imports mpmath: kept out of module scope so setup_s times it cold

    t0 = time.perf_counter()
    failed = certified_failed = oracle_failed = 0
    for check in loop.checks:
        if reference.passes(check):
            continue
        failed += 1
        certified_failed += check.certified
        oracle_failed += check.kind == "oracle"
    return {
        "checked": len(loop.checks),
        "check_failed": failed,
        "certified_failed": certified_failed,
        "oracle_failed": oracle_failed,
        "check_s": time.perf_counter() - t0,
    }


def _percentile_ms(latencies, q: int) -> float:
    if len(latencies) == 1:
        return 1e3 * latencies[0]
    return 1e3 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def end_to_end(loop: Loop, checked: dict, rss_mb: float) -> dict:
    ok = checked["checked"] - checked["check_failed"]
    return {
        "points_per_s": loop.points / loop.call_s,
        "latency_p50_ms": _percentile_ms(loop.latencies, 50),
        "latency_p90_ms": _percentile_ms(loop.latencies, 90),
        "within_tol_frac": ok / checked["checked"] if checked["checked"] else 0.0,
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, traced: Loop, untraced: Loop, checked: dict) -> dict:
    points = traced.points
    wall = traced.call_s
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self_s(layer)
        m[f"{layer}.self_frac"] = m[f"{layer}.self_s"] / wall
    terms = tracer.result_counts["hyper.terms"]
    m["hyper.calls_per_point"] = tracer.layer_calls("hyper") / points
    m["hyper.terms"] = terms / points
    m["hyper.ns_per_term"] = 1e9 * m["hyper.self_s"] / terms if terms else 0.0
    m["hyper.bit_terms"] = tracer.result_counts["hyper.bit_terms"] / points
    m["xprec.bits_mean"] = statistics.fmean(tracer.bits) if tracer.bits else 0.0
    m["xprec.bits_max"] = max(tracer.bits, default=0)
    # points the benchmark evaluated by calling lambda2 itself are series rows too
    m["eigenvalues.series_rows"] = tracer.result_counts["rows.series"] + tracer.calls("eigenvalues.lambda2", root_only=True)
    m["eigenvalues.asymptotic_rows"] = tracer.result_counts["rows.asymptotic"]
    m["eigenvalues.derive_calls_per_point"] = tracer.calls("eigenvalues.derive") / points
    m["asymptotics.calls_per_point"] = tracer.layer_calls("asymptotics") / points
    m["asymptotics.us_per_point"] = 1e6 * m["asymptotics.self_s"] / points
    m["special.calls_per_point"] = tracer.layer_calls("special") / points
    m["oracle.ms_per_point"] = 1e3 * m["oracle.self_s"] / points
    m["oracle.failed"] = checked["oracle_failed"]
    m["cli.bytes_out"] = traced.bytes_out / points
    m["trace.points"] = points
    m["trace.overhead_frac"] = wall / untraced.call_s - 1.0
    return m


def setup_main(args, tmp_dir: Path) -> None:
    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload](0, str(tmp_dir))
    spec = wl.first_spec()
    output = wl.call(spec)
    elapsed = time.perf_counter() - t0
    wl.collect(spec, output)
    print(json.dumps({"setup_s": elapsed}))


def measure_main(args, tmp_dir: Path) -> None:
    wl = WORKLOADS[args.workload](args.seed, str(tmp_dir))
    spec = wl.first_spec()
    wl.collect(spec, wl.call(spec))  # lazy set-up is done before timing; setup_s reports it

    max_calls = TINY_CALLS if args.tiny else None
    min_calls = 1 if args.tiny or args.trace else wl.min_calls
    result = {}
    if not args.trace:
        loop = run_loop(wl, wl.groups(), args.seconds, min_calls, max_calls)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = check_outputs(loop)
        result["metrics"] = end_to_end(loop, checked, rss_mb)
    else:
        untraced = run_loop(wl, wl.groups(), args.seconds / 2.0, min_calls, max_calls)
        tracer = Tracer()
        tracer.install()
        try:
            loop = run_loop(wl, [untraced.specs], 0.0, 0, tracer=tracer)
        finally:
            tracer.uninstall()
        checked = check_outputs(loop)
        result["metrics"] = per_layer(tracer, loop, untraced, checked)
        spans = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans)
        result["spans_file"] = str(spans)

    import mpmath  # already loaded by perispec here; imported late for the same reason
    import numpy
    import scipy

    result.update(
        calls=len(loop.specs),
        points=loop.points,
        failed_points=loop.failed_points,
        call_s=loop.call_s,
        problems=loop.problems[:MAX_PROBLEMS_REPORTED],
        problem_count=len(loop.problems),
        versions={
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        **checked,
    )
    print(json.dumps(result))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    tmp_dir = Path(args.out_dir) / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        (setup_main if args.setup else measure_main)(args, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
