#!/usr/bin/env python3
"""Self-test of the benchmark harness; run from the repository root:

    python3 bench/selftest.py

It checks that
  1. BENCHMARK.json keeps to its format, and names the metrics and units
     that run.py reports;
  2. a tiny run of every workload, untraced and traced, yields a result line
     with exactly the required keys and every named metric with its unit, and
     the command itself prints them;
  3. the reference check flags a deliberately corrupted copy of an output
     row of every workload (the harness's copy; the program is untouched);
  4. in a directory holding only BENCHMARK.json and bench/, the command
     exits non-zero without printing a result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path.cwd()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json has exactly the required keys",
    )
    paths = spec["paths"]
    expect(
        1 <= len(paths) <= 16
        and all(PATH.match(p) and not p.startswith("/") and ".." not in p.split("/") and (ROOT / p).is_dir() for p in paths),
        "paths are 1-16 relative directories",
    )
    command = spec["command"]
    expect(
        1 <= len(command) <= 32 and all(isinstance(c, str) and len(c) <= 200 and not c.startswith("/") for c in command),
        "command is a short list of strings",
    )
    expect(
        all(any(c == p or c.startswith(p + "/") for p in paths) for c in command if (ROOT / c).exists() and "/" in c),
        "command names no repository file outside paths",
    )
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds is a whole number in 1..60")
    workloads = spec["workloads"]
    expect(
        2 <= len(workloads) <= 8
        and all(set(w) == {"name", "why"} and NAME.match(w["name"]) and "\n" not in w["why"] and len(w["why"]) <= 200 for w in workloads)
        and [w["name"] for w in workloads] == list(run.WORKLOAD_NAMES),
        "workloads are named as in run.py, each with a one-line why",
    )
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    expect(
        1 <= len(e2e) <= 16
        and all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25 for m in e2e),
        "end_to_end metrics carry a bound of at most 0.25",
    )
    expect(1 <= len(layers) <= 128 and all(set(m) == {"name", "unit", "better"} for m in layers), "per_layer metrics carry no bound")
    metrics = e2e + layers
    names = [m["name"] for m in metrics] + [w["name"] for w in workloads]
    expect(
        all(NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
        and len(set(names)) == len(names),
        "metric names and units are well formed and used once",
    )
    expect(
        any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in e2e)
        and max(m["bound"] for m in e2e) == next(m["bound"] for m in e2e if m["name"] == "setup_s"),
        "setup_s is an end-to-end metric in s with the largest bound",
    )
    expect({m["name"]: m["unit"] for m in e2e} == run.END_TO_END_UNITS, "end_to_end matches what run.py reports")
    expect({m["name"]: m["unit"] for m in layers} == run.PER_LAYER_UNITS, "per_layer matches what run.py reports")
    expect(len(json.dumps(spec)) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")
    return spec


def check_result(result: dict, spec: dict, trace: int, what: str) -> None:
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    expect(
        set(result) == {"correct", "attempted", "failed", "metrics"}
        and result["correct"] is True
        and isinstance(result["attempted"], int) and result["attempted"] >= 1
        and isinstance(result["failed"], int) and result["failed"] >= 0,
        f"{what}: result line has the required keys and is correct",
    )
    expect(
        set(metrics) == set(wanted)
        and all(
            set(m) == {"value", "unit"} and m["unit"] == wanted[name]
            and isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
            for name, m in metrics.items()
        ),
        f"{what}: every {'per_layer' if trace else 'end_to_end'} metric is reported with its unit",
    )


def check_tiny_runs(spec: dict) -> None:
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            record = run.run(workload, seed=1, seconds=0.0, trace=trace, tiny=True)
            check_result(record["result"], spec, trace, f"tiny {workload} trace {trace}")
    for trace in (0, 1):
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "oracle-crosscheck", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
        check_result(result, spec, trace, f"command oracle-crosscheck trace {trace}")
        printed = {line.split(":")[0]: line.rsplit(" ", 1)[-1] for line in lines[:-1] if ": " in line}
        expect(
            all(printed.get(name) == unit for name, unit in (run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS).items()),
            f"command oracle-crosscheck trace {trace} prints every metric by name with its unit",
        )


def check_corruption() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import reference
    from workloads import WORKLOADS, Check

    tmp = ROOT / ".bench_out" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(1, str(tmp))
            good = []
            for spec in next(wl.groups()):
                good = [c for c in wl.collect(spec, wl.call(spec)).checks if reference.passes(c)]
                if good:
                    break
            expect(bool(good), f"{name}: a checked output row passes the reference")
            if not good:
                continue
            row = good[-1]
            bad = row._replace(lambda2=row.lambda2 * (1.0 + 10.0 * row.tol))
            expect(not reference.passes(bad), f"{name}: a corrupted copy of a checked row is flagged")
            if row.kind == "oracle":
                q1, q2 = row.oracle
                bad = row._replace(oracle=(q1 * (1.0 - 10.0 * row.tol), q2))
                expect(not reference.passes(bad), f"{name}: a corrupted oracle value is flagged")
        zero = Check("reference", (2, 1.0, 1.0, 1.0, 2.0), 0.0, 0.0, 1e-9, 1e-10, True)
        expect(not reference.passes(zero), "a non-zero value at nu = 0 is flagged by the absolute floor")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "large-z", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(done.returncode != 0 and not done.stdout.strip(), "without the program the command fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = check_spec()
    check_tiny_runs(spec)
    check_corruption()
    check_bare_directory()
    print(f"{len(failures)} failure(s)" if failures else "harness self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
