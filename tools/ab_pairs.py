#!/usr/bin/env python3
"""Run alternating benchmark pairs of two checkouts and compare their end-to-end metrics.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload large-z --pairs 10 --seconds 15

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, with one fresh seed per pair, the parent first in even pairs
and the change first in odd ones.  It prints every pair, then per end-to-end metric
of ``BENCHMARK.json`` (read from the change's checkout) each side's median and
quartiles, the pairs the change wins by the metric's ``better``, and a flag where
the change's median is worse than the parent's by more than the metric's bound.
Standard library only; it reads the benchmark's output and changes nothing in it.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metric values of one run: the last stdout line of ``bench/run.py`` is its JSON result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values["failed_frac"] = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    return values


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of at least one value."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=None, help="seeds the per-pair seeds (default: random)")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    rng = random.Random(args.seed)
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        seed = rng.randrange(1, 2**31)
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        got = {side: run_once(getattr(args, side), args.workload, seed, args.seconds) for side in order}
        for side in order:
            runs[side].append(got[side])
        cells = "  ".join(
            f"{m['name']} {got['parent'].get(m['name'], float('nan')):.4g}/{got['change'].get(m['name'], float('nan')):.4g}"
            for m in metrics
        )
        print(f"pair {pair + 1} seed {seed} ({order[0]} first): parent/change  {cells}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs of {args.seconds:g} s")
    worse = []
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [r[name] for r in runs["parent"] if name in r]
        change = [r[name] for r in runs["change"] if name in r]
        if not parent or not change:
            continue
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        # worse by more than the bound, as a fraction of the parent's median
        if pq[1]:
            loss = (pq[1] - cq[1]) / abs(pq[1]) if higher else (cq[1] - pq[1]) / abs(pq[1])
        else:
            loss = 0.0
        flag = "  WORSE PAST BOUND" if loss > m["bound"] else ""
        if flag:
            worse.append(name)
        print(
            f"  {name:16s} parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]  "
            f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]  "
            f"change wins {wins}/{len(parent)}  median {-loss:+.1%} better (bound {m['bound']:.0%}){flag}"
        )
    parent_fail = statistics.median(r["failed_frac"] for r in runs["parent"])
    change_fail = statistics.median(r["failed_frac"] for r in runs["change"])
    print(f"  failed share   parent {parent_fail:.4g}  change {change_fail:.4g}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
