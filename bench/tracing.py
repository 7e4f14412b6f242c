"""Span tracing for the benchmark's per-layer run.

The program's source is not edited. Instead ``Tracer.install`` rebinds each
layer's public entry points, in every ``perispec`` module that holds them
(the caller's view: ``eigenvalues.eval_pfq``, ``tables.eval_spectrum``,
``asymptotics.gamma``, ...), to wrappers that record one span per call:
name, start, end, parent and the benchmark call (request) it belongs to.

Self time and counts are folded in as each span closes, so they cover every
span of the run. The span records themselves are kept in memory up to
``max_kept`` and written out by ``dump`` when the run ends; the cap keeps the
hybrid-tail run, which opens ~40 spans per row, to a few MB.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

#: Public entry points wrapped per layer. Names absent from a module (a later
#: refactor may remove one) are skipped, and their counts read 0.
TARGETS = {
    "hyper": ("eval_pfq",),
    "eigenvalues": ("eval_spectrum", "lambda1", "lambda2", "lambda11", "lambda12", "derive"),
    "asymptotics": ("asym_lambda1", "asym_lambda11", "asym_lambda12", "asym_lambda2"),
    "special": ("gamma", "reciprocal_gamma", "digamma"),
    "oracle": ("oracle_multipliers",),
    "tables": ("figure_table", "eigs_table"),
    "cli": ("main",),
}

#: Layers whose self time is measured, in the order they are reported.
LAYERS = tuple(TARGETS)


class Tracer:
    """Records spans of the wrapped entry points and folds them into per-layer totals."""

    def __init__(self, max_kept: int = 50_000):
        self.max_kept = max_kept
        self.names = []  # span name per name id
        self.layers = []  # layer per name id
        self.count = []
        self.root_count = []  # calls made directly by the benchmark, not by the program
        self.self_s = []
        self.kept = []  # (span id, request, name id, start, end, parent span id)
        self.request = 0
        self.result_counts = Counter()  # counts read from returned EvalResult / SpectrumSample
        self.bits = []  # working precision of every eval_pfq result
        self._stack = []  # open spans: [span id, time covered by child spans]
        self._next_id = 1
        self._undo = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer: str, fname: str, fn, observe):
        nid = len(self.names)
        self.names.append(f"{layer}.{fname}")
        self.layers.append(layer)
        self.count.append(0)
        self.root_count.append(0)
        self.self_s.append(0.0)
        stack, kept, count, root_count, self_s = self._stack, self.kept, self.count, self.root_count, self.self_s
        perf = time.perf_counter
        max_kept = self.max_kept
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                elapsed = t1 - t0
                self_s[nid] += elapsed - frame[1]
                count[nid] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    root_count[nid] += 1
                if len(kept) < max_kept:
                    kept.append((span_id, tracer.request, nid, t0, t1, parent))
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", fname)
        return traced

    def _observe_eval_result(self, res) -> None:
        terms = getattr(res, "terms_used", None)
        bits = getattr(res, "precision_bits_used", None)
        if terms is None or bits is None:
            return
        self.result_counts["hyper.terms"] += terms
        self.result_counts["hyper.bit_terms"] += terms * bits
        self.bits.append(bits)

    def _observe_samples(self, samples) -> None:
        for s in samples:
            self.result_counts[f"rows.{getattr(s, 'method', 'unknown')}"] += 1

    def install(self) -> None:
        """Rebind every target in every loaded perispec module that holds it."""
        modules = [m for name, m in list(sys.modules.items()) if name == "perispec" or name.startswith("perispec.")]
        observers = {
            "hyper.eval_pfq": self._observe_eval_result,
            "eigenvalues.eval_spectrum": self._observe_samples,
        }
        for layer, fnames in TARGETS.items():
            home = sys.modules.get(f"perispec.{layer}")
            if home is None:
                continue
            for fname in fnames:
                original = getattr(home, fname, None)
                if not callable(original):
                    continue
                wrapper = self._wrap(layer, fname, original, observers.get(f"{layer}.{fname}"))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def calls(self, name: str, root_only: bool = False) -> int:
        counts = self.root_count if root_only else self.count
        return sum(c for n, c in zip(self.names, counts) if n == name)

    def layer_calls(self, layer: str) -> int:
        return sum(c for lay, c in zip(self.layers, self.count) if lay == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(s for lay, s in zip(self.layers, self.self_s) if lay == layer)

    def dump(self, path) -> None:
        """Write the kept spans as JSON lines, ids and times in seconds."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"spans_total": self._next_id - 1, "spans_kept": len(self.kept)}) + "\n")
            for span_id, request, nid, t0, t1, parent in self.kept:
                fh.write(
                    json.dumps(
                        {"id": span_id, "request": request, "name": self.names[nid],
                         "start": t0, "end": t1, "parent": parent}
                    )
                    + "\n"
                )
