"""The four seeded workloads: their inputs, the timed call, and what is checked.

Every workload is a closed loop in one thread: the next call starts when the
previous one returns. Calls come in *groups* built so that a group's cost
hardly depends on the seed (a panel at both horizons, one z from every
stratum, every material once), and a run stops only at a group boundary.
The seed still picks every input; the grouping keeps seed-to-seed spread of
the end-to-end metrics small.

Workloads reach the program only through module attributes looked up at call
time (``self.eig.lambda1``), so the traced run's rebinding applies to them.
"""

from __future__ import annotations

import csv
import importlib
import math
import os
import random
from typing import List, NamedTuple, Optional, Tuple

#: Kernel-exponent offsets beta - n of the documented default figure panels.
PANEL_BETA_OFFSETS = (-1.0, -0.5, 0.0, 1.0, 1.5)
PANEL_DELTAS = (1.0, 2.0)
FIGURE_POINTS = 1000
MU, LAMBDA_STAR = 1.0, 2.0

SERIES_TOL = 1e-10
#: Loose plotting tolerance hybrid-tail requests on the CLI.
HYBRID_TOL = 1e-3
#: The CLI's default hybrid switch; hybrid-tail grids start just past it.
Z_SWITCH = 20.0
#: Criterion 2's bound between the series and the quadrature oracle.
ORACLE_BOUND = 1e-5
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Check(NamedTuple):
    """One output point held against a reference."""

    kind: str  # "reference" (mpmath) or "oracle" (criterion 2)
    material: Tuple[int, float, float, float, float]  # (n, delta, beta, mu, lambda_star)
    nu: float
    lambda1: float
    lambda2: float
    tol: float
    certified: bool  # the path that produced the values claims tol
    oracle: Optional[Tuple[float, float]] = None


class Collected(NamedTuple):
    call_ok: bool  # False: the call failed (CLI exit status != 0)
    problems: List[str]  # wrong output shape or non-finite values
    checks: List[Check]
    bytes_out: int


def _finite(*values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


class Workload:
    name = ""
    modules = ("perispec",)
    #: Fewest calls a timed run makes; 100 where latency_p90_ms is a per-point figure.
    min_calls = 1

    def __init__(self, seed: int, out_dir: str):
        for module in self.modules:
            importlib.import_module(module)
        import perispec

        self.ps = perispec
        self.eig = perispec.eigenvalues
        self.rng = random.Random(f"{self.name}:inputs:{seed}")
        self.check_rng = random.Random(f"{self.name}:checks:{seed}")
        self.out_dir = out_dir

    def material(self, n, delta, beta):
        return self.eig.MaterialParams(n=n, delta=delta, beta=beta, mu=MU, lambda_star=LAMBDA_STAR)

    def groups(self):
        raise NotImplementedError

    def first_spec(self):
        """A fixed, seed-independent call: the set-up measurement and the warm-up."""
        raise NotImplementedError

    def points(self, spec) -> int:
        return 1

    def call(self, spec):
        raise NotImplementedError

    def collect(self, spec, output) -> Collected:
        raise NotImplementedError


class FigurePanels(Workload):
    """``tables.figure_table`` over the default panel set, series policy, tol 1e-10."""

    name = "figure-panels"
    modules = ("perispec", "perispec.tables")
    CHECKS_PER_PANEL = 20

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.tables = self.ps.tables

    def groups(self):
        # The horizon sets the cost (z <= 15 or 30), so a group is one (dim, beta)
        # panel at both horizons.
        pairs = [(dim, dim + off) for dim in (2, 3) for off in PANEL_BETA_OFFSETS]
        while True:
            self.rng.shuffle(pairs)
            for dim, beta in pairs:
                deltas = list(PANEL_DELTAS)
                self.rng.shuffle(deltas)
                yield [(dim, beta, delta) for delta in deltas]

    def first_spec(self):
        return (2, 1.0, 1.0)

    def points(self, spec):
        return FIGURE_POINTS

    def call(self, spec):
        dim, beta, delta = spec
        return self.tables.figure_table(dim, beta, delta, mu=MU, lambda_star=LAMBDA_STAR, tol=SERIES_TOL)

    def collect(self, spec, rows):
        dim, beta, delta = spec
        problems = []
        if len(rows) != FIGURE_POINTS:
            problems.append(f"figure_table{spec} returned {len(rows)} rows, expected {FIGURE_POINTS}")
        if not all(_finite(r.nu_norm, r.lambda1, r.lambda2) for r in rows):
            problems.append(f"figure_table{spec} returned a non-finite value")
        # nu = 0 (the absolute floor) and one seeded row from each stretch of the grid
        picks = [0]
        stretch = (len(rows) - 1) / self.CHECKS_PER_PANEL
        for k in range(self.CHECKS_PER_PANEL):
            picks.append(1 + int((k + self.check_rng.random()) * stretch))
        material = (dim, delta, beta, MU, LAMBDA_STAR)
        checks = [
            Check("reference", material, rows[i].nu_norm, rows[i].lambda1, rows[i].lambda2, SERIES_TOL, True)
            for i in picks
            if i < len(rows)
        ]
        return Collected(True, problems, checks, 0)


class LargeZ(Workload):
    """Single-point ``lambda1`` + ``lambda2`` at tol 1e-10, z log-uniform on [50, 5000]."""

    name = "large-z"
    min_calls = 100
    Z_RANGE = (50.0, 5000.0)
    STRATA = 20
    CHECK_EVERY = 2  # the reference costs up to ~0.2 s a point at z = 5000

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.collected = 0

    def groups(self):
        # Cost depends on z alone. Within a group every stratum gets the same
        # offset, and successive groups step it by the golden ratio (a Weyl
        # sequence), so a run's z values sit close to a regular grid in log z
        # and its latency percentiles hardly depend on the seed.
        lo, hi = (math.log(z) for z in self.Z_RANGE)
        width = (hi - lo) / self.STRATA
        offset = self.rng.random()
        while True:
            order = list(range(self.STRATA))
            self.rng.shuffle(order)
            group = []
            for k in order:
                z = math.exp(lo + (k + offset) * width)
                n = self.rng.choice((1, 2, 3))
                beta = n + self.rng.uniform(-1.0, 1.5)
                delta = self.rng.uniform(0.5, 2.0)
                group.append((self.material(n, delta, beta), 2.0 * z / delta))
            offset = (offset + GOLDEN) % 1.0
            yield group

    def first_spec(self):
        return (self.material(2, 1.0, 2.0), 1000.0)  # z = 500

    def call(self, spec):
        params, nu = spec
        return self.eig.lambda1(params, nu, SERIES_TOL), self.eig.lambda2(params, nu, SERIES_TOL)

    def collect(self, spec, output):
        params, nu = spec
        r1, r2 = output
        problems = [] if _finite(r1.value, r2.value) else [f"non-finite eigenvalue at nu={nu!r}"]
        checks = []
        self.collected += 1
        if self.collected % self.CHECK_EVERY == 0:  # the strata come in seeded order
            material = (params.n, params.delta, params.beta, params.mu, params.lambda_star)
            checks.append(Check("reference", material, nu, r1.value, r2.value, SERIES_TOL, True))
        return Collected(True, problems, checks, 0)


class HybridTail(Workload):
    """In-process ``perispec eigs`` with the default hybrid policy, grids just past z_switch."""

    name = "hybrid-tail"
    modules = ("perispec", "perispec.cli")
    POINTS = 1000
    CHECKS_PER_CALL = 8

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.cli = self.ps.cli
        self.files = 0

    def _argv(self, n, beta, delta, z_start):
        # z in [z_start, 2 z_switch]: the asymptotic path serves every row
        return [
            "eigs", "--dim", str(n), "--beta", repr(beta), "--delta", repr(delta),
            "--nu-min", repr(2.0 * z_start / delta), "--nu-max", repr(4.0 * Z_SWITCH / delta),
            "--points", str(self.POINTS), "--tol", repr(HYBRID_TOL),
        ]

    def groups(self):
        materials = [(n, n + off, d) for n in (1, 2, 3) for off in PANEL_BETA_OFFSETS for d in PANEL_DELTAS]
        while True:
            self.rng.shuffle(materials)
            yield [
                ((n, beta, delta), self._argv(n, beta, delta, Z_SWITCH * (1.0 + self.rng.uniform(1e-3, 2e-2))))
                for n, beta, delta in materials
            ]

    def first_spec(self):
        return ((2, 2.0, 1.0), self._argv(2, 2.0, 1.0, 1.01 * Z_SWITCH))

    def points(self, spec):
        return self.POINTS

    def call(self, spec):
        # A fresh file per call: truncating a just-written file makes ext4 flush
        # it to disk, which would time the disk rather than the CLI.
        self.files += 1
        path = os.path.join(self.out_dir, f"eigs-{self.files}.csv")
        return self.cli.main(spec[1] + ["--out", path]), path

    def collect(self, spec, output):
        (n, beta, delta), _ = spec
        status, path = output
        if status != 0:
            return Collected(False, [], [], 0)
        size = os.path.getsize(path)
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        os.unlink(path)
        problems = []
        if len(rows) != self.POINTS:
            problems.append(f"eigs {spec[1]} wrote {len(rows)} rows, expected {self.POINTS}")
        try:
            values = [(float(r["nu_norm"]), float(r["lambda1"]), float(r["lambda2"])) for r in rows]
        except (KeyError, ValueError) as exc:
            return Collected(True, problems + [f"eigs {spec[1]} wrote an unreadable row: {exc}"], [], size)
        if not all(_finite(*v) for v in values):
            problems.append(f"eigs {spec[1]} wrote a non-finite value")
        # one seeded row from each stretch of the grid; these rows come from the
        # asymptotic path, which carries no error bound, so they do not gate `correct`
        material = (n, delta, beta, MU, LAMBDA_STAR)
        stretch = len(values) / self.CHECKS_PER_CALL
        checks = []
        for k in range(self.CHECKS_PER_CALL if values else 0):
            nu, l1, l2 = values[int((k + self.check_rng.random()) * stretch)]
            checks.append(Check("reference", material, nu, l1, l2, HYBRID_TOL, False))
        return Collected(True, problems, checks, size)


class OracleCrosscheck(Workload):
    """``oracle_multipliers`` + ``lambda1`` + ``lambda2`` per lattice point, nu <= 20."""

    name = "oracle-crosscheck"
    min_calls = 100
    BETA_OFFSETS = (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
    DELTAS = (0.5, 1.0, 2.0)
    NU_RANGE = (0.1, 20.0)

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.oracle = self.ps.oracle

    def groups(self):
        lattice = [(n, n + off, d) for n in (1, 2, 3) for off in self.BETA_OFFSETS for d in self.DELTAS]
        while True:
            self.rng.shuffle(lattice)
            yield [(self.material(n, d, beta), self.rng.uniform(*self.NU_RANGE)) for n, beta, d in lattice]

    def first_spec(self):
        return (self.material(2, 1.0, 2.0), 5.0)

    def call(self, spec):
        params, nu = spec
        q = self.oracle.oracle_multipliers(params, nu)
        return q, self.eig.lambda1(params, nu, SERIES_TOL), self.eig.lambda2(params, nu, SERIES_TOL)

    def collect(self, spec, output):
        params, nu = spec
        (q1, q2), r1, r2 = output
        problems = [] if _finite(q1, q2, r1.value, r2.value) else [f"non-finite value at nu={nu!r}"]
        material = (params.n, params.delta, params.beta, params.mu, params.lambda_star)
        check = Check("oracle", material, nu, r1.value, r2.value, ORACLE_BOUND, True, (q1, q2))
        return Collected(True, problems, [check], 0)


WORKLOADS = {cls.name: cls for cls in (FigurePanels, LargeZ, HybridTail, OracleCrosscheck)}
