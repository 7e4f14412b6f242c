"""Validation suites: every check the acceptance gate and the CLI run.

Each check pins its tolerance here, returns a ``CheckResult``, and is usable
both from ``perispec validate`` and from the test suite.  Ground truth is
always an independent route: the quadrature oracle against the series, the
extended-precision series against the closed-form asymptotics, or closed-form
limits against both.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import asymptotics, oracle, tables
from .eigenvalues import (
    MaterialParams,
    eval_spectrum,
    lambda1,
    lambda2,
    navier_eigenvalues,
    transverse_series,
    z_of,
)
from .hyper import eval_pfq, eval_pfq_float64, required_bits


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _finish(name: str, passed: bool, detail: str, t0: float) -> CheckResult:
    return CheckResult(name=name, passed=passed, detail=detail, elapsed_s=time.monotonic() - t0)


# -- criterion 1 -------------------------------------------------------------


def check_navier_limit() -> CheckResult:
    """beta = n+2 must reproduce the Navier symbol eigenvalues to 1e-12."""
    t0 = time.monotonic()
    tol = 1e-12
    worst = 0.0
    for n in (1, 2, 3):
        params = MaterialParams(n=n, delta=1.0, beta=float(n + 2), mu=1.0, lambda_star=2.0)
        for nu in (0.1, 1.0, 2.0, 10.0, 30.0):
            ref1, ref2 = navier_eigenvalues(params, nu)
            rel1 = abs(lambda1(params, nu).value - ref1) / abs(ref1)
            rel2 = abs(lambda2(params, nu).value - ref2) / abs(ref2)
            worst = max(worst, rel1, rel2)
    return _finish(
        "navier-limit",
        worst <= tol,
        f"max rel deviation {worst:.3e} (tol {tol:g}) over n in 1..3, nu in 0.1..30",
        t0,
    )


# -- criterion 2 -------------------------------------------------------------


#: (n, beta, delta, nu) points, integrable and singular kernels, all beta < n+2.
ORACLE_LATTICE = [
    (n, n + db, delta, nu)
    for n in (1, 2, 3)
    for db in (-1.0, -0.5, 0.0, 0.5, 1.0)
    for delta in (0.5, 1.0, 2.0)
    for nu in (0.5, 2.0, 10.0)
]
ORACLE_LATTICE_QUICK = [
    (n, n + db, 1.0, nu) for n in (1, 2, 3) for db in (-1.0, -0.5, 0.0, 0.5, 1.0) for nu in (0.5, 2.0)
]

#: Criterion 2 passes when the worst series-vs-quadrature discrepancy is
#: within ORACLE_TOL.  The --oracle-report file's own "passed" flag uses the
#: tighter REPORT_THRESHOLD, 10x the oracle's refinement target.
ORACLE_TOL = 1e-5
REPORT_THRESHOLD = 10.0 * oracle.TARGET_REL_ERR


def oracle_report(lattice: Sequence[Tuple[int, float, float, float]]) -> dict:
    """Series (tol 1e-10) vs quadrature at each (n, beta, delta, nu) of
    ``lattice``, mu = 1, lambda* = 2: every entry's relative discrepancy
    (absolute below 1e-8), the worst one, and whether it is within
    REPORT_THRESHOLD.  A point with beta >= n+2 raises ``SingularKernelError``."""
    entries = []
    worst = 0.0
    for n, beta, delta, nu in lattice:
        params = MaterialParams(n=n, delta=delta, beta=beta, mu=1.0, lambda_star=2.0)
        q1, q2 = oracle.oracle_multipliers(params, nu)
        s1 = lambda1(params, nu, 1e-10).value
        s2 = lambda2(params, nu, 1e-10).value
        rel = max(abs(s1 - q1) / max(abs(s1), 1e-8), abs(s2 - q2) / max(abs(s2), 1e-8))
        worst = max(worst, rel)
        point = dict(n=n, beta=beta, delta=delta, nu_norm=nu, status="ok")
        entries.append(dict(point, series=[s1, s2], quadrature=[q1, q2], rel_discrepancy=rel))
    return dict(threshold=REPORT_THRESHOLD, max_rel_discrepancy=worst, passed=worst <= REPORT_THRESHOLD, entries=entries)


def check_oracle_equivalence(reduced: bool = False) -> CheckResult:
    """Series vs quadrature on the (n, beta, delta, nu) lattice, 1e-5."""
    t0 = time.monotonic()
    report = oracle_report(ORACLE_LATTICE_QUICK if reduced else ORACLE_LATTICE)
    worst = report["max_rel_discrepancy"]
    return _finish(
        "oracle-equivalence" + ("-reduced" if reduced else ""),
        worst <= ORACLE_TOL,
        f"max rel discrepancy {worst:.3e} (tol {ORACLE_TOL:g}) over {len(report['entries'])} lattice points",
        t0,
    )


# -- criterion 3 -------------------------------------------------------------


def check_boundedness_classification() -> CheckResult:
    """A bounded material saturates at the closed-form constant; a
    logarithmically divergent one tracks the logarithmic branch, with the
    extended-precision series as ground truth.  ``classify_growth`` says which."""
    t0 = time.monotonic()
    details = []
    passed = True

    for n, beta in ((2, 1.0), (3, 2.0), (1, 1.0), (2, 2.0), (3, 3.0)):
        params = MaterialParams(n=n, delta=1.0, beta=beta, mu=1.0, lambda_star=2.0)
        kind = asymptotics.classify_growth(params)
        if kind == "bounded":
            limit = asymptotics.bounded_limit(params)
            val = lambda2(params, 1e4).value
            rel = abs(val - limit) / abs(limit)
            passed &= rel <= 0.05
            details.append(f"(n={n},b={beta}) limit gap {rel:.2e}")
        elif kind == "log_divergent":
            val = lambda2(params, 1e3).value
            approx = asymptotics.asym_lambda2(params, 1e3)
            rel = abs(val - approx) / abs(val)
            passed &= rel <= 0.01
            details.append(f"(n={n},b=n) log-branch gap {rel:.2e}")

    return _finish(
        "boundedness-classification",
        passed,
        "; ".join(details) + " (tols 5% / 1%)",
        t0,
    )


# -- criterion 4 -------------------------------------------------------------


def block_maxima_slope(z: np.ndarray, err: np.ndarray) -> float:
    """Slope of the upper envelope of err(z) in log-log, via block maxima
    over 20 geometric blocks (the error oscillates through zero, so a direct
    fit would chase the cosine instead of the envelope)."""
    edges = np.geomspace(z[0], z[-1], 21)
    xs, ys = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (z >= lo) & (z <= hi)
        if not np.any(mask):
            continue
        idx = np.argmax(err[mask])
        xs.append(np.log(z[mask][idx]))
        ys.append(np.log(err[mask][idx]))
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


ENVELOPE_COMBOS = ((1, 1.0), (2, 2.0), (3, 3.0), (3, 2.0), (3, 4.0))


def check_envelope_slopes() -> CheckResult:
    """Fitted decay of |exact - asymptotic| at 600 z in [50, 500] must match
    the oscillatory-term rates that ``envelope_for`` states for lambda2 and
    lambda11."""
    t0 = time.monotonic()
    tol = 0.3
    zs = np.linspace(50.0, 500.0, 600)
    details = []
    passed = True
    for n, beta in ENVELOPE_COMBOS:
        params = MaterialParams(n=n, delta=1.0, beta=beta, mu=1.0, lambda_star=2.0)
        forms = asymptotics.AsymptoticForms(params)
        rows = eval_spectrum(params, 2.0 * zs / params.delta, math.inf, 1e-12)
        parts = [forms.parts(z_of(params, r.nu_norm)) for r in rows]
        err2 = np.array([abs(r.lambda2 - l2) for r, (_, _, l2) in zip(rows, parts)])
        err11 = np.array([abs(r.lambda11 - l11) for r, (l11, _, _) in zip(rows, parts)])
        slope2 = block_maxima_slope(zs, err2)
        slope11 = block_maxima_slope(zs, err11)
        want2 = asymptotics.envelope_for("lambda2", params)
        want11 = asymptotics.envelope_for("lambda11", params)
        ok = abs(slope2 - want2) <= tol and abs(slope11 - want11) <= tol
        passed &= ok
        details.append(
            f"(n={n},b={beta}) l2 {slope2:+.2f} vs {want2:+.1f}, l11 {slope11:+.2f} vs {want11:+.1f}"
        )
    return _finish("envelope-slopes", passed, "; ".join(details) + f" (tol +-{tol})", t0)


# -- criterion 5 -------------------------------------------------------------


def check_vanishing_horizon_limit() -> CheckResult:
    """delta -> 0 at beta = n converges pointwise to the Navier values."""
    t0 = time.monotonic()
    tol = 1e-4
    worst = 0.0
    mu, lam = 1.0, 2.0
    for n in (1, 2, 3):
        params = MaterialParams(n=n, delta=1e-3, beta=float(n), mu=mu, lambda_star=lam)
        worst = max(worst, abs(lambda2(params, 1.0).value + mu))
        worst = max(worst, abs(lambda1(params, 1.0).value + (lam + 2.0 * mu)))
    return _finish(
        "vanishing-horizon-limit",
        worst <= tol,
        f"max |lambda - navier| = {worst:.3e} at delta=1e-3, nu=1 (tol {tol:g})",
        t0,
    )


# -- criterion 6 -------------------------------------------------------------


def _check_panel(dim: int, beta: float, delta: float) -> Tuple[bool, str]:
    rows = tables.figure_table(dim, beta, delta)
    nus = np.array([r.nu_norm for r in rows])
    l1 = np.array([r.lambda1 for r in rows])
    l2 = np.array([r.lambda2 for r in rows])
    pos = nus > 0.0

    # (a) longitudinal curve sits below the transverse curve
    ordered = bool(np.all(l1[pos] <= l2[pos]))

    # (b) upper envelope of |lambda - asym| decays over the last third
    tail = nus >= (2.0 / 3.0) * nus[-1]
    ok_decay = True
    for errs in (
        np.array([r.abs_err1 for r in rows])[tail],
        np.array([r.abs_err2 for r in rows])[tail],
    ):
        maxima = [seg.max() for seg in np.array_split(errs, 4)]
        ok_decay &= all(maxima[i + 1] <= maxima[i] for i in range(len(maxima) - 1))

    # (c) bounded below the critical exponent, monotone divergence at/above it
    params = MaterialParams(n=dim, delta=delta, beta=beta, mu=1.0, lambda_star=2.0)
    if asymptotics.classify_growth(params) == "bounded":
        bound = 1.25 * abs(asymptotics.bounded_limit(params))
        ok_growth = bool(np.all(np.abs(l1) <= bound) and np.all(np.abs(l2) <= bound))
        kind = "bounded"
    else:
        far = nus >= 10.0
        ok_growth = bool(
            np.all(np.diff(l1[far]) < 1e-9 * np.maximum(1.0, np.abs(l1[far][:-1])))
            and np.all(np.diff(l2[far]) < 1e-9 * np.maximum(1.0, np.abs(l2[far][:-1])))
        )
        kind = "divergent"
    ok = ordered and ok_decay and ok_growth
    msg = f"dim{dim} b={beta:g} d={delta:g} [{kind}]" + (
        "" if ok else f" order={ordered} decay={ok_decay} growth={ok_growth}"
    )
    return ok, msg


def check_figure_protocol(reduced: bool = False) -> CheckResult:
    """1000-point tables on [0, 30] satisfy curve ordering, envelope decay,
    and the bounded/divergent split of the growth classification."""
    t0 = time.monotonic()
    passed = True
    bad = []
    count = 0
    for dim in (2, 3):
        if reduced:
            panels = [(dim - 1.0, 1.0), (dim + 1.0, 1.0)]
        else:
            panels = tables.default_panels(dim)
        for beta, delta in panels:
            ok, msg = _check_panel(dim, beta, delta)
            count += 1
            passed &= ok
            if not ok:
                bad.append(msg)
    detail = f"{count} panels checked" + (f"; failing: {'; '.join(bad)}" if bad else "")
    return _finish("figure-protocol" + ("-reduced" if reduced else ""), passed, detail, t0)


# -- criterion 7 -------------------------------------------------------------


def check_cancellation_regression() -> CheckResult:
    """Naive double summation must visibly fail at z = 30 while the
    extended-precision result is stable under precision doubling."""
    t0 = time.monotonic()
    params = MaterialParams(n=3, delta=2.0, beta=2.0, mu=1.0, lambda_star=2.0)
    series = transverse_series(params)
    z = z_of(params, 30.0)
    z_sq = z * z
    ext = eval_pfq(series, z_sq, 1e-12)
    naive = eval_pfq_float64(series, z_sq)
    naive_gap = abs(naive - ext.value) / abs(ext.value)
    doubled = eval_pfq(series, z_sq, 1e-12, bits=2 * required_bits(z))
    stable_gap = abs(doubled.value - ext.value) / abs(ext.value)
    passed = naive_gap > 1e-6 and stable_gap <= 1e-12
    return _finish(
        "cancellation-regression",
        passed,
        f"naive float64 off by {naive_gap:.3e} (> 1e-6); doubled-precision drift {stable_gap:.3e} (<= 1e-12)",
        t0,
    )


# -- driver ------------------------------------------------------------------


def run_validation(level: str = "quick") -> List[CheckResult]:
    """quick: skips the z in [50, 500] envelope regressions and shrinks the
    oracle lattice and panel set; full: every check at spec scope."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    reduced = level == "quick"
    checks = [
        check_navier_limit(),
        check_cancellation_regression(),
        check_vanishing_horizon_limit(),
        check_boundedness_classification(),
        check_oracle_equivalence(reduced=reduced),
        check_figure_protocol(reduced=reduced),
    ]
    if level == "full":
        checks.append(check_envelope_slopes())
    return checks
