"""Row-oriented tables for the CLI and the figure-reproduction protocol."""

from __future__ import annotations

import math
from typing import List, Optional

from .eigenvalues import DEFAULT_TOL, MaterialParams, SpectrumSample, eval_spectrum

EIGS_COLUMNS = ("nu_norm", "lambda1", "lambda2", "lambda11", "lambda12")
FIGURE_COLUMNS = (
    "nu_norm",
    "lambda1",
    "lambda2",
    "asym1",
    "asym2",
    "abs_err1",
    "abs_err2",
    "branch",
)

#: Default figure panels: kernel exponents spanning the bounded, logarithmic,
#: linear, and near-quadratic growth regimes, at two horizon scales.
PANEL_BETA_OFFSETS = (-1.0, -0.5, 0.0, 1.0, 1.5)
PANEL_DELTAS = (1.0, 2.0)

FIGURE_POINTS = 1000
FIGURE_NU_MAX = 30.0


def wavenumber_grid(nu_min: float, nu_max: float, points: int) -> List[float]:
    """``points`` equispaced values on [nu_min, nu_max], the same doubles as
    ``numpy.linspace``: nu_min + i*step, with the last one exactly nu_max."""
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    if not (0.0 <= nu_min <= nu_max):
        raise ValueError(f"need 0 <= nu_min <= nu_max, got [{nu_min}, {nu_max}]")
    nu_min, nu_max = float(nu_min), float(nu_max)
    span = nu_max - nu_min
    div = points - 1
    if div == 0:
        return [0.0 * span + nu_min]  # numpy's arithmetic: -0.0 comes out as 0.0
    step = span / div
    if step == 0.0:  # a span below one ulp per step: scale i/div instead, as numpy does
        grid = [i / div * span + nu_min for i in range(points)]
    else:
        grid = [i * step + nu_min for i in range(points)]
    grid[-1] = nu_max
    return grid


def figure_table(
    dim: int,
    beta: float,
    delta: float,
    mu: float = 1.0,
    lambda_star: float = 2.0,
    tol: float = DEFAULT_TOL,
) -> List[SpectrumSample]:
    """Exact eigenvalues vs their asymptotic approximations at FIGURE_POINTS
    equispaced wavenumbers on [0, FIGURE_NU_MAX].

    The lambda columns always come from the exact series (that is the point
    of the comparison); the asym columns and their absolute errors are blank
    at nu = 0, where log z and the negative powers are undefined, and
    wherever a form is not finite.
    """
    params = MaterialParams(n=dim, delta=delta, beta=beta, mu=mu, lambda_star=lambda_star)
    return eval_spectrum(params, wavenumber_grid(0.0, FIGURE_NU_MAX, FIGURE_POINTS), math.inf, tol)


def default_panels(dim: int, beta: Optional[float] = None, delta: Optional[float] = None):
    """(beta, delta) pairs for the documented default panel set, optionally
    pinned to a single beta or delta."""
    betas = (beta,) if beta is not None else tuple(dim + off for off in PANEL_BETA_OFFSETS)
    deltas = (delta,) if delta is not None else PANEL_DELTAS
    return [(b, d) for b in betas for d in deltas]


def format_cell(value) -> str:
    """Locale-independent cell: 17 significant digits, empty for absent."""
    if value is None:
        return ""
    if isinstance(value, float):
        if not math.isfinite(value):
            return repr(value)
        return format(value, ".17g")
    return str(value)
