"""Independent ground truth: plane-wave multipliers by direct quadrature.

Substituting u(x) = e^(i nu.x) e into the operator's integral definition and
exploiting the symmetry of the ball reduces the multiplier matrix to

    M(nu) = (n+2) mu c  Int_{B_delta} (w (x) w / ||w||^(beta+2)) (cos(nu.w) - 1) dw
            - (lambda* - mu) (c^2/4) g(nu)^2  e1 (x) e1,
    g(nu) = Int_{B_delta} (w_1 / ||w||^beta) sin(nu.w) dw        (nu = ||nu|| e1),

whose e1-eigenvalue is lambda1 and whose transverse eigenvalue is lambda2.
Radial integration uses Gauss-Jacobi rules whose weight x^(gamma-1) absorbs
the r^(n+1-beta) origin behavior of the integrand (the (cos-1) and sin
factors contribute O(r^2) and O(r)), so convergence stays spectral for every
beta < n+2.  Angular integration serves every n >= 1.  For n >= 2 one
theta-form does it: omega_1 = cos(theta) on [0, pi] with the sphere marginal
|S^(n-2)| sin^(n-2)(theta), |S^(n-2)| = 2 pi^((n-1)/2) / Gamma((n-1)/2), and
the transverse factor (1 - cos^2(theta))/(n-1); one (cos-1) grid serves both
even profiles.  For n = 1 the transverse value is the dimensional continuation
of the marginal weight (1-t^2)^((n-1)/2), a plain average over t in [-1, 1].
Every rule, the Gauss-Legendre ones included (gamma = 1), is a Golub-Welsch
rule (Math. Comp. 23, 1969) built with numpy from one symmetric eigenproblem
and cached per (gamma, points) pair for the life of the process.

The quadrature never touches the hypergeometric series (this module imports
only ``material``; ``validation.oracle_report`` compares the two): it exists
to break the circularity between the series evaluator and the closed-form
asymptotics.
It is meant for moderate wavenumbers (z up to ~50); beyond that the
integrand oscillation makes quadrature cost grow with z while the series,
whose accuracy is certified independently, serves as ground truth.
"""

from __future__ import annotations

import functools
import math
from typing import Tuple

import numpy as np

from .material import MaterialParams, derive


#: Distinct (g, m) Gauss rules kept per process.  A material fixes g, and each
#: refinement level of the radial and angular grids is one m.
RULE_CACHE_SIZE = 128

#: The first grid: radial Gauss-Jacobi points, whose origin weight x^(n+1-beta)
#: on the unit interval matches the kernel singularity exactly, and angular
#: Gauss-Legendre points.  Each refinement doubles both.
RADIAL_POINTS = 96
ANGULAR_POINTS = 64
#: Two successive grids must agree to this relative error, within this many
#: refinements.
TARGET_REL_ERR = 1e-7
MAX_REFINEMENTS = 3


class SingularKernelError(ValueError):
    """beta >= n+2 makes the defining integral non-integrable."""


class QuadratureConvergenceError(ArithmeticError):
    """Successive grid refinements failed to agree within target."""


def _cosm1(x: np.ndarray) -> np.ndarray:
    # cos(x) - 1 without cancellation at small x
    return -2.0 * np.sin(0.5 * x) ** 2


@functools.lru_cache(maxsize=RULE_CACHE_SIZE)
def _gauss_jacobi(g: float, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the m-point rule for int_0^1 x^(g-1) h(x) dx.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Jacobi polynomials with alpha = 0, beta = g-1, moved to [0, 1], and each
    weight is the squared first eigenvector component times the mass 1/g.
    """
    b = g - 1.0
    k = np.arange(1, m, dtype=float)
    s = 2.0 * k + b
    diag = np.empty(m)
    diag[0] = g / (g + 1.0)
    diag[1:] = 0.5 + 0.5 * b * b / (s * (s + 2.0))
    off = k * (k + b) / (s * np.sqrt(s * s - 1.0))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = vecs[0] ** 2 / g
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _gauss_legendre(m: int, lo: float, hi: float) -> Tuple[np.ndarray, np.ndarray]:
    x, w = _gauss_jacobi(1.0, m)
    return lo + (hi - lo) * x, (hi - lo) * w


def _check_params(params: MaterialParams) -> None:
    if params.beta >= params.n + 2:
        raise SingularKernelError(
            f"oracle needs beta < n+2 (c > 0), got beta = {params.beta}, n = {params.n}"
        )


def _angular_profiles(n: int, s: np.ndarray, angular_points: int):
    """Angular integrals over the unit sphere as functions of s = ||nu|| r.

    Returns (longitudinal, transverse, odd) profiles:
      longitudinal(s) = Int omega_1^2 (cos(s omega_1) - 1) dsigma
      transverse(s)   = Int omega_2^2 (cos(s omega_1) - 1) dsigma  (continued for n = 1)
      odd(s)          = Int omega_1 sin(s omega_1) dsigma
    """
    if n == 1:
        t, u = _gauss_legendre(angular_points, -1.0, 1.0)
        longitudinal = 2.0 * _cosm1(s)
        transverse = _cosm1(np.outer(s, t)) @ u
        odd = 2.0 * np.sin(s)
    else:
        theta, u = _gauss_legendre(angular_points, 0.0, math.pi)
        ct = np.cos(theta)
        u = 2.0 * math.pi ** (0.5 * (n - 1)) / math.gamma(0.5 * (n - 1)) * u * np.sin(theta) ** (n - 2)  # |S^(n-2)|
        phase = np.outer(s, ct)
        cosm1 = _cosm1(phase)
        longitudinal = cosm1 @ (u * ct ** 2)
        transverse = cosm1 @ (u * (1.0 - ct ** 2) / (n - 1))
        odd = np.sin(phase) @ (u * ct)
    return longitudinal, transverse, odd


def _multipliers_once(
    params: MaterialParams, c: float, nu_norm: float, gamma_exp: float, radial_points: int, angular_points: int
) -> Tuple[float, float]:
    n, beta, delta, mu = params.n, params.beta, params.delta, params.mu
    x, w = _gauss_jacobi(gamma_exp, radial_points)
    s = nu_norm * delta * x
    longitudinal, transverse, odd = _angular_profiles(n, s, angular_points)
    # int_0^delta r^(n-1-beta) f(nu r) dr, with the x^(gamma-1) weight already in w
    even_weight = w * x ** (n - beta - gamma_exp)
    odd_weight = w * x ** (n + 1.0 - beta - gamma_exp)
    scale_even = delta ** (n - beta)
    scale_odd = delta ** (n + 1.0 - beta)
    m_long = (n + 2) * mu * c * scale_even * float(even_weight @ longitudinal)
    m_trans = (n + 2) * mu * c * scale_even * float(even_weight @ transverse)
    g = scale_odd * float(odd_weight @ odd)
    lam1 = m_long - (params.lambda_star - mu) * 0.25 * c * c * g * g
    return lam1, m_trans


def oracle_multipliers(params: MaterialParams, nu_norm: float) -> Tuple[float, float]:
    """Both plane-wave eigenvalues (lambda1, lambda2) by quadrature.

    Refines the grid (doubling both directions) until two successive results
    agree within TARGET_REL_ERR; raises ``QuadratureConvergenceError`` if they
    never do within MAX_REFINEMENTS.
    """
    _check_params(params)
    if not (nu_norm >= 0 and math.isfinite(nu_norm)):
        raise ValueError(f"nu_norm must be finite and >= 0, got {nu_norm}")
    if nu_norm == 0.0:
        return (0.0, 0.0)
    c = derive(params).c
    gamma_exp = params.n + 2.0 - params.beta

    prev = _multipliers_once(params, c, nu_norm, gamma_exp, RADIAL_POINTS, ANGULAR_POINTS)
    for level in range(1, MAX_REFINEMENTS + 1):
        scale = 2 ** level
        cur = _multipliers_once(params, c, nu_norm, gamma_exp, scale * RADIAL_POINTS, scale * ANGULAR_POINTS)
        drift = max(
            abs(cur[i] - prev[i]) / max(abs(cur[i]), 1e-8) for i in range(2)
        )
        if drift <= TARGET_REL_ERR:
            return cur
        prev = cur
    raise QuadratureConvergenceError(
        f"quadrature did not stabilize to {TARGET_REL_ERR:g} within "
        f"{MAX_REFINEMENTS} refinements at nu = {nu_norm:g} "
        f"(n={params.n}, beta={params.beta}, delta={params.delta})"
    )
