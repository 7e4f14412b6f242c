"""Independent correctness check, run after the timed loop.

Series values are compared with the paper's closed forms evaluated by
``mpmath.hyper`` at ``REF_PREC`` bits. mpmath chooses its own method
(asymptotic expansions for 1F2 and 2F3 at large argument, a summation that
raises its precision on cancellation for 3F4), so it shares no code path with
perispec's term recurrence. ``a``, ``b`` and ``z`` are rebuilt here from the
material rather than taken from ``perispec.derive``.

oracle-crosscheck points are instead held to criterion 2: the series and the
quadrature oracle agree to ``tol`` relative (absolute below 1e-8).
"""

from __future__ import annotations

from typing import Tuple

import mpmath

REF_PREC = 160

#: At nu = 0 every eigenvalue is exactly 0, so a relative test is undefined;
#: values there must lie within tol * ABS_FLOOR of 0.
ABS_FLOOR = 1e-12


def reference_eigenvalues(material, nu: float) -> Tuple[float, float, float]:
    """(lambda1, lambda2, |lambda11| + |lambda12|) from the hypergeometric forms."""
    n, delta, beta, mu, lam = material
    if nu == 0.0:
        return 0.0, 0.0, 0.0
    with mpmath.workprec(REF_PREC):
        a = (mpmath.mpf(n) + 2 - mpmath.mpf(beta)) / 2
        b = (mpmath.mpf(n) + 2) / 2
        z = mpmath.mpf(delta) * mpmath.mpf(nu) / 2
        x = -z * z
        nu2 = mpmath.mpf(nu) ** 2
        l2 = -mu * nu2 * mpmath.hyper([1, a], [2, b + 1, a + 1], x)
        l11 = -3 * mu * nu2 * mpmath.hyper([1, mpmath.mpf(5) / 2, a], [2, mpmath.mpf(3) / 2, b + 1, a + 1], x)
        l12 = mpmath.mpf(0)
        if lam != mu:
            l12 = -(mpmath.mpf(lam) - mu) * nu2 * mpmath.hyper([a], [b, a + 1], x) ** 2
        return float(l11 + l12), float(l2), float(abs(l11) + abs(l12))


def _within(value: float, ref: float, scale: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(scale, ABS_FLOOR)


def passes(check: Check) -> bool:
    """True when the checked values lie within the tolerance the call requested.

    lambda1 = lambda11 + lambda12 is held relative to |lambda11| + |lambda12|,
    the scale its two parts are computed at.
    """
    if check.kind == "oracle":
        q1, q2 = check.oracle
        rel = max(
            abs(check.lambda1 - q1) / max(abs(check.lambda1), 1e-8),
            abs(check.lambda2 - q2) / max(abs(check.lambda2), 1e-8),
        )
        return rel <= check.tol
    ref1, ref2, scale1 = reference_eigenvalues(check.material, check.nu)
    return _within(check.lambda1, ref1, scale1, check.tol) and _within(check.lambda2, ref2, abs(ref2), check.tol)
