"""Fourier-multiplier eigenvalues of the linear peridynamic operator.

The operator acts on plane waves e^(i nu.x) as a symmetric matrix whose
longitudinal eigenvalue lambda1 (eigenvector along nu) and transverse
eigenvalue lambda2 (multiplicity n-1) admit closed hypergeometric forms in
the single variable z = delta*||nu||/2:

    lambda2    = -mu ||nu||^2           2F3(1, a; 2, b+1, a+1; -z^2)
    lambda11   = -3 mu ||nu||^2         3F4(1, 5/2, a; 2, 3/2, b+1, a+1; -z^2)
    lambda12   = -||nu||^2 (l* - mu) [ 1F2(a; b, a+1; -z^2) ]^2
    lambda1    = lambda11 + lambda12

with a = (n+2-beta)/2 and b = (n+2)/2.  At beta = n+2 the series collapse to
1 (the a = 0 numerator parameter truncates them) and the eigenvalues reduce
to those of the classical Navier operator.  The series are contiguous: with
v_k the k-th 2F3 term, the 3F4 term is v_k (2k+3)/3 and the 1F2 term is
v_k (k+1)(b+k)/b.  So at one wavenumber every part comes from one walk of the
2F3 terms, in ``hyper.eval_contiguous``, the one summation loop, which takes
the two polynomials (2k+3) and (k+1)(b+k) as stated here.

``eval_spectrum`` takes the series up to ``z_switch`` and the closed-form
asymptotics beyond; ``z_switch = math.inf`` keeps every point on the series.
It hands all its series rows to ``hyper.contiguous_values``, which picks each
row's walk, so each row gets the bits of its own.
"""

from __future__ import annotations

from functools import cached_property
from math import inf, isfinite
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .asymptotics import AsymptoticForms
from .hyper import (
    DOUBLE_BITS,
    EvalResult,
    HypergeometricSeries,
    PrecisionExhaustedError,
    check_precision,
    check_target_rel_err,
    contiguous_values,
    eval_contiguous,
)
from .material import DerivedParams, MaterialParams, check_nu_norms, derive, z_of  # re-exported

DEFAULT_TOL = 1e-10
DEFAULT_Z_SWITCH = 20.0


class SpectrumSample(NamedTuple):
    """One grid point: exact eigenvalues plus asymptotic companions.  A named
    tuple, so it equals the plain tuple of its fields and has no __dict__."""

    nu_norm: float
    lambda1: float
    lambda2: float
    lambda11: float
    lambda12: float
    asym1: Optional[float]
    asym2: Optional[float]
    method: str  # which path produced the lambda columns: "series" | "asymptotic"
    branch: str  # the asymptotic branch behind asym1/asym2, "" where they are absent

    @property
    def abs_err1(self) -> Optional[float]:
        return None if self.asym1 is None else abs(self.lambda1 - self.asym1)

    @property
    def abs_err2(self) -> Optional[float]:
        return None if self.asym2 is None else abs(self.lambda2 - self.asym2)


class _Plan:
    """The z-independent work of one material, done once for any number of
    wavenumbers: ``derive``, the transverse series and the weights of the
    other two series, then the asymptotic constants on first use."""

    def __init__(self, params: MaterialParams):
        self.params = params
        d = derive(params)
        self.transverse = HypergeometricSeries((1.0, d.a), (2.0, d.b + 1.0, d.a + 1.0))
        # W(k) over the transverse terms of the 3F4, (2k+3), and of the 1F2, (k+1)(b+k);
        # lambda12 vanishes at lambda* = mu, and so does the 1F2's weight here
        coupled = params.lambda_star != params.mu
        self.weights = [(), ((3, 2),)] + [((1, 1), d.b.as_integer_ratio())] * coupled

    @cached_property
    def forms(self) -> Optional[AsymptoticForms]:
        """The asymptotic forms, built once; None where a gamma of their
        constants overflows (beta far below n)."""
        try:
            return AsymptoticForms(self.params)
        except OverflowError:
            return None

    def prefactors(self, nu: float) -> Tuple[float, float, float]:
        """lambda2, lambda11 and lambda12 at wavenumber ``nu`` are these times
        the 2F3, the 3F4 and the square of the 1F2."""
        mu = self.params.mu
        return -mu * nu * nu, -3.0 * mu * nu * nu, -(self.params.lambda_star - mu) * nu * nu

    def combine(self, nu: float, s2: float, s11: float, s12: Optional[float] = None) -> Tuple[float, float, float]:
        """lambda2, lambda11 and lambda12 at wavenumber ``nu`` from the sums
        of ``weights``: the 2F3, the 3F4 and the 1F2, which is absent (None)
        where lambda* = mu and lambda12 is 0."""
        p2, p11, p12 = self.prefactors(nu)
        return p2 * s2, p11 * s11, 0.0 if s12 is None else p12 * s12 * s12

    def sample(self, row: tuple, sums: Sequence[float]) -> SpectrumSample:
        """A series row (index into the samples, nu, asym1, asym2, branch)
        from the sums of ``weights`` at its z; ``OverflowError`` if lambda1
        or lambda2 is not finite."""
        _, nu, asym1, asym2, branch = row
        l2, l11, l12 = self.combine(nu, *sums)
        l1 = l11 + l12
        if not (isfinite(l1) and isfinite(l2)):
            raise OverflowError(f"series eigenvalues not finite at nu_norm = {nu!r}")
        return SpectrumSample(nu, l1, l2, l11, l12, asym1, asym2, "series", branch)


def transverse_series(params: MaterialParams) -> HypergeometricSeries:
    return _Plan(params).transverse


def lambda2(params: MaterialParams, nu_norm: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """Transverse eigenvalue -mu ||nu||^2 2F3(1,a; 2,b+1,a+1; -z^2)."""
    z = z_of(params, nu_norm)
    check_target_rel_err(tol)
    if nu_norm == 0.0:
        return EvalResult(0.0, 0.0, 1, DOUBLE_BITS)
    check_precision(z)  # before z^2, which overflows far past the ceiling
    plan = _Plan(params)
    (res,) = eval_contiguous(plan.transverse, [()], z * z, tol)
    prefactor = plan.prefactors(nu_norm)[0]
    return EvalResult(
        prefactor * res.value, abs(prefactor) * res.abs_error_estimate, res.terms_used, res.precision_bits_used
    )


def lambda1(params: MaterialParams, nu_norm: float, tol: float = DEFAULT_TOL) -> EvalResult:
    """Longitudinal eigenvalue lambda11 + lambda12 with combined error, both
    parts from one walk of the transverse terms.  The parts themselves are
    the lambda11 and lambda12 columns of ``eval_spectrum``'s rows.  Each
    series stops within a quarter of ``tol`` (``hyper.eval_contiguous``), so
    lambda12's square of the 1F2 stays within half of it."""
    z = z_of(params, nu_norm)
    check_target_rel_err(tol)
    if nu_norm == 0.0:
        return EvalResult(0.0, 0.0, 2, DOUBLE_BITS)
    check_precision(z)  # before z^2, which overflows far past the ceiling
    plan = _Plan(params)
    r11, *r12 = eval_contiguous(plan.transverse, plan.weights[1:], z * z, tol)
    _, l11, l12 = plan.combine(nu_norm, 0.0, r11.value, *(res.value for res in r12))  # no 2F3 here
    _, p11, p12 = plan.prefactors(nu_norm)
    err, terms = abs(p11) * r11.abs_error_estimate, r11.terms_used
    if r12:  # lambda12 = p12 * 1F2^2
        (res,) = r12
        err += abs(p12) * (2.0 * abs(res.value) + res.abs_error_estimate) * res.abs_error_estimate
        terms += res.terms_used
    else:  # lambda* = mu: lambda12 is 0, counted as one term
        terms += 1
    return EvalResult(l11 + l12, err, terms, r11.precision_bits_used)


def navier_eigenvalues(params: MaterialParams, nu_norm: float):
    """Eigenvalues of the classical Navier operator's Fourier symbol:
    (-(lambda*+2mu)||nu||^2, -mu ||nu||^2), the beta = n+2 limit."""
    nu_sq = nu_norm * nu_norm
    return (-(params.lambda_star + 2.0 * params.mu) * nu_sq, -params.mu * nu_sq)


def eval_spectrum(
    params: MaterialParams,
    grid: Sequence[float],
    z_switch: float = DEFAULT_Z_SWITCH,
    tol: float = DEFAULT_TOL,
) -> List[SpectrumSample]:
    """Evaluate the spectrum at each nonnegative wavenumber of ``grid``, in
    the caller's order.

    Points with z above ``z_switch`` use the closed-form large-z
    approximations for the lambda columns, and the sample records which path
    was taken; ``z_switch = math.inf`` keeps every point on the exact series.
    The asym1/asym2 companions are filled for every z > 0 with beta < n+2
    regardless of the switch, except that on a series row a companion that is
    not finite is left absent (None), as at nu = 0; the branch is "" where
    both are.  The material's z-independent work (series, term ratios,
    asymptotic constants) is done once for the whole grid.  The grid,
    ``z_switch`` and ``tol`` are checked up front, the last two even when no
    row uses them.  A row whose lambda1 or lambda2 is not finite raises
    ``OverflowError`` naming its wavenumber, and the first such row in grid
    order names the error.  So a first pass fills the asymptotic and zero rows
    and lists the series rows, up to the first asymptotic row that is not
    finite; the second walks the listed rows (``hyper.contiguous_values``
    picks each one's walk, with the same values either way) and then raises
    the asymptotic row's error.
    """
    if not (z_switch > 0):
        raise ValueError(f"z_switch must be > 0, got {z_switch}")
    nus = [float(nu) for nu in grid]
    check_nu_norms(nus)
    check_target_rel_err(tol)

    plan = _Plan(params)
    half_delta = 0.5 * params.delta  # z = half_delta * nu is z_of's double
    subcritical = params.beta < params.n + 2
    samples = []
    rows, z_sqs = [], []  # the series rows, whose samples wait as None, and their z^2
    error = None
    for nu in nus:
        z = half_delta * nu
        if subcritical and z > 0.0:  # not nu > 0: z underflows to 0 at a subnormal nu
            forms = plan.forms  # built at the first z > 0; None if its constants overflow
            try:
                l11, l12, l2 = forms.parts(z) if forms else (inf, inf, inf)
            except OverflowError:  # z ** negative at a tiny z
                l11 = l12 = l2 = inf
            l1 = l11 + l12
            if z > z_switch:
                if not (isfinite(l1) and isfinite(l2)):  # a non-finite part makes l1 non-finite
                    error = OverflowError(f"asymptotic forms not finite at nu_norm = {nu!r}")
                    break  # raised once the series rows before it are summed
                samples.append(SpectrumSample(nu, l1, l2, l11, l12, l1, l2, "asymptotic", forms.branch))
                continue
            # a companion is only a large-z form: a series row leaves one that is not finite absent
            asym1 = l1 if isfinite(l1) else None
            asym2 = l2 if isfinite(l2) else None
            branch = "" if asym1 is None and asym2 is None else forms.branch
        else:
            asym1 = asym2 = None
            branch = ""
        if nu == 0.0:
            samples.append(SpectrumSample(nu, 0.0, 0.0, 0.0, 0.0, asym1, asym2, "series", branch))
            continue
        if z * z == inf:  # past the precision ceiling: raised once the rows before it are summed
            try:
                check_precision(z)
            except PrecisionExhaustedError as exc:
                error = exc
                break
        rows.append((len(samples), nu, asym1, asym2, branch))
        z_sqs.append(z * z)
        samples.append(None)
    for row, sums in zip(rows, contiguous_values(plan.transverse, plan.weights, z_sqs, tol)):
        samples[row[0]] = plan.sample(row, sums)
    if error is not None:
        raise error
    return samples
