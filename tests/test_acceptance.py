"""Acceptance gate: one test per criterion, each at its pinned tolerance.

Every test prints a PASS/FAIL line with the measured quantities so a plain
``pytest -v tests/test_acceptance.py`` doubles as the acceptance report.
The same checks back ``perispec validate --level full``.
"""

from perispec import validation

#: The detail lines of criteria 3 and 4, as ``perispec validate --level full``
#: prints them: an asymptotics change that moves the report fails here.
CRITERION_3_DETAIL = (
    "(n=2,b=1.0) limit gap 2.00e-04; "
    "(n=3,b=2.0) limit gap 2.36e-04; "
    "(n=1,b=n) log-branch gap 8.70e-08; "
    "(n=2,b=n) log-branch gap 7.88e-09; "
    "(n=3,b=n) log-branch gap 4.03e-10 (tols 5% / 1%)"
)
CRITERION_4_DETAIL = (
    "(n=1,b=1.0) l2 -1.96 vs -2.0, l11 -0.97 vs -1.0; "
    "(n=2,b=2.0) l2 -2.48 vs -2.5, l11 -1.48 vs -1.5; "
    "(n=3,b=3.0) l2 -2.95 vs -3.0, l11 -1.96 vs -2.0; "
    "(n=3,b=2.0) l2 -2.95 vs -3.0, l11 -1.96 vs -2.0; "
    "(n=3,b=4.0) l2 -2.95 vs -3.0, l11 -1.96 vs -2.0 (tol +-0.3)"
)


def _report(result):
    print(f"{result.line()}  [{result.elapsed_s:.1f}s]")
    assert result.passed, result.detail


def test_criterion_1_navier_limit():
    # beta = n+2 reproduces the Navier symbol to 1e-12 relative,
    # n in {1,2,3}, nu in {0.1, 1, 2, 10, 30}
    _report(validation.check_navier_limit())


def test_criterion_2_oracle_equivalence():
    # quadrature vs series within 1e-5 relative (1e-8 absolute floor) on the
    # full lattice: n in {1,2,3} x beta in {n-1..n+1} x delta in {.5,1,2}
    # x nu in {.5,2,10}
    _report(validation.check_oracle_equivalence(reduced=False))


def test_criterion_3_boundedness_classification():
    # beta < n saturates at the closed-form constant within 5% at nu = 1e4;
    # beta = n tracks the logarithmic branch within 1% at nu = 1e3
    result = validation.check_boundedness_classification()
    _report(result)
    assert result.detail == CRITERION_3_DETAIL


def test_criterion_4_envelope_slopes():
    # |exact - asym| over z in [50, 500]: block-maxima log-log slopes within
    # +-0.3 of -(n+3)/2 (transverse) and -(n+1)/2 (longitudinal dyadic)
    result = validation.check_envelope_slopes()
    _report(result)
    assert result.detail == CRITERION_4_DETAIL


def test_criterion_5_vanishing_horizon():
    # delta = 1e-3, beta = n, nu = 1: within 1e-4 of the Navier values
    _report(validation.check_vanishing_horizon_limit())


def test_criterion_6_figure_protocol():
    # every default panel: 1000 rows on [0,30], lambda1 <= lambda2, decaying
    # error envelopes over the last third, bounded/divergent split respected
    _report(validation.check_figure_protocol(reduced=False))


def test_criterion_7_cancellation_regression():
    # naive float64 summation visibly wrong (> 1e-6) at z = 30 while the
    # extended-precision value is stable to 1e-12 under precision doubling
    _report(validation.check_cancellation_regression())
