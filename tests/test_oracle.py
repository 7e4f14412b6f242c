import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from typing import Sequence

import jsonschema
import numpy as np
import pytest

import perispec
import perispec.oracle as oracle
from perispec.eigenvalues import MaterialParams, derive, lambda1, lambda2
from perispec.oracle import (
    SingularKernelError,
    _check_params,
    _cosm1,
    _gauss_jacobi,
    _gauss_legendre,
    oracle_multipliers,
)
from perispec.validation import oracle_report


def params_for(n, beta, delta=1.0, mu=1.0, lambda_star=2.0):
    return MaterialParams(n=n, delta=delta, beta=beta, mu=mu, lambda_star=lambda_star)


def load_schema(name):
    text = resources.files("perispec").joinpath(f"data/{name}").read_text()
    return json.loads(text)


class UnsupportedDimensionError(ValueError):
    """``multiplier_matrix``'s direction grids stop at n = 3; ``oracle_multipliers`` serves every n."""


def multiplier_matrix(params: MaterialParams, nu_vec: Sequence[float]) -> np.ndarray:
    """Full n x n multiplier matrix for an arbitrary wave vector.

    The reference for ``oracle_multipliers``' reduction: a single-resolution
    tensor grid over the ball (no refinement loop), on the oracle's first
    grid, used to witness symmetry and rotation invariance.
    """
    _check_params(params)
    if params.n > 3:
        raise UnsupportedDimensionError(f"multiplier_matrix supports n <= 3, got n = {params.n}")
    n, beta, delta, mu = params.n, params.beta, params.delta, params.mu
    nu = np.asarray(nu_vec, dtype=float)
    if nu.shape != (n,):
        raise ValueError(f"nu_vec must have shape ({n},), got {nu.shape}")
    c = derive(params).c
    gamma_exp = n + 2.0 - beta

    a_pts = oracle.ANGULAR_POINTS
    if n == 1:
        dirs = np.array([[1.0], [-1.0]])
        u = np.array([1.0, 1.0])
    elif n == 2:
        theta = 2.0 * math.pi * (np.arange(a_pts) + 0.5) / a_pts
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        u = np.full(a_pts, 2.0 * math.pi / a_pts)
    else:
        t, ut = _gauss_legendre(a_pts, -1.0, 1.0)
        phi = 2.0 * math.pi * (np.arange(a_pts) + 0.5) / a_pts
        st = np.sqrt(1.0 - t ** 2)
        dirs = np.column_stack(
            [
                np.repeat(t, a_pts),
                np.outer(st, np.cos(phi)).ravel(),
                np.outer(st, np.sin(phi)).ravel(),
            ]
        )
        u = np.repeat(ut, a_pts) * (2.0 * math.pi / a_pts)

    x, w = _gauss_jacobi(gamma_exp, oracle.RADIAL_POINTS)
    r = delta * x
    dots = dirs @ nu  # (K,)
    phase = np.outer(r, dots)  # (R, K)
    outer_dirs = dirs[:, :, None] * dirs[:, None, :]  # (K, n, n)

    even_radial = w * x ** (n - beta - gamma_exp)
    odd_radial = w * x ** (n + 1.0 - beta - gamma_exp)
    coeff_even = np.outer(even_radial, u) * _cosm1(phase)
    coeff_odd = np.outer(odd_radial, u) * np.sin(phase)

    dyadic = (n + 2) * mu * c * delta ** (n - beta) * np.einsum("ik,kab->ab", coeff_even, outer_dirs)
    g_vec = delta ** (n + 1.0 - beta) * coeff_odd.sum(axis=0) @ dirs
    return dyadic - (params.lambda_star - mu) * 0.25 * c * c * np.outer(g_vec, g_vec)


RULE_EXPONENTS = [0.05, 0.5, 1.0, 1.5, 2.0, 3.0, 7.0]
RULE_SIZES = [16, 96, 192, 768]


class TestGaussJacobiRule:
    @pytest.mark.parametrize("m", RULE_SIZES)
    @pytest.mark.parametrize("g", RULE_EXPONENTS)
    def test_moments(self, g, m):
        # int_0^1 x^(g-1) x^j dx = 1/(g+j), exact for j < 2m
        x, w = _gauss_jacobi(g, m)
        for j in range(min(2 * m, 60)):
            assert abs(float(np.sum(w * x ** j)) * (g + j) - 1.0) <= 1e-13, j

    @pytest.mark.parametrize("m", RULE_SIZES)
    @pytest.mark.parametrize("g", RULE_EXPONENTS)
    def test_nodes_match_scipy(self, g, m):
        # nodes only: scipy's own weights lose accuracy at small g and large m
        special = pytest.importorskip("scipy.special")
        t, _ = special.roots_jacobi(m, 0.0, g - 1.0)
        x, _ = _gauss_jacobi(g, m)
        assert np.abs(x - 0.5 * (t + 1.0)).max() <= 1e-14

    def test_cached_per_exponent_and_size(self):
        assert _gauss_jacobi(2.5, 96) is _gauss_jacobi(2.5, 96)

    def test_read_only(self):
        x, w = _gauss_jacobi(1.5, 16)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[:] = 1.0

    @pytest.mark.parametrize("n,beta", [(1, 0.5), (2, 1.0), (3, 3.5)])
    def test_cold_and_warm_cache_agree(self, n, beta):
        p = params_for(n, beta)
        _gauss_jacobi.cache_clear()
        cold = oracle_multipliers(p, 3.0)
        warm = oracle_multipliers(p, 3.0)
        assert cold == warm


def test_runtime_modules_do_not_import_scipy():
    src = str(Path(perispec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, perispec, perispec.cli, perispec.tables, perispec.validation\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_series_modules_do_not_import_numpy():
    # numpy loads with the oracle or the validation suites, on first use
    src = str(Path(perispec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, perispec, perispec.cli, perispec.tables\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('numpy'))\n"
        "from perispec.oracle import oracle_multipliers\n"
        "assert perispec.oracle_multipliers is oracle_multipliers\n"
        "assert perispec.SingularKernelError is perispec.oracle.SingularKernelError\n"
        "assert 'numpy' in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


class TestOracleMultipliers:
    def test_zero_wavenumber(self):
        assert oracle_multipliers(params_for(2, 1.0), 0.0) == (0.0, 0.0)

    def test_one_dimensional_example(self):
        p = params_for(1, 0.0)
        q1, q2 = oracle_multipliers(p, 1.0)
        assert q1 == pytest.approx(lambda1(p, 1.0).value, rel=1e-6)
        assert q2 == pytest.approx(lambda2(p, 1.0).value, rel=1e-6)

    @pytest.mark.parametrize("n,beta,delta,nu", [(1, 0.5, 2.0, 2.0), (2, 2.5, 1.0, 5.0), (3, 3.5, 0.5, 2.0)])
    def test_singular_kernels_match_series(self, n, beta, delta, nu):
        p = params_for(n, beta, delta=delta)
        q1, q2 = oracle_multipliers(p, nu)
        assert q1 == pytest.approx(lambda1(p, nu).value, rel=1e-6)
        assert q2 == pytest.approx(lambda2(p, nu).value, rel=1e-6)

    def test_transverse_ignores_lambda_star(self):
        base = params_for(3, 2.0, lambda_star=2.0)
        other = params_for(3, 2.0, lambda_star=-1.0)
        _, t_base = oracle_multipliers(base, 2.0)
        _, t_other = oracle_multipliers(other, 2.0)
        assert t_base == t_other
        # while the longitudinal value does feel the coupling term
        l_base, _ = oracle_multipliers(base, 2.0)
        l_other, _ = oracle_multipliers(other, 2.0)
        assert l_base != l_other

    def test_equal_lame_parameters_drop_coupling(self):
        # lambda* = mu: lambda1 comes from the dyadic term alone, so the
        # matrix route's first diagonal entry must equal it
        p = params_for(2, 1.0, lambda_star=1.0)
        l1, _ = oracle_multipliers(p, 2.0)
        M = multiplier_matrix(p, [2.0, 0.0])
        assert M[0, 0] == pytest.approx(l1, rel=1e-9)

    def test_unsupported_dimension(self):
        # only the test-local matrix route's direction grids stop at n = 3
        assert all(np.isfinite(oracle_multipliers(params_for(4, 2.0), 1.0)))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_higher_dimensions_match_series(self, n):
        # criterion 2's lattice's (beta - n, delta, nu) points, held to its 1e-5
        lattice = [
            (n, n + db, delta, nu)
            for db in (-1.0, -0.5, 0.0, 0.5, 1.0)
            for delta in (0.5, 1.0, 2.0)
            for nu in (0.5, 2.0, 10.0)
        ]
        report = oracle_report(lattice)
        assert [e["status"] for e in report["entries"]] == ["ok"] * 45
        assert report["max_rel_discrepancy"] <= 1e-5

    def test_two_grids_per_workload_point(self, monkeypatch):
        # the oracle-crosscheck materials converge at the first refinement
        calls = []
        once = oracle._multipliers_once

        def counted(*args):
            calls.append(args[-1])  # angular_points: 64, then 128 per refinement
            return once(*args)

        monkeypatch.setattr(oracle, "_multipliers_once", counted)
        for n in (1, 2, 3):
            for db in (-1.0, -0.5, 0.0, 0.5, 1.0, 1.5):
                for delta in (0.5, 1.0, 2.0):
                    for nu in (0.1, 5.0, 20.0):
                        calls.clear()
                        oracle_multipliers(params_for(n, n + db, delta=delta), nu)
                        assert calls == [64, 128], (n, db, delta, nu)

    def test_singular_endpoint_refused(self):
        with pytest.raises(SingularKernelError):
            oracle_multipliers(params_for(3, 5.0), 1.0)

    def test_refinement_self_consistency(self, monkeypatch):
        # a deliberately coarse starting grid must still converge to the
        # default grid's answer via refinement
        p = params_for(3, 3.0)
        b = oracle_multipliers(p, 2.0)
        monkeypatch.setattr(oracle, "RADIAL_POINTS", 16)
        monkeypatch.setattr(oracle, "ANGULAR_POINTS", 8)
        monkeypatch.setattr(oracle, "TARGET_REL_ERR", 1e-7)
        monkeypatch.setattr(oracle, "MAX_REFINEMENTS", 5)
        a = oracle_multipliers(p, 2.0)
        assert a[0] == pytest.approx(b[0], rel=1e-6)
        assert a[1] == pytest.approx(b[1], rel=1e-6)


class TestMultiplierMatrix:
    @pytest.mark.parametrize("n", [2, 3])
    def test_symmetry_and_diagonality_along_axis(self, n):
        p = params_for(n, float(n) - 0.5)
        nu_vec = np.zeros(n)
        nu_vec[0] = 2.0
        M = multiplier_matrix(p, nu_vec)
        assert np.allclose(M, M.T, atol=1e-12 * np.abs(M).max())
        off = M - np.diag(np.diag(M))
        assert np.abs(off).max() <= 1e-10 * np.abs(M).max()

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_reduced_route(self, n):
        p = params_for(n, float(n) - 0.5)
        nu_vec = np.zeros(n)
        nu_vec[0] = 2.0
        M = multiplier_matrix(p, nu_vec)
        l1, l2 = oracle_multipliers(p, 2.0)
        assert M[0, 0] == pytest.approx(l1, rel=1e-7)
        assert M[1, 1] == pytest.approx(l2, rel=1e-7)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rotation_invariance(self, n):
        p = params_for(n, float(n) + 0.5)
        rng = np.random.default_rng(7)
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        nu_mag = 3.0
        M_axis = multiplier_matrix(p, nu_mag * np.eye(n)[0])
        M_rot = multiplier_matrix(p, nu_mag * direction)
        lam1_axis = M_axis[0, 0]
        lam1_rot = float(direction @ M_rot @ direction)
        assert lam1_rot == pytest.approx(lam1_axis, rel=1e-8)
        trans_axis = (np.trace(M_axis) - lam1_axis) / (n - 1)
        trans_rot = (np.trace(M_rot) - lam1_rot) / (n - 1)
        assert trans_rot == pytest.approx(trans_axis, rel=1e-8)

    def test_zero_wavevector_gives_zero_matrix(self):
        M = multiplier_matrix(params_for(2, 1.0), [0.0, 0.0])
        assert np.abs(M).max() == 0.0


class TestSelfTest:
    def test_empty_lattice_passes(self):
        report = oracle_report([])
        assert report["passed"]
        assert report["max_rel_discrepancy"] == 0.0
        assert report["entries"] == []

    def test_singular_point_raises(self):
        with pytest.raises(SingularKernelError):
            oracle_report([(3, 2.0, 1.0, 2.0), (3, 5.0, 1.0, 2.0)])

    def test_small_lattice_report(self):
        lattice = [(n, float(n), 1.0, 2.0) for n in (1, 2, 3)]
        report = oracle_report(lattice)
        assert report["passed"]
        assert report["max_rel_discrepancy"] <= report["threshold"]
        for e in report["entries"]:
            assert e["series"] is not None and e["quadrature"] is not None

    def test_report_json_matches_schema(self):
        report = oracle_report([(2, 1.5, 1.0, 0.5), (2, 3.5, 1.0, 0.5)])
        payload = json.loads(json.dumps(report, sort_keys=True))
        jsonschema.validate(payload, load_schema("oracle_report.schema.json"))

    @pytest.mark.parametrize("key, value", [("status", "unsupported"), ("series", None), ("rel_discrepancy", None)])
    def test_schema_rejects_what_the_report_never_writes(self, key, value):
        report = oracle_report([(2, 1.5, 1.0, 0.5)])
        report["entries"][0][key] = value
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, load_schema("oracle_report.schema.json"))
