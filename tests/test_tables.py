import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perispec.tables as tables
from perispec.tables import figure_table, wavenumber_grid

nonnegative = st.floats(min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False)


class TestWavenumberGrid:
    @given(
        nu_min=nonnegative,
        span=st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=1e3),
            st.integers(min_value=0, max_value=6),  # a few ulps: sub-ulp steps
        ),
        points=st.one_of(st.just(1), st.integers(min_value=1, max_value=1500)),
    )
    @example(nu_min=0.0, span=30.0, points=1000)
    @example(nu_min=5e-324, span=1, points=3)
    @example(nu_min=2.0, span=0.0, points=1)
    @settings(max_examples=200, deadline=None)
    def test_same_doubles_as_numpy_linspace(self, nu_min, span, points):
        if isinstance(span, int):
            nu_max = nu_min
            for _ in range(span):
                nu_max = float(np.nextafter(nu_max, np.inf))
        else:
            nu_max = nu_min + span
        got = wavenumber_grid(nu_min, nu_max, points)
        want = np.linspace(nu_min, nu_max, points)
        assert [v.hex() for v in got] == [float(v).hex() for v in want]
        assert all(type(v) is float for v in got)

    def test_integer_bounds_give_floats(self):
        assert wavenumber_grid(0, 2, 3) == [0.0, 1.0, 2.0]
        assert all(type(v) is float for v in wavenumber_grid(0, 2, 3))

    @pytest.mark.parametrize("args", [(0.0, 1.0, 0), (2.0, 1.0, 3), (-1.0, 1.0, 3)])
    def test_rejects_invalid(self, args):
        with pytest.raises(ValueError):
            wavenumber_grid(*args)


class TestFigureTable:
    def test_branch_column_inside_window(self, monkeypatch):
        # beta - n = 1e-10 lies inside BRANCH_TOLERANCE: every nu > 0 takes the logarithmic branch
        monkeypatch.setattr(tables, "FIGURE_POINTS", 5)
        rows = figure_table(2, 2.0 + 1e-10, 1.0)
        assert [r.branch for r in rows] == [""] + ["logarithmic"] * 4
