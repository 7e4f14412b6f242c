import csv
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import perispec.cli as cli
import perispec.tables as tables
from perispec.cli import main
from perispec.eigenvalues import DEFAULT_TOL, MaterialParams, SpectrumSample
from perispec.tables import EIGS_COLUMNS, format_cell
from test_eigenvalues import mpmath_parts

DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def load_schema(name):
    text = resources.files("perispec").joinpath(f"data/{name}").read_text()
    return json.loads(text)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestEigsCommand:
    def test_single_zero_row(self):
        code, out, _ = run_cli(
            "eigs", "--dim", "3", "--beta", "2", "--points", "1", "--nu-min", "0", "--nu-max", "0"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["nu_norm", "lambda1", "lambda2", "lambda11", "lambda12"]
        assert rows == [["0", "0", "0", "0", "0"]]

    def test_navier_columns(self):
        code, out, _ = run_cli(
            "eigs", "--dim", "3", "--beta", "5", "--points", "5", "--nu-max", "30"
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            nu, l1, l2 = float(row[0]), float(row[1]), float(row[2])
            assert l1 == pytest.approx(-4.0 * nu * nu, rel=1e-12, abs=1e-300)
            assert l2 == pytest.approx(-nu * nu, rel=1e-12, abs=1e-300)

    def test_byte_identical_reruns(self):
        args = ("eigs", "--dim", "2", "--beta", "1.5", "--points", "7", "--nu-max", "10")
        _, first, _ = run_cli(*args)
        _, second, _ = run_cli(*args)
        assert first == second

    def test_csv_and_json_encode_identical_numbers(self):
        args = ("eigs", "--dim", "2", "--beta", "1.5", "--points", "5", "--nu-max", "3")
        _, text_csv, _ = run_cli(*args)
        _, text_json, _ = run_cli(*args, "--format", "json")
        header, rows = parse_csv(text_csv)
        payload = json.loads(text_json)
        assert len(payload) == len(rows)
        for row, obj in zip(rows, payload):
            for col, cell in zip(header, row):
                assert float(cell) == obj[col]

    def test_json_rows_match_schema(self):
        _, text_json, _ = run_cli(
            "eigs", "--dim", "2", "--beta", "1.5", "--points", "3", "--nu-max", "3", "--format", "json"
        )
        jsonschema.validate(json.loads(text_json), load_schema("spectrum_rows.schema.json"))

    def test_out_file(self, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(
            "eigs", "--dim", "3", "--beta", "2", "--points", "2", "--nu-max", "1", "--out", str(target)
        )
        assert code == 0 and out == ""
        header, rows = parse_csv(target.read_text())
        assert len(rows) == 2

    def test_seventeen_significant_digits(self):
        assert format_cell(0.1) == "0.10000000000000001"
        assert format_cell(1.0) == "1"
        assert format_cell(None) == ""
        _, out, _ = run_cli(
            "eigs", "--dim", "3", "--beta", "2", "--points", "1", "--nu-min", "0.1", "--nu-max", "0.1"
        )
        assert "0.10000000000000001" in out

    def test_near_critical_hybrid_row_tracks_series(self):
        # beta - n = -3e-9 lies just outside the branch window; z = 30 is past the switch
        argv = ("eigs", "--dim", "2", "--beta", "1.999999997", "--nu-min", "60", "--nu-max", "60", "--points", "1")
        values = []
        for policy in ("hybrid", "series"):
            code, out, _ = run_cli(*argv, "--policy", policy)
            assert code == 0
            values.append(float(parse_csv(out)[1][0][2]))
        hybrid, series = values
        assert abs(hybrid - series) <= 1e-3 * abs(series)

    def test_parser_built_once(self):
        run_cli("eigs", "--dim", "3", "--beta", "2", "--points", "1")
        assert cli.build_parser() is cli.build_parser()


def reference_render_csv(columns, rows):
    """The reference CSV rendering: ``csv.writer`` over ``format_cell``, cell by cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_cell(getattr(row, col)) for col in columns])
    return buf.getvalue()


EDGE_VALUES = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1.7976931348623157e308,
    0.1, 1.0, -123456.789, 2.0 ** 60,
)


def edge_rows():
    """Rows whose float cells run through ``EDGE_VALUES``: with both asym
    cells, with neither and with only asym2, on both branches."""
    rows = []
    k = len(EDGE_VALUES)
    for i in range(k):
        v = [EDGE_VALUES[(i + j) % k] for j in range(7)]
        rows.append(SpectrumSample(*v[:5], v[5], v[6], "series", ("power_law", "logarithmic")[i % 2]))
        rows.append(SpectrumSample(*v[:5], None, None, "series", ""))
        rows.append(SpectrumSample(*v[:5], None, v[6], "asymptotic", "logarithmic"))
    return rows


class TestCsvRenderer:
    @pytest.mark.parametrize(
        "columns, module, producer, argv",
        [
            (tables.EIGS_COLUMNS, cli, "eval_spectrum", ("eigs", "--dim", "3", "--beta", "2", "--points", "2")),
            (tables.FIGURE_COLUMNS, tables, "figure_table", ("figure", "--dim", "3", "--beta", "2", "--delta", "1")),
        ],
    )
    def test_bytes_match_reference_rendering(self, tmp_path, monkeypatch, columns, module, producer, argv):
        rows = edge_rows()
        monkeypatch.setattr(module, producer, lambda *args, **kwargs: rows)
        want = reference_render_csv(columns, rows)
        code, out, err = run_cli(*argv, "--out", "-")
        assert code == 0, err
        assert out == want
        path = tmp_path / "table.csv"
        code, out, err = run_cli(*argv, "--out", str(path))
        assert code == 0 and out == "", err
        assert path.read_bytes() == want.encode("ascii")


#: Golden output files in tests/data: the CLI arguments that write each one and
#: its material, at the default tolerance.  A change that alters their bytes on
#: purpose rewrites them with
#:
#:     PYTHONPATH=src python tests/test_cli.py
GOLDEN = {
    "figure_dim3_beta2_delta2.csv": (
        ("figure", "--dim", "3", "--beta", "2", "--delta", "2"),
        MaterialParams(n=3, delta=2.0, beta=2.0, mu=1.0, lambda_star=2.0),
    ),
    "eigs_dim2_beta3_series_nu100-1000.csv": (
        ("eigs", "--dim", "2", "--beta", "3", "--policy", "series", "--nu-min", "100", "--nu-max", "1000",
         "--points", "20"),
        MaterialParams(n=2, delta=1.0, beta=3.0, mu=1.0, lambda_star=2.0),
    ),
}


def write_golden(name, target):
    code, _, err = run_cli(*GOLDEN[name][0], "--out", str(target))
    assert code == 0, err


class TestGoldenOutput:
    # Output bytes are part of the CLI contract: these files pin them.
    @pytest.mark.parametrize("golden, argv", [(name, argv) for name, (argv, _) in GOLDEN.items()])
    def test_bytes_match_golden_file(self, tmp_path, golden, argv):
        target = tmp_path / golden
        write_golden(golden, target)
        assert target.read_bytes() == (DATA / golden).read_bytes()

    # A rewritten golden file must still hold every row to the tolerance it was
    # written at, against mpmath: lambda1 (and on eigs rows each of its parts)
    # within tol (|lambda11| + |lambda12|), lambda2 within tol |lambda2|.
    @pytest.mark.parametrize("golden", list(GOLDEN))
    def test_rows_within_tol_vs_mpmath(self, golden):
        params = GOLDEN[golden][1]
        header, rows = parse_csv((DATA / golden).read_text())
        assert len(rows) > 1
        for row in rows:
            cells = {name: float(cell) for name, cell in zip(header, row) if name in EIGS_COLUMNS}
            l11, l12, l2 = mpmath_parts(params, cells["nu_norm"])
            bound1 = DEFAULT_TOL * (abs(l11) + abs(l12))
            assert abs(cells["lambda1"] - (l11 + l12)) <= bound1, cells
            assert abs(cells["lambda2"] - l2) <= DEFAULT_TOL * abs(l2), cells
            for name, ref in (("lambda11", l11), ("lambda12", l12)):
                assert abs(cells.get(name, ref) - ref) <= bound1, cells


@pytest.fixture(scope="module")
def panel():
    code, out, err = run_cli(
        "figure", "--dim", "3", "--beta", "2", "--delta", "1", "--format", "json"
    )
    assert code == 0, err
    return json.loads(out)


class TestFigureCommand:
    def test_thousand_rows_on_fixed_grid(self, panel):
        assert len(panel) == 1000
        assert panel[0]["nu_norm"] == 0.0
        assert panel[-1]["nu_norm"] == 30.0

    def test_zero_row_flags_asym_absent(self, panel):
        first = panel[0]
        assert first["asym1"] is None and first["asym2"] is None
        assert first["abs_err1"] is None and first["abs_err2"] is None
        assert first["branch"] == ""

    def test_lower_curve_is_longitudinal(self, panel):
        for row in panel[1:]:
            assert row["lambda1"] <= row["lambda2"]

    def test_rows_match_schema(self, panel):
        jsonschema.validate(panel, load_schema("spectrum_rows.schema.json"))

    def test_branch_column(self, panel):
        assert all(row["branch"] == "power_law" for row in panel[1:])
        code, out, _ = run_cli(
            "figure", "--dim", "2", "--beta", "2", "--delta", "1", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert all(row["branch"] == "logarithmic" for row in rows[1:])

    def test_panel_set_written_to_directory(self, tmp_path, monkeypatch):
        # shrink the panel set so the test stays fast
        monkeypatch.setattr(tables, "PANEL_BETA_OFFSETS", (-1.0,))
        monkeypatch.setattr(tables, "PANEL_DELTAS", (1.0,))
        monkeypatch.setattr(tables, "FIGURE_POINTS", 50)
        code, out, _ = run_cli("figure", "--dim", "3", "--out", str(tmp_path))
        assert code == 0
        written = sorted(tmp_path.glob("*.csv"))
        assert [p.name for p in written] == ["figure_dim3_beta2_delta1.csv"]
        assert str(written[0]) in out


class TestExitStatuses:
    def test_usage_error_bad_grid(self):
        code, _, err = run_cli(
            "eigs", "--dim", "3", "--beta", "2", "--nu-min", "2", "--nu-max", "1", "--points", "3"
        )
        assert code == 2
        assert "error" in err.lower()

    def test_subnormal_wavenumber_exits_zero(self):
        code, out, err = run_cli(
            "eigs", "--dim", "2", "--beta", "2.5", "--delta", "1",
            "--nu-min", "5e-324", "--nu-max", "5e-324", "--points", "1",
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["4.9406564584124654e-324,-0,-0,-0,-0"]

    def test_usage_error_bad_material(self):
        code, _, _ = run_cli("eigs", "--dim", "3", "--beta", "9", "--points", "1")
        assert code == 2

    def test_usage_error_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("eigs", "--dim", "3", "--beta", "2", "--frobnicate")
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["0", "5", "nan", "-1"])
    def test_tol_rejected_when_every_row_is_asymptotic(self, tol):
        # z = nu/2 in [25, 30] lies past the switch, so no row reaches the series
        code, out, err = run_cli(
            "eigs", "--dim", "2", "--beta", "2", "--nu-min", "50", "--nu-max", "60", "--tol", tol
        )
        assert code == 2
        assert out == ""
        assert "target_rel_err" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eigs", "--dim", "3", "--beta", "2", "--points", "2"),
            ("figure", "--dim", "3", "--beta", "2", "--delta", "1"),
        ],
    )
    def test_usage_error_unwritable_out(self, tmp_path, argv):
        target = tmp_path / "missing" / "table.csv"
        code, out, err = run_cli(*argv, "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err

    def test_numerical_failure(self):
        # z so large the precision ceiling trips: exit 3, not a traceback
        code, _, err = run_cli(
            "eigs",
            "--dim", "3", "--beta", "2",
            "--nu-min", "1e6", "--nu-max", "1e6",
            "--points", "1", "--policy", "series",
        )
        assert code == 3
        assert "numerical failure" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--beta", "5", "--mu", "1e308", "--nu-min", "2", "--nu-max", "2"),  # series row
            ("--beta", "4.9", "--mu", "1e300", "--nu-min", "1e10", "--nu-max", "1e10"),  # asymptotic row
            # asymptotic row past a tiny switch: the forms' z ** negative overflows at z = 5e-101
            ("--beta", "2", "--nu-min", "1e-100", "--nu-max", "1e-100", "--z-switch", "1e-200"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_eigenvalues_exit_3(self, argv, fmt):
        # an overflowing row stops the run: no nan/inf in a table, no NaN/Infinity in JSON
        code, out, err = run_cli("eigs", "--dim", "3", *argv, "--points", "1", "--format", fmt)
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: ") and "nu_norm" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--beta", "1", "--mu", "1e300", "--nu-min", "0.02", "--nu-max", "0.02"),  # asym1 not finite
            ("--beta", "2", "--mu", "1", "--nu-min", "1e-100", "--nu-max", "1e-100"),  # parts overflows
        ],
    )
    def test_non_finite_companion_prints_series_row(self, argv):
        # eigs prints no companion, so one that is not finite does not stop the run
        code, out, err = run_cli("eigs", "--dim", "3", *argv, "--points", "1")
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        assert header == ["nu_norm", "lambda1", "lambda2", "lambda11", "lambda12"]
        assert len(rows) == 1 and rows[0][0] == argv[5]
        assert all(math.isfinite(float(cell)) for cell in rows[0])


class TestValidateCommand:
    def test_quick_level_passes_and_matches_schema(self):
        code, out, err = run_cli("validate", "--level", "quick", "--format", "json")
        assert code == 0, out + err
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("validation_report.schema.json"))
        assert payload["passed"] is True
        names = [c["name"] for c in payload["checks"]]
        assert "navier-limit" in names
        assert "envelope-slopes" not in names  # quick skips the slope regressions

    def test_text_report_lines(self, tmp_path):
        target = tmp_path / "oracle_report.json"
        code, out, _ = run_cli("validate", "--level", "quick", "--oracle-report", str(target))
        assert code == 0
        assert out.count("PASS") >= 6
        assert out.strip().endswith("(quick level)")
        report = json.loads(target.read_text())
        jsonschema.validate(report, load_schema("oracle_report.schema.json"))
        assert report["passed"] is True
        assert len(report["entries"]) == 135


if __name__ == "__main__":
    for name in GOLDEN:
        write_golden(name, DATA / name)
        print(f"rewrote {DATA / name}")
