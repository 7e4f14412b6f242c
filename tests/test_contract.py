"""The CLI's output bytes, pinned by one SHA-256 per output file.

``tests/data/contract_sha256.txt`` holds the hashes of every file the runs in
``RUNS`` write: the 20 default figure panels (dim 2 and dim 3), one
default-hybrid ``eigs`` run that crosses z_switch, one ``eigs --format
json`` run and two series ``eigs`` runs, at beta = 2.5 for z from 1000 to
3000 and at a generic beta for z from 2000 to 5000.  A change that
alters any byte of them on purpose regenerates the file with

    PYTHONPATH=src python tests/test_contract.py
"""

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from perispec.cli import main

HASHES = Path(__file__).parent / "data" / "contract_sha256.txt"

#: (argv, name of the single output file or None for a panel directory)
RUNS = (
    (("figure", "--dim", "2"), None),
    (("figure", "--dim", "3"), None),
    # z = nu/2 runs from 10 to 30 across the default switch at z = 20
    (
        ("eigs", "--dim", "3", "--beta", "2.5", "--nu-min", "20", "--nu-max", "60", "--points", "200"),
        "eigs_dim3_beta2.5_hybrid_nu20-60.csv",
    ),
    # nu = 0 row, the logarithmic branch (beta = n) and rows past the switch
    (
        ("eigs", "--dim", "2", "--beta", "2", "--delta", "2", "--nu-max", "25", "--points", "100",
         "--format", "json"),
        "eigs_dim2_beta2_delta2_nu0-25.json",
    ),
    # the series policy at z = 1000 to 3000: thousands of terms at up to 8,749 bits
    (
        ("eigs", "--dim", "2", "--beta", "2.5", "--policy", "series", "--nu-min", "2000", "--nu-max", "6000",
         "--points", "4"),
        "eigs_dim2_beta2.5_series_nu2000-6000.csv",
    ),
    # the series policy at a generic beta (long dyadic parameters), z = 2000 to 5000
    (
        ("eigs", "--dim", "2", "--beta", "2.123456789", "--policy", "series", "--nu-min", "4000",
         "--nu-max", "10000", "--points", "3"),
        "eigs_dim2_beta2.123456789_series_nu4000-10000.csv",
    ),
)


def contract_outputs(out_dir: Path) -> dict:
    """Run every contract command into ``out_dir``; return {file name: bytes}."""
    for argv, name in RUNS:
        target = out_dir if name is None else out_dir / name
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--out", str(target)])
        if code != 0:
            raise RuntimeError(f"perispec {' '.join(argv)} exited {code}: {err.getvalue()}")
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def sha256_lines(outputs: dict) -> str:
    return "".join(f"{hashlib.sha256(data).hexdigest()}  {name}\n" for name, data in outputs.items())


def pinned() -> dict:
    pairs = (line.split() for line in HASHES.read_text(encoding="ascii").splitlines())
    return {name: digest for digest, name in pairs}


@pytest.fixture(scope="session")
def outputs(tmp_path_factory):
    return contract_outputs(tmp_path_factory.mktemp("contract"))


def test_output_bytes_match_pinned_hashes(outputs):
    got = {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}
    assert got == pinned()
    assert sum(name.startswith("figure_") for name in got) == 20


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        HASHES.write_text(sha256_lines(contract_outputs(Path(tmp))), encoding="ascii")
    sys.stdout.write(HASHES.read_text(encoding="ascii"))
