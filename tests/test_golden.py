"""Golden CLI outputs: every subcommand on two committed configs.

``tests/golden/<case>.json`` holds the configs; their relative paths resolve
against ``tests/golden``. ``tests/golden/<case>/`` holds the expected output
files. Regenerate them (only for a change that is meant to alter output)
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from pointcrf.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = ["knn-jacobi", "radius-gs"]
COMMANDS = [
    ["build-graph"],
    ["smooth"],
    ["refine-labels"],
    ["diffuse-compare"],
    ["sweep-steps", "--steps-list", "1,3,8"],
    ["check-oracle"],
]
# Structural outputs must match byte for byte.
EXACT = {"graph.csv", "labels.csv"}
FLOAT_TOL = 1e-12


def run_case(case: str, out_dir: Path) -> None:
    runner = CliRunner()
    for command in COMMANDS:
        args = command + ["--config", str(GOLDEN / f"{case}.json"), "--output-dir", str(out_dir)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, f"{command[0]}: {result.output}"


def _table(path: Path):
    """(header line or None, float table) of a CLI output CSV."""
    lines = path.read_text().splitlines()
    header = None
    try:
        float(lines[0].split(",")[0])
    except ValueError:
        header, lines = lines[0], lines[1:]
    return header, np.array([[float(v) for v in row.split(",")] for row in lines])


@pytest.mark.parametrize("case", CASES)
def test_golden_outputs(case, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    run_case(case, tmp_path)
    expected_dir = GOLDEN / case
    expected = sorted(p.name for p in expected_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        got_path, want_path = tmp_path / name, expected_dir / name
        if name in EXACT:
            assert got_path.read_bytes() == want_path.read_bytes(), name
            continue
        got_header, got = _table(got_path)
        want_header, want = _table(want_path)
        assert got_header == want_header, name
        assert got.shape == want.shape, name
        if name == "oracle.csv":
            # the sweep on which the 1e-12 stop is reached may shift by one
            assert abs(got[0, 2] - want[0, 2]) <= 1, "oracle sweeps"
            got, want = got[:, :2], want[:, :2]
        np.testing.assert_allclose(got, want, rtol=FLOAT_TOL, atol=FLOAT_TOL, err_msg=name)


if __name__ == "__main__":
    import os

    os.chdir(GOLDEN)
    for case in CASES:
        target = GOLDEN / case
        target.mkdir(exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        run_case(case, target)
