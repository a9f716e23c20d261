"""The ODDS converter (``scripts/convert_satellite_mat.py``) without scipy.

A fake ``scipy.io`` hands the script its X and y, so the CSV bytes are
checked against the per-row loop the script used before it wrote through
``data.write_numbers``, with each outlier's class written as -1.
"""

import importlib.util
import pathlib
import sys
import types

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "convert_satellite_mat", ROOT / "scripts" / "convert_satellite_mat.py"
)
convert = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(convert)


def per_row_loop_bytes(X, y) -> bytes:
    """The script's former writer: a header, then each row's values by ``repr(float(v))``.

    Its class column held y itself; an outlier (y = 1) is now class -1.
    """
    y = -y.ravel().astype(int)
    lines = [",".join(f"f{i}" for i in range(X.shape[1])) + ",class"]
    lines += [",".join(repr(float(v)) for v in row) + f",{label}" for row, label in zip(X, y)]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "X",
    [
        np.array([[0.1, -0.0, 1e-300], [1 / 3, 2.5e16, -7.0], [np.inf, 5e-324, 123456789.0]]),
        np.array([[0.1, 2.0], [3.5, -1.25]], dtype=np.float32),
        np.array([[3, 0], [255, 7]], dtype=np.uint8),  # integer features are written as floats
        np.empty((0, 3)),
    ],
    ids=["float64", "float32", "uint8", "no-rows"],
)
def test_csv_bytes_match_the_per_row_loop(tmp_path, monkeypatch, capsys, X):
    y = (np.arange(len(X)) % 2).astype(float)[:, np.newaxis]  # ODDS stores y as an (n, 1) column
    io = types.ModuleType("scipy.io")
    io.loadmat = lambda path: {"X": X, "y": y}
    scipy = types.ModuleType("scipy")
    scipy.io = io
    monkeypatch.setitem(sys.modules, "scipy", scipy)
    monkeypatch.setitem(sys.modules, "scipy.io", io)
    out = tmp_path / "data" / "satellite.csv"
    assert convert.main([str(tmp_path / "satellite.mat"), str(out)]) == 0
    assert out.read_bytes() == per_row_loop_bytes(X, y)
    assert f"{len(X)} rows, {X.shape[1]} features" in capsys.readouterr().out
