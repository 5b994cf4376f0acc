"""Determinism pin: the CLI reproduces the reference CSVs in tests/data.

The references were written by the CLI with the flags in CASES. Metadata
lines, headers and label columns must match exactly. Numeric columns must
match to rtol 1e-12: BLAS rounding differs with the thread count (about 1e-15
relative between 1 and 2 OpenBLAS threads on fig2 and fig3), while any change
to the numerics shows far above that. feature-sample calls no BLAS and must
match byte for byte. fig2 is checked at the default thread count and, in a
fresh interpreter, at one OpenBLAS thread against the same reference.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from splinerf.cli import main

DATA = pathlib.Path(__file__).parent / "data"

CASES = {
    "fig1_reps1.csv": ["--experiment", "fig1", "--reps", "1", "--seed", "0"],
    "fig3.csv": ["--experiment", "fig3", "--seed", "0"],
}


def _split(text):
    lines = text.splitlines()
    n_meta = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    rows = [line.split(",") for line in lines[n_meta + 1:]]
    return lines[:n_meta], lines[n_meta], list(zip(*rows))


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _assert_matches_reference(path, name):
    meta, header, columns = _split(path.read_text(encoding="utf-8"))
    ref_meta, ref_header, ref_columns = _split((DATA / name).read_text(encoding="utf-8"))
    assert meta == ref_meta
    assert header == ref_header
    assert len(columns) == len(ref_columns)
    for title, col, ref in zip(header.split(","), columns, ref_columns):
        assert len(col) == len(ref), title
        if all(_is_number(cell) for cell in ref):
            np.testing.assert_allclose(np.array(col, dtype=float), np.array(ref, dtype=float),
                                       rtol=1e-12, atol=0, err_msg=title)
        else:
            assert col == ref, title


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_reference(tmp_path, name):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    _assert_matches_reference(out, name)


def test_fig2_matches_reference(fig2_run):
    path, _ = fig2_run
    _assert_matches_reference(path, "fig2.csv")


def test_fig2_matches_reference_at_one_blas_thread(tmp_path):
    out = tmp_path / "fig2.csv"
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "splinerf", "--experiment", "fig2", "--seed", "0",
                    "--out", str(out)], env=env, check=True)
    _assert_matches_reference(out, "fig2.csv")


def test_feature_sample_is_byte_identical(tmp_path):
    out = tmp_path / "fs.csv"
    assert main(["--experiment", "feature-sample", "--kind", "fourier", "--m", "3",
                 "--seed", "7", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "feature_sample_fourier.csv").read_bytes()
