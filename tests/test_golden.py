"""Determinism pin: the CLI reproduces the reference CSVs in tests/data.

The references were written by the CLI with the flags in CASES and THREAD_CASES, reading on
stdin the input file that STDIN names, if any; kernel-eval's is the one alpha >= 1 case. Metadata
lines, headers and label columns must match exactly. Numeric columns must
match to rtol 1e-12: any change to the numerics shows far above that, while
another numpy or BLAS build may round the last bits differently. Each numeric cell
must also be its own 17-significant-digit text, so the text form is pinned too.
feature-sample calls no BLAS and must match byte for byte. Every experiment
writes the same bytes at one and at two OpenBLAS threads, each run in a fresh
interpreter, and its one-thread output is checked against the same reference.
"""

import io
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
    "kernel_eval_alpha3.csv": ["--experiment", "kernel-eval", "--alpha", "3", "--dim", "3"],
}
# reference file -> the file in DATA that the CLI reads on stdin: 200 pairs in the unit ball,
# far apart, about 1e-3 apart and coincident
STDIN = {"kernel_eval_alpha3.csv": "kernel_eval_alpha3.txt"}


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
            assert [format(float(cell), ".17g") for cell in col] == list(col), title
            np.testing.assert_allclose(np.array(col, dtype=float), np.array(ref, dtype=float),
                                       rtol=1e-12, atol=0, err_msg=title)
        else:
            assert col == ref, title


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_matches_reference(tmp_path, monkeypatch, name):
    if name in STDIN:
        monkeypatch.setattr("sys.stdin", io.StringIO((DATA / STDIN[name]).read_text(encoding="utf-8")))
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    _assert_matches_reference(out, name)


def test_fig2_matches_reference(fig2_run):
    path, _ = fig2_run
    _assert_matches_reference(path, "fig2.csv")


def _run_at_blas_threads(args, threads, stdin=None):
    """Run the CLI in a fresh interpreter with the given OpenBLAS thread count, the text stdin
    on its standard input."""
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "splinerf"] + args, input=stdin, text=True, env=env,
                   check=True)


# experiment name -> (reference file, CLI flags)
THREAD_CASES = {
    "fig1": ("fig1_reps1.csv", CASES["fig1_reps1.csv"]),
    "fig2": ("fig2.csv", ["--experiment", "fig2", "--seed", "0"]),
    "fig3": ("fig3.csv", CASES["fig3.csv"]),
    "kernel-eval": ("kernel_eval_alpha3.csv", CASES["kernel_eval_alpha3.csv"]),
    "feature-sample": ("feature_sample_fourier.csv",
                       ["--experiment", "feature-sample", "--kind", "fourier", "--m", "3", "--seed", "7"]),
    "feature-sample-nn": ("feature_sample_nn.csv",
                          ["--experiment", "feature-sample", "--kind", "nn", "--dim", "3", "--m", "5",
                           "--seed", "7"]),
}


@pytest.fixture(scope="module")
def blas_thread_run(tmp_path_factory):
    """Run a THREAD_CASES experiment at a BLAS thread count once per module: its csv path."""
    paths = {}

    def run(name, threads):
        if (name, threads) not in paths:
            reference, args = THREAD_CASES[name]
            out = tmp_path_factory.mktemp("threads") / f"{name}-{threads}.csv"
            stdin = (DATA / STDIN[reference]).read_text(encoding="utf-8") if reference in STDIN else None
            _run_at_blas_threads(args + ["--out", str(out)], threads, stdin)
            paths[name, threads] = out
        return paths[name, threads]

    return run


def test_fig2_matches_reference_at_one_blas_thread(blas_thread_run):
    _assert_matches_reference(blas_thread_run("fig2", 1), "fig2.csv")


@pytest.mark.parametrize("name", sorted(THREAD_CASES))
def test_same_bytes_at_one_and_two_blas_threads(blas_thread_run, name):
    one, two = blas_thread_run(name, 1), blas_thread_run(name, 2)
    _assert_matches_reference(one, THREAD_CASES[name][0])
    assert one.read_bytes() == two.read_bytes()


def test_feature_sample_is_byte_identical(tmp_path):
    for name in ("feature-sample", "feature-sample-nn"):
        reference, args = THREAD_CASES[name]
        out = tmp_path / reference
        assert main(args + ["--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / reference).read_bytes(), name
