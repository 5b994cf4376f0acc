import csv
import io
import pathlib
import re
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kernel_eval_reference
from splinerf.cli import (EXPERIMENTS, GRID_POINTS, READ_CHUNK, WRITE_CHUNK, _refined_grid, build_parser,
                          main)
from splinerf.features import FourierFeatureMap, NNFeatureMap
from splinerf.kernels import PAIR_BLOCK, KernelSpec, kernel_pairs
from splinerf.regression import SPDFactor
from splinerf.sampling import RngStream, derive_seed


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        meta = []
        rows = []
        header = None
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, header, rows


def test_kernel_eval_basic(tmp_path, monkeypatch):
    out = tmp_path / "k.csv"
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n"))
    rc = main(["--experiment", "kernel-eval", "--alpha", "0", "--dim", "1",
               "--radius", "1", "--out", str(out)])
    assert rc == 0
    _, header, rows = _read_csv(out)
    assert header == ["line", "value"]
    assert float(rows[0][1]) == 0.5


def test_kernel_eval_prop1_value(tmp_path, monkeypatch):
    out = tmp_path / "k.csv"
    monkeypatch.setattr("sys.stdin", io.StringIO("0.5 -0.5\n"))
    rc = main(["--experiment", "kernel-eval", "--alpha", "1", "--dim", "1",
               "--radius", "1", "--out", str(out)])
    assert rc == 0
    _, _, rows = _read_csv(out)
    assert abs(float(rows[0][1]) - 1.0 / 12.0) < 1e-14


def test_kernel_eval_malformed_line(tmp_path, monkeypatch, capsys):
    out = tmp_path / "k.csv"
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\nnot a number\n0.1 0.2\n"))
    rc = main(["--experiment", "kernel-eval", "--dim", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 2" in err
    _, _, rows = _read_csv(out)
    assert [r[0] for r in rows] == ["1", "3"]  # good lines still evaluated


def test_kernel_eval_bad_token_after_good_ones_adds_no_values(tmp_path, monkeypatch, capsys):
    # a line's tokens all convert before any reaches the pairs, so the good lines
    # around a bad one keep their own coordinates
    out = tmp_path / "k.csv"
    monkeypatch.setattr("sys.stdin", io.StringIO("0.1 0.2\n0.3 0.4 x\n0.5 y\n\n0.7 -0.8\n"))
    rc = main(["--experiment", "kernel-eval", "--alpha", "1", "--dim", "1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "line 2: could not convert string to float: 'x'",
        "line 3: could not convert string to float: 'y'"]
    _, _, rows = _read_csv(out)
    assert [r[0] for r in rows] == ["1", "5"]
    want = kernel_pairs([[0.1], [0.7]], [[0.2], [-0.8]], KernelSpec(1, 1))
    assert [float(r[1]) for r in rows] == want.tolist()


def test_kernel_eval_non_finite_coordinate(tmp_path, monkeypatch, capsys):
    # a non-finite coordinate is a malformed line: one stderr line, no row, exit 1
    out = tmp_path / "k.csv"
    monkeypatch.setattr("sys.stdin", io.StringIO("nan 0.5\n0.1 inf\n0.2 0.3\nx\n-inf 0\n"))
    rc = main(["--experiment", "kernel-eval", "--dim", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["line 1", "line 2", "line 4", "line 5"]
    assert "non-finite" in err[0] and "non-finite" in err[3]
    _, _, rows = _read_csv(out)
    assert [r[0] for r in rows] == ["3"]
    assert np.isfinite(float(rows[0][1]))


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_outside_the_key_range_is_reported(tmp_path, capsys, seed):
    # -1 was read as 2^64 - 1 and 2^64 as 0: each the stream of another seed
    assert main(["--experiment", "fig1", "--seed", seed, "--out", str(tmp_path / "f.csv")]) == 1
    assert "seed must be an integer in [0, " in capsys.readouterr().err


def test_kernel_eval_unsupported_kernel_reported_once(tmp_path, monkeypatch, capsys):
    out = tmp_path / "k.csv"
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n0.1 0.2\n0.3 -0.4\n"))
    rc = main(["--experiment", "kernel-eval", "--kernel", "arccos", "--alpha", "3",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "alpha <= 2" in err[0]
    _, header, rows = _read_csv(out)
    assert header == ["line", "value"]
    assert rows == []


def _pairs_text(P):
    return "".join(" ".join(map(repr, row)) + "\n" for row in P.tolist())


def _boundary_stdin(with_nan):
    """10 000 pairs at d = 3, with a blank, a malformed, a wrong-count and, with_nan, a NaN
    line at and next to each multiple of PAIR_BLOCK and of WRITE_CHUNK rows."""
    lines = _pairs_text(np.random.default_rng(17).uniform(-0.57, 0.57, (10_000, 6))).splitlines()
    specials = ["", "0.1 0.2 x 0.3 0.4 0.5", "0.1 0.2 0.3"] + ["0.1 nan 0.2 0.3 0.4 0.5"] * with_nan
    for boundary in sorted({PAIR_BLOCK, 2 * PAIR_BLOCK, WRITE_CHUNK, 2 * WRITE_CHUNK}, reverse=True):
        for offset, special in zip((1, 0, -1, -2), specials):
            lines.insert(boundary + offset, special)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("with_nan", [True, False])
def test_kernel_eval_across_block_and_chunk_boundaries(tmp_path, monkeypatch, capsys, with_nan):
    # the same report and bytes as parsing everything, evaluating in one call and writing
    # the CSV at once; without a NaN line no pair is copied
    text = _boundary_stdin(with_nan)
    want_err, want_code, want_csv = kernel_eval_reference(text, alpha=3, dim=3)
    args = ["--experiment", "kernel-eval", "--alpha", "3", "--dim", "3", "--out"]
    out = tmp_path / "k.csv"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(args + [str(out)]) == want_code == 1
    assert capsys.readouterr().err.splitlines() == want_err
    assert out.read_bytes() == want_csv.encode()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(args + ["-"]) == want_code
    written = capsys.readouterr()
    assert written.err.splitlines() == want_err
    assert written.out.encode() == out.read_bytes()


# tokens that float() and np.loadtxt read apart: float() takes 1_0 and Arabic-Indic digits,
# which loadtxt rejects, so their chunk is parsed line by line; both reject 0x1p3, 1d3 and #
_ODD_TOKENS = ["1_0", "\u0661\u0662", "0x1p3", "1d3", "infinity", "nan", "#"]
_VALID_LINES = _pairs_text(np.random.default_rng(20).uniform(-0.57, 0.57, (2 * READ_CHUNK + 3, 4))).splitlines()


@st.composite
def _kernel_eval_stdin(draw):
    """Lines of d = 2 pairs, some replaced or joined by blank, whitespace-only, re-spaced,
    wrong-count and odd-token lines, often at and next to the READ_CHUNK boundaries; no
    character that str.splitlines() and a line-by-line read of stdin split apart."""
    n = draw(st.sampled_from([3, READ_CHUNK - 1, READ_CHUNK, READ_CHUNK + 1, len(_VALID_LINES)]))
    lines = _VALID_LINES[:n]
    near = [b + offset for b in (READ_CHUNK, 2 * READ_CHUNK) for offset in (-2, -1, 0, 1) if b + offset < n]
    position = st.one_of(st.sampled_from(near), st.integers(0, n - 1)) if near else st.integers(0, n - 1)
    space = st.sampled_from([" ", "\t", "  ", " \t "])
    token = st.one_of(st.sampled_from(_ODD_TOKENS), st.floats(-0.5, 0.5).map(repr))
    for _ in range(draw(st.integers(0, 6))):
        i = draw(position)
        if draw(st.booleans()):  # the same line with other whitespace, which loadtxt reads too
            gaps = [draw(space) for _ in range(4)] + [draw(st.sampled_from(["", " ", "\t"]))]
            lines[i] = "".join(g + t for g, t in zip(gaps, lines[i].split() + [""]))
            continue
        toks = draw(st.lists(token, max_size=5) | st.lists(token, min_size=4, max_size=4))
        gaps = [draw(st.sampled_from(["", " ", "\t"]))] + [draw(space) for _ in toks]
        special = "".join(g + t for g, t in zip(gaps, toks + [""]))
        if draw(st.booleans()):
            lines[i] = special
        else:
            lines.insert(i, special)
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(_kernel_eval_stdin(), st.sampled_from([0, 3]))
def test_kernel_eval_matches_the_one_pass_reference(text, alpha):
    # a chunk that np.loadtxt cannot read as one row of 2d reals a line is read line by line;
    # either way the report, exit code and bytes are those of parsing every line by float()
    want_err, want_code, want_csv = kernel_eval_reference(text, alpha=alpha, dim=2)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main(["--experiment", "kernel-eval", "--alpha", str(alpha), "--dim", "2"])
    assert (err.getvalue().splitlines(), code, out.getvalue()) == (want_err, want_code, want_csv)


def test_kernel_eval_memory_is_its_arrays_and_a_block(tmp_path, monkeypatch):
    # 20 000 pairs at alpha = 3, d = 3: about 1 MiB of line numbers and coordinates, and the
    # temporaries of one kernel_pairs block of PAIR_BLOCK rows; a list of (line, value)
    # tuples and the CSV text built whole once peaked at 19.7 MiB
    text = _pairs_text(np.random.default_rng(18).uniform(-0.57, 0.57, (20_000, 6)))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    tracemalloc.start()
    try:
        assert main(["--experiment", "kernel-eval", "--alpha", "3", "--dim", "3",
                     "--out", str(tmp_path / "k.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_feature_sample_forms_the_frequencies_once(tmp_path, monkeypatch):
    # omegas forms every frequency at each access; one access per row was quadratic in m
    calls, omegas = [], FourierFeatureMap.omegas
    monkeypatch.setattr(FourierFeatureMap, "omegas", property(lambda ens: calls.append(1) or omegas.fget(ens)))
    assert main(["--experiment", "feature-sample", "--kind", "fourier", "--dim", "2", "--m", "50",
                 "--out", str(tmp_path / "fs.csv")]) == 0
    assert len(calls) == 1


def test_feature_sample_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--experiment", "feature-sample", "--kind", "fourier", "--m", "3",
            "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta, header, rows = _read_csv(out1)
    assert header[:2] == ["index", "tau"]
    assert len(rows) == 3


def test_feature_sample_nn_layout(tmp_path):
    out = tmp_path / "nn.csv"
    assert main(["--experiment", "feature-sample", "--kind", "nn", "--m", "4",
                 "--dim", "3", "--seed", "1", "--out", str(out)]) == 0
    _, header, rows = _read_csv(out)
    assert header == ["index", "bias", "w1", "w2", "w3"]
    w = np.array([[float(v) for v in r[2:]] for r in rows])
    assert np.allclose(np.linalg.norm(w, axis=1), 1.0, atol=1e-12)


def test_seventeen_digit_serialization(tmp_path):
    out = tmp_path / "nn.csv"
    main(["--experiment", "feature-sample", "--kind", "nn", "--m", "2",
          "--seed", "3", "--out", str(out)])
    _, _, rows = _read_csv(out)
    # values round-trip exactly through the emitted text
    from splinerf.features import sample_nn_ensemble
    from splinerf.kernels import KernelSpec

    ens = sample_nn_ensemble(KernelSpec(0, 1, 1.0), 2, RngStream(derive_seed(3, "feature-sample", "nn")))
    assert float(rows[0][1]) == ens.biases[0]


def test_fig1_contracts(tmp_path, capsys):
    out = tmp_path / "fig1.csv"
    assert main(["--experiment", "fig1", "--seed", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""  # every fit interpolates its training data
    meta, header, rows = _read_csv(out)
    assert header == ["draw", "method", "x", "f"]
    assert any(line.startswith("# experiment=fig1") for line in meta)
    curves = {}
    for draw, method, x, f in rows:
        curves.setdefault((int(draw), method), {})[float(x)] = float(f)
    # exact curve carries no randomness
    exact0 = curves[(0, "exact")]
    assert all(curves[(d, "exact")] == exact0 for d in range(4))
    # every method interpolates the training data on the refined grid
    rng = RngStream(derive_seed(0, "fig1-data")).generator()
    X = rng.uniform(-1, 1, size=(10, 1)).ravel()
    y = rng.standard_normal(10)
    for (draw, method), curve in curves.items():
        for xt, yt in zip(X, y):
            assert xt in curve
            assert abs(curve[xt] - yt) < 1e-6, (draw, method)
    # nn curves hug the exact one better than fourier in most draws
    xs = sorted(exact0)
    exact_arr = np.array([exact0[x] for x in xs])
    wins = 0
    for d in range(4):
        nn_dev = np.max(np.abs(np.array([curves[(d, "nn")][x] for x in xs]) - exact_arr))
        f_dev = np.max(np.abs(np.array([curves[(d, "fourier")][x] for x in xs]) - exact_arr))
        wins += nn_dev < f_dev
    assert wins >= 3


def test_fig1_reports_fits_that_miss_training_data(tmp_path, capsys):
    # At seed 1 some nn draws put two training points between the same pair of
    # sampled biases, so their feature rows coincide and the fit cannot interpolate.
    assert main(["--experiment", "fig1", "--seed", "1", "--out", str(tmp_path / "fig1.csv")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split()[1:4] for line in lines] == [
        ["draw", "0", "nn"], ["draw", "2", "nn"], ["draw", "3", "nn"]]
    assert all("residual" in line and "jitter_used" in line for line in lines)


def test_refined_grid_holds_grid_points_training_points():
    X = np.random.default_rng(41).uniform(-1, 1, size=(GRID_POINTS, 1))
    grid = _refined_grid(1.0, X)
    assert grid.shape == (GRID_POINTS,) and np.array_equal(grid, np.sort(X.ravel()))
    with pytest.raises(ValueError, match=f"must be at most {GRID_POINTS}"):
        _refined_grid(1.0, np.vstack([X, [[0.0]]]))


def test_fig2_builds_no_test_features(tmp_path, monkeypatch):
    # both feature fits are applied on the test grid by grid_apply, so features only sees training rows
    rows = {"nn": [], "fourier": []}

    def record(cls, method):
        features = cls.features

        def recording_features(self, X):
            rows[method].append(len(X))
            return features(self, X)

        monkeypatch.setattr(cls, "features", recording_features)

    record(NNFeatureMap, "nn")
    record(FourierFeatureMap, "fourier")
    assert main(["--experiment", "fig2", "--seed", "0", "--reps", "1", "--m", "32", "--m", "64",
                 "--out", str(tmp_path / "f2.csv")]) == 0
    assert rows == {"nn": [20, 20], "fourier": [20, 20]}


def test_fig2_small_run(tmp_path):
    out1, out2 = tmp_path / "f2a.csv", tmp_path / "f2b.csv"
    args = ["--experiment", "fig2", "--seed", "0", "--reps", "3",
            "--m", "32", "--m", "64"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta, header, rows = _read_csv(out1)
    assert header == ["m", "rep", "method", "error"]
    assert len(rows) == 3 * 2 * 2
    assert all(float(r[3]) >= 0.0 for r in rows)
    assert any("jitter" in line for line in meta)


def test_fig2_solves_no_more_columns_than_rows(tmp_path, monkeypatch):
    # a solve with many right-hand sides on a tiny factor stalls on the BLAS thread pools
    solves = []
    solve = SPDFactor.solve

    def recording_solve(self, B):
        solves.append((self.factor[0].shape[0], np.shape(B)))
        return solve(self, B)

    monkeypatch.setattr(SPDFactor, "solve", recording_solve)
    assert main(["--experiment", "fig2", "--seed", "0", "--reps", "1",
                 "--out", str(tmp_path / "f2.csv")]) == 0
    assert solves
    for rows, shape in solves:
        assert shape[0] == rows and (len(shape) == 1 or shape[1] <= rows), (rows, shape)


def test_fig2_m_grid_must_increase(tmp_path, capsys):
    out = tmp_path / "f2.csv"
    with pytest.raises(SystemExit) as exc:
        main(["--experiment", "fig2", "--reps", "1", "--m", "64", "--m", "32",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "--m grid must be strictly increasing" in capsys.readouterr().err
    assert not out.exists()


README = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_experiments():
    """README's CLI table: experiment -> (the flags it reads, {flag: its default}, default --out)."""
    lines = README.splitlines()
    start = lines.index("| experiment | flags it reads | its defaults |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, reads, defaults = [re.findall(r"`([^`]*)`", cell) for cell in line.strip("|").split("|")]
        tokens = defaults[0].split()
        given = dict(zip((flag[2:] for flag in tokens[::2]), tokens[1::2]))
        if len(defaults) > 1:  # fig2's m-grid
            given["m"] = defaults[1]
        table[name[0]] = (set(reads[0].split()), given, given.pop("out"))
    return table


# The flags each experiment reads, as README's CLI table lists them (checked against
# cli.EXPERIMENTS below); every experiment also reads --out.  Any other flag must keep its default.
READS = {name: reads for name, (reads, _, _) in _readme_experiments().items()}
# A value other than the default for every flag but --out (None: a switch).
OTHER_VALUE = {"--alpha": "1", "--dim": "2", "--radius": "2.0", "--n": "64", "--m": "64",
               "--lambda": "0.1", "--reps": "3", "--seed": "5", "--gnuplot": None,
               "--kind": "fourier", "--kernel": "arccos"}
# Settings that keep a run small; a case overrides the one flag it tests.
SMALL = {"fig1": {"--n": "4", "--m": "8", "--reps": "1"},
         "fig2": {"--n": "4", "--m": "8", "--reps": "1"},
         "fig3": {"--n": "64"},
         "kernel-eval": {},
         "feature-sample": {}}
REJECTED = [
    ("fig1", "--dim", "2"),
    ("fig2", "--dim", "3"),
    ("fig3", "--dim", "2"),
    ("fig3", "--alpha", "1"),
    ("fig3", "--radius", "2.0"),
    ("fig3", "--m", "64"),
    ("fig3", "--reps", "3"),
    ("fig1", "--lambda", "0.1"),
    ("fig2", "--lambda", "1e-6"),
    ("feature-sample", "--alpha", "2"),
]
LISTED = {(experiment, flag) for experiment, flag, _ in REJECTED}
REJECTED += [(experiment, flag, OTHER_VALUE[flag])
             for experiment, reads in READS.items() for flag in sorted(OTHER_VALUE)
             if flag not in reads and (experiment, flag) not in LISTED]


def _argv(experiment, flags, out):
    argv = ["--experiment", experiment, "--out", str(out)]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


def test_readme_cli_table_is_the_code():
    table = _readme_experiments()
    assert table.keys() == EXPERIMENTS.keys()
    for name, (reads, defaults, out) in table.items():
        _, code_out, code_reads = EXPERIMENTS[name]
        assert reads == {f"--{flag}" for flag in code_reads}, name
        assert defaults == {flag: " ".join(map(str, np.ravel(value)))
                            for flag, value in code_reads.items() if value is not None}, name
        assert out == code_out, name
    text = " ".join(README.split())
    actions = {action.option_strings[0]: action for action in build_parser()._actions}
    del actions["-h"]
    assert re.search(r"Flags: `([^`]*)`", text)[1].split() == list(actions)
    fixed, unset = re.search(r"unless it keeps its default: `([^`]*)`, with `([^`]*)` unset", text).groups()
    tokens = fixed.split()
    for flag, value in zip(tokens[::2], tokens[1::2]):
        assert type(actions[flag].default)(value) == actions[flag].default, flag
    assert all(actions[flag].default in (None, False) for flag in unset.split())
    assert {*tokens[::2], *unset.split(), "--experiment", "--out"} == actions.keys()
    for flag in ("--kind", "--kernel"):
        assert re.search(rf"`{flag}` (?:is )?one of `([^`]*)`", text)[1].split() == list(actions[flag].choices)


@pytest.mark.parametrize("experiment, flag, value", REJECTED)
def test_fixed_flags_rejected(tmp_path, capsys, experiment, flag, value):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(_argv(experiment, {flag: value}, out))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{experiment} only supports {flag}" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, flag", sorted(
    (experiment, flag) for experiment, reads in READS.items() for flag in reads))
def test_read_flags_accepted(tmp_path, monkeypatch, experiment, flag):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(_argv(experiment, {**SMALL[experiment], flag: OTHER_VALUE[flag]},
                      tmp_path / "out.csv")) == 0


@pytest.mark.parametrize("argv, message", [
    (["--experiment", "fig1", "--m", "8", "--m", "16"], "fig1 takes one --m, got 8 16"),
    (["--experiment", "feature-sample", "--m", "8", "--m", "16"],
     "feature-sample takes one --m, got 8 16"),
    (["--experiment", "fig1", "--reps", "0"], "--reps must be >= 1, got 0"),
    (["--experiment", "fig1", "--m", "0"], "--m must be >= 1, got 0"),
    (["--experiment", "fig2", "--m", "0", "--m", "8"], "--m must be >= 1, got 0 8"),
    (["--experiment", "feature-sample", "--m", "0"], "--m must be >= 1, got 0"),
    (["--experiment", "fig1", "--n", "0"], "--n must be >= 1, got 0"),
    (["--experiment", "fig2", "--n", "0"], "--n must be >= 1, got 0"),
    (["--experiment", "fig1", "--n", "-1"], "--n must be >= 1, got -1"),
    (["--experiment", "fig3", "--n", "0"], "--n must be >= 1, got 0"),
    (["--experiment", "fig3", "--n", "64", "--gnuplot", "--out", "-"], "--gnuplot writes"),
], ids=["fig1-repeated-m", "feature-sample-repeated-m", "reps-0", "fig1-m-0", "fig2-m-grid-0",
        "feature-sample-m-0", "fig1-n-0", "fig2-n-0", "fig1-n--1", "fig3-n-0",
        "gnuplot-to-stdout"])
def test_usage_errors(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)  # where the default --out would land
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["--experiment", "fig3", "--n", "1"], "fig3: grid estimator needs at least two points"),
    (["--experiment", "fig3", "--n", "64", "--lambda", "0"],
     "fig3: regularization lambda must be positive"),
    (["--experiment", "fig3", "--n", "64", "--lambda", "inf"],
     "fig3: regularization lambda must be positive and finite, got inf"),
    (["--experiment", "fig3", "--n", "64", "--lambda", "nan"],
     "fig3: regularization lambda must be positive and finite, got nan"),
    (["--experiment", "fig3", "--lambda", "1e-300"],
     "fig3: the grid system is numerically singular at lambda 1e-300 and n 4096: "
     "a leverage score is not finite"),
    (["--experiment", "fig3", "--n", "3", "--lambda", "1e-20"],
     "fig3: the grid system is numerically singular at lambda 1e-20 and n 3"),
    (["--experiment", "fig1", "--radius", "-1"], "fig1: radius must be positive"),
    (["--experiment", "kernel-eval", "--dim", "0"], "kernel-eval: dimension must be >= 1"),
    (["--experiment", "fig1", "--n", "513", "--reps", "1"],
     "fig1: 513 training points do not fit on the 512-point curve grid"),
    (["--experiment", "kernel-eval", "--radius", "nan"],
     "kernel-eval: radius must be positive and finite, got nan"),
    (["--experiment", "kernel-eval", "--radius", "inf"],
     "kernel-eval: radius must be positive and finite, got inf"),
    (["--experiment", "fig2", "--radius", "nan"], "fig2: radius must be positive and finite"),
    (["--experiment", "feature-sample", "--radius", "inf"],
     "feature-sample: radius must be positive and finite"),
    (["--experiment", "feature-sample", "--kind", "fourier", "--radius", "nan"],
     "feature-sample: radius must be positive and finite"),
    # a finite radius whose diameter 2R overflows once ended in an OverflowError traceback
    (["--experiment", "fig2", "--radius", "1e308"], "fig2: radius must be positive and finite"),
    (["--experiment", "feature-sample", "--radius", "1e308"],
     "feature-sample: radius must be positive and finite"),
], ids=["fig3-n-1", "fig3-lambda-0", "fig3-lambda-inf", "fig3-lambda-nan",
        "fig3-lambda-1e-300", "fig3-n-3-lambda-1e-20", "fig1-radius--1",
        "kernel-eval-dim-0", "fig1-n-513",
        "kernel-eval-radius-nan", "kernel-eval-radius-inf", "fig2-radius-nan",
        "feature-sample-nn-radius-inf", "feature-sample-fourier-radius-nan",
        "fig2-radius-1e308", "feature-sample-radius-1e308"])
def test_library_value_error_is_one_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 0\n"))
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message), err
    assert not out.exists()


def test_sampler_error_is_one_line(tmp_path, monkeypatch, capsys):
    # a rejection loop that accepts nothing exhausts its budget in one round
    monkeypatch.setattr("splinerf.sampling._MAX_PROPOSALS", 0)
    monkeypatch.setattr("splinerf.sampling._rejection_round", lambda R, k, rng: np.empty(0))
    out = tmp_path / "out.csv"
    assert main(["--experiment", "feature-sample", "--kind", "fourier", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["feature-sample: rejection sampler exhausted 64 proposals"]
    assert not out.exists()


@pytest.mark.parametrize("radius", ["1e-200", "1e200"])
def test_feature_sample_fourier_at_extreme_radii(tmp_path, radius):
    out = tmp_path / "fs.csv"
    assert main(["--experiment", "feature-sample", "--kind", "fourier", "--radius", radius,
                 "--m", "1000", "--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    u = float(radius) * np.array([float(r[1]) for r in rows])
    assert np.all(np.isfinite(u)) and 0.6 < np.median(np.abs(u)) < 1.1  # 0.854 for the sin^2 law


def test_fixed_flags_accept_their_value(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["--experiment", "fig3", "--n", "64", "--alpha", "0", "--dim", "1",
                 "--radius", "1", "--out", str(out)]) == 0


def test_unread_flags_accept_their_default(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["--experiment", "fig1", "--n", "4", "--m", "8", "--reps", "1",
                 "--lambda", "0.001", "--out", str(out)]) == 0
    out = tmp_path / "fs.csv"
    assert main(["--experiment", "feature-sample", "--alpha", "0", "--out", str(out)]) == 0


def test_fig3_nn_theory_at_huge_lambda(tmp_path):
    # the closed form once cancelled here: 91 negative theoretical nn scores at lambda = 1e32
    out = tmp_path / "fig3.csv"
    assert main(["--experiment", "fig3", "--n", "64", "--lambda", "1e32", "--out", str(out)]) == 0
    _, _, rows = _read_csv(out)
    b, theory = np.array([(float(r[1]), float(r[3])) for r in rows if r[0] == "nn"]).T
    np.testing.assert_allclose(theory, (1.0 - b) / 2e32, rtol=1e-12, atol=0)  # <g, g> / lambda


def test_fig3_small_run(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["--experiment", "fig3", "--n", "256", "--out", str(out)]) == 0
    meta, header, rows = _read_csv(out)
    assert header == ["method", "param", "empirical", "theoretical"]
    methods = {r[0] for r in rows}
    assert methods == {"nn", "fourier-cos", "fourier-sin"}
    assert len(rows) == 3 * 201
    vals = np.array([[float(r[2]), float(r[3])] for r in rows])
    assert np.all(np.isfinite(vals))
    assert np.all(vals >= -1e-9)


def test_gnuplot_companion(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["--experiment", "fig3", "--n", "64", "--gnuplot",
                 "--out", str(out)]) == 0
    script = tmp_path / "fig3.gp"
    assert script.exists()
    assert "set datafile separator" in script.read_text()


def test_unwritable_output_path():
    rc = main(["--experiment", "fig3", "--n", "64",
               "--out", "/no/such/dir/fig3.csv"])
    assert rc == 1
