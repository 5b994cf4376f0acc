"""Benchmark CLI: kernel evaluation, feature sampling and figure reproductions.

Every experiment is deterministic in (config, seed): cell-level streams are
derived by hashing the seed with the cell labels, and CSV output is
byte-identical across reruns.  Numbers are serialized with 17 significant
digits; metadata lines are '#'-prefixed and precede the header row.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from array import array
from contextlib import nullcontext
from itertools import islice

import numpy as np

from .features import sample_fourier_ensemble, sample_nn_ensemble
from .kernels import KERNEL_KINDS, KernelSpec, kernel_pairs
from .leverage import GridLeverageEstimator, fourier_profiles, nn_profile
from .regression import FitConfig, fit_dual, fit_primal, predict
from .sampling import RngStream, SamplerError, derive_seed

__all__ = ["main"]

INVERSION_JITTER = 1e-10
# Largest training residual an interpolating fig1 fit may leave without a stderr report.
FIG1_RESIDUAL_TOL = 1e-6
GRID_POINTS = 512
WRITE_CHUNK = 4096  # CSV rows formatted per write: the text in memory is a chunk's
READ_CHUNK = 1024  # kernel-eval stdin lines parsed per call; 4096 held more memory, no faster


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(out: str, metadata, header, text) -> None:
    """Write the metadata lines, the header and text, an iterable of CSV row chunks."""
    with nullcontext(sys.stdout) if out == "-" else open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"# {key}={_fmt(val)}\n" for key, val in metadata) + ",".join(header) + "\n")
        for chunk in text:
            fh.write(chunk)


def _rows(rows):
    """CSV text of rows, any iterable of tuples, WRITE_CHUNK rows per chunk."""
    rows = iter(rows)
    while chunk := "".join(",".join(map(_fmt, row)) + "\n" for row in islice(rows, WRITE_CHUNK)):
        yield chunk


def _columns(index, *columns):
    """CSV text of an integer column and float columns, equal-length 1-D arrays, WRITE_CHUNK
    rows per chunk, each formatted by one % operation: %d and %.17g write what _fmt does."""
    width = 1 + len(columns)
    row = "%d" + ",%.17g" * len(columns) + "\n"
    for i in range(0, len(index), WRITE_CHUNK):
        rows = min(WRITE_CHUNK, len(index) - i)
        values = [None] * (rows * width)
        for j, column in enumerate((index,) + columns):
            values[j::width] = column[i:i + rows].tolist()
        yield row * rows % tuple(values)


def _write_gnuplot(args: argparse.Namespace, script: str) -> None:
    if args.gnuplot:
        with open(args.out.rsplit(".", 1)[0] + ".gp", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(script)


def _refined_grid(R: float, train: np.ndarray) -> np.ndarray:
    """Uniform grid with the nearest free node to each training point replaced by it."""
    if train.size > GRID_POINTS:
        raise ValueError(f"{train.size} training points do not fit on the {GRID_POINTS}-point "
                         f"curve grid; --n must be at most {GRID_POINTS}")
    grid = np.linspace(-R, R, GRID_POINTS)
    free = np.ones(GRID_POINTS, dtype=bool)
    for xt in np.sort(train.ravel()):
        idx = int(np.argmin(np.abs(grid - xt)))
        nodes = np.flatnonzero(free)
        cand = int(nodes[np.argmin(np.abs(nodes - idx))])  # the lower node on a tie
        grid[cand], free[cand] = xt, False
    return np.sort(grid)


def run_fig1(args: argparse.Namespace) -> None:
    """Minimum-norm interpolation curves: exact kernel vs both feature maps."""
    spec = KernelSpec(0, 1, args.radius)
    data_rng = RngStream(derive_seed(args.seed, "fig1-data")).generator()
    X = data_rng.uniform(-args.radius, args.radius, size=(args.n, 1))
    y = data_rng.standard_normal(args.n)
    grid = _refined_grid(args.radius, X)[:, None]
    # Interpolation fits start at zero jitter; the solver ladder only kicks in
    # when the factorization fails, and a fit that misses its data is reported.
    fit_cfg = FitConfig(jitter=0.0)
    exact = fit_dual(X, y, spec, fit_cfg)
    exact_curve = predict(exact, grid)
    rows = []
    for draw in range(args.reps):
        nn_ens = sample_nn_ensemble(spec, args.m, RngStream(derive_seed(args.seed, "fig1-nn", draw)))
        f_ens = sample_fourier_ensemble(spec, args.m, RngStream(derive_seed(args.seed, "fig1-fourier", draw)))
        models = {"nn": fit_primal(X, y, nn_ens, fit_cfg),
                  "fourier": fit_primal(X, y, f_ens, fit_cfg),
                  "exact": exact}
        for method, model in models.items():
            # The CSV holds the curve either way; stderr says when it misses the data.
            if model.residual > FIG1_RESIDUAL_TOL:
                print(f"fig1: draw {draw} {method} misses its training data: residual "
                      f"{model.residual:.3g}, jitter_used {model.jitter_used:g}", file=sys.stderr)
            curve = exact_curve if method == "exact" else predict(model, grid)
            for xv, fv in zip(grid.ravel(), curve):
                rows.append((draw, method, xv, fv))
    metadata = [("experiment", "fig1"), ("alpha", spec.alpha), ("radius", args.radius),
                ("n", args.n), ("m", args.m), ("draws", args.reps), ("seed", args.seed),
                ("base_jitter", 0.0)]
    _write_csv(args.out, metadata, ["draw", "method", "x", "f"], _rows(rows))
    _write_gnuplot(args, (
        "set datafile separator ','\n"
        f"plot '{args.out}' using 3:(strcol(2) eq \"exact\" ? $4 : 1/0) with lines title 'exact', \\\n"
        f"     '{args.out}' using 3:(strcol(2) eq \"nn\" ? $4 : 1/0) title 'nn', \\\n"
        f"     '{args.out}' using 3:(strcol(2) eq \"fourier\" ? $4 : 1/0) title 'fourier'\n"))


def run_fig2(args: argparse.Namespace) -> None:
    """Label-averaged interpolation error of both feature maps versus m."""
    spec = KernelSpec(0, 1, args.radius)
    n = args.n
    test = np.linspace(-args.radius, args.radius, GRID_POINTS)[:, None]
    # The interpolation operator K_test (K + jI)^{-1}, one row per test point, is
    # the prediction at the test points of a fit to the n unit labels.  Both feature
    # fits are applied on the test grid by grid_apply, without any test features.
    labels, fit_cfg = np.eye(n), FitConfig(jitter=INVERSION_JITTER)
    rows = []
    for rep in range(args.reps):
        data_rng = RngStream(derive_seed(args.seed, "fig2-data", rep)).generator()
        X = data_rng.uniform(-args.radius, args.radius, size=(n, 1))
        exact = predict(fit_dual(X, labels, spec, fit_cfg), test)
        for m in args.m:
            nn_ens = sample_nn_ensemble(spec, m, RngStream(derive_seed(args.seed, "fig2-nn", rep, m)))
            f_ens = sample_fourier_ensemble(spec, m, RngStream(derive_seed(args.seed, "fig2-fourier", rep, m)))
            for method, ens in (("nn", nn_ens), ("fourier", f_ens)):
                weights = fit_primal(X, labels, ens, fit_cfg).feature_weights
                approx = ens.grid_apply(weights, GRID_POINTS)
                err = float(np.sum(np.square(exact - approx)))  # numpy's sum, not a threaded BLAS dot
                rows.append((m, rep, method, err))
    metadata = [("experiment", "fig2"), ("alpha", spec.alpha), ("radius", args.radius),
                ("n", n), ("reps", args.reps), ("m_grid", " ".join(str(m) for m in args.m)),
                ("test_points", GRID_POINTS), ("seed", args.seed),
                ("jitter", INVERSION_JITTER)]
    _write_csv(args.out, metadata, ["m", "rep", "method", "error"], _rows(rows))
    _write_gnuplot(args, (
        "set datafile separator ','\nset logscale xy\n"
        f"plot '{args.out}' using 1:(strcol(3) eq \"nn\" ? $4 : 1/0) title 'nn', \\\n"
        f"     '{args.out}' using 1:(strcol(3) eq \"fourier\" ? $4 : 1/0) title 'fourier'\n"))


def run_fig3(args: argparse.Namespace) -> None:
    """Empirical vs analytic leverage profiles at fixed lambda."""
    lam = getattr(args, "lambda")
    estimator = GridLeverageEstimator(np.linspace(-1.0, 1.0, args.n), lam)
    profiles = [nn_profile(lam, estimator=estimator)]
    profiles.extend(fourier_profiles(lam, estimator=estimator))
    rows = []
    for prof in profiles:
        for param, emp, theo in zip(prof.params, prof.empirical, prof.analytic):
            rows.append((prof.method, param, emp, theo))
    metadata = [("experiment", "fig3"), ("lambda", lam), ("n", args.n),
                ("params_per_method", profiles[0].params.size), ("seed", args.seed)]
    _write_csv(args.out, metadata, ["method", "param", "empirical", "theoretical"], _rows(rows))
    _write_gnuplot(args, (
        "set datafile separator ','\n"
        f"plot '{args.out}' using 2:(strcol(1) eq \"nn\" ? $3 : 1/0) title 'nn empirical', \\\n"
        f"     '{args.out}' using 2:(strcol(1) eq \"nn\" ? $4 : 1/0) with lines title 'nn theory'\n"))


def run_kernel_eval(args: argparse.Namespace) -> int:
    """Evaluate the kernel on point pairs read from stdin, one pair per line.

    Line numbers and coordinates are parsed into flat arrays, 8 (2d + 1) bytes a pair,
    READ_CHUNK lines at a time: by one np.loadtxt call when it gives a row of 2d reals for
    every line, else line by line by float(), which also takes what loadtxt rejects (1_0,
    non-ASCII digits) and names a bad token; where both parse, the values are equal.
    Every valid pair is evaluated before a row is written: a malformed line or one with a
    non-finite coordinate is reported by its number and gets no row, a kernel error (such
    as an unsupported alpha) is reported once, with no rows written.
    """
    d = args.dim
    spec = KernelSpec(args.alpha, d, args.radius)
    linenos, coords = array("q"), array("d")
    errors = []  # (line number, message)
    stdin, first = iter(sys.stdin), 1
    while chunk := list(islice(stdin, READ_CHUNK)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a chunk of blank lines has no data
                parsed = np.loadtxt(chunk, ndmin=2, comments=None)
        except ValueError:
            parsed = None
        if parsed is not None and parsed.shape == (len(chunk), 2 * d):  # blank lines are skipped
            linenos.extend(range(first, first + len(chunk)))
            coords.frombytes(memoryview(parsed).cast("B"))
        else:
            for lineno, line in enumerate(chunk, start=first):
                toks = line.split()
                if not toks:
                    continue
                try:
                    values = list(map(float, toks))  # a list, so a bad token adds nothing to coords
                    if len(values) != 2 * d:
                        raise ValueError(f"expected {2 * d} reals, got {len(values)}")
                except ValueError as exc:
                    errors.append((lineno, str(exc)))
                    continue
                linenos.append(lineno)
                coords.extend(values)
        first += len(chunk)
    lines = np.frombuffer(linenos, dtype=np.int64)
    P = np.frombuffer(coords).reshape(len(lines), 2 * d)
    finite = np.isfinite(P).all(axis=1)  # one pass over every pair, after parsing
    if not finite.all():  # the only copy of the pairs
        errors += [(int(lines[i]), "non-finite coordinate") for i in np.flatnonzero(~finite)]
        lines, P = lines[finite], P[finite]
    for lineno, message in sorted(errors):
        print(f"line {lineno}: {message}", file=sys.stderr)
    n_bad = len(errors)
    try:
        text = _columns(lines, kernel_pairs(P[:, :d], P[:, d:], spec, args.kernel))
    except ValueError as exc:
        print(f"kernel-eval: {exc}", file=sys.stderr)
        text, n_bad = (), n_bad + 1
    metadata = [("experiment", "kernel-eval"), ("alpha", args.alpha), ("dim", d),
                ("radius", args.radius), ("kernel", args.kernel)]
    _write_csv(args.out, metadata, ["line", "value"], text)
    return 1 if n_bad else 0


def run_feature_sample(args: argparse.Namespace) -> None:
    """Emit sampled feature parameters for scripting."""
    d, m = args.dim, args.m
    spec = KernelSpec(0, d, args.radius)
    stream = RngStream(derive_seed(args.seed, "feature-sample", args.kind))
    if args.kind == "nn":
        ens = sample_nn_ensemble(spec, m, stream)
        header = ["index", "bias"] + [f"w{i+1}" for i in range(d)]
        values, vectors = ens.biases, ens.directions
    else:
        ens = sample_fourier_ensemble(spec, m, stream)
        header = ["index", "tau"] + [f"omega{i+1}" for i in range(d)]
        values, vectors = ens.taus, ens.omegas  # omegas is formed anew at each access
    metadata = [("experiment", "feature-sample"), ("kind", args.kind), ("dim", d),
                ("radius", args.radius), ("m", m), ("seed", args.seed)]
    _write_csv(args.out, metadata, header, _columns(np.arange(m), values, *vectors.T))


# experiment: (runner, default --out, {flag it reads: its default here, None for the parser's}).
# Every experiment also reads --out.  An int default for --m means one feature
# count, a tuple means a strictly increasing grid.
EXPERIMENTS = {
    "fig1": (run_fig1, "fig1.csv", {"radius": None, "n": 10, "m": 200, "reps": 4,
                                    "seed": None, "gnuplot": None}),
    "fig2": (run_fig2, "fig2.csv", {"radius": None, "n": 20,
                                    "m": (32, 64, 128, 256, 512, 1024, 2048), "reps": 20,
                                    "seed": None, "gnuplot": None}),
    "fig3": (run_fig3, "fig3.csv", {"n": 4096, "lambda": None, "seed": None, "gnuplot": None}),
    "kernel-eval": (run_kernel_eval, "-", {"alpha": None, "dim": None, "radius": None,
                                           "kernel": None}),
    "feature-sample": (run_feature_sample, "-", {"dim": None, "radius": None, "m": 8,
                                                 "kind": None, "seed": None}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinerf-bench",
        description="Spline-kernel benchmark harness; emits CSV (see README).")
    parser.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    parser.add_argument("--alpha", type=int, default=0)
    parser.add_argument("--dim", type=int, default=1)
    parser.add_argument("--radius", type=float, default=1.0)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--m", type=int, action="append", default=None,
                        help="feature count; repeat the flag for fig2's m-grid")
    parser.add_argument("--lambda", type=float, default=1e-3)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output CSV path ('-' for stdout)")
    parser.add_argument("--gnuplot", action="store_true",
                        help="also write a companion gnuplot script")
    parser.add_argument("--kind", choices=("nn", "fourier"), default="nn",
                        help="feature family for feature-sample")
    parser.add_argument("--kernel", choices=KERNEL_KINDS, default="nn",
                        help="kernel flavour for kernel-eval")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    run, out, reads = EXPERIMENTS[args.experiment]
    for flag, value in vars(args).items():
        default = parser.get_default(flag)
        if flag not in reads and flag not in ("experiment", "out") and value != default:
            parser.error(f"{args.experiment} only supports --{flag} "
                         f"{'unset' if default is None else default}, got {value}")
    if args.m is not None and isinstance(reads["m"], int):
        if len(args.m) > 1:
            parser.error(f"{args.experiment} takes one --m, got {' '.join(map(str, args.m))}")
        args.m = args.m[0]
    elif args.m is not None and any(b <= a for a, b in zip(args.m, args.m[1:])):
        parser.error(f"--m grid must be strictly increasing, got {' '.join(map(str, args.m))}")
    for flag in ("n", "m", "reps"):
        value = getattr(args, flag)
        if value is not None and np.min(value) < 1:
            parser.error(f"--{flag} must be >= 1, got {' '.join(map(str, np.ravel(value)))}")
    for flag, default in reads.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    args.out = out if args.out is None else args.out
    if args.gnuplot and args.out == "-":
        parser.error("--gnuplot writes its script next to the CSV, so it needs --out FILE")
    try:
        return run(args) or 0
    except OSError as exc:
        print(f"cannot write {args.out!r}: {exc}", file=sys.stderr)
    except (ValueError, SamplerError) as exc:
        print(f"{args.experiment}: {exc}", file=sys.stderr)
    return 1
