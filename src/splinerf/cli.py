"""Benchmark CLI: kernel evaluation, feature sampling and figure reproductions.

Every experiment is deterministic in (config, seed): cell-level streams are
derived by hashing the seed with the cell labels, and CSV output is
byte-identical across reruns.  Numbers are serialized with 17 significant
digits; metadata lines are '#'-prefixed and precede the header row.
"""

from __future__ import annotations

import argparse
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .features import sample_fourier_ensemble, sample_nn_ensemble
from .kernels import KernelSpec, kernel_pairs
from .leverage import GridLeverageEstimator, fourier_profiles, nn_profile
from .regression import FitConfig, fit_dual, fit_primal, predict
from .sampling import RngStream, derive_seed, sample_fourier_frequencies, sample_nn_params

__all__ = ["ExperimentConfig", "main"]

EXPERIMENTS = ("fig1", "fig2", "fig3", "kernel-eval", "feature-sample")
DEFAULT_LAMBDA = 1e-3
# Flags an experiment is built for or never reads, with the one value it accepts (None: unset).
FIXED_FLAGS = {
    "fig1": {"dim": 1, "lambda": DEFAULT_LAMBDA},
    "fig2": {"dim": 1, "lambda": DEFAULT_LAMBDA},
    "fig3": {"alpha": 0, "dim": 1, "radius": 1.0, "m": None, "reps": None},
    "feature-sample": {"alpha": 0},
}
INVERSION_JITTER = 1e-10
# Largest training residual an interpolating fig1 fit may leave without a stderr report.
FIG1_RESIDUAL_TOL = 1e-6
GRID_POINTS = 512


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    alpha: int = 0
    d: int = 1
    R: float = 1.0
    n: int | None = None
    m_grid: tuple = ()
    lam: float = DEFAULT_LAMBDA
    reps: int | None = None
    seed: int = 0
    out: str = ""
    gnuplot: bool = False
    kind: str = "nn"
    kernel: str = "nn"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.reps is not None and self.reps < 1:
            raise ValueError("reps must be >= 1")
        if any(b <= a for a, b in zip(self.m_grid, self.m_grid[1:])):
            raise ValueError("m grid must be strictly increasing")


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _write_csv(out: str, metadata, header, rows) -> None:
    lines = [f"# {key}={_fmt(val)}" for key, val in metadata]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _write_gnuplot(cfg: ExperimentConfig, script: str) -> None:
    if not cfg.gnuplot or cfg.out == "-":
        return
    path = cfg.out.rsplit(".", 1)[0] + ".gp"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(script)


def _refined_grid(R: float, train: np.ndarray, n_grid: int = GRID_POINTS) -> np.ndarray:
    """Uniform grid with the nearest node to each training point replaced by it."""
    grid = np.linspace(-R, R, n_grid)
    taken: set[int] = set()
    for xt in np.sort(train.ravel()):
        idx = int(np.argmin(np.abs(grid - xt)))
        for offset in range(n_grid):
            for cand in (idx - offset, idx + offset):
                if 0 <= cand < n_grid and cand not in taken:
                    grid[cand] = xt
                    taken.add(cand)
                    break
            else:
                continue
            break
    return np.sort(grid)


def run_fig1(cfg: ExperimentConfig) -> None:
    """Minimum-norm interpolation curves: exact kernel vs both feature maps."""
    spec = KernelSpec(cfg.alpha, 1, cfg.R)
    n = cfg.n if cfg.n is not None else 10
    m = cfg.m_grid[0] if cfg.m_grid else 200
    draws = cfg.reps if cfg.reps is not None else 4
    data_rng = RngStream(derive_seed(cfg.seed, "fig1-data")).generator()
    X = data_rng.uniform(-cfg.R, cfg.R, size=(n, 1))
    y = data_rng.standard_normal(n)
    grid = _refined_grid(cfg.R, X)[:, None]
    # Interpolation fits start at zero jitter; the solver ladder only kicks in
    # when the factorization fails, keeping training residuals ~1e-12.
    fit_cfg = FitConfig(jitter=0.0)
    exact = fit_dual(X, y, spec, fit_cfg)
    exact_curve = predict(exact, grid)
    rows = []
    for draw in range(draws):
        nn_ens = sample_nn_ensemble(spec, m, RngStream(derive_seed(cfg.seed, "fig1-nn", draw)))
        f_ens = sample_fourier_ensemble(spec, m, RngStream(derive_seed(cfg.seed, "fig1-fourier", draw)))
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
    metadata = [("experiment", "fig1"), ("alpha", cfg.alpha), ("radius", cfg.R),
                ("n", n), ("m", m), ("draws", draws), ("seed", cfg.seed),
                ("base_jitter", 0.0)]
    _write_csv(cfg.out, metadata, ["draw", "method", "x", "f"], rows)
    _write_gnuplot(cfg, (
        "set datafile separator ','\n"
        f"plot '{cfg.out}' using 3:(strcol(2) eq \"exact\" ? $4 : 1/0) with lines title 'exact', \\\n"
        f"     '{cfg.out}' using 3:(strcol(2) eq \"nn\" ? $4 : 1/0) title 'nn', \\\n"
        f"     '{cfg.out}' using 3:(strcol(2) eq \"fourier\" ? $4 : 1/0) title 'fourier'\n"))


def run_fig2(cfg: ExperimentConfig) -> None:
    """Label-averaged interpolation error of both feature maps versus m."""
    spec = KernelSpec(cfg.alpha, 1, cfg.R)
    n = cfg.n if cfg.n is not None else 20
    reps = cfg.reps if cfg.reps is not None else 20
    m_grid = cfg.m_grid if cfg.m_grid else (32, 64, 128, 256, 512, 1024, 2048)
    test = np.linspace(-cfg.R, cfg.R, GRID_POINTS)[:, None]
    # The interpolation operator K_test (K + jI)^{-1}, one row per test point, is
    # the prediction at the test points of a fit to the n unit labels.
    labels, fit_cfg = np.eye(n), FitConfig(jitter=INVERSION_JITTER)
    rows = []
    for rep in range(reps):
        data_rng = RngStream(derive_seed(cfg.seed, "fig2-data", rep)).generator()
        X = data_rng.uniform(-cfg.R, cfg.R, size=(n, 1))
        exact = predict(fit_dual(X, labels, spec, fit_cfg), test)
        for m in m_grid:
            nn_ens = sample_nn_ensemble(spec, m, RngStream(derive_seed(cfg.seed, "fig2-nn", rep, m)))
            f_ens = sample_fourier_ensemble(spec, m, RngStream(derive_seed(cfg.seed, "fig2-fourier", rep, m)))
            for method, ens in (("nn", nn_ens), ("fourier", f_ens)):
                approx = predict(fit_primal(X, labels, ens, fit_cfg), test)
                err = float(np.linalg.norm(exact - approx, ord="fro") ** 2)
                rows.append((m, rep, method, err))
    metadata = [("experiment", "fig2"), ("alpha", cfg.alpha), ("radius", cfg.R),
                ("n", n), ("reps", reps), ("m_grid", " ".join(str(m) for m in m_grid)),
                ("test_points", GRID_POINTS), ("seed", cfg.seed),
                ("jitter", INVERSION_JITTER)]
    _write_csv(cfg.out, metadata, ["m", "rep", "method", "error"], rows)
    _write_gnuplot(cfg, (
        "set datafile separator ','\nset logscale xy\n"
        f"plot '{cfg.out}' using 1:(strcol(3) eq \"nn\" ? $4 : 1/0) title 'nn', \\\n"
        f"     '{cfg.out}' using 1:(strcol(3) eq \"fourier\" ? $4 : 1/0) title 'fourier'\n"))


def run_fig3(cfg: ExperimentConfig) -> None:
    """Empirical vs analytic leverage profiles at fixed lambda."""
    n = cfg.n if cfg.n is not None else 4096
    estimator = GridLeverageEstimator(np.linspace(-1.0, 1.0, n), cfg.lam)
    profiles = [nn_profile(cfg.lam, estimator=estimator)]
    profiles.extend(fourier_profiles(cfg.lam, estimator=estimator))
    rows = []
    for prof in profiles:
        for param, emp, theo in zip(prof.params, prof.empirical, prof.analytic):
            rows.append((prof.method, param, emp, theo))
    metadata = [("experiment", "fig3"), ("lambda", cfg.lam), ("n", n),
                ("params_per_method", profiles[0].params.size), ("seed", cfg.seed)]
    _write_csv(cfg.out, metadata, ["method", "param", "empirical", "theoretical"], rows)
    _write_gnuplot(cfg, (
        "set datafile separator ','\n"
        f"plot '{cfg.out}' using 2:(strcol(1) eq \"nn\" ? $3 : 1/0) title 'nn empirical', \\\n"
        f"     '{cfg.out}' using 2:(strcol(1) eq \"nn\" ? $4 : 1/0) with lines title 'nn theory'\n"))


def run_kernel_eval(cfg: ExperimentConfig, stdin=None) -> int:
    """Evaluate the kernel on point pairs read from stdin, one pair per line.

    All lines are parsed first, then the valid pairs are evaluated in one call:
    a malformed line is reported by its number, a kernel error (such as an
    unsupported alpha) once, with no rows written.
    """
    spec = KernelSpec(cfg.alpha, cfg.d, cfg.R)
    stdin = stdin if stdin is not None else sys.stdin
    linenos, pairs = [], array("d")
    n_bad = 0
    for lineno, line in enumerate(stdin, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values = [float(tok) for tok in line.split()]
            if len(values) != 2 * cfg.d:
                raise ValueError(f"expected {2 * cfg.d} reals, got {len(values)}")
        except ValueError as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            n_bad += 1
            continue
        linenos.append(lineno)
        pairs.extend(values)
    P = np.asarray(pairs).reshape(len(linenos), 2 * cfg.d)
    try:
        rows = list(zip(linenos, kernel_pairs(P[:, :cfg.d], P[:, cfg.d:], spec, cfg.kernel)))
    except ValueError as exc:
        print(f"kernel-eval: {exc}", file=sys.stderr)
        rows = []
        n_bad += 1
    metadata = [("experiment", "kernel-eval"), ("alpha", cfg.alpha), ("dim", cfg.d),
                ("radius", cfg.R), ("kernel", cfg.kernel)]
    _write_csv(cfg.out, metadata, ["line", "value"], rows)
    return 1 if n_bad else 0


def run_feature_sample(cfg: ExperimentConfig) -> None:
    """Emit sampled feature parameters for scripting."""
    m = cfg.m_grid[0] if cfg.m_grid else 8
    stream = RngStream(derive_seed(cfg.seed, "feature-sample", cfg.kind))
    rows = []
    if cfg.kind == "nn":
        params = sample_nn_params(cfg.d, cfg.R, m, stream)
        header = ["index", "bias"] + [f"w{i+1}" for i in range(cfg.d)]
        for j in range(m):
            rows.append((j, params.biases[j], *params.directions[j]))
    else:
        freqs = sample_fourier_frequencies(cfg.d, cfg.R, m, stream)
        omegas = freqs.omegas
        header = ["index", "tau"] + [f"omega{i+1}" for i in range(cfg.d)]
        for j in range(m):
            rows.append((j, freqs.taus[j], *omegas[j]))
    metadata = [("experiment", "feature-sample"), ("kind", cfg.kind), ("dim", cfg.d),
                ("radius", cfg.R), ("m", m), ("seed", cfg.seed)]
    _write_csv(cfg.out, metadata, header, rows)


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
                        help="feature count; repeat the flag for an m-grid")
    parser.add_argument("--lambda", type=float, default=DEFAULT_LAMBDA)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="output CSV path ('-' for stdout)")
    parser.add_argument("--gnuplot", action="store_true",
                        help="also write a companion gnuplot script")
    parser.add_argument("--kind", choices=("nn", "fourier"), default="nn",
                        help="feature family for feature-sample")
    parser.add_argument("--kernel", choices=("nn", "arccos", "pol_only"), default="nn",
                        help="kernel flavour for kernel-eval")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = args.out
    if out is None:
        out = "-" if args.experiment in ("kernel-eval", "feature-sample") else f"{args.experiment}.csv"
    for flag, value in FIXED_FLAGS.get(args.experiment, {}).items():
        if getattr(args, flag) != value:
            parser.error(f"{args.experiment} only supports --{flag} "
                         f"{'unset' if value is None else value}, got {getattr(args, flag)}")
    cfg = ExperimentConfig(
        experiment=args.experiment, alpha=args.alpha, d=args.dim, R=args.radius,
        n=args.n, m_grid=tuple(args.m) if args.m else (), lam=getattr(args, "lambda"),
        reps=args.reps, seed=args.seed, out=out, gnuplot=args.gnuplot,
        kind=args.kind, kernel=args.kernel)
    try:
        if cfg.experiment == "fig1":
            run_fig1(cfg)
        elif cfg.experiment == "fig2":
            run_fig2(cfg)
        elif cfg.experiment == "fig3":
            run_fig3(cfg)
        elif cfg.experiment == "kernel-eval":
            return run_kernel_eval(cfg)
        else:
            run_feature_sample(cfg)
    except OSError as exc:
        print(f"cannot write {cfg.out!r}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
