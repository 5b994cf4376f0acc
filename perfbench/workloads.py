"""The benchmark workloads: inputs made from a seed, one iteration, a correctness gate.

Each iteration is a fixed list of named operations.  An operation fails when
it raises, when the CLI exits non-zero, or when the gate rejects its output;
the gate compares against references the package did not produce (see
reference.py) or, for fig2, checks the passing clause of acceptance
criterion 09.
"""

from __future__ import annotations

import csv
import io
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import reference
import splinerf
import splinerf.cli


@dataclass
class Outcome:
    """What one iteration did: operations run, failures, outputs and sub-timings."""

    ops: list = field(default_factory=list)
    failed: dict = field(default_factory=dict)  # op name -> reason
    outputs: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def call(self, name, fn, *args, **kwargs):
        self.ops.append(name)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted, none aborts the run
            self.failed[name] = f"raised {type(exc).__name__}: {exc}"
            return None

    def cli(self, name, argv):
        code = self.call(name, splinerf.cli.main, argv)
        if code not in (0, None):
            self.failed.setdefault(name, f"exited {code}")

    def reject(self, name, reason):
        self.failed.setdefault(name, reason)


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


class RfFigures:
    """fig1 then fig2 through the CLI at default settings."""

    name = "rf-figures"

    def make_inputs(self, seed, outdir):
        return {"seed": seed, "fig1": outdir / "fig1.csv", "fig2": outdir / "fig2.csv"}

    def reference(self, inputs):
        return None

    def run(self, inputs):
        out = Outcome()
        for fig in ("fig1", "fig2"):
            out.cli(fig, ["--experiment", fig, "--seed", str(inputs["seed"]),
                          "--out", str(inputs[fig])])
            out.outputs[fig] = inputs[fig]
        return out

    def gate(self, inputs, ref, out):
        if "fig1" not in out.failed:
            _, rows = _read_csv(inputs["fig1"])
            methods = {}
            for row in rows:
                methods.setdefault(row[1], []).append(float(row[3]))
            if set(methods) != {"nn", "fourier", "exact"} or not all(
                    np.all(np.isfinite(v)) for v in methods.values()):
                out.reject("fig1", "curves missing or not finite")
        if "fig2" not in out.failed:
            _, rows = _read_csv(inputs["fig2"])
            ms = sorted({int(r[0]) for r in rows})
            med = {method: np.array([np.median([float(r[3]) for r in rows
                                                if int(r[0]) == m and r[2] == method])
                                     for m in ms])
                   for method in ("nn", "fourier")}
            if not np.all(med["nn"] < med["fourier"]):
                out.reject("fig2", f"nn median not below fourier: {med['nn']} {med['fourier']}")
            elif not np.all(np.diff(med["nn"]) < 0):
                out.reject("fig2", f"nn medians not decreasing: {med['nn']}")


class Fig3Leverage:
    """fig3 through the CLI at defaults: n = 4096 grid, lambda = 1e-3."""

    name = "fig3-leverage"
    LAM = 1e-3
    TOLERANCE = 0.05  # acceptance criterion 07

    def make_inputs(self, seed, outdir):
        return {"seed": seed, "fig3": outdir / "fig3.csv"}

    def reference(self, inputs):
        b = np.linspace(-1.0, 1.0, 201)
        omega = np.linspace(0.0, 50.0, 201)

        def columns(x):
            phase = x[:, None] * omega[None, :]
            return np.hstack([(x[:, None] > b[None, :]).astype(float),
                              np.cos(phase), np.sin(phase)])

        scores = reference.leverage_operator_scores(columns, self.LAM)
        k = b.size
        return {"nn": (b, scores[:k]), "fourier-cos": (omega, scores[k:2 * k]),
                "fourier-sin": (omega, scores[2 * k:])}

    def run(self, inputs):
        out = Outcome()
        out.cli("fig3", ["--experiment", "fig3", "--seed", str(inputs["seed"]),
                         "--out", str(inputs["fig3"])])
        out.outputs["fig3"] = inputs["fig3"]
        return out

    def gate(self, inputs, ref, out):
        if "fig3" in out.failed:
            return
        _, rows = _read_csv(inputs["fig3"])
        for method, (params, expected) in ref.items():
            got = np.array([[float(v) for v in r[1:4]] for r in rows if r[0] == method])
            if got.shape != (params.size, 3) or not np.allclose(got[:, 0], params, rtol=0, atol=1e-12):
                out.reject("fig3", f"{method}: parameter grid differs")
                return
            scale = expected.max()
            for col, label in ((1, "empirical"), (2, "theoretical")):
                rel = np.max(np.abs(got[:, col] - expected)) / scale
                if not rel <= self.TOLERANCE:
                    out.reject("fig3", f"{method} {label} off the operator reference by {rel:.3g}")


class SplineD3:
    """Library fits at alpha = 3, d = 3, then kernel-eval of point pairs on stdin."""

    name = "spline-d3"
    SPEC = dict(alpha=3, d=3, R=1.0)
    N_TRAIN, N_TEST, N_PAIRS, N_GRAM = 2000, 4000, 20000, 64
    MU = 1e-3
    RTOL = 1e-12

    @staticmethod
    def _ball(rng, n, d, R):
        g = rng.standard_normal((n, d))
        g /= np.linalg.norm(g, axis=1)[:, None]
        return R * g * rng.uniform(0.0, 1.0, n)[:, None] ** (1.0 / d)

    def make_inputs(self, seed, outdir):
        d, R = self.SPEC["d"], self.SPEC["R"]
        rng = np.random.default_rng(seed)
        X = self._ball(rng, self.N_TRAIN, d, R)
        y = np.sin(3.0 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.standard_normal(self.N_TRAIN)
        pairs = np.hstack([self._ball(rng, self.N_PAIRS, d, R), self._ball(rng, self.N_PAIRS, d, R)])
        stdin = "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in pairs)
        return {"spec": splinerf.KernelSpec(**self.SPEC), "X": X, "y": y,
                "X_test": self._ball(rng, self.N_TEST, d, R), "pairs": pairs,
                "stdin": stdin, "kernel_eval": outdir / "kernel-eval.csv"}

    def reference(self, inputs):
        a, d, R = self.SPEC["alpha"], self.SPEC["d"], self.SPEC["R"]
        pairs = inputs["pairs"]
        G = inputs["X"][:self.N_GRAM]
        rows = np.repeat(G, self.N_GRAM, axis=0)
        cols = np.tile(G, (self.N_GRAM, 1))
        return {"pairs": sum(reference.spline_kernel_terms(pairs[:, :d], pairs[:, d:], a, R)),
                "gram": sum(reference.spline_kernel_terms(rows, cols, a, R)).reshape(self.N_GRAM, -1)}

    def run(self, inputs):
        out = Outcome()
        spec, X, y, X_test = inputs["spec"], inputs["X"], inputs["y"], inputs["X_test"]
        dual = out.call("fit_dual", splinerf.fit_dual, X, y, spec,
                        splinerf.FitConfig(mode="ridge", mu=self.MU))
        if dual is not None:
            out.outputs["predict_dual"] = out.call("predict_dual", splinerf.predict, dual, X_test)
        spline = out.call("fit_constrained", splinerf.fit_constrained_spline, X, y, spec,
                          splinerf.FitConfig(mode="constrained_spline", mu=self.MU))
        if spline is not None:
            out.outputs["predict_constrained"] = out.call(
                "predict_constrained", splinerf.predict, spline, X_test)
        saved = sys.stdin
        start = time.perf_counter()
        try:
            sys.stdin = io.StringIO(inputs["stdin"])
            out.cli("kernel-eval", ["--experiment", "kernel-eval", "--alpha", str(spec.alpha),
                                    "--dim", str(spec.d), "--radius", repr(spec.R),
                                    "--out", str(inputs["kernel_eval"])])
        finally:
            sys.stdin = saved
        out.timings["kernel_eval_s"] = time.perf_counter() - start
        out.outputs["kernel-eval"] = inputs["kernel_eval"]
        return out

    def _close(self, got, expected):
        return got.shape == expected.shape and np.all(
            np.abs(got - expected) <= self.RTOL * np.abs(expected))

    def gate(self, inputs, ref, out):
        for name in ("predict_dual", "predict_constrained"):
            values = out.outputs.get(name)
            if name not in out.failed and values is not None and not np.all(np.isfinite(values)):
                out.reject(name, "non-finite predictions")
        G = inputs["X"][:self.N_GRAM]
        if not self._close(splinerf.kernel_matrix(G, G, inputs["spec"]), ref["gram"]):
            out.reject("fit_dual", "Gram entries differ from the reference kernel")
        if "kernel-eval" not in out.failed:
            header, rows = _read_csv(inputs["kernel_eval"])
            lines = np.array([int(r[0]) for r in rows])
            values = np.array([float(r[1]) for r in rows])
            if not np.array_equal(lines, np.arange(1, len(ref["pairs"]) + 1)):
                out.reject("kernel-eval", "output lines do not match the input pairs")
            elif not self._close(values, ref["pairs"]):
                out.reject("kernel-eval", "values differ from the reference kernel")


WORKLOADS = {wl.name: wl for wl in (RfFigures(), Fig3Leverage(), SplineD3())}
