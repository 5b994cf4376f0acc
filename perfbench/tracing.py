"""Per-layer spans for traced runs, recorded from the benchmark's side only.

The layers are the package modules.  A span is opened around every call one
module makes into another, by replacing the public function in the namespace
of the module that calls it (``splinerf.cli.approx_kernel``,
``splinerf.leverage.kernel_matrix``, ...), plus ``GridLeverageEstimator.score``
and the package-level names the workloads call.  A layer's self time is its
spans' time minus the time of the spans they contain; the ``bench`` span is
the iteration itself, so all self times add up to the traced wall time.

Work counts are computed from argument and result shapes at the same
boundaries and repeat exactly from run to run.
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import splinerf.kernels
import splinerf.regression

LAYERS = ("sampling", "kernels", "features", "regression", "leverage", "cli")


def _count_kernel_matrix(tr, result, args, kwargs):
    Xa, Xb, spec = args[:3]
    kind = kwargs.get("kind", args[3] if len(args) > 3 else "nn")
    tr.count_kernel_call(result, ("kernel_matrix", Xa, Xb, spec, kind))


def _count_distance_matrix(tr, result, args, kwargs):
    Xa, Xb, spec = args[:3]
    tr.count_kernel_call(result, ("distance_kernel_matrix", Xa, Xb, spec, None))


def _count_scalar_kernel(tr, result, args, kwargs):
    tr.counts["kernels.entries"] += 1


def _feature_columns(ensemble):
    kind = getattr(ensemble, "kind", type(ensemble).__name__).lower()
    return 2 * ensemble.m if "fourier" in kind else ensemble.m


def _count_approx_kernel(tr, result, args, kwargs):
    ens = args[2]
    na, nb = result.shape
    # projections X @ W^T (m parameters) for both sides, then the Gram product of the feature rows
    tr.counts["features.flops"] += (2 * (na + nb) * ens.spec.d * ens.m
                                    + 2 * na * nb * _feature_columns(ens))


def _count_features(tr, result, args, kwargs):
    ens = args[1]
    tr.counts["features.flops"] += 2 * result.values.shape[0] * ens.spec.d * ens.m


def _count_draws(tr, result, args, kwargs):
    tr.counts["sampling.draws"] += len(result)


def _count_fit(tr, result, args, kwargs, extra_rows=0):
    n = result.X.shape[0] + extra_rows
    tr.counts["regression.factor_flops"] += n ** 3 / 3.0
    cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
    extra = result.jitter_used - (cfg.jitter if cfg is not None else 0.0)
    if extra > 0:
        ladder = getattr(splinerf.regression, "JITTER_LADDER", ())
        tr.counts["regression.jitter_escalations"] += max(1, sum(
            rung <= extra * (1 + 1e-9) for rung in ladder))
    tr.max_residual = max(tr.max_residual, float(result.residual))


def _count_constrained_fit(tr, result, args, kwargs):
    # the saddle system has the polynomial block appended to the n x n kernel block
    _count_fit(tr, result, args, kwargs, extra_rows=result.poly_coeffs.size)


def _count_score(tr, result, args, kwargs):
    tr.counts["leverage.scores"] += 1


# (module that calls, name it binds, layer of the callee, work counter)
BINDINGS = (
    ("splinerf.cli", "main", "cli", None),
    ("splinerf.cli", "derive_seed", "sampling", None),
    ("splinerf.cli", "sample_nn_params", "sampling", _count_draws),
    ("splinerf.cli", "sample_fourier_frequencies", "sampling", _count_draws),
    ("splinerf.cli", "kernel_matrix", "kernels", _count_kernel_matrix),
    ("splinerf.cli", "kd", "kernels", _count_scalar_kernel),
    ("splinerf.cli", "kd_pol", "kernels", _count_scalar_kernel),
    ("splinerf.cli", "arccos_kernel", "kernels", _count_scalar_kernel),
    ("splinerf.cli", "approx_kernel", "features", _count_approx_kernel),
    ("splinerf.cli", "sample_nn_ensemble", "features", None),
    ("splinerf.cli", "sample_fourier_ensemble", "features", None),
    ("splinerf.cli", "fit_dual", "regression", _count_fit),
    ("splinerf.cli", "fit_primal", "regression", _count_fit),
    ("splinerf.cli", "predict", "regression", None),
    ("splinerf.cli", "GridLeverageEstimator", "leverage", None),
    ("splinerf.cli", "nn_profile", "leverage", None),
    ("splinerf.cli", "fourier_profiles", "leverage", None),
    ("splinerf.features", "sample_nn_params", "sampling", _count_draws),
    ("splinerf.features", "sample_fourier_frequencies", "sampling", _count_draws),
    ("splinerf.regression", "features", "features", _count_features),
    ("splinerf.regression", "kernel_matrix", "kernels", _count_kernel_matrix),
    ("splinerf.regression", "distance_kernel_matrix", "kernels", _count_distance_matrix),
    ("splinerf.leverage", "kernel_matrix", "kernels", _count_kernel_matrix),
    ("splinerf.leverage.GridLeverageEstimator", "score", "leverage", _count_score),
    # names the workloads themselves call through the package
    ("splinerf", "fit_dual", "regression", _count_fit),
    ("splinerf", "fit_constrained_spline", "regression", _count_constrained_fit),
    ("splinerf", "predict", "regression", None),
)


def _resolve(path):
    module, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), attr, None)


class Tracer:
    """Spans and counts of one traced iteration; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []  # (layer, name, start, end, parent index)
        self.counts = defaultdict(float)
        self.max_residual = 0.0
        self.largest_kernel_call = (0, None)
        self.missing = []
        self.counter_errors = set()
        self._stack = []
        self._patches = []

    def count_kernel_call(self, result, call):
        size = np.asarray(result).size
        self.counts["kernels.entries"] += size
        if size > self.largest_kernel_call[0]:
            self.largest_kernel_call = (size, call)

    def _wrap(self, layer, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(layer, name):
                result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    counter(tracer, result, args, kwargs)
                except Exception as exc:  # a count the benchmark cannot read must not fail the run
                    tracer.counter_errors.add(f"{name}: {exc!r}")
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, layer, name):
        return _Span(self, layer, name)

    def install(self):
        for owner_path, attr, layer, counter in BINDINGS:
            owner = _resolve(owner_path)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(layer, f"{owner_path}.{attr}", fn, counter))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Per-layer self time and counts of this iteration."""
        child = [0.0] * len(self.spans)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS + ("bench",)}
        score_ms = []
        for (layer, name, start, end, parent), inner in zip(self.spans, child):
            out[f"{layer}.self_s"] += end - start - inner
            if name.endswith(".score"):
                score_ms.append(1e3 * (end - start))
        for key in ("sampling.draws", "kernels.entries", "features.flops",
                    "regression.factor_flops", "regression.jitter_escalations",
                    "leverage.scores"):
            out[key] = self.counts[key]
        out["regression.max_residual"] = self.max_residual
        out["leverage.score_ms_p50"] = statistics.median(score_ms) if score_ms else 0.0
        return out


class _Span:
    __slots__ = ("tracer", "layer", "name", "index", "parent", "start")

    def __init__(self, tracer, layer, name):
        self.tracer, self.layer, self.name = tracer, layer, name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        self.tracer._stack.pop()
        self.tracer.spans[self.index] = (self.layer, self.name, self.start, end, self.parent)
        return False


def _median_time(fn, min_total=0.3, max_reps=50):
    times = []
    while len(times) < 3 or (sum(times) < min_total and len(times) < max_reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_probes(call):
    """Split and memory probes on the largest kernel call of a traced iteration.

    pol_s and dist_s time kernel_matrix(kind="pol_only") and
    distance_kernel_matrix on its inputs; temp_ratio is the tracemalloc peak
    inside the call divided by the bytes of its output.
    """
    if call is None:
        return {"kernels.pol_s": 0.0, "kernels.dist_s": 0.0, "kernels.temp_ratio": 0.0}
    fname, Xa, Xb, spec, kind = call
    kernels = splinerf.kernels
    fn = getattr(kernels, fname)
    kw = {"kind": kind} if kind is not None else {}
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out_bytes = np.asarray(fn(Xa, Xb, spec, **kw)).nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "kernels.pol_s": _median_time(lambda: kernels.kernel_matrix(Xa, Xb, spec, kind="pol_only")),
        "kernels.dist_s": _median_time(lambda: kernels.distance_kernel_matrix(Xa, Xb, spec)),
        "kernels.temp_ratio": peak / out_bytes,
    }
