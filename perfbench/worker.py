"""One benchmark process: set up a workload, run it in a closed loop, gate every iteration.

Started by run.py, once per mode, each time as a fresh interpreter:

  setup    import splinerf and make the inputs, then stop (set-up time probe)
  measure  untraced iterations for about --seconds
  trace    a warm-up iteration, untraced and traced iterations in pairs, then
           kernel probes and the CSV digests at the default seed
  single   one untraced iteration (run.py starts it with one BLAS thread)

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIN_ITERATIONS = 2
DEFAULT_SEED = 0


def cpu_seconds():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _openblas_runtime():
    """Config string and thread count of every OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("", "64_"):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    entry.update(config=config().decode(), threads=threads())
        found.append(entry)
    return found


def environment():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": _openblas_runtime(),
            "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


class Runner:
    """Runs iterations of one workload and tallies operations and failures."""

    def __init__(self, workload, inputs, reference):
        self.workload, self.inputs, self.reference = workload, inputs, reference
        self.attempted = 0
        self.failures = []

    def iterate(self, tracer=None):
        """One gated iteration; returns (outcome, wall seconds, CPU seconds)."""
        c0, t0 = cpu_seconds(), time.perf_counter()
        if tracer is None:
            outcome = self.workload.run(self.inputs)
        else:
            tracer.install()
            try:
                with tracer.span("bench", "iteration"):
                    outcome = self.workload.run(self.inputs)
            finally:
                tracer.uninstall()
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        try:
            self.workload.gate(self.inputs, self.reference, outcome)
        except Exception as exc:  # an unreadable output fails the iteration's operations
            for name in outcome.ops:
                outcome.reject(name, f"gate raised {type(exc).__name__}: {exc}")
        self.attempted += len(outcome.ops)
        self.failures.extend(f"{op}: {why}" for op, why in outcome.failed.items())
        return outcome, wall, cpu

    def tally(self):
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:10]}


def _digests(outcome):
    """SHA-256 of each CSV the iteration wrote, and of all of them concatenated."""
    files = {name: Path(path).read_bytes() for name, path in outcome.outputs.items()
             if isinstance(path, Path)}
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    digests["all"] = hashlib.sha256(b"".join(files.values())).hexdigest()
    return digests


def measure(runner, seconds):
    walls, cpus, kernel_eval = [], [], []
    start = time.perf_counter()
    while True:
        outcome, wall, cpu = runner.iterate()
        walls.append(wall)
        cpus.append(cpu)
        if "kernel_eval_s" in outcome.timings:
            kernel_eval.append(outcome.timings["kernel_eval_s"])
        # stop before an iteration that would run past the measuring window
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_ITERATIONS and elapsed + statistics.median(walls) > seconds:
            break
    return {"wall_s": walls, "cpu_s": cpus, "kernel_eval_s": kernel_eval,
            "peak_rss_mib": peak_rss_mib(), **runner.tally()}


def trace(runner, workload, seed, seconds, outdir):
    import tracing

    untraced, traced, kernel_eval = [], [], []
    tracer = None
    # the first iteration in a process runs cold; keep it out of the traced-untraced pairs
    runner.iterate()
    start = time.perf_counter()
    while True:
        outcome, wall, _ = runner.iterate()
        untraced.append(wall)
        kernel_eval.append(outcome.timings.get("kernel_eval_s"))
        tracer = tracing.Tracer()
        _, wall, _ = runner.iterate(tracer)
        traced.append({"wall_s": wall, **tracer.summary()})
        elapsed = time.perf_counter() - start
        pair = statistics.median(untraced) + statistics.median(t["wall_s"] for t in traced)
        if elapsed + pair > seconds:
            break
    probes = tracing.kernel_probes(tracer.largest_kernel_call[1])
    if seed == DEFAULT_SEED:
        digests = _digests(outcome)
    else:
        default_dir = outdir / "default-seed"
        default_dir.mkdir()
        inputs = workload.make_inputs(DEFAULT_SEED, default_dir)
        default = Runner(workload, inputs, workload.reference(inputs))
        outcome, _, _ = default.iterate()
        digests = _digests(outcome)
        runner.attempted += default.attempted
        runner.failures += default.failures
    return {"untraced_wall_s": untraced, "traced": traced, "probes": probes,
            "kernel_eval_s": [t for t in kernel_eval if t is not None],
            "digests": digests, "missing": tracer.missing,
            "counter_errors": sorted(tracer.counter_errors), **runner.tally()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "single"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import splinerf

    if SRC.resolve() not in Path(splinerf.__file__).resolve().parents:
        print(f"splinerf imported from {splinerf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    outdir = ROOT / ".perfbench_out" / f"{args.workload}-{args.mode}-{os.getpid()}"
    outdir.mkdir(parents=True)
    try:
        inputs = workload.make_inputs(args.seed, outdir)
        result = {"ready": time.monotonic()}
        if args.mode != "setup":
            runner = Runner(workload, inputs, workload.reference(inputs))
            if args.mode == "measure":
                result.update(measure(runner, args.seconds))
            elif args.mode == "trace":
                result.update(trace(runner, workload, args.seed, args.seconds, outdir))
            else:
                _, wall, _ = runner.iterate()
                result.update(wall_s=wall, **runner.tally())
            result["pairs"] = len(inputs.get("pairs", ()))
            result["env"] = environment()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
