"""splinerf benchmark: one workload per call, each stage in a fresh process.

    python3 perfbench/run.py --workload {rf-figures,fig3-leverage,spline-d3}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its src/.
Every process gets the BLAS thread count fixed to nproc, the default users get.
The load is a closed loop: one client, sequential iterations, no concurrency.

--trace 0 prints the end-to-end metrics: set-up time (median of several fresh
processes), median wall and CPU time per iteration, and peak RSS.  --trace 1
prints the per-layer metrics from a traced run, plus the wall time of one
iteration with a single BLAS thread.  Human-readable lines come first, and the
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rf-figures", "fig3-leverage", "spline-d3")
SETUP_PROBES = 4  # extra set-up-only processes; the measuring process adds one more sample
TIME_LIMIT = 170.0  # seconds for the whole call, started processes included


class WorkerError(RuntimeError):
    pass


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _worker(mode, args, deadline, threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} process passed the {TIME_LIMIT:.0f} s limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"{mode} process printed no result:\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _show(name, values, unit, note=""):
    if isinstance(values, list):
        text = (f"{statistics.median(values):.6g} {unit}  median of n={len(values)}"
                f" (min {min(values):.6g}, max {max(values):.6g})")
    else:
        text = f"{values:.6g} {unit}"
    print(f"  {name:<30} {text}{note}")


def end_to_end(args, deadline, nproc):
    setups = [_worker("setup", args, deadline, nproc)["setup_s"] for _ in range(SETUP_PROBES)]
    res = _worker("measure", args, deadline, nproc)
    setups.append(res["setup_s"])
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(res["wall_s"]), "s"),
        "cpu_s": _metric(statistics.median(res["cpu_s"]), "s"),
        "peak_rss_mib": _metric(res["peak_rss_mib"], "MiB"),
    }
    _show("setup_s", setups, "s")
    _show("wall_s", res["wall_s"], "s")
    _show("cpu_s", res["cpu_s"], "s")
    _show("peak_rss_mib", res["peak_rss_mib"], "MiB", "  (peak of the measuring process)")
    _show("error_rate", res["failed"] / max(res["attempted"], 1), "",
          f"  ({res['failed']} of {res['attempted']} operations failed)")
    if res["kernel_eval_s"]:
        rates = [res["pairs"] / t for t in res["kernel_eval_s"]]
        _show("pairs_per_s", rates, "1/s", f"  ({res['pairs']} kernel-eval pairs per iteration)")
    return res, metrics


def per_layer(args, deadline, nproc):
    res = _worker("trace", args, deadline, nproc)
    single = _worker("single", args, deadline, 1)
    traced = res["traced"]

    def mean(key):
        return statistics.fmean(t[key] for t in traced)

    def median(key):
        return statistics.median(t[key] for t in traced)

    traced_wall, untraced_wall = mean("wall_s"), statistics.fmean(res["untraced_wall_s"])
    self_s = {f"{layer}.self_s": mean(f"{layer}.self_s")
              for layer in ("sampling", "kernels", "features", "regression", "leverage", "cli",
                            "bench")}
    metrics = {name: _metric(value, "s") for name, value in self_s.items()}
    counts = {"sampling.draws": "count", "kernels.entries": "count", "features.flops": "flop",
              "regression.factor_flops": "flop", "regression.jitter_escalations": "count",
              "leverage.scores": "count"}
    metrics.update({name: _metric(median(name), unit) for name, unit in counts.items()})
    kernel_s = self_s["kernels.self_s"]
    rate = median("kernels.entries") / kernel_s if kernel_s > 0 else 0.0
    pairs = [res["pairs"] / t for t in res["kernel_eval_s"]]
    metrics.update({
        "kernels.entries_per_s": _metric(rate, "1/s"),
        "kernels.pol_s": _metric(res["probes"]["kernels.pol_s"], "s"),
        "kernels.dist_s": _metric(res["probes"]["kernels.dist_s"], "s"),
        "kernels.temp_ratio": _metric(res["probes"]["kernels.temp_ratio"], "ratio"),
        "regression.max_residual": _metric(max(t["regression.max_residual"] for t in traced), "abs"),
        "leverage.score_ms_p50": _metric(median("leverage.score_ms_p50"), "ms"),
        "cli.pairs_per_s": _metric(statistics.median(pairs) if pairs else 0.0, "1/s"),
        "cli.csv_sha256": _metric(int(res["digests"]["all"][:13], 16), "sha256-52bit"),
        "trace.wall_s": _metric(traced_wall, "s"),
        "trace.overhead_s": _metric(traced_wall - untraced_wall, "s"),
        "blas1.wall_s": _metric(single["wall_s"], "s"),
    })
    print(f"  traced iterations: {len(traced)}; per-layer values are per-iteration means,"
          " counts are computed from shapes and repeat exactly")
    for name, m in metrics.items():
        _show(name, m["value"], m["unit"])
    print(f"  accounting: sum of self times {sum(self_s.values()):.6g} s = traced wall"
          f" {traced_wall:.6g} s = untraced wall {untraced_wall:.6g} s"
          f" + overhead {traced_wall - untraced_wall:.6g} s")
    for name, digest in res["digests"].items():
        print(f"  sha256 {name} (seed 0, {nproc} BLAS threads): {digest}")
    if res["missing"] or res["counter_errors"]:
        print(f"  untraced bindings: {res['missing']}; counter errors: {res['counter_errors']}")
    tally = {"attempted": res["attempted"] + single["attempted"],
             "failed": res["failed"] + single["failed"],
             "failures": res["failures"] + single["failures"]}
    return {**res, **tally}, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "splinerf" / "__init__.py").is_file():
        print(f"no splinerf sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    # turn SIGTERM into SystemExit so that a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT
    nproc = len(os.sched_getaffinity(0))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s,"
          f" {'traced' if args.trace else 'untraced'}; closed loop, 1 client")
    try:
        stage = per_layer if args.trace else end_to_end
        res, metrics = stage(args, deadline, nproc)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    env = {**res["env"], "commit": _commit(), "blas_threads_set": nproc}
    print("env " + json.dumps(env, sort_keys=True))
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
