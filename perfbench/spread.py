"""Repeat the benchmark over seeds and report each metric's median and quartile spread.

    python3 perfbench/spread.py --workloads rf-figures spline-d3 --seeds 1 2 3 4 5
                                [--seconds 30] [--trace] [--append FILE]

Each (workload, seed) is one call of run.py, made one after another.  The
spread is (Q3 - Q1) / median with the quartiles of statistics.quantiles(n=4);
compare it with the metric's bound in BENCHMARK.json.  --append adds the
per-run results and the summary as one point to a JSON list, such as
perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summarize(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--append", type=Path, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs, summary = [], {}
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "1" if args.trace else "0"]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
            runs.append({"workload": workload, "seed": seed, **result})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary[workload] = {name: summarize(v) for name, v in values.items()}
        for name, s in summary[workload].items():
            if "spread" not in s:
                continue
            bound = bounds.get(name)
            verdict = ("below a third of it" if s["spread"] <= bound / 3 else
                       "within it" if s["spread"] <= bound else "WIDER") if bound else ""
            flag = f"  bound {bound}, {verdict}" if bound else ""
            print(f"  {workload:<14} {name:<30} median {s['median']:.6g}"
                  f"  spread {s['spread']:.4f}{flag}", flush=True)
    if args.append is not None:
        points = json.loads(args.append.read_text()) if args.append.exists() else []
        points.append({"commit": env.get("commit"), "env": env,
                       "trace": args.trace, "seconds": seconds, "seeds": args.seeds,
                       "summary": summary, "runs": runs})
        args.append.write_text(json.dumps(points, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
