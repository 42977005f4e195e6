"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/record.py [--seeds 0-9] [--workload NAME ...]
        [--trace-seed N] [--out perfbench/results/BENCH_<n>.json]

For each workload this runs `run.py --trace 0` once per seed, one run at a
time, and reports for every end-to-end metric the median over seeds and
the spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median. With
--trace-seed it then adds one `--trace 1` run per workload and records
its per-layer metrics. `run_seconds` and the bounds come from
BENCHMARK.json at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float | None:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def run_bench(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict | None]:
    """(result, environment) of one run.py invocation; exits on a crash."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["elapsed_s"] = time.monotonic() - t0
    env = next((json.loads(ln[len("# environment "):]) for ln in lines
                if ln.startswith("# environment ")), None)
    return result, env


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seconds = bench["run_seconds"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"run_seconds": seconds, "workloads": {}}
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            result, env = run_bench(name, seed, seconds, 0)
            report["environment"] = env
            runs.append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"({result['elapsed_s']:.1f} s) " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            s = spread(values)
            summary[metric] = {
                "median": statistics.median(values),
                "unit": runs[0]["metrics"][metric]["unit"],
                "spread": s,
                "bound": bound,
            }
            verdict = "" if s is None else ("  below bound/3" if s < bound / 3 else
                                            "  below bound" if s <= bound else "  OVER BOUND")
            print(f"  {metric}: median {summary[metric]['median']:.6g} spread "
                  f"{'n/a' if s is None else f'{s:.4f}'} bound {bound}{verdict}", flush=True)
        entry = {"all_correct": all(r["correct"] for r in runs), "summary": summary, "runs": runs}
        if args.trace_seed is not None:
            traced, _ = run_bench(name, args.trace_seed, seconds, 1)
            entry["traced"] = traced
            print(f"  traced seed {args.trace_seed}: correct={traced['correct']}", flush=True)
        report["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
