"""Per-layer metrics from the spans of one traced command.

A span is [id, parent, name, pid, start_ns, end_ns, attrs]; a hot entry
(aggregated leaf calls) is [parent, name, calls, total_ns] within the
process that wrote it. A span's self time is its duration minus the part
of it that its child spans cover: the union of its child spans' intervals
(children may run in other processes, such as pool workers) plus the
aggregated hot calls made directly under it in its own process.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

REPRESENTATIONS = ("tabular", "binary", "random-normalized")
VARIANTS = ("accumulate", "replace", "true-online", "true-online-sarsa", "true-online-watkins-q")
SUITES = ("closed_form_checks", "proposition_checks", "theorem1_checks", "equivalence_checks")
ENV_BUILDERS = ("generate_mrp", "build_representation", "stationary_distribution", "true_values")
# the span whose duration is the command's own work; the CLI's overhead is the rest
COMMAND_SPANS = ("harness.run_sweep", "figures.mrp_best_lambda_curves", "verify.run_suite")

# name -> unit, in the order they are reported
PER_LAYER = {
    "rng.draws": "count",
    "envs.sample_step.calls": "count",
    "envs.sample_step.us": "us",
    "envs.build_s": "s",
    "harness.error_quadratic_ms": "ms",
    **{f"algos.{v}.{m}": u for v in VARIANTS for m, u in (("steps", "count"), ("ns_per_step", "ns"))},
    "algos.learners_built": "count",
    "harness.self_s": "s",
    **{f"harness.run_sweep.{r}.s": "s" for r in REPRESENTATIONS},
    "harness.diverged_runs": "count",
    "harness.parallel_efficiency": "ratio",
    "harness.certify.calls": "count",
    "harness.certify.ms_p50": "ms",
    "harness.certify.ms_p90": "ms",
    "oracle.online_lambda_return.calls": "count",
    "oracle.online_lambda_return.s": "s",
    "oracle.online_lambda_return.ns_per_step2": "ns",
    "oracle.watkins_forward_view.calls": "count",
    "oracle.watkins_forward_view.s": "s",
    "oracle.share": "ratio",
    **{f"verify.{s}.s": "s" for s in SUITES},
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "figures.best_per_lambda.ms": "ms",
    "cli.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.count_mismatches": "count",
    "trace.closed_form_mismatches": "count",
}
# units of the per-layer times, which the benchmark scales to the reference CPU speed
TIME_UNITS = ("s", "ms", "us", "ns")
COUNT_METRICS = tuple(name for name, unit in PER_LAYER.items() if unit == "count"
                      and not name.startswith("trace."))


def _union_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def analyse(payloads: list[dict], timing: dict) -> tuple[dict, dict]:
    """(metrics, details) for one traced command; `timing` is the launcher's."""
    spans = [s for p in payloads for s in p["spans"]]
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s)
        children[s[1]].append(s)
    hot_calls, hot_ns = defaultdict(int), defaultdict(int)
    hot_under = defaultdict(int)  # (parent, pid) -> ns
    for p in payloads:
        for parent, name, calls, ns in p["hot"]:
            hot_calls[name] += calls
            hot_ns[name] += ns
            hot_under[(parent, p["pid"])] += ns
    counts = defaultdict(int)
    learner_steps: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for p in payloads:
        for k, v in p["counts"].items():
            counts[k] += v
        for variant, hist in p["learner_steps"].items():
            for steps, n in hist.items():
                learner_steps[variant][int(steps)] += n

    def dur(s) -> int:
        return s[5] - s[4]

    def total_s(name: str) -> float:
        return sum(dur(s) for s in by_name[name]) / 1e9

    def self_ns(s) -> int:
        cover = _union_ns([(c[4], c[5]) for c in children[s[0]]], s[4], s[5])
        return max(0, dur(s) - cover - hot_under[(s[0], s[3])])

    wall_s = (timing["t_end"] - timing["t_start"]) / 1e9
    m: dict[str, float] = {}
    m["rng.draws"] = counts["rng.draws"]
    calls = hot_calls["envs.sample_step"]
    m["envs.sample_step.calls"] = calls
    m["envs.sample_step.us"] = hot_ns["envs.sample_step"] / calls / 1e3 if calls else 0.0
    m["envs.build_s"] = sum(total_s(f"envs.{n}") for n in ENV_BUILDERS)
    m["harness.error_quadratic_ms"] = total_s("harness.error_quadratic") * 1e3
    for v in VARIANTS:
        steps = hot_calls[f"algos.{v}.step"]
        m[f"algos.{v}.steps"] = steps
        m[f"algos.{v}.ns_per_step"] = hot_ns[f"algos.{v}.step"] / steps if steps else 0.0
    m["algos.learners_built"] = counts["algos.learners_built"]
    sweep_spans = by_name["harness.run_sweep"] + by_name["harness._sweep_cells"]
    m["harness.self_s"] = sum(self_ns(s) for s in sweep_spans) / 1e9
    for r in REPRESENTATIONS:
        m[f"harness.run_sweep.{r}.s"] = sum(
            dur(s) for s in by_name["harness.run_sweep"] if (s[6] or {}).get("repr") == r
        ) / 1e9
    diverged = defaultdict(int)
    for s in by_name["harness.run_sweep"]:
        for variant, n in ((s[6] or {}).get("diverged") or {}).items():
            diverged[variant] += n
    m["harness.diverged_runs"] = sum(diverged.values())
    certify_ms = [dur(s) / 1e6 for s in by_name["harness.certify_equivalence"]]
    m["harness.certify.calls"] = len(certify_ms)
    m["harness.certify.ms_p50"] = statistics.median(certify_ms) if certify_ms else 0.0
    m["harness.certify.ms_p90"] = (
        statistics.quantiles(certify_ms, n=10)[8] if len(certify_ms) >= 2 else
        (certify_ms[0] if certify_ms else 0.0)
    )
    olr = by_name["oracle.online_lambda_return_algorithm"]
    m["oracle.online_lambda_return.calls"] = len(olr)
    m["oracle.online_lambda_return.s"] = total_s("oracle.online_lambda_return_algorithm")
    t2 = sum(((s[6] or {}).get("T") or 0) ** 2 for s in olr)
    m["oracle.online_lambda_return.ns_per_step2"] = sum(dur(s) for s in olr) / t2 if t2 else 0.0
    m["oracle.watkins_forward_view.calls"] = len(by_name["oracle.watkins_forward_view"])
    m["oracle.watkins_forward_view.s"] = total_s("oracle.watkins_forward_view")
    m["oracle.share"] = (
        m["oracle.online_lambda_return.s"] + m["oracle.watkins_forward_view.s"]
    ) / wall_s
    for suite in SUITES:
        m[f"verify.{suite}.s"] = total_s(f"verify.{suite}")
    suites = [s[6] or {} for s in by_name["verify.run_suite"]]
    m["verify.checks"] = sum(a.get("checks", 0) for a in suites)
    m["verify.checks_failed"] = sum(a.get("failed", 0) for a in suites)
    m["figures.best_per_lambda.ms"] = total_s("harness.best_per_lambda") * 1e3
    command_ns = sum(
        dur(s) for name in COMMAND_SPANS for s in by_name[name]
        if s[1] is None and s[3] == timing["pid"]
    )
    m["cli.overhead_s"] = wall_s - command_ns / 1e9
    details = {
        "wall_s": wall_s,
        "diverged": dict(diverged),
        "learner_steps": {v: dict(h) for v, h in learner_steps.items()},
        "processes": len(payloads),
    }
    return m, details
