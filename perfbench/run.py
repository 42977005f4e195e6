"""tdlab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tdlab source checkout. Each command runs in a fresh
child process (`perfbench/child.py`, which imports `tdlab.cli` from `src/`
and calls `main`, as the `tdlab` console script does), one at a time. The
child environment is hermetic: PYTHONPATH is `src`, TDLAB_SEED is removed
(it would override every seed) and BLAS/OpenMP pools are pinned to one
thread.

--trace 0 times several bare `import tdlab.cli` spawns, then repeats the
command until the time is up, each time on the next input of the pool
(see `workloads.py`), and reports the end-to-end metrics: the median
set-up time over the bare spawns, and the medians over the commands of
time to solution, learner or certified steps per second, CPU time of the
process tree and peak RSS. Each spawn's times are scaled to a reference
CPU speed by the probes timed in it (`speed.py`); the unscaled times are
printed on the `#` lines. --trace 1 runs the first input once untraced
and then at least twice with the span recorder (`spans.py`) and reports
the per-layer metrics (`layers.py`). Every output is checked against the
pinned reference for its input seed; the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import speed  # noqa: E402
from workloads import (  # noqa: E402
    FIGURE_VARIANTS,
    PAPER_GRID_CELLS,
    POOL_SIZE,
    SWEEP_RUNS,
    FIGURE_RUNS,
    SWEEP_STEPS,
    SWEEP_VARIANTS,
    VERIFY_TRIALS,
    WORKLOADS,
    Workload,
    check_csv,
    check_verify,
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_SPAWNS = 10
MIN_REPS = 3
MIN_TRACED_REPS = 2
HARD_LIMIT_S = 165.0  # every run exits well inside 180 s


@dataclass
class Spawn:
    rc: int
    setup_s: float | None
    wall_s: float | None
    elapsed_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    timing: dict = field(default_factory=dict)
    probes: list[float] = field(default_factory=list)


def child_env() -> dict:
    """The caller's environment without TDLAB_SEED and PYTHON* settings.

    Bytecode caching is left on (PYTHONDONTWRITEBYTECODE dropped), so after
    the untimed warm-up spawn `src/tdlab/__pycache__` holds the compiled
    modules and set-up time is an import, as from an installed package.
    """
    env = {k: v for k, v in os.environ.items()
           if k != "TDLAB_SEED" and not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(mode: str, cli_args: list[str], work: str, timeout: float, env: dict) -> Spawn:
    """Run the launcher once and wait for it; rusage covers its whole tree."""
    timing_path = os.path.join(work, "timing.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), timing_path, mode]
    if mode == "trace":
        argv.append(os.path.join(work, "trace"))
    argv += ["--", *cli_args]
    out_path = os.path.join(work, "stdout.txt")
    with open(out_path, "w") as out, open(os.path.join(work, "stderr.txt"), "w") as err:
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    timing = {}
    if os.path.exists(timing_path):
        with open(timing_path) as fh:
            timing = json.load(fh)
    with open(out_path) as fh:
        stdout = fh.read()
    has_run = "t_end" in timing
    probes = speed.read(os.path.join(work, "probes.txt"))
    return Spawn(
        rc=proc.returncode,
        setup_s=(timing["t_import"] - t0) / 1e9 if "t_import" in timing else None,
        wall_s=(timing["t_end"] - timing["t_start"]) / 1e9 if has_run else None,
        elapsed_s=(t1 - t0) / 1e9,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        timing=timing,
        probes=probes,
    )


@dataclass
class Rep:
    spawn: Spawn
    seed: int
    attempted: int
    failed: int
    steps: int
    layer_metrics: dict | None = None
    details: dict | None = None
    # from the command's probes (speed.scale): a time measured during the
    # command, multiplied by it, is in seconds at the reference CPU speed
    scale: float = 1.0


class Runner:
    def __init__(self, workload: Workload, bench_seed: int, refs: dict, work: str):
        self.w = workload
        self.bench_seed = bench_seed
        self.refs = refs
        self.work = work
        self.env = child_env()
        self.start = time.monotonic()
        self._n = 0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.start)

    def _dir(self) -> str:
        self._n += 1
        path = os.path.join(self.work, f"spawn{self._n}")
        os.makedirs(os.path.join(path, "trace"))
        return path

    def setup_only(self) -> Spawn:
        path = self._dir()
        try:
            return spawn("setup", [], path, self.remaining(), self.env)
        finally:
            shutil.rmtree(path)

    def rep(self, mode: str, seed: int) -> Rep:
        path = self._dir()
        ref = self.refs[str(seed)]
        try:
            out_csv = os.path.join(path, "out.csv")
            s = spawn(mode, self.w.cli_args(seed, out_csv), path, self.remaining(), self.env)
            if self.w.output == "csv":
                text = ""
                if os.path.exists(out_csv):
                    with open(out_csv) as fh:
                        text = fh.read()
                attempted, failed = check_csv(text, ref, seed)
                if s.rc != 0 or s.wall_s is None:
                    failed = attempted
                steps = self.w.nominal_steps()
            else:
                attempted, failed, steps = check_verify(s.stdout, s.rc, ref)
                if s.wall_s is None:
                    failed = attempted
            rep = Rep(s, seed, attempted, failed, steps)
            if mode == "trace" and s.wall_s is not None:
                payloads = []
                for trace_file in sorted(glob.glob(os.path.join(path, "trace", "*.json"))):
                    with open(trace_file) as fh:
                        payloads.append(json.load(fh))
                rep.layer_metrics, rep.details = layers.analyse(payloads, s.timing)
            return rep
        finally:
            shutil.rmtree(path)

    def repeat(self, mode: str, minimum: int, seconds: float, reps: list[Rep]) -> None:
        """Append reps until `minimum` are done and another would overrun `seconds`.

        Untraced reps walk through the input pool from the benchmark seed's
        starting point; traced reps all use that first input, so their
        counts can be compared.
        """
        durations: list[float] = []
        while True:
            t0 = time.monotonic()
            rotate = len(durations) if mode == "run" else 0
            reps.append(self.rep(mode, self.w.input_seed(self.bench_seed, rotate)))
            durations.append(time.monotonic() - t0)
            typical = statistics.median(durations)
            elapsed = time.monotonic() - self.start
            if reps[-1].spawn.wall_s is None or self.remaining() < 2 * typical:
                return
            if len(durations) >= minimum and elapsed + typical > seconds:
                return


def assign_scales(reps: list[Rep]) -> None:
    """Scale each command by its own probes; one with too few (a very short
    command) uses the probes of the whole run."""
    pooled = [p for r in reps for p in r.spawn.probes]
    for r in reps:
        if len(r.spawn.probes) >= speed.MIN_PROBES:
            r.scale = speed.scale(r.spawn.probes)
        elif pooled:
            r.scale = speed.scale(pooled)


def closed_form_mismatches(w: Workload, m: dict, details: dict, ref: dict) -> list[str]:
    """Count metrics against their closed forms for the workload's size.

    Chain draws: 1 for the initial state, 1 uniform per step and 2 per pair
    of Box-Muller normals (one reward per step). Environment draws for
    mrp(10,3,0.1): per state 3 successors and 2 cut points, then 30 normals;
    the random-normalized table draws 50 normals. These describe how the
    seed commit consumes its SplitMix64 streams; a change that draws
    differently shows here without failing the run.
    """
    expect: dict[str, int] = {}
    problems: list[str] = []
    if w.output == "csv":
        sweeps, runs = (1, SWEEP_RUNS) if w.name == "sweep-tabular" else (3, FIGURE_RUNS)
        per_variant = (
            {v: 1 for v in SWEEP_VARIANTS} if w.name == "sweep-tabular" else FIGURE_VARIANTS
        )
        chains = PAPER_GRID_CELLS * runs
        chain_draws = 1 + SWEEP_STEPS + 2 * ((SWEEP_STEPS + 1) // 2)
        mrp_draws = 10 * (3 + 2) + 30
        expect["envs.sample_step.calls"] = sweeps * chains * SWEEP_STEPS
        expect["rng.draws"] = sweeps * (mrp_draws + chains * chain_draws) + (
            50 if w.name == "dominance-2w" else 0
        )
        expect["algos.learners_built"] = sum(per_variant.values()) * chains
        for variant, count in per_variant.items():
            hist = {int(k): n for k, n in details["learner_steps"].get(variant, {}).items()}
            truncated = sum(n * (SWEEP_STEPS - t) for t, n in hist.items())
            short = sum(n for t, n in hist.items() if t < SWEEP_STEPS)
            expect[f"algos.{variant}.steps"] = count * chains * SWEEP_STEPS - truncated
            diverged = details["diverged"].get(variant, 0)
            if sum(hist.values()) != count * chains:
                problems.append(f"{variant}: {sum(hist.values())} learners finished, "
                                f"expected {count * chains}")
            if short > diverged:
                problems.append(f"{variant}: {short} truncated runs but {diverged} diverged")
        for name in ("harness.certify.calls", "oracle.online_lambda_return.calls",
                     "oracle.watkins_forward_view.calls", "verify.checks"):
            expect[name] = 0
    else:
        trials = range(VERIFY_TRIALS)
        expect["harness.certify.calls"] = VERIFY_TRIALS
        # 4 theorem-1 ratios, plus the two oracle pairs of the five-pair trial cycle
        expect["oracle.online_lambda_return.calls"] = 4 + sum(t % 5 in (0, 1) for t in trials)
        expect["oracle.watkins_forward_view.calls"] = sum(t % 5 == 2 for t in trials)
        expect["verify.checks"] = ref["checks"]
        expect["verify.checks_failed"] = 0
        expect["algos.learners_built"] = 0
    for name, value in expect.items():
        if m[name] != value:
            problems.append(f"{name} = {m[name]}, closed form {value}")
    return problems


def environment_line(numpy_version: str | None) -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "tdlab", "cli.py")):
        print(f"error: no tdlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json")) as fh:
        refs = json.load(fh)[w.name]
    missing = [s for s in w.pool() if str(s) not in refs]
    if missing:
        print(f"error: no pinned reference for {w.name} seeds {missing}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.name}-", dir=scratch)
    try:
        return _run(args, w, refs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass


def _run(args, w: Workload, refs: dict, work: str) -> int:
    runner = Runner(w, args.seed, refs, work)
    warm = runner.setup_only()  # compiles bytecode once; not timed
    first = w.input_seed(args.seed, 0)
    print(f"# workload={w.name} bench_seed={args.seed} first_input_seed={first} "
          f"pool={POOL_SIZE} trace={args.trace}")
    print(f"# environment {environment_line(warm.timing.get('numpy'))}")
    print(f"# command tdlab {' '.join(w.cli_args(first, 'OUT.csv'))}")

    reps: list[Rep] = []
    if args.trace == 0:
        bare = [runner.setup_only() for _ in range(SETUP_SPAWNS)]
        setups = [s.setup_s * speed.scale(s.probes) for s in bare
                  if s.setup_s is not None and len(s.probes) >= speed.MIN_PROBES]
        print("# setup spawns: setup_s=" + ",".join(f"{s.setup_s}" for s in bare)
              + " scale=" + ",".join(f"{speed.scale(s.probes):.4f}" for s in bare if s.probes))
        runner.repeat("run", MIN_REPS, args.seconds, reps)
        assign_scales(reps)
        done = [r for r in reps if r.spawn.wall_s is not None]
        values = {
            "setup_s": _median(setups),
            "wall_s": _median([r.spawn.wall_s * r.scale for r in done]),
            "steps_per_s": _median([r.steps / (r.spawn.wall_s * r.scale) for r in done]),
            "cpu_s": _median([r.spawn.cpu_s * r.scale for r in done]),
            "peak_rss_mb": _median([r.spawn.rss_mb for r in done]),
        }
        units = END_TO_END
    else:
        reps.append(runner.rep("run", first))
        traced: list[Rep] = []
        runner.repeat("trace", MIN_TRACED_REPS, args.seconds, traced)
        reps += traced
        assign_scales(reps)
        values = _layer_values(w, reps[0], [r for r in traced if r.layer_metrics], refs[str(first)])
        units = layers.PER_LAYER

    for i, r in enumerate(reps):
        s = r.spawn
        print(f"# rep {i + 1}: seed={r.seed} rc={s.rc} setup_s={s.setup_s} wall_s={s.wall_s} "
              f"cpu_s={s.cpu_s:.3f} rss_mb={s.rss_mb:.1f} probes={len(s.probes)} "
              f"scale={r.scale:.4f} steps={r.steps} "
              f"attempted={r.attempted} failed={r.failed}")
        if r.spawn.rc != 0 and s.stdout:
            print("# " + s.stdout.strip().splitlines()[-1])
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    complete = all(v is not None for v in values.values())
    result = {
        "correct": failed == 0 and complete and all(r.spawn.rc == 0 for r in reps),
        "attempted": attempted,
        "failed": failed if complete else max(failed, 1),
        "metrics": {
            name: {"value": values[name] if values[name] is not None else 0.0, "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _layer_values(w: Workload, base: Rep, traced: list[Rep], ref: dict) -> dict:
    if base.spawn.wall_s is None or not traced:
        return {name: None for name in layers.PER_LAYER}
    first = traced[0].layer_metrics
    values: dict = {}
    for name, unit in layers.PER_LAYER.items():
        if name in layers.COUNT_METRICS:
            values[name] = first[name]
        elif name in first:
            scaled = unit in layers.TIME_UNITS
            values[name] = statistics.median(
                r.layer_metrics[name] * (r.scale if scaled else 1.0) for r in traced)
    mismatched = [
        name for name in layers.COUNT_METRICS
        if any(r.layer_metrics[name] != first[name] for r in traced[1:])
    ]
    if any(r.details["learner_steps"] != traced[0].details["learner_steps"] for r in traced[1:]):
        mismatched.append("learner step histogram")
    problems = closed_form_mismatches(w, first, traced[0].details, ref)
    for text in [f"count differs between traced runs: {n}" for n in mismatched] + problems:
        print(f"# self-check: {text}")
    values["trace.count_mismatches"] = len(mismatched)
    values["trace.closed_form_mismatches"] = len(problems)
    traced_wall = statistics.median(r.spawn.wall_s * r.scale for r in traced)
    values["trace.overhead_ratio"] = traced_wall / (base.spawn.wall_s * base.scale)
    values["harness.parallel_efficiency"] = base.spawn.cpu_s / (base.spawn.elapsed_s * w.workers)
    print(f"# traced runs: {len(traced)}, processes per run: {traced[0].details['processes']}, "
          f"diverged runs per variant: {traced[0].details['diverged']}")
    return values


if __name__ == "__main__":
    sys.exit(main())
