"""In-memory span recorder for the traced benchmark run.

The recorder wraps public tdlab functions from outside the package: each
function is replaced, in every tdlab module that holds it under its name,
by a wrapper that records a span (name, start, end, parent span, pid).
Learner `step` methods and `SplitMix64.next_u64` are wrapped at class
level. Functions called hundreds of thousands of times per run ("hot"
functions: learner steps, `sample_step`) are aggregated per (parent span,
name) as a call count and a total duration instead of one span per call,
which keeps memory flat; they are leaves, so within one process their
calls never overlap and their summed duration is the time they cover.

Spans stay in memory and are written out once per process: by the
launcher when the command returns, and, in forked pool workers (which
leave through `os._exit` and never run `atexit`), by a multiprocessing
finalizer registered after the fork.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from multiprocessing import util as mp_util

_clock = time.monotonic_ns  # CLOCK_MONOTONIC: comparable across processes


class Recorder:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[list] = []  # [id, parent, name, pid, start_ns, end_ns, attrs]
        self.stack: list[str | None] = [None]
        self.hot: dict[tuple, list[int]] = {}  # (parent, name) -> [calls, total_ns]
        self.counts: dict[str, int] = {}
        self.draws = [0]
        # steps taken by each finished sweep learner, as variant -> {steps: learners}
        self.learner_steps: dict[str, dict[int, int]] = {}
        self.last_learner = None
        self._ids = 0
        mp_util.register_after_fork(self, Recorder._after_fork)

    def new_id(self) -> str:
        self._ids += 1
        return f"{self.pid}-{self._ids}"

    def _after_fork(self) -> None:
        """In a forked worker: drop the parent's records, keep its open stack."""
        self.pid = os.getpid()
        self.spans.clear()
        self.hot.clear()
        self.counts.clear()
        self.draws[0] = 0
        self.learner_steps.clear()
        self.last_learner = None
        mp_util.Finalize(self, self.flush, exitpriority=10)

    def close_learner(self) -> None:
        learner, self.last_learner = self.last_learner, None
        steps = getattr(learner, "t", None)
        if learner is None or not isinstance(steps, int):
            return
        hist = self.learner_steps.setdefault(getattr(learner, "variant", "?"), {})
        hist[steps] = hist.get(steps, 0) + 1

    def flush(self) -> None:
        self.close_learner()
        payload = {
            "pid": self.pid,
            "spans": self.spans,
            "hot": [[p, n, c, t] for (p, n), (c, t) in self.hot.items()],
            "counts": dict(self.counts, **{"rng.draws": self.draws[0]}),
            "learner_steps": self.learner_steps,
        }
        path = os.path.join(self.out_dir, f"trace-{self.pid}-{self._ids}.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)

    # -- wrappers -----------------------------------------------------------

    def cold(self, name: str, fn, attrs=None):
        """One span per call; `attrs(args, kwargs, result)` adds details."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec.new_id()
            parent = rec.stack[-1]
            rec.stack.append(sid)
            result = None
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _clock()
                rec.stack.pop()
                extra = attrs(args, kwargs, result) if attrs is not None else None
                rec.spans.append([sid, parent, name, rec.pid, t0, t1, extra])

        return wrapper

    def hot_timed(self, name: str, fn):
        hot, stack = self.hot, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                key = (stack[-1], name)
                entry = hot.get(key)
                if entry is None:
                    hot[key] = [1, dt]
                else:
                    entry[0] += 1
                    entry[1] += dt

        return wrapper


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every tdlab module attribute that is `original` (callers
    look functions up in their own module's globals)."""
    for name, module in list(sys.modules.items()):
        if name != "tdlab" and not name.startswith("tdlab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _wrap_function(module, name: str, make) -> bool:
    original = getattr(module, name, None)
    if not callable(original):
        return False
    _replace_everywhere(original, make(original))
    return True


def _len_or_none(obj):
    try:
        return len(obj)
    except TypeError:
        return None


def install(out_dir: str) -> Recorder:
    """Wrap the layer boundaries of an imported tdlab; returns the recorder."""
    import tdlab.algos as algos
    import tdlab.envs as envs
    import tdlab.figures as figures
    import tdlab.harness as harness
    import tdlab.oracle as oracle
    import tdlab.rng as rng
    import tdlab.verify as verify

    rec = Recorder(out_dir)

    # rng: count draws at class level
    draw = getattr(rng.SplitMix64, "next_u64", None)
    if draw is not None:
        draws = rec.draws

        @functools.wraps(draw)
        def next_u64(self):
            draws[0] += 1
            return draw(self)

        rng.SplitMix64.next_u64 = next_u64

    # envs
    _wrap_function(envs, "sample_step", lambda f: rec.hot_timed("envs.sample_step", f))
    for name in ("generate_mrp", "build_representation", "stationary_distribution", "true_values"):
        _wrap_function(envs, name, lambda f, n=name: rec.cold(f"envs.{n}", f))

    # algos: learner steps at class level, learner construction by count
    for cls in list(vars(algos).values()):
        if isinstance(cls, type) and callable(cls.__dict__.get("step")):
            variant = cls.__dict__.get("variant") or getattr(cls, "variant", cls.__name__)
            cls.step = rec.hot_timed(f"algos.{variant}.step", cls.__dict__["step"])

    def count_learners(factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            rec.close_learner()
            learner = factory(*args, **kwargs)
            rec.counts["algos.learners_built"] = rec.counts.get("algos.learners_built", 0) + 1
            rec.last_learner = learner
            return learner

        return wrapper

    _wrap_function(algos, "make_prediction_learner", count_learners)

    # harness
    def sweep_attrs(args, kwargs, result):
        config = args[0] if args else kwargs.get("config")
        diverged: dict[str, int] = {}
        for c in getattr(result, "cells", ()) or ():
            variant = getattr(c, "variant", "?")
            diverged[variant] = diverged.get(variant, 0) + int(getattr(c, "diverged", 0))
        return {"repr": getattr(config, "representation", None), "diverged": diverged}

    _wrap_function(harness, "run_sweep", lambda f: rec.cold("harness.run_sweep", f, sweep_attrs))
    # the pool task that runs cells in each worker (private; absent is fine)
    _wrap_function(harness, "_sweep_cells", lambda f: rec.cold("harness._sweep_cells", f))
    _wrap_function(harness, "error_quadratic", lambda f: rec.cold("harness.error_quadratic", f))
    _wrap_function(harness, "best_per_lambda", lambda f: rec.cold("harness.best_per_lambda", f))
    _wrap_function(
        harness, "certify_equivalence",
        lambda f: rec.cold(
            "harness.certify_equivalence", f, lambda a, k, r: {"steps": getattr(r, "steps", None)}
        ),
    )

    # oracle: the trajectory length T of each replay
    def traj_len(args, kwargs, result):
        return {"T": _len_or_none(args[0] if args else kwargs.get("traj"))}

    for name in ("online_lambda_return_algorithm", "watkins_forward_view"):
        _wrap_function(oracle, name, lambda f, n=name: rec.cold(f"oracle.{n}", f, traj_len))

    # verify suites
    for name in ("closed_form_checks", "proposition_checks", "theorem1_checks",
                 "equivalence_checks"):
        _wrap_function(verify, name, lambda f, n=name: rec.cold(f"verify.{n}", f))

    def suite_attrs(args, kwargs, result):
        checks = list(result or ())
        return {
            "checks": len(checks),
            "failed": sum(1 for c in checks if not getattr(c, "passed", False)),
        }

    _wrap_function(verify, "run_suite", lambda f: rec.cold("verify.run_suite", f, suite_attrs))

    # figures
    _wrap_function(
        figures, "mrp_best_lambda_curves", lambda f: rec.cold("figures.mrp_best_lambda_curves", f)
    )
    return rec
