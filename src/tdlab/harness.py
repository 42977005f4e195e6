"""Deterministic experiment harness: sweeps, metrics, equivalence checks.

Seeding contract (all constants from tdlab.rng):
  cell_index = lambda_index * len(alphas) + alpha_index
  cell_seed  = mix64(master_seed XOR cell_index)
  run_seed   = mix64(cell_seed XOR mix64(run_index + 1))
Cell seeds are shared across variants, so variant comparisons are paired
through common random numbers. Aggregation folds by cell index, so the
result does not depend on execution order or worker count.

The sweep engine is batched by chunk: a chunk of cells (all cells, or
one worker's share) draws every (cell, run) chain at once through
SplitMix64Rows, then advances one (rows x n) learner per variant through
the algos trace rules, all runs in lockstep. Each row computes exactly
what a scalar learner on that run's seed computes, so sweep CSVs are
byte-identical to running the runs one at a time. Memory per chunk is
O(rows x (n + steps)): the chains and each row's per-step errors, never
a weight history; chunks larger than CHAIN_BLOCK_VALUES chain entries
are run in blocks of whole cells.

Sweeps that differ only in representation and variants share every
chain, so run_sweeps runs them in one pass: one process pool, each chain
simulated once, every config's learners stepped on it. run_sweep is
run_sweeps on one config.

run_chunks is the package's one process pool. It runs a module-level
task on the strided chunks items[i::workers], one per worker, and
returns their results in chunk order. The sweep engine sends it cell
indices; verify's equivalence suite sends it trial numbers.

The metric's error d' M d (d = theta - theta_star) is one ordered sum per
row: the terms (d_i M_ij) d_j in row-major (i, j) order, added one by one
from +0.0, over M's nonzero entries (a zero entry adds +-0, which changes
no such sum). A row's bits therefore never depend on how many rows share
its block, so a sweep's CSV is the same at any worker count. This is the
order np.einsum("ri,ij,rj->r") takes for blocks of 3 or more rows and
n <= 90 features, so sweeps there keep the bits of tdlab 0.1.0; 0.1.0
differed on blocks of 1 or 2 rows and at n >= 91.
"""

from __future__ import annotations

import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .algos import (
    PREDICTION_LEARNERS,
    PREDICTION_VARIANTS,
    AccumulateTD,
    TabularTrueOnlineTD,
    TrueOnlineTD,
    TrueOnlineTDAlphaT,
    TrueOnlineWatkinsQ,
    check_step_size,
    check_trace_decay,
    replay_prediction,
)
from .core import ConfigError, Trajectory, check_seed, read_json_object
from .envs import (
    Mrp,
    Representation,
    build_representation,
    canonical_task,
    generate_mrp,
    mrp_from_dict,
    simulate_chains,
)
from .oracle import (
    lms_solution,
    online_lambda_return_algorithm,
    state_weights,
    watkins_forward_view,
)
from .rng import SplitMix64Rows, mix64

DIVERGENCE_THRESHOLD = 1e100
# Chain entries (rows x (steps + 1)) the sweep engine holds at once: about
# 16 MB for each of its per-block arrays (states, rewards, errors).
CHAIN_BLOCK_VALUES = 1 << 21
EQUIVALENCE_TOL = 1e-8
# A run whose weights have grown this much past their start is exponentially
# divergent; beyond it, float64 rounding is amplified faster than any fixed
# relative tolerance can survive, so equivalence checks stop there.
EQUIVALENCE_AMPLIFICATION_CUTOFF = 1e12
REPRESENTATION_SEED_SALT = 0x52455052  # mixed into the env seed for feature tables
# The trace variants a sweep runs on each representation kind unless told
# otherwise; replacing traces are defined on binary features only.
DEFAULT_VARIANTS = {
    "tabular": ("accumulate", "replace", "true-online"),
    "binary": ("accumulate", "replace", "true-online"),
    "random-normalized": ("accumulate", "true-online"),
}


def paper_alpha_grid() -> tuple[float, ...]:
    """Step-size grid: 10^i for i in -3..-1 step 0.2, then 0.1..2.0 step 0.1."""
    log_points = [10.0 ** (-3.0 + 0.2 * j) for j in range(11)]
    linear_points = [(i + 1) / 10 for i in range(20)]
    return tuple(sorted(set(log_points + linear_points)))


def paper_lambda_grid() -> tuple[float, ...]:
    """Trace-decay grid: 0..0.9 step 0.1, then 0.9..1.0 step 0.01."""
    coarse = [j / 10 for j in range(10)]
    fine = [(90 + m) / 100 for m in range(11)]
    return tuple(sorted(set(coarse + fine)))


@dataclass(frozen=True)
class SweepConfig:
    """Everything needed to reproduce a sweep bit-for-bit."""

    env: str
    representation: str
    variants: tuple[str, ...]
    alphas: tuple[float, ...]
    lambdas: tuple[float, ...]
    steps: int
    runs: int
    master_seed: int
    gamma: float = 0.99
    weighting: str = "stationary"

    def __post_init__(self):
        if not self.alphas or not self.lambdas:
            raise ConfigError("alpha and lambda grids must be non-empty")
        for name in ("runs", "steps"):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        check_seed(self.master_seed, "master_seed")
        for alpha in self.alphas:
            check_step_size(alpha)
        for lam in self.lambdas:
            check_trace_decay(lam)
        # best_per_lambda's tie rule and the CSV's row order read the grids in order
        for name, grid in (("alpha", self.alphas), ("lambda", self.lambdas)):
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} grid must be ascending without duplicates, got {grid}")
        if not self.variants or len(set(self.variants)) < len(self.variants):
            raise ConfigError(f"variant list must be non-empty without repeats, got {self.variants}")
        for v in self.variants:
            if v not in PREDICTION_VARIANTS:
                raise ConfigError(f"unknown variant {v!r}; expected one of {PREDICTION_VARIANTS}")


@dataclass(frozen=True)
class CellResult:
    variant: str
    alpha: float
    lam: float
    metric_mean: float
    metric_se: float
    runs: int
    diverged: int


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    cells: tuple[CellResult, ...]

    def cell(self, variant: str, alpha: float, lam: float) -> CellResult:
        for c in self.cells:
            if c.variant == variant and c.alpha == alpha and c.lam == lam:
                return c
        raise KeyError((variant, alpha, lam))


_MRP_PATTERN = re.compile(r"^mrp\(\s*(\d+)\s*,\s*(\d+)\s*,\s*([0-9.eE+-]+)\s*\)$")


def resolve_env(env: str, gamma: float, env_seed: int) -> Mrp:
    """The chain an env string names; every --task form resolves here.

    `file:PATH` loads an env file as `tdlab gen-mrp` writes it (the file's
    own gamma applies); `mrp(k,b,sigma)` generates a chain from env_seed
    with the given gamma; anything else is a canonical task name. A file
    that cannot be read or is not a valid env file is a ConfigError
    naming it.
    """
    if env.startswith("file:"):
        path = env[len("file:"):]
        try:
            return mrp_from_dict(read_json_object(path))
        except ConfigError as exc:
            raise ConfigError(f"env file {path}: {exc}") from exc
    m = _MRP_PATTERN.match(env.strip())
    if m:
        try:
            sigma = float(m.group(3))
        except ValueError as exc:
            raise ConfigError(f"malformed sigma in {env!r}: {m.group(3)!r}") from exc
        k, b = int(m.group(1)), int(m.group(2))
        return generate_mrp(k=k, b=b, sigma=sigma, gamma=gamma, seed=env_seed)
    mrp, _ = canonical_task(env.strip())
    return mrp


def error_quadratic(
    mrp: Mrp, representation: Representation, weighting: str | np.ndarray = "stationary"
) -> tuple[np.ndarray, np.ndarray, float]:
    """(M, theta_star, initial_error) so that the weighted squared value
    error of theta against the best linear solution is (d' M d) with
    d = theta - theta_star."""
    nt = mrp.nonterminal_states()
    w = state_weights(mrp, weighting)
    resolved = np.zeros(mrp.k)
    resolved[nt] = w  # so lms_solution does not resolve (and solve for) it again
    theta_star, _ = lms_solution(mrp, representation, resolved)
    phi = representation.table[nt]
    M = phi.T @ (w[:, None] * phi)
    e0 = float(theta_star @ M @ theta_star)  # error of the zero vector
    return M, theta_star, e0


def _quadratic_terms(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, M_ij column) of M's nonzero entries in row-major order."""
    pi, pj = np.nonzero(M)
    return pi, pj, M[pi, pj][:, None]


def _quadratic(D: np.ndarray, terms: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Each row's d' M d as one ordered sum: the terms (d_i M_ij) d_j over
    M's nonzero entries in row-major (i, j) order, added one by one from
    +0.0. For finite d a zero entry's term is +-0, which leaves such a sum
    unchanged, so this is the sum over every (i, j). Each row's bits
    depend on that row alone, never on how many rows share the call."""
    pi, pj, m = terms
    Dt = D.T
    P = Dt[pi] * m
    P *= Dt[pj]
    acc = np.zeros(D.shape[0])
    for q in P:  # not np.add.reduce: on one row it sums pairwise
        acc += q
    return acc


def _run_metrics(
    variant: str,
    states: np.ndarray,
    rewards: np.ndarray,
    table: np.ndarray,
    gamma: float,
    alpha: np.ndarray,
    lam: np.ndarray,
    M: np.ndarray,
    theta_star: np.ndarray,
    e0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One learner per row over its pre-sampled chain, all rows in lockstep.

    `states` and `rewards` are time-major, alpha and lam (rows, 1)
    columns. Returns each row's (metric, diverged). A row whose weights
    leave the threshold is frozen at them, or at its last weights if they
    went non-finite, for the rest of its run. While every row is live one
    test of the whole block stands in for the per-row bookkeeping; from
    the first step it fails, the per-row freeze runs.

    Each step's error is _quadratic's ordered sum, row-major over M's
    nonzero entries from +0.0, so a row's metric has the same bits in a
    block of any size.
    """
    rule = PREDICTION_LEARNERS[variant].rule
    steps, rows = rewards.shape
    n = table.shape[1]
    theta, e = np.zeros((rows, n)), np.zeros((rows, n))
    v_old = np.zeros((rows, 1))
    shown = np.zeros((rows, n))  # the weights the metric sees
    live = np.ones(rows, dtype=bool)
    terms = _quadratic_terms(M)
    errors = np.empty((rows, steps))
    phi_next = table[states[0]]
    for t in range(steps):
        phi, phi_next = phi_next, table[states[t + 1]]
        v_old = rule(theta, e, v_old, phi, rewards[t][:, None], phi_next, gamma, alpha, lam)
        if live.all() and np.abs(theta).max() <= DIVERGENCE_THRESHOLD:  # False on NaN
            np.copyto(shown, theta)
        else:
            size = np.abs(theta).max(axis=1)  # NaN if any weight is
            moved = live & np.isfinite(size)
            live &= size <= DIVERGENCE_THRESHOLD
            np.copyto(shown, theta, where=moved[:, None])
        errors[:, t] = _quadratic(shown - theta_star, terms)
    errors /= e0
    return errors.mean(axis=1), ~live


_Row = tuple[int, str, float, float, int]  # (cell_index, variant, mean, se, diverged)


class _SweepPlan(NamedTuple):
    """One config's share of a sweep: its features and error quadratic."""

    config: SweepConfig
    table: np.ndarray
    M: np.ndarray
    theta_star: np.ndarray
    e0: float


def _plan_sweep(config: SweepConfig, mrp: Mrp, representation: Representation) -> _SweepPlan:
    if "replace" in config.variants and np.any((representation.table != 0) & (representation.table != 1)):
        raise ConfigError("replacing traces require binary features; pick tabular or binary")
    M, theta_star, e0 = error_quadratic(mrp, representation, config.weighting)
    if e0 == 0.0:
        raise ConfigError("degenerate configuration: zero initial error")
    return _SweepPlan(config, representation.table, M, theta_star, e0)


def _sweep_cells(
    mrp: Mrp, plans: tuple[_SweepPlan, ...], cell_indices: list[int]
) -> list[list[_Row]]:
    """Raw per-cell aggregate rows for each plan.

    The plans share their chains (every config field but representation
    and variants agrees), so each block's chains are simulated once and
    every (plan, variant) steps on them. Cells are batched in blocks of at
    most CHAIN_BLOCK_VALUES chain entries (rows x steps), so memory stays
    bounded however many cells a chunk holds; rows are independent, so
    blocking changes no result.
    """
    config = plans[0].config
    n_alpha, runs = len(config.alphas), config.runs
    block = max(1, CHAIN_BLOCK_VALUES // (runs * (config.steps + 1)))
    out: list[list[_Row]] = [[] for _ in plans]
    for start in range(0, len(cell_indices), block):
        cells = cell_indices[start : start + block]
        seeds = []
        for ci in cells:
            cell_seed = mix64(config.master_seed ^ ci)
            seeds.extend(mix64(cell_seed ^ mix64(r + 1)) for r in range(runs))
        states, rewards = simulate_chains(mrp, config.steps, SplitMix64Rows(seeds))
        alpha = np.repeat([config.alphas[ci % n_alpha] for ci in cells], runs)[:, None]
        lam = np.repeat([config.lambdas[ci // n_alpha] for ci in cells], runs)[:, None]
        for plan, rows in zip(plans, out):
            columns = []
            with np.errstate(over="ignore", invalid="ignore"):
                for variant in plan.config.variants:
                    metrics, diverged = _run_metrics(
                        variant, states, rewards, plan.table, mrp.gamma,
                        alpha, lam, plan.M, plan.theta_star, plan.e0,
                    )
                    vals = metrics.reshape(len(cells), runs)
                    se = vals.std(axis=1, ddof=1) / np.sqrt(runs) if runs > 1 else np.zeros(len(cells))
                    counts = diverged.reshape(len(cells), runs).sum(axis=1)
                    columns.append((vals.mean(axis=1).tolist(), se.tolist(), counts.tolist()))
            for i, ci in enumerate(cells):
                for variant, (means, ses, counts) in zip(plan.config.variants, columns):
                    rows.append((ci, variant, means[i], ses[i], counts[i]))
    return out


def check_workers(workers: int) -> None:
    """A worker count is an integer in [1, the CPU count]."""
    cpus = os.cpu_count() or 1
    if not (isinstance(workers, Integral) and 1 <= workers <= cpus):
        raise ConfigError(f"workers must lie in [1, {cpus}] (the CPU count), got {workers}")


def run_chunks(task, args: tuple, items, workers: int) -> list:
    """task(*args, chunk) on each non-empty strided chunk items[i::workers].

    With more than one worker the chunks run in a process pool, one task
    per worker; with one, the single chunk (all of items) runs in this
    process. Returns the chunk results in chunk order. The task must be
    a module-level function and args picklable, so that any start method
    can send them. An exception in a task reaches the caller as itself,
    after the pool has shut down.
    """
    check_workers(workers)
    if workers == 1:
        return [task(*args, items)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(task, *args, chunk)
            for chunk in (items[i::workers] for i in range(workers)) if chunk
        ]
        return [f.result() for f in futures]


def run_sweeps(configs: tuple[SweepConfig, ...], workers: int = 1) -> tuple[SweepResult, ...]:
    """Grid scans over (variant, alpha, lambda) with paired per-cell seeds.

    The configs may differ only in representation and variants, so they
    share every (cell, run) chain: each chain is simulated once, and every
    config's learners step on it. One result per config, each equal to
    running that config alone.

    The env must resolve to a continuing chain: a run is a fixed-length
    stretch of one chain, with no episode restarts. Every run starts a
    fresh learner at theta_0 = 0 on a fresh trajectory from the run seed.
    A run whose weight magnitude exceeds the divergence threshold (or
    goes non-finite) is flagged and frozen at its last finite weights;
    its (large) metric still enters the cell mean, so divergence is
    visible in the data rather than silently dropped. Each result's
    config records the gamma the chain used: an env file's own, whatever
    config.gamma says.
    """
    if not configs:
        raise ConfigError("run_sweeps needs at least one config")
    first = configs[0]
    for config in configs[1:]:
        if replace(config, representation=first.representation, variants=first.variants) != first:
            raise ConfigError(
                "sweeps run together must differ only in representation and variants"
            )
    mrp = resolve_env(first.env, first.gamma, first.master_seed)
    if not mrp.continuing:
        raise ConfigError(
            f"sweeps need a continuing chain; {first.env} has terminal states "
            f"{sorted(mrp.terminal_states)}"
        )
    rep_seed = mix64(first.master_seed ^ REPRESENTATION_SEED_SALT)
    plans = tuple(
        _plan_sweep(config, mrp, build_representation(config.representation, mrp, seed=rep_seed))
        for config in configs
    )
    indices = list(range(len(first.lambdas) * len(first.alphas)))
    chunks = run_chunks(_sweep_cells, (mrp, plans), indices, workers)
    return tuple(
        _collect(config, mrp, [row for chunk in chunks for row in chunk[p]])
        for p, config in enumerate(configs)
    )


def _collect(config: SweepConfig, mrp: Mrp, rows: list[_Row]) -> SweepResult:
    by_key = {(ci, variant): (mean, se, div) for ci, variant, mean, se, div in rows}
    cells = []
    n_alpha = len(config.alphas)
    for variant in config.variants:
        for li, lam in enumerate(config.lambdas):
            for ai, alpha in enumerate(config.alphas):
                mean, se, div = by_key[(li * n_alpha + ai, variant)]
                cells.append(CellResult(
                    variant=variant, alpha=alpha, lam=lam,
                    metric_mean=mean, metric_se=se, runs=config.runs, diverged=div,
                ))
    return SweepResult(config=replace(config, gamma=mrp.gamma), cells=tuple(cells))


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """One config's sweep: run_sweeps on that config alone."""
    return run_sweeps((config,), workers)[0]


def sweep_to_csv(result: SweepResult) -> str:
    """Rows in variant-major order, then lambda, then alpha ascending."""
    return table_to_csv((
        ["variant", "alpha", "lambda", "metric_mean", "metric_se", "runs", "diverged"],
        [[c.variant, c.alpha, c.lam, c.metric_mean, c.metric_se, c.runs, c.diverged]
         for c in result.cells],
    ))


def table_to_csv(table: tuple[list[str], list[list]]) -> str:
    """A header and rows as CSV lines; floats keep all 17 significant digits."""
    header, rows = table
    lines = [",".join(header)]
    templates: dict[tuple[type, ...], str] = {}  # one %-template per row of field types
    for row in rows:
        kinds = tuple(map(type, row))
        if kinds not in templates:
            templates[kinds] = ",".join(
                "%.17g" if issubclass(k, (float, np.floating)) else "%s" for k in kinds
            )
        lines.append(templates[kinds] % tuple(row))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BestPoint:
    """Best-over-alpha cell for one lambda; alpha is None if no cell is eligible."""

    lam: float
    alpha: float | None
    metric_mean: float | None
    metric_se: float | None


def best_per_lambda(result: SweepResult) -> dict[str, list[BestPoint]]:
    """Minimum mean metric over alpha for each (variant, lambda).

    Cells where more than half the runs diverged are ineligible; ties
    prefer the smaller alpha (cells are scanned in ascending-alpha order).
    The cells are grouped by (variant, lambda) in one pass, each group in
    the order of result.cells.
    """
    by_curve: dict[tuple[str, float], list[CellResult]] = {}
    for c in result.cells:
        by_curve.setdefault((c.variant, c.lam), []).append(c)
    curves: dict[str, list[BestPoint]] = {v: [] for v in result.config.variants}
    for variant in result.config.variants:
        for lam in result.config.lambdas:
            best: BestPoint | None = None
            for c in by_curve.get((variant, lam), ()):
                if 2 * c.diverged > c.runs or not math.isfinite(c.metric_mean):
                    continue
                if best is None or c.metric_mean < best.metric_mean:
                    best = BestPoint(lam, c.alpha, c.metric_mean, c.metric_se)
            curves[variant].append(best if best is not None else BestPoint(lam, None, None, None))
    return curves


EQUIVALENCE_PAIRS = (
    "true-online-vs-oracle",
    "accumulate-vs-oracle",
    "sarsa-vs-oracle-on-psi",
    "watkins-vs-truncated-oracle",
    "alpha-t-constant-vs-true-online",
    "tabular-vs-one-hot-true-online",
)


@dataclass(frozen=True)
class EquivalenceReport:
    pair: str
    steps: int
    compared_steps: int
    max_rel_diff: float
    worst_step: int
    tolerance: float
    passed: bool

    @property
    def truncated(self) -> bool:
        return self.compared_steps < self.steps


def certify_equivalence(
    traj: Trajectory,
    alpha: float,
    lam: float,
    theta_init: np.ndarray,
    pair: str,
) -> EquivalenceReport:
    """Run both sides of a pairing on the same recorded trajectory.

    Reports max over t of ||theta_A(t) - theta_B(t)||_inf normalized by
    (1 + ||theta_B(t)||_inf); a pair passes at 1e-8. The accumulate pair
    exists to document non-equivalence and is expected to fail at
    practical step-sizes.

    The control pairs replay the recorded learner run: a fresh learner
    steps over `traj.stepped`, whose bootstrap pairs the driving learner's
    weights chose, so call them with the alpha, lambda and theta_init the
    driver ran with. The truncated forward view updates the behavior
    pairs and takes its max bootstraps from its own weights.

    Aggressive step-sizes can drive both sides into identical divergence;
    once the weight scale has been amplified past any fixed tolerance's
    reach (or leaves the representable range entirely), the comparison
    stops and `compared_steps` records the checked prefix.
    """
    traj.validate()
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = _pair_histories(traj, alpha, lam, theta_init, pair)
        scale = np.maximum(np.abs(a).max(axis=1), np.abs(b).max(axis=1))
        cutoff = min(DIVERGENCE_THRESHOLD, (1.0 + scale[0]) * EQUIVALENCE_AMPLIFICATION_CUTOFF)
        in_range = scale <= cutoff  # non-finite fails this too
        stop = len(traj) + 1 if in_range.all() else int(np.argmin(in_range))
        stop = max(stop, 1)  # row 0 is theta_init on both sides
        diffs = np.abs(a[:stop] - b[:stop]).max(axis=1) / (1.0 + np.abs(b[:stop]).max(axis=1))
    worst = int(np.argmax(diffs))
    max_diff = float(diffs[worst])
    return EquivalenceReport(
        pair=pair,
        steps=len(traj),
        compared_steps=stop - 1,
        max_rel_diff=max_diff,
        worst_step=worst,
        tolerance=EQUIVALENCE_TOL,
        passed=bool(max_diff <= EQUIVALENCE_TOL),
    )


def _stepped(traj: Trajectory) -> Trajectory:
    """The transitions a control run's learner stepped on."""
    if traj.stepped is None:
        raise ConfigError("control pairs replay the transitions run_control_episode records")
    return traj.stepped


def _pair_histories(traj, alpha, lam, theta_init, pair):
    n = theta_init.shape[0]

    def replay(cls, steps=traj):
        """cls's weight history over steps at alpha."""
        return replay_prediction(cls(n, alpha, lam, theta_init), steps)

    if pair == "true-online-vs-oracle":
        a = replay(TrueOnlineTD)
        b = online_lambda_return_algorithm(traj, alpha, lam, theta_init)
    elif pair == "accumulate-vs-oracle":
        a = replay(AccumulateTD)
        b = online_lambda_return_algorithm(traj, alpha, lam, theta_init)
    elif pair == "sarsa-vs-oracle-on-psi":
        stepped = _stepped(traj)
        a = replay(TrueOnlineTD, stepped)
        b = online_lambda_return_algorithm(stepped, alpha, lam, theta_init)
    elif pair == "watkins-vs-truncated-oracle":
        a = replay(TrueOnlineWatkinsQ, _stepped(traj))
        b = watkins_forward_view(traj, alpha, lam, theta_init)
    elif pair == "alpha-t-constant-vs-true-online":
        a = replay_prediction(TrueOnlineTDAlphaT(n, lambda t: alpha, lam, theta_init), traj)
        b = replay(TrueOnlineTD)
    elif pair == "tabular-vs-one-hot-true-online":
        a = replay(TabularTrueOnlineTD)
        b = replay(TrueOnlineTD)
    else:
        raise ConfigError(f"unknown pair {pair!r}; expected one of {EQUIVALENCE_PAIRS}")
    return a, b
