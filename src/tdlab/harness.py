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
SplitMix64Rows, then advances every variant of a config in lockstep: one
(variants x rows, n) weight array, in which each variant's algos trace
rule steps its own row slice, with one feature gather and one
divergence test per step for all of them. Each row computes exactly
what a scalar learner on that run's seed computes, so sweep CSVs are
byte-identical to running the runs one at a time. Memory per block is
O(variants x rows x (n + steps)): the chains and each row's per-step
errors, never a weight history. A chunk runs in blocks of whole cells,
so that the chains (rows x (steps + 1)) and the errors of the config
with the most variants (variants x rows x steps) each hold at most
CHAIN_BLOCK_VALUES entries.

On one-hot features (a single 1.0 in every row of the table: tabular
features, or states aggregated onto shared columns) the rules read and
write each row's active entry by index, through algos.OneHotRows, where
the dense path multiplies by the whole row; the bits are the dense
path's. A live row steps from finite weights within the threshold and a
finite trace: an infinite trace entry would already have made theta
non-finite on the step before, which froze the row. Over a one-hot phi
its dot products are then exactly theta_s and e_s, up to the sign of a
zero, and so is every index write, where the dense form also adds +-0 to
the other entries; adding or multiplying keeps such differences signed
zeros. M is diagonal on one-hot features, so each metric term
(d_i M_ii) d_i is +0 for either zero. A step where the dense path makes
NaN from inf * 0 makes theta non-finite on both paths, and the row
freezes at its previous weights either way. A frozen row's weights are
never read again, so the paths may differ there.

Sweeps that differ only in representation and variants share every
chain, so run_sweeps runs them in one pass: one process pool, each chain
simulated once, every config's learners stepped on it. run_sweep is
run_sweeps on one config.

A sweep result is columnar: (variants, lambdas, alphas) arrays of each
cell's mean, standard error and diverged count. Each worker returns its
chunk's columns and the parent scatters them with one strided assignment
per chunk (see run_sweeps); no per-cell object is built on the way.

run_chunks is the package's one process pool. It runs a module-level
task on each chunk of a list its caller cuts: min(workers, chunks)
processes, each taking the next chunk in order when it goes idle, and
the results come back in chunk order. The sweep engine sends it one
strided chunk of cell indices per worker; verify sends it chunks of a
few consecutive jobs, each a suite or an equivalence trial.

The metric's error d' M d (d = theta - theta_star) is one ordered sum per
row: the terms (d_i M_ij) d_j in row-major (i, j) order, added one by one
from +0.0, over M's nonzero entries (a zero entry adds +-0, which changes
no such sum). A row's bits therefore never depend on how many rows share
its block, so a sweep's CSV is the same at any worker count. The engine
sums in time blocks: each step's d goes feature-major into a buffer of
K steps (at most METRIC_BLOCK_VALUES entries, so it stays in cache), and
every K steps the sum runs one term at a time over all K x variants x
rows (step, row) pairs at once. Each pair's sum keeps its order, so K
changes no bit.
"""

from __future__ import annotations

import itertools
import os
import re
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, replace
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .algos import (
    PREDICTION_LEARNERS,
    PREDICTION_VARIANTS,
    AccumulateTD,
    OneHotRows,
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
    stationary_distribution,
    true_values,
)
from .oracle import online_lambda_return_algorithm, watkins_forward_view
from .rng import SplitMix64Rows, mix64

DIVERGENCE_THRESHOLD = 1e100
# Entries of each per-block array the sweep engine holds at once, about
# 16 MB: the chains (rows x (steps + 1) states and rewards) and the errors
# of the config with the most variants (variants x rows x steps).
CHAIN_BLOCK_VALUES = 1 << 21
# Error-buffer entries (features x steps x rows) the sweep metric sums at
# once: 256 KB, so the buffer stays in cache between its writes and its sum.
METRIC_BLOCK_VALUES = 1 << 15
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


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's per-cell aggregates as read-only (variants, lambdas,
    alphas) arrays, indexed in the config's grid order: the mean and
    standard error of the runs' metrics, and how many runs diverged."""

    config: SweepConfig
    metric_mean: np.ndarray
    metric_se: np.ndarray
    diverged: np.ndarray

    def __post_init__(self):
        c = self.config
        grid = (len(c.variants), len(c.lambdas), len(c.alphas))
        for a in (self.metric_mean, self.metric_se, self.diverged):
            if a.shape != grid:
                raise ConfigError(f"sweep result arrays must have shape {grid}, got {a.shape}")
            a.flags.writeable = False

    def _rows(self) -> list[tuple]:
        """(variant, alpha, lam, mean, se, runs, diverged) per cell as Python
        scalars, in CSV row order: variant, then lambda, then alpha."""
        c = self.config
        keys = itertools.product(c.variants, c.lambdas, c.alphas)
        columns = (a.ravel().tolist() for a in (self.metric_mean, self.metric_se, self.diverged))
        return [
            (v, alpha, lam, m, se, c.runs, d) for (v, lam, alpha), m, se, d in zip(keys, *columns)
        ]

    @property
    def cells(self) -> tuple[CellResult, ...]:
        """Every cell in CSV row order, built on each call."""
        return tuple(CellResult(*row) for row in self._rows())

    def cell(self, variant: str, alpha: float, lam: float) -> CellResult:
        c = self.config
        if variant not in c.variants or alpha not in c.alphas or lam not in c.lambdas:
            raise KeyError((variant, alpha, lam))
        i = (c.variants.index(variant), c.lambdas.index(lam), c.alphas.index(alpha))
        mean, se, div = (a[i].item() for a in (self.metric_mean, self.metric_se, self.diverged))
        return CellResult(variant, alpha, lam, mean, se, c.runs, div)


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
    mrp: Mrp, representation: Representation, weighting: str = "stationary"
) -> tuple[np.ndarray, np.ndarray, float]:
    """(M, theta_star, initial_error) so that the weighted squared value
    error of theta against the best linear solution is (d' M d) with
    d = theta - theta_star. The state weights w are the stationary
    distribution (continuing chains only) or uniform over the non-terminal
    states; theta_star is the w-weighted least-squares fit of the true
    values, through the pseudo-inverse, so rank-deficient tables are fine."""
    if not isinstance(weighting, str) or weighting not in ("stationary", "uniform"):
        raise ConfigError(f"unknown weighting {weighting!r}")
    nt = mrp.nonterminal_states()
    if weighting == "stationary":
        w = stationary_distribution(mrp)[nt]
    else:
        w = np.full(nt.size, 1.0 / nt.size)
    phi = representation.table[nt]
    sqrt_w = np.sqrt(w)
    theta_star, *_ = np.linalg.lstsq(sqrt_w[:, None] * phi, sqrt_w * true_values(mrp)[nt], rcond=None)
    M = phi.T @ (w[:, None] * phi)
    e0 = float(theta_star @ M @ theta_star)  # error of the zero vector
    return M, theta_star, e0


def _quadratic_terms(M: np.ndarray) -> list[tuple[int, int, float]]:
    """(i, j, M_ij) of M's nonzero entries in row-major order."""
    pi, pj = np.nonzero(M)
    return list(zip(pi.tolist(), pj.tolist(), M[pi, pj].tolist()))


def _quadratic(D: np.ndarray, terms: list[tuple[int, int, float]]) -> np.ndarray:
    """Each row's d' M d as one ordered sum: the terms (d_i M_ij) d_j over
    M's nonzero entries in row-major (i, j) order, added one by one from
    +0.0. For finite d a zero entry's term is +-0, which leaves such a sum
    unchanged, so this is the sum over every (i, j). Each row's bits
    depend on that row alone, never on how many rows share the call.

    The sum runs one term at a time over all rows, on two buffers reused
    from term to term. Passing D as the transpose of a feature-major
    (n, rows) array makes each term's two feature columns contiguous."""
    Dt = D.T
    acc = np.zeros(D.shape[0])
    tmp = np.empty_like(acc)
    for i, j, m in terms:  # not np.add.reduce: on one row it sums pairwise
        np.multiply(Dt[i], m, out=tmp)
        tmp *= Dt[j]
        acc += tmp
    return acc


def _one_hot_columns(table: np.ndarray) -> np.ndarray | None:
    """The column of each row's 1.0 when every row of table is one-hot
    (tabular features, or states aggregated onto shared columns), else
    None."""
    ones = table == 1.0
    if np.all(ones | (table == 0.0)) and np.all(ones.sum(axis=1) == 1):
        return ones.argmax(axis=1)
    return None


def _run_metrics(
    variants: tuple[str, ...],
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
    """One learner per (variant, row) over the row's pre-sampled chain,
    every variant and row in lockstep.

    `states` and `rewards` are time-major, alpha and lam (rows, 1)
    columns. The variants' learners are stacked variant-major in one
    (variants x rows, n) weight array: each variant's rule steps its own
    contiguous row slice, and each step gathers the features once for
    all of them. Returns each stacked row's (metric, diverged), variant
    by variant. A row whose weights leave the threshold is frozen at
    them, or at its last weights if they went non-finite, for the rest of
    its run. While every row is live one test of the whole stack stands
    in for the per-row bookkeeping; from the first step it fails, the
    per-row freeze runs on a feature-major copy of the weights, so each
    row's size is a max along the long row axis rather than over its few
    features. Both are exact, so the freeze keeps its bits.

    When every row of the table is one-hot, the rules step on
    algos.OneHotRows: each variant reads theta.phi, theta.phi' and e.phi
    as the row's active entry and adds or subtracts phi by index. This
    gives the dense path's bits, for the reasons in the module docstring:
    the two differ only in the sign of zeros and in the entries of rows
    that are already frozen, and the metric sees neither.

    Each step's d = shown - theta_star goes into a feature-major buffer
    of K steps, K sized so that it holds at most METRIC_BLOCK_VALUES
    values, and _quadratic sums every K steps at once. The sum for each
    (row, step) is still the ordered one, row-major over M's nonzero
    entries from +0.0, so a row's metric has the same bits in a block of
    any size, beside any other variants, at any K.
    """
    rules = [PREDICTION_LEARNERS[v].rule for v in variants]
    steps, rows = rewards.shape
    n = table.shape[1]
    stacked = len(variants) * rows
    columns = _one_hot_columns(table)
    if columns is None:
        def features(s):
            return table.take(s, axis=0)
    else:
        row_starts = (np.arange(rows) * n)[:, None]

        def features(s):
            return OneHotRows(row_starts + columns.take(s)[:, None])
    theta, e = np.zeros((stacked, n)), np.zeros((stacked, n))
    slices = [slice(v * rows, (v + 1) * rows) for v in range(len(variants))]
    v_olds = [np.zeros((rows, 1)) for _ in variants]
    shown = np.zeros((n, stacked))  # the weights the metric sees, feature-major
    star = np.repeat(theta_star[:, None], stacked, axis=1)  # a broadcast column is slower
    live = np.ones(stacked, dtype=bool)
    terms = _quadratic_terms(M)
    errors = np.empty((stacked, steps))
    K = max(1, min(steps, METRIC_BLOCK_VALUES // (stacked * n)))
    D = np.empty((n, K * stacked))  # step k of a block in columns k*stacked onwards
    phi_next = features(states[0])
    for t in range(steps):
        phi, phi_next = phi_next, features(states[t + 1])
        reward = rewards[t][:, None]
        for v, (rule, s) in enumerate(zip(rules, slices)):
            v_olds[v] = rule(theta[s], e[s], v_olds[v], phi, reward, phi_next, gamma, alpha, lam)
        k = t % K
        d = D[:, k * stacked : (k + 1) * stacked]
        if live.all() and np.abs(theta).max() <= DIVERGENCE_THRESHOLD:  # False on NaN
            np.copyto(shown, theta.T)
        else:  # d holds theta feature-major until this step's d is written
            np.copyto(d, theta.T)
            size = np.abs(d).max(axis=0)  # along the long row axis; NaN if any weight is
            moved = live & np.isfinite(size)
            live &= size <= DIVERGENCE_THRESHOLD
            np.copyto(shown, d, where=moved)
        np.subtract(shown, star, out=d)
        if k == K - 1 or t == steps - 1:
            block = _quadratic(D[:, : (k + 1) * stacked].T, terms)
            errors[:, t - k : t + 1] = block.reshape(k + 1, stacked).T
    errors /= e0
    return errors.mean(axis=1), ~live


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


def _run_seeds(master_seed: int, cells: list[int], runs: int) -> np.ndarray:
    """The run seeds of the given cells, run by run within each cell, as
    uint64: mix64(mix64(master_seed ^ cell) ^ mix64(run + 1))."""
    cell_seeds = mix64(np.uint64(master_seed) ^ np.array(cells, dtype=np.uint64))
    run_keys = mix64(np.arange(1, runs + 1, dtype=np.uint64))
    return mix64(cell_seeds[:, None] ^ run_keys).ravel()


def _sweep_cells(
    mrp: Mrp, plans: tuple[_SweepPlan, ...], cell_indices: list[int]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each plan's (mean, se, diverged) arrays, each of shape (variants,
    len(cell_indices)), column j for cell cell_indices[j].

    The plans share their chains (every config field but representation
    and variants agrees), so each block's chains are simulated once and
    every plan steps all its variants on them in one _run_metrics call.
    Cells are batched in blocks small enough that each per-block array,
    the chains (rows x steps) and the widest plan's errors (variants x
    rows x steps), holds at most CHAIN_BLOCK_VALUES entries, so memory
    stays bounded however many cells a chunk holds; rows are
    independent, so blocking changes no result.
    """
    config = plans[0].config
    n_alpha, runs = len(config.alphas), config.runs
    width = max(len(plan.config.variants) for plan in plans)
    block = max(1, CHAIN_BLOCK_VALUES // (width * runs * (config.steps + 1)))
    out = [
        tuple(np.zeros((len(p.config.variants), len(cell_indices)), t) for t in (float, float, int))
        for p in plans
    ]
    for start in range(0, len(cell_indices), block):
        cells = cell_indices[start : start + block]
        seeds = _run_seeds(config.master_seed, cells, runs)
        states, rewards = simulate_chains(mrp, config.steps, SplitMix64Rows(seeds))
        alpha = np.repeat([config.alphas[ci % n_alpha] for ci in cells], runs)[:, None]
        lam = np.repeat([config.lambdas[ci // n_alpha] for ci in cells], runs)[:, None]
        columns = slice(start, start + len(cells))
        for plan, (mean, se, div) in zip(plans, out):
            shape = (len(plan.config.variants), len(cells), runs)
            with np.errstate(over="ignore", invalid="ignore"):
                metrics, diverged = _run_metrics(
                    plan.config.variants, states, rewards, plan.table, mrp.gamma,
                    alpha, lam, plan.M, plan.theta_star, plan.e0,
                )
                for v, vals in enumerate(metrics.reshape(shape)):
                    mean[v, columns] = vals.mean(axis=1)
                    if runs > 1:  # else the standard error stays 0
                        se[v, columns] = vals.std(axis=1, ddof=1) / np.sqrt(runs)
            div[:, columns] = diverged.reshape(shape).sum(axis=2)
    return out


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_workers(workers: int) -> None:
    """A worker count is an integer in [1, the CPUs this process may use]."""
    cpus = usable_cpus()
    if not (isinstance(workers, Integral) and 1 <= workers <= cpus):
        raise ConfigError(
            f"workers must lie in [1, {cpus}] (the CPUs this process may use), got {workers}"
        )


def run_chunks(task, args: tuple, chunks: list, workers: int) -> list:
    """[task(*args, chunk) for chunk in chunks], the chunks shared by a pool.

    Two or more chunks at two or more workers run in a process pool of
    min(workers, len(chunks)) processes: every chunk is submitted in
    order, and each process takes the next one when it goes idle. One
    worker, or a single chunk, runs in this process. Returns the chunk
    results in chunk order. The task must be a module-level function and
    args picklable, so that any start method can send them. When a chunk
    raises, the chunks still queued are cancelled, and the exception
    reaches the caller as itself after the pool has shut down.
    """
    check_workers(workers)
    if workers == 1 or len(chunks) <= 1:
        return [task(*args, chunk) for chunk in chunks]
    with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        futures = [pool.submit(task, *args, chunk) for chunk in chunks]
        done, _ = wait(futures, return_when=FIRST_EXCEPTION)
        if any(f.exception() for f in done):
            pool.shutdown(cancel_futures=True)
            raise next(f.exception() for f in futures if not f.cancelled() and f.exception())
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

    Chunk i of the pool holds cells i::workers (cell index = lambda_index
    x len(alphas) + alpha_index) and returns, per config, (variants,
    cells in the chunk) arrays. One strided assignment per chunk and
    array, a[:, i::workers] = part, puts them in cell order; the arrays
    are then reshaped to (variants, lambdas, alphas) for SweepResult.
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
    cells = len(first.lambdas) * len(first.alphas)
    cell_chunks = [list(range(i, cells, workers)) for i in range(min(workers, cells))]
    chunks = run_chunks(_sweep_cells, (mrp, plans), cell_chunks, workers)
    results = []
    for p, config in enumerate(configs):
        arrays = [np.empty((len(config.variants), cells), part.dtype) for part in chunks[0][p]]
        for i, chunk in enumerate(chunks):  # chunk i holds cells i::workers
            for a, part in zip(arrays, chunk[p]):
                a[:, i::workers] = part
        grid = (len(config.variants), len(config.lambdas), len(config.alphas))
        config = replace(config, gamma=mrp.gamma)
        results.append(SweepResult(config, *(a.reshape(grid) for a in arrays)))
    return tuple(results)


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """One config's sweep: run_sweeps on that config alone."""
    return run_sweeps((config,), workers)[0]


def sweep_to_csv(result: SweepResult) -> str:
    """Rows in variant-major order, then lambda, then alpha ascending."""
    return table_to_csv((
        ["variant", "alpha", "lambda", "metric_mean", "metric_se", "runs", "diverged"],
        result._rows(),
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

    One masked argmin over the alpha axis of the (variants, lambdas,
    alphas) arrays. A cell is ineligible when more than half its runs
    diverged or its mean is not finite; ineligible cells count as +inf,
    and a lambda with no eligible cell gets BestPoint(lam, None, None,
    None). argmin takes the first minimum, so ties prefer the smaller
    alpha (-0.0 ties with +0.0).
    """
    config = result.config
    eligible = (2 * result.diverged <= config.runs) & np.isfinite(result.metric_mean)
    pick = np.where(eligible, result.metric_mean, np.inf).argmin(axis=2)[..., None]
    found, means, ses = (
        np.take_along_axis(a, pick, axis=2)[..., 0].tolist()
        for a in (eligible, result.metric_mean, result.metric_se)
    )
    best = pick[..., 0].tolist()
    return {
        variant: [
            BestPoint(lam, config.alphas[a], m, se) if ok else BestPoint(lam, None, None, None)
            for lam, a, ok, m, se in zip(config.lambdas, best[v], found[v], means[v], ses[v])
        ]
        for v, variant in enumerate(config.variants)
    }


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
