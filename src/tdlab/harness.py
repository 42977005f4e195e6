"""Deterministic experiment harness: sweeps, metrics, equivalence checks.

Seeding contract (all constants from tdlab.rng):
  cell_index = lambda_index * len(alphas) + alpha_index
  cell_seed  = mix64(master_seed XOR cell_index)
  run_seed   = mix64(cell_seed XOR mix64(run_index + 1))
Cell seeds are shared across variants, so variant comparisons are paired
through common random numbers. Aggregation folds by cell index, so the
result does not depend on execution order or worker count.

The sweep engine is batched by block: a range of (cell, run) rows (all
of them, or one worker's share) runs in blocks. A block draws
its chains through SplitMix64Rows a time block at a time and advances
every variant of a config in lockstep over each: one (variants x rows,
n) weight array, in which each variant's algos trace rule steps its own
row slice, with one feature gather and one divergence test per step for
all of them. Each row computes exactly what a scalar learner on that
run's seed computes, so sweep CSVs are byte-identical to running the
runs one at a time. A block's memory does not grow with runs or steps:
it holds the weights, one time block of chains and each row's running
time mean, never a weight history or a run's per-step errors, and each
of these arrays holds at most CHAIN_BLOCK_VALUES entries. The time mean
adds each step's error in the order of numpy's pairwise sum
(_TimeMean), so it has the bits of errors.mean(axis=1) over the whole
run.

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

A sweep is (cell, run) rows from the pool to the result. Each worker
returns (variants, rows) arrays of its consecutive rows' metrics and
diverged flags, and run_sweeps, the one place where runs become cells,
reduces them to (variants, lambdas, alphas) arrays of each cell's mean,
standard error and diverged count. sweep_to_csv formats those arrays
row by row, and best_per_lambda reduces them to (variants, lambdas)
arrays; no per-cell object is built anywhere.

run_chunks is the package's one process pool. It runs a module-level
task on each chunk of a list its caller cuts: min(workers, chunks)
processes, the calling one and children started on plain multiprocessing
(no executor, management thread or futures), each taking the next chunk
when it goes idle, and the results come back in chunk order. The sweep
engine sends it one consecutive range of rows per worker; verify sends
it chunks of a few consecutive jobs, each a suite or an equivalence
trial.

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
from dataclasses import dataclass, replace
from multiprocessing import Process
from multiprocessing.connection import Pipe, wait
from multiprocessing.sharedctypes import Value
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
    replay_prediction,
)
from .core import ConfigError, Trajectory, check_integer, check_real, check_seed, is_integer, read_json_object
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
# 16 MB: the weights of the config with the most variants (variants x
# rows x n), its time-mean accumulators and a time block of chains.
CHAIN_BLOCK_VALUES = 1 << 21
# Error-buffer entries (features x steps x rows) the sweep metric sums at
# once: 256 KB, so the buffer stays in cache between its writes and its sum.
# A block's chains are drawn in time blocks of as many states.
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
    """Everything needed to reproduce a sweep bit-for-bit; gamma is checked
    even where a file: env keeps its own."""

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
        if not isinstance(self.env, str):
            raise ConfigError(f"env must be a string, got {self.env!r}")
        check_integer(self.runs, "runs", low=1)
        check_integer(self.steps, "steps", low=1)
        check_seed(self.master_seed, "master_seed")
        check_real(self.gamma, "gamma", 1.0)
        for alpha in self.alphas:
            check_real(alpha, "alpha")
        for lam in self.lambdas:
            check_real(lam, "lambda", 1.0)
        # best_per_lambda's tie rule and the CSV's row order read the grids in order
        for name, grid in (("alpha", self.alphas), ("lambda", self.lambdas)):
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigError(f"{name} grid must be ascending without duplicates, got {grid}")
        if not self.variants or len(set(self.variants)) < len(self.variants):
            raise ConfigError(f"variant list must be non-empty without repeats, got {self.variants}")
        for v in self.variants:
            if v not in PREDICTION_VARIANTS:
                raise ConfigError(f"unknown variant {v!r}; expected one of {PREDICTION_VARIANTS}")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's per-cell aggregates as read-only (variants, lambdas,
    alphas) arrays, indexed in the config's grid order: the mean and
    standard error of the runs' metrics, and how many runs diverged. The
    cell of (variant, alpha, lam) is at (variants.index(variant),
    lambdas.index(lam), alphas.index(alpha)); every cell has config.runs
    runs."""

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


def _pairwise_tree(n: int):
    """numpy's pairwise summation tree over n values, left to right: the
    length of each leaf (at most 128 values) and a 0 for each merge of
    the two partial sums before it, in the order numpy adds them."""
    if n <= 128:
        yield n
    else:  # numpy splits in halves, the first a multiple of 8
        half = n // 2 - n // 2 % 8
        yield from _pairwise_tree(half)
        yield from _pairwise_tree(n - half)
        yield 0


class _TimeMean:
    """Each row's mean over `steps` values that arrive a few steps at a
    time, with the bits of x.mean(axis=1) on the whole (rows, steps) x,
    in memory that does not grow with steps.

    numpy sums each row over _pairwise_tree. A leaf of fewer than 8 values
    adds them in order. A longer leaf loads its first 8 values into 8
    accumulators, adds value i to accumulator i % 8 up to the last
    multiple of 8, takes ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 +
    r7)) and adds the rest in order. A merge adds the right partial sum
    to the left. The mean is (0.0 + sum) / steps, as numpy's sum starts
    from +0.0. This keeps the open leaf's accumulators and a stack of
    finished partial sums, at most one per level of the tree, and adds up
    to 8 consecutive steps with one numpy operation.
    """

    def __init__(self, steps: int, rows: int):
        self._steps = steps
        self._tree = _pairwise_tree(steps)
        self._leaf, self._pos = next(self._tree), 0  # the open leaf's length and fill
        self._acc = np.empty((8, rows))
        self._sum = None  # the open leaf's sum, once its accumulators are combined
        self._sums = []  # finished partial sums awaiting their merges, left to right

    def add(self, values: np.ndarray) -> None:
        """Fold in the next len(values) steps; values is (steps, rows)."""
        acc, leaf, p = self._acc, self._leaf, self._pos
        i, n = 0, len(values)
        while i < n:
            main = leaf - leaf % 8  # the accumulators' share of the leaf
            if p < main:
                j = p % 8
                m = min(8 - j, n - i)
                if p < 8:
                    acc[j : j + m] = values[i : i + m]
                else:
                    acc[j : j + m] += values[i : i + m]
                if p + m == main:
                    self._sum = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + (
                        (acc[4] + acc[5]) + (acc[6] + acc[7])
                    )
            else:
                m = 1
                if p == 0:  # a leaf of fewer than 8 values; -0.0 + x is x
                    self._sum = values[i].copy()
                else:
                    self._sum += values[i]
            i, p = i + m, p + m
            if p == leaf:
                self._sums.append(self._sum)
                node = next(self._tree, None)
                while node == 0:
                    right = self._sums.pop()
                    self._sums[-1] += right
                    node = next(self._tree, None)
                leaf, p = node, 0
        self._leaf, self._pos = leaf, p

    def mean(self) -> np.ndarray:
        """Each row's mean, once all `steps` values are in."""
        return (0.0 + self._sums[0]) / self._steps


class _Learners:
    """One learner per (variant, row), every variant and row in lockstep
    over the rows' chains, which arrive a time block at a time.

    alpha and lam are (rows, 1) columns. The variants' learners are
    stacked variant-major in one (variants x rows, n) weight array: each
    variant's rule steps its own contiguous row slice, and each step
    gathers the features once for all of them. advance steps them over
    the next time block; once all `steps` are taken, finish returns each
    stacked row's (metric, diverged), variant by variant. A row whose
    weights leave the threshold is frozen at them, or at its last weights
    if they went non-finite, for the rest of its run. While every row is
    live one test of the whole stack stands in for the per-row
    bookkeeping; from the first step it fails, the per-row freeze runs on
    a feature-major copy of the weights, so each row's size is a max along
    the long row axis rather than over its few features. Both are exact,
    so the freeze keeps its bits.

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
    any size, beside any other variants, at any K. Each summed block,
    divided by e0, is folded into the rows' time means (_TimeMean), so no
    per-step error outlives its block, whatever the time blocks.
    """

    def __init__(self, variants, table, gamma, alpha, lam, M, theta_star, e0, steps):
        rows, n = alpha.shape[0], table.shape[1]
        stacked = len(variants) * rows
        columns = _one_hot_columns(table)
        if columns is None:
            def features(s):
                return table.take(s, axis=0)
        else:
            row_starts = (np.arange(rows) * n)[:, None]

            def features(s):
                return OneHotRows(row_starts + columns.take(s)[:, None])
        self.features = features
        self.rules = [PREDICTION_LEARNERS[v].rule for v in variants]
        self.slices = [slice(v * rows, (v + 1) * rows) for v in range(len(variants))]
        self.gamma, self.alpha, self.lam, self.e0, self.steps = gamma, alpha, lam, e0, steps
        self.theta, self.e = np.zeros((stacked, n)), np.zeros((stacked, n))
        self.v_olds = [np.zeros((rows, 1)) for _ in variants]
        self.shown = np.zeros((n, stacked))  # the weights the metric sees, feature-major
        self.star = np.repeat(theta_star[:, None], stacked, axis=1)  # a broadcast column is slower
        self.live = np.ones(stacked, dtype=bool)
        self.terms = _quadratic_terms(M)
        self.K = max(1, min(steps, METRIC_BLOCK_VALUES // (stacked * n)))
        self.D = np.empty((n, self.K * stacked))  # step k of a block in columns k*stacked onwards
        self.time_mean = _TimeMean(steps, stacked)
        self.t = 0  # steps taken

    def advance(self, states: np.ndarray, rewards: np.ndarray) -> None:
        """Step every learner over the next len(rewards) steps of its row's
        chain: time-major (len(rewards) + 1, rows) states, the first row
        the states the last time block ended in, and (len(rewards), rows)
        rewards."""
        features, rules, slices, v_olds = self.features, self.rules, self.slices, self.v_olds
        theta, e, shown, star, live, D, K = (
            self.theta, self.e, self.shown, self.star, self.live, self.D, self.K
        )
        gamma, alpha, lam, steps = self.gamma, self.alpha, self.lam, self.steps
        stacked = live.size
        phi_next = features(states[0])
        for i, t in enumerate(range(self.t, self.t + len(rewards))):
            phi, phi_next = phi_next, features(states[i + 1])
            reward = rewards[i][:, None]
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
                errors = _quadratic(D[:, : (k + 1) * stacked].T, self.terms)
                errors /= self.e0
                self.time_mean.add(errors.reshape(k + 1, stacked))
        self.t += len(rewards)

    def finish(self) -> tuple[np.ndarray, np.ndarray]:
        """Each stacked row's (metric, diverged), variant by variant."""
        return self.time_mean.mean(), ~self.live


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


def _run_seeds(master_seed: int, rows: range, runs: int) -> np.ndarray:
    """The run seeds of (cell, run) rows as uint64, row r being run r % runs
    of cell r // runs: mix64(mix64(master_seed ^ cell) ^ mix64(run + 1))."""
    cell, run = np.divmod(np.arange(rows.start, rows.stop, rows.step, dtype=np.uint64), runs)
    return mix64(mix64(np.uint64(master_seed) ^ cell) ^ mix64(run + 1))


def _sweep_cells(
    mrp: Mrp, plans: tuple[_SweepPlan, ...], rows: range
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each plan's per-run (metric, diverged) arrays, each of shape
    (variants, len(rows)): column j is row rows[j] (see run_sweeps).

    The plans share their chains (every config field but representation
    and variants agrees). The rows go in blocks; a cell's runs may span
    two blocks, or two workers' ranges. Each block draws its chains a
    time block at a time from one SplitMix64Rows, and every plan steps
    all its variants over a time block (_Learners) before the next is
    drawn, so each chain is simulated once. Blocks are sized so that each
    per-block array, whatever runs and steps are, holds at most
    CHAIN_BLOCK_VALUES entries: a plan's weights (variants x rows x n),
    its time-mean accumulators (variants x rows x 8), a step's cumulative
    transition rows (rows x k) and a time block's chains, (span + 1) x
    rows, which hold at most METRIC_BLOCK_VALUES entries, or one step's
    two rows of states when a block has more than half that many rows.
    Rows are independent and the time means keep their order, so
    blocking changes no result.
    """
    config = plans[0].config
    n_alpha, runs, steps = len(config.alphas), config.runs, config.steps
    seeds = _run_seeds(config.master_seed, rows, runs)
    row_cells = np.arange(rows.start, rows.stop, rows.step) // runs
    alpha = np.array(config.alphas)[row_cells % n_alpha][:, None]
    lam = np.array(config.lambdas)[row_cells // n_alpha][:, None]
    width = max(mrp.k, *(len(p.config.variants) * max(p.table.shape[1], 8) for p in plans))
    block = max(1, CHAIN_BLOCK_VALUES // width)
    metrics = [np.empty((len(p.config.variants), seeds.size)) for p in plans]
    diverged = [np.empty((len(p.config.variants), seeds.size), dtype=bool) for p in plans]
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, seeds.size, block):
            part = slice(start, start + block)
            rng = SplitMix64Rows(seeds[part])
            learners = [
                _Learners(
                    p.config.variants, p.table, mrp.gamma, alpha[part], lam[part],
                    p.M, p.theta_star, p.e0, steps,
                )
                for p in plans
            ]
            span = max(1, METRIC_BLOCK_VALUES // len(rng) - 1)
            states = None
            for t in range(0, steps, span):
                last = None if states is None else states[-1]
                states, rewards = simulate_chains(mrp, min(span, steps - t), rng, last)
                for learner in learners:
                    learner.advance(states, rewards)
            for learner, m, d in zip(learners, metrics, diverged):
                m[:, part], d[:, part] = (a.reshape(len(m), -1) for a in learner.finish())
    return list(zip(metrics, diverged))


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def check_workers(workers: int) -> None:
    """A worker count is an integer in [1, the CPUs this process may use]."""
    cpus = usable_cpus()
    if not (is_integer(workers) and 1 <= workers <= cpus):
        raise ConfigError(
            f"workers must lie in [1, {cpus}] (the CPUs this process may use), got {workers}"
        )


def run_chunks(task, args: tuple, chunks: list, workers: int) -> list:
    """[task(*args, chunk) for chunk in chunks], the chunks shared by a pool.

    Two or more chunks at two or more workers run in min(workers,
    len(chunks)) processes: this one and the children it starts. Each takes
    the next chunk index from one shared counter when it goes idle, and a
    child sends (index, ok, value) back over its own one-way pipe. Returns
    the results in chunk order. The task must be a module-level function,
    and args, the chunks and a child's results picklable, so that any start
    method can send them. When a chunk raises, no further chunk is handed
    out, and once every child is joined the lowest chunk's failure reaches
    the caller: its exception as itself, or a RuntimeError naming a chunk
    whose child exited without sending its result. No child outlives the
    call, even when the caller is interrupted.
    """
    check_workers(workers)
    if workers == 1 or len(chunks) <= 1:
        return [task(*args, chunk) for chunk in chunks]
    handed = Value("i", 0)
    results = [None] * len(chunks)
    children, pipes = [], []
    try:
        for _ in range(min(workers, len(chunks)) - 1):
            receiver, sender = Pipe(duplex=False)
            child = Process(target=_pool_child, args=(task, args, chunks, handed, sender))
            child.start()
            sender.close()  # the child's is now the only write end: EOF once it exits
            children.append(child)
            pipes.append(receiver)
        for i, ok, value in _take_chunks(task, args, chunks, handed):
            results[i] = ok, value
        while pipes:
            for pipe in wait(pipes):
                try:
                    i, ok, value = pipe.recv()
                except (EOFError, OSError):  # the child has exited
                    pipes.remove(pipe)
                    pipe.close()
                else:
                    results[i] = ok, value
    except BaseException:
        for child in children:
            child.terminate()
        raise
    finally:
        for child in children:
            child.join()
        for pipe in pipes:
            pipe.close()
    # The lowest failure: every chunk below a failed one was handed out, so
    # a result missing there is a child that exited without sending it.
    for i, result in enumerate(results):
        if result is None:
            codes = sorted({child.exitcode for child in children} - {0})
            raise RuntimeError(f"chunk {i} returned no result: a pool child exited with code {codes}")
        if not result[0]:
            raise result[1]
    return [value for _, value in results]


def _take_chunks(task, args: tuple, chunks: list, handed):
    """One pool process's share: (index, ok, value) for each chunk it takes
    in turn, value the exception where ok is False, until no chunk is left.
    A failed chunk sets the shared count of chunks handed out to
    len(chunks), so that no further chunk goes out."""
    while True:
        with handed.get_lock():
            i = handed.value
            if i >= len(chunks):
                return
            handed.value = i + 1
        try:
            result = i, True, task(*args, chunks[i])
        except Exception as error:  # the caller re-raises it
            handed.value = len(chunks)
            result = i, False, error
        yield result


def _pool_child(task, args: tuple, chunks: list, handed, sender) -> None:
    """A pool child: _take_chunks, each result sent over its pipe, a result
    that pickle cannot send replaced by the error that says so."""
    for i, ok, value in _take_chunks(task, args, chunks, handed):
        try:
            sender.send((i, ok, value))
        except Exception as error:
            handed.value = len(chunks)
            sender.send((i, False, error))
    sender.close()


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

    The pool's unit is the (cell, run) row, run r % runs of cell r // runs
    (cell index = lambda_index x len(alphas) + alpha_index), cut into
    min(workers, cells) consecutive ranges equal to within one row, so a
    one-cell sweep stays in this process. Each worker returns its rows'
    metrics and diverged flags; here, the one place where runs become
    cells, they are reduced to each cell's mean, se and diverged count.
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
    check_workers(workers)
    # One row range per worker, _sweep_cells cutting its own memory blocks, not a
    # chunk per block: each chunk pickles the chain and plans again. A 2 800-row
    # mrp(2000,3,0.1) binary sweep (20 steps, 2 workers, 2-CPU VM) took 1.66-2.08 s
    # in 3 block-sized chunks, 1.42-1.70 s this way, same CSV (4 runs each).
    cells, runs = len(first.lambdas) * len(first.alphas), first.runs
    chunks = np.array_split(np.arange(cells * runs), min(workers, cells))
    row_ranges = [range(c[0], c[-1] + 1) for c in chunks]
    parts = run_chunks(_sweep_cells, (mrp, plans), row_ranges, workers)
    results = []
    with np.errstate(over="ignore", invalid="ignore"):
        for config, arrays in zip(configs, zip(*parts)):  # each config's chunks, in row order
            grid = (len(config.variants), len(config.lambdas), len(config.alphas), runs)
            metric, diverged = (np.concatenate(a, axis=1).reshape(grid) for a in zip(*arrays))
            se = metric.std(axis=3, ddof=1) / np.sqrt(runs) if runs > 1 else np.zeros(grid[:3])
            config = replace(config, gamma=mrp.gamma)
            results.append(SweepResult(config, metric.mean(axis=3), se, diverged.sum(axis=3)))
    return tuple(results)


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """One config's sweep: run_sweeps on that config alone."""
    return run_sweeps((config,), workers)[0]


def sweep_to_csv(result: SweepResult) -> str:
    """Rows in variant-major order, then lambda, then alpha ascending."""
    c = result.config
    keys = itertools.product(c.variants, c.lambdas, c.alphas)
    columns = (a.ravel().tolist() for a in (result.metric_mean, result.metric_se, result.diverged))
    return table_to_csv((
        ["variant", "alpha", "lambda", "metric_mean", "metric_se", "runs", "diverged"],
        [(v, alpha, lam, m, se, c.runs, d) for (v, lam, alpha), m, se, d in zip(keys, *columns)],
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


def best_per_lambda(result: SweepResult) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The minimum mean metric over alpha for each (variant, lambda):
    (alpha_index, mean, se, found), each a (variants, lambdas) array.

    One masked argmin over the alpha axis of the (variants, lambdas,
    alphas) arrays. A cell is ineligible when more than half its runs
    diverged or its mean is not finite; ineligible cells count as +inf.
    found is False where a lambda has no eligible cell, and there the
    other three arrays hold no result. argmin takes the first minimum, so
    ties prefer the smaller alpha (-0.0 ties with +0.0).
    """
    eligible = (2 * result.diverged <= result.config.runs) & np.isfinite(result.metric_mean)
    pick = np.where(eligible, result.metric_mean, np.inf).argmin(axis=2)[..., None]
    mean, se, found = (
        np.take_along_axis(a, pick, axis=2)[..., 0]
        for a in (result.metric_mean, result.metric_se, eligible)
    )
    return pick[..., 0], mean, se, found


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
