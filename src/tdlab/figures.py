"""Data generators for the benchmark figures, emitted as CSV tables.

No plotting here: each generator returns (header, rows) ready for CSV
serialization, so plotting stays a downstream concern.
"""

from __future__ import annotations

import numpy as np

from .algos import (
    AccumulateTD,
    accumulate_rule,
    check_step_size,
    dutch_rule,
    make_prediction_learner,
    replay_prediction,
    run_episode,
)
from .core import ConfigError, Transition, check_integer
from .envs import canonical_task, true_values
from .harness import (
    DEFAULT_VARIANTS,
    SweepConfig,
    best_per_lambda,
    paper_alpha_grid,
    paper_lambda_grid,
    run_sweeps,
)
from .oracle import offline_lambda_return_algorithm, online_lambda_return_algorithm
from .rng import SplitMix64

FigureTable = tuple[list[str], list[list]]


def _walk_rms(theta: np.ndarray, v: np.ndarray, rms0: float) -> float:
    return float(np.sqrt(np.mean((theta - v) ** 2)) / rms0)


def random_walk_learning_curves(
    alpha: float = 0.2, lam: float = 1.0, episodes: int = 3, seed: int = 1
) -> FigureTable:
    """Per-step normalized RMS error on the left-drift random walk.

    Compares the offline and online lambda-return replays with the
    accumulating-trace learner on the same recorded episodes. The offline
    column only moves at episode boundaries.
    """
    check_integer(episodes, "episodes")
    if episodes < 1:
        raise ConfigError(f"episodes must be >= 1, got {episodes}")
    mrp, rep = canonical_task("random-walk-10")
    v = true_values(mrp)[:10]
    rms0 = float(np.sqrt(np.mean(v**2)))  # error of the zero vector
    rng = SplitMix64(seed)
    trajs = [run_episode(mrp, rep, rng, max_steps=100_000) for _ in range(episodes)]

    rows: list[list] = []
    theta_off = np.zeros(rep.n)
    theta_on = np.zeros(rep.n)
    acc = AccumulateTD(rep.n, alpha=alpha, lam=lam)
    for traj in trajs:
        acc.start_episode()
        online = online_lambda_return_algorithm(traj, alpha, lam, theta_on)
        accumulated = replay_prediction(acc, traj)
        for theta_lam, theta_acc in zip(online[1:], accumulated[1:]):
            rows.append([
                len(rows) + 1,
                _walk_rms(theta_off, v, rms0),
                _walk_rms(theta_lam, v, rms0),
                _walk_rms(theta_acc, v, rms0),
            ])
        theta_on = online[-1]
        theta_off = offline_lambda_return_algorithm(traj, alpha, lam, theta_off)
    return ["time", "offline", "online", "accumulate"], rows


def one_state_step_size_curve(
    alphas: tuple[float, ...] | None = None,
    episodes: int = 10,
    runs: int = 200,
    seed: int = 1,
) -> FigureTable:
    """RMS error of the single state value at episode ends, per step-size.

    Each run's episodes (geometric lengths) are recorded once; the accumulate
    and dutch trace rules step over them on one weight row per step-size.
    The accumulating-trace column blows up once the per-episode pseudo
    step-size T*alpha leaves the stable range, while the true online
    column stays bounded for alpha <= 1.
    """
    check_integer(runs, "runs")
    check_integer(episodes, "episodes")
    if runs < 1 or episodes < 1:
        raise ConfigError(f"runs and episodes must be >= 1, got runs={runs}, episodes={episodes}")
    if alphas is None:
        alphas = tuple((i + 1) / 20 for i in range(40))  # 0.05 .. 2.0
    for alpha in alphas:
        check_step_size(alpha)
    alpha_col = np.array(alphas, dtype=np.float64)[:, None]
    mrp, rep = canonical_task("one-state")
    sq = {accumulate_rule: np.zeros(len(alphas)), dutch_rule: np.zeros(len(alphas))}
    rng = SplitMix64(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(runs):
            trajs = [run_episode(mrp, rep, rng) for _ in range(episodes)]
            for rule, total in sq.items():
                theta = np.zeros((len(alphas), 1))
                for traj in trajs:
                    e, v_old = np.zeros_like(theta), 0.0
                    for tr in traj.steps:
                        v_old = rule(theta, e, v_old, tr.phi, tr.reward, tr.phi_next, tr.gamma,
                                     alpha_col, 1.0)
                    # a numpy scalar's ** 2 (libm pow); an array's can differ in the last bit
                    total += [(x - 1.0) ** 2 for x in theta[:, 0]]
    rms = [np.sqrt(total / (runs * episodes)).tolist() for total in sq.values()]
    return ["alpha", "accumulate", "true_online"], [list(row) for row in zip(alphas, *rms)]


TWO_STATE_CONVERGENCE_WINDOW = 100
TWO_STATE_CONVERGENCE_REL_CHANGE = 0.01
# One quiet window is not enough: the error passes through a flat minimum
# on its way up to the one-step fixed point, which would trigger a false
# convergence. Two consecutive quiet windows only occur at the asymptote.
TWO_STATE_CONVERGENCE_CONSECUTIVE = 2


def two_state_asymptotic_rms(
    variant: str,
    lam: float,
    alpha: float = 0.01,
    max_steps: int = 1_000_000,
) -> float:
    """RMS error after convergence on the deterministic two-state episode.

    Converged means the error changed by less than 1% over the trailing
    100-step window, for two windows in a row. With the shared always-on
    feature the error is sqrt(((theta-2)^2 + theta^2) / 2), minimized at
    1 by theta = 1. variant is any prediction variant (PREDICTION_VARIANTS).
    """
    mrp, rep = canonical_task("two-state")
    learner = make_prediction_learner(variant, rep.n, alpha, lam)
    zero = rep.phi(2)
    step_left = Transition(rep.phi(0), 2.0, rep.phi(1), 1.0)
    step_right = Transition(rep.phi(1), 0.0, zero, 1.0, terminal=True)

    def rms() -> float:
        th = learner.theta[0]
        return float(np.sqrt(((th - 2.0) ** 2 + th**2) / 2.0))

    previous = rms()
    quiet = 0
    steps = 0
    while steps < max_steps:
        learner.start_episode()
        for tr in (step_left, step_right):
            learner.step(tr)
            steps += 1
            if steps % TWO_STATE_CONVERGENCE_WINDOW == 0:
                current = rms()
                if abs(current - previous) < TWO_STATE_CONVERGENCE_REL_CHANGE * previous:
                    quiet += 1
                    if quiet >= TWO_STATE_CONVERGENCE_CONSECUTIVE:
                        return current
                else:
                    quiet = 0
                previous = current
    raise RuntimeError(f"no convergence within {max_steps} steps for {variant} at lambda={lam}")


def two_state_asymptote_curves(
    lambdas: tuple[float, ...] | None = None, alpha: float = 0.01
) -> FigureTable:
    """Asymptotic RMS error per lambda for the three trace variants."""
    if lambdas is None:
        lambdas = paper_lambda_grid()
    rows = []
    for lam in lambdas:
        rows.append([
            lam,
            two_state_asymptotic_rms("accumulate", lam, alpha),
            two_state_asymptotic_rms("replace", lam, alpha),
            two_state_asymptotic_rms("true-online", lam, alpha),
        ])
    return ["lambda", "accumulate", "replace", "true_online"], rows


def mrp_best_lambda_curves(
    k: int = 10,
    b: int = 3,
    sigma: float = 0.1,
    runs: int = 50,
    steps: int = 100,
    master_seed: int = 20260811,
    workers: int = 1,
) -> FigureTable:
    """Best-over-alpha normalized MSE per lambda on a random MRP.

    One sweep per representation, run together in one pass: the three
    share every chain, so each chain is simulated once and one process
    pool serves them all. Replacing traces are skipped where the features
    are not binary. Empty cells (no eligible alpha) are emitted with blank
    metric fields.
    """
    configs = tuple(
        SweepConfig(
            env=f"mrp({k},{b},{sigma:g})",
            representation=rep_kind,
            variants=variants,
            alphas=paper_alpha_grid(),
            lambdas=paper_lambda_grid(),
            steps=steps,
            runs=runs,
            master_seed=master_seed,
        )
        for rep_kind, variants in DEFAULT_VARIANTS.items()
    )
    rows: list[list] = []
    for result in run_sweeps(configs, workers=workers):
        for variant, points in best_per_lambda(result).items():
            for p in points:
                rows.append([
                    result.config.representation, variant, p.lam,
                    "" if p.alpha is None else p.alpha,
                    "" if p.metric_mean is None else p.metric_mean,
                    "" if p.metric_se is None else p.metric_se,
                ])
    return ["representation", "variant", "lambda", "alpha", "metric_mean", "metric_se"], rows
