"""Self-check suites behind `tdlab verify`.

Each check returns a pass/fail line; the exactness suites realize the
forward/backward equivalence guarantees as executable assertions with
pinned tolerances (1e-8 for oracle replays, 1e-12 for algebraic
identities).

Every check runs as a job: the closed-form, proposition and theorem-1
suites are one job each, and so is each equivalence trial, which seeds
itself from (seed, trial). run_suite cuts a suite's jobs into chunks of
at most JOBS_PER_CHUNK consecutive jobs for harness.run_chunks, whose
`workers` processes each take the next chunk when they go idle, and
joins the checks in job order: the checks, and so `tdlab verify`'s
stdout, are the same at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algos import (
    AccumulateTD,
    ReplaceTD,
    TrueOnlineTD,
    TrueOnlineTDAlphaT,
    TrueOnlineWatkinsQ,
    replay_prediction,
    run_control_episode,
    run_episode,
)
from .core import ConfigError, Trajectory, Transition, check_integer
from .envs import REPRESENTATION_KINDS, build_representation, canonical_task, generate_mdp, generate_mrp
from .harness import EQUIVALENCE_PAIRS, certify_equivalence, check_workers, run_chunks
from .oracle import prop2_condition_holds, theorem1_ratio
from .rng import SplitMix64, mix64

IDENTITY_TOL = 1e-12
CLOSED_FORM_TOL = 1e-12
THEOREM1_ALPHAS = (1e-1, 1e-2, 1e-3, 1e-4)
THEOREM1_PAIR_RATIO_RANGE = (0.03, 0.3)
# a pool chunk costs about 0.3 ms of CPU time to send and collect and a job
# takes 5-40 ms: four jobs a chunk keep that cost near 1% and the tail short
JOBS_PER_CHUNK = 4


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _one_state_episode(T: int) -> Trajectory:
    phi, zero = np.array([1.0]), np.array([0.0])
    steps = [Transition(phi, 0.0, phi, 1.0) for _ in range(T - 1)]
    steps.append(Transition(phi, 1.0, zero, 1.0, terminal=True))
    return Trajectory(steps=steps)


def closed_form_checks() -> list[CheckResult]:
    """Final single-state values after one episode against both closed forms."""
    v0s = (-1.0, -0.25, 0.0, 0.5, 1.5)
    alphas = (0.05, 0.2, 0.5, 0.8, 1.0)
    horizons = (1, 2, 3, 5, 8)
    worst_acc = worst_to = 0.0
    for v0 in v0s:
        for alpha in alphas:
            for T in horizons:
                traj = _one_state_episode(T)
                acc = replay_prediction(AccumulateTD(1, alpha, 1.0, np.array([v0])), traj)[-1, 0]
                to = replay_prediction(TrueOnlineTD(1, alpha, 1.0, np.array([v0])), traj)[-1, 0]
                worst_acc = max(worst_acc, abs(acc - (v0 + T * alpha * (1 - v0))))
                worst_to = max(worst_to, abs(to - (v0 + (1 - (1 - alpha) ** T) * (1 - v0))))
    grid = f"{len(v0s)}x{len(alphas)}x{len(horizons)} (V0, alpha, T) grid"
    return [
        CheckResult(
            "closed-form accumulate V_T = V0 + T*alpha*(1-V0)",
            worst_acc <= CLOSED_FORM_TOL,
            f"max |error| {worst_acc:.3e} over {grid} (tol {CLOSED_FORM_TOL:g})",
        ),
        CheckResult(
            "closed-form true online V_T = V0 + (1-(1-alpha)^T)*(1-V0)",
            worst_to <= CLOSED_FORM_TOL,
            f"max |error| {worst_to:.3e} over {grid} (tol {CLOSED_FORM_TOL:g})",
        ),
    ]


def proposition_checks(seed: int = 0) -> list[CheckResult]:
    checks: list[CheckResult] = []
    mrp, rep = canonical_task("random-walk-10")
    traj = run_episode(mrp, rep, SplitMix64(mix64(seed ^ 0x1)), max_steps=100_000)

    # lambda = 0: every prediction variant takes identical steps
    alpha = 0.4
    hists = [replay_prediction(learner, traj) for learner in (
        AccumulateTD(rep.n, alpha, 0.0),
        ReplaceTD(rep.n, alpha, 0.0),
        TrueOnlineTD(rep.n, alpha, 0.0),
        TrueOnlineTDAlphaT(rep.n, lambda t: alpha, 0.0),
    )]
    worst = max(float(np.abs(h - hists[0]).max()) for h in hists[1:])
    checks.append(CheckResult(
        "proposition: lambda=0 collapses all prediction variants",
        worst <= IDENTITY_TOL,
        f"max weight-sequence diff {worst:.3e} over {len(traj)} steps (tol {IDENTITY_TOL:g})",
    ))

    # lambda = 0 for the control variants, paired behavior streams
    mdp = generate_mdp(6, 2, 0.1, 0.9, num_actions=3, seed=mix64(seed ^ 0x2))
    crep = build_representation("tabular", mdp.chains[0], seed=0)
    control_hists = []
    for cls in (AccumulateTD, ReplaceTD, TrueOnlineTD):
        learner = cls(crep.n * 3, alpha=0.3, lam=0.0)
        ctraj = run_control_episode(
            learner, mdp, crep, SplitMix64(mix64(seed ^ 0x3)), epsilon=0.2, max_steps=80
        )
        control_hists.append((ctraj, learner.theta.copy()))
    worst_c = max(float(np.abs(th - control_hists[0][1]).max()) for _, th in control_hists[1:])
    same_actions = all(t.actions == control_hists[0][0].actions for t, _ in control_hists[1:])
    checks.append(CheckResult(
        "proposition: lambda=0 collapses the Sarsa variants",
        worst_c <= IDENTITY_TOL and same_actions,
        f"final weight diff {worst_c:.3e}, identical action streams: {same_actions}",
    ))

    # no-revisit tabular episode: all variants identical for any lambda
    rng = SplitMix64(mix64(seed ^ 0x4))
    n = 12
    eye = np.eye(n)
    steps = []
    for s in range(n):
        terminal = s == n - 1
        steps.append(Transition(
            eye[s], rng.normal(), np.zeros(n) if terminal else eye[s + 1], 1.0, terminal=terminal,
        ))
    chain = Trajectory(steps=steps)
    hists = [replay_prediction(learner, chain) for learner in (
        AccumulateTD(n, 0.7, 0.9),
        ReplaceTD(n, 0.7, 0.9),
        TrueOnlineTD(n, 0.7, 0.9),
    )]
    worst_nr = max(float(np.abs(h - hists[0]).max()) for h in hists[1:])
    checks.append(CheckResult(
        "proposition: no-revisit tabular episodes collapse the variants",
        worst_nr <= IDENTITY_TOL and prop2_condition_holds(chain),
        f"max weight-sequence diff {worst_nr:.3e}, disjoint-activation condition: "
        f"{prop2_condition_holds(chain)}",
    ))

    always_on = Trajectory(steps=[
        Transition(np.ones(1), 1.0, np.ones(1), 1.0),
        Transition(np.ones(1), 1.0, np.zeros(1), 1.0, terminal=True),
    ])
    checks.append(CheckResult(
        "proposition: always-active feature violates the disjointness condition",
        not prop2_condition_holds(always_on),
        "condition reported False on the shared-feature episode",
    ))
    return checks


def theorem1_checks(seed: int = 0) -> list[CheckResult]:
    mrp, rep = canonical_task("random-walk-10")
    rng = SplitMix64(mix64(seed ^ 0x7))
    traj = run_episode(mrp, rep, rng, max_steps=100_000)
    # an episode that revisits no state has accumulating TD equal to the
    # lambda-return (Proposition 2), leaving a ratio of rounding noise
    while prop2_condition_holds(traj):
        traj = run_episode(mrp, rep, rng, max_steps=100_000)
    lam = 0.9
    ratios = [theorem1_ratio(traj, a, lam, np.zeros(rep.n)) for a in THEOREM1_ALPHAS]
    table = ", ".join(f"alpha={a:g}: {r:.4e}" for a, r in zip(THEOREM1_ALPHAS, ratios))
    checks = [CheckResult(
        "theorem-1 ratio decreases with alpha",
        all(ratios[i + 1] < ratios[i] for i in range(len(ratios) - 1)),
        table,
    )]
    lo, hi = THEOREM1_PAIR_RATIO_RANGE
    pairs = [ratios[i + 1] / ratios[i] for i in (1, 2)]
    checks.append(CheckResult(
        "theorem-1 ratio is close to linear in alpha",
        all(lo <= p <= hi for p in pairs),
        f"ratio(alpha/10)/ratio(alpha) = {pairs[0]:.3f}, {pairs[1]:.3f} "
        f"(expected within [{lo}, {hi}])",
    ))
    return checks


# every pair that must pass; the accumulate pair documents non-equivalence
_PAIR_CYCLE = tuple(p for p in EQUIVALENCE_PAIRS if p != "accumulate-vs-oracle")


def _random_prediction_setting(rng: SplitMix64, tabular_only: bool = False):
    if rng.below(2) == 0 and not tabular_only:
        mrp = generate_mrp(10, 3, 0.1, 0.99, seed=rng.next_u64())
        kind = REPRESENTATION_KINDS[rng.below(len(REPRESENTATION_KINDS))]
        rep = build_representation(kind, mrp, seed=rng.next_u64())
        traj = run_episode(mrp, rep, rng.split(), max_steps=120)
    else:
        mrp, rep = canonical_task("random-walk-10")
        traj = run_episode(mrp, rep, rng.split(), max_steps=100_000)
    return traj, rep.n


def equivalence_checks(trials: int, seed: int, workers: int = 1) -> list[CheckResult]:
    """Randomized oracle-replay certifications across all pairings, in
    trial order; `workers` processes share the trials."""
    return run_suite("equivalence", trials, seed, workers)


# the suites that run as one job each
_SUITE_JOBS = ("closed-forms", "propositions", "theorem1")


def _job_checks(trials: int, seed: int, jobs: list) -> list[CheckResult]:
    """The checks of the given jobs, a suite name or a trial number each,
    of a `trials`-trial run: the pool task."""
    checks = []
    for job in jobs:
        if job == "closed-forms":
            checks += closed_form_checks()
        elif job == "propositions":
            checks += proposition_checks(seed)
        elif job == "theorem1":
            checks += theorem1_checks(seed)
        else:
            checks.append(_trial_check(trials, seed, job))
    return checks


def _trial_check(trials: int, seed: int, trial: int) -> CheckResult:
    """Equivalence trial `trial` of a `trials`-trial suite."""
    rng = SplitMix64(mix64(seed ^ mix64(trial + 1)))
    pair = _PAIR_CYCLE[trial % len(_PAIR_CYCLE)]
    alpha = 0.05 + 1.95 * rng.random()
    lam = rng.random()
    if pair in ("sarsa-vs-oracle-on-psi", "watkins-vs-truncated-oracle"):
        mdp = generate_mdp(8, 3, 0.1, 0.9, num_actions=3, seed=rng.next_u64())
        rep = build_representation(
            ("tabular", "random-normalized")[rng.below(2)], mdp.chains[0], seed=rng.next_u64()
        )
        cls = TrueOnlineTD if pair.startswith("sarsa") else TrueOnlineWatkinsQ
        learner = cls(rep.n * 3, alpha=alpha, lam=lam)
        traj = run_control_episode(
            learner, mdp, rep, rng.split(), epsilon=0.1 + 0.4 * rng.random(), max_steps=100
        )
        theta_init = np.zeros(rep.n * 3)
    elif pair == "tabular-vs-one-hot-true-online":
        traj, n = _random_prediction_setting(rng, tabular_only=True)
        theta_init = np.zeros(n)
    else:
        traj, n = _random_prediction_setting(rng)
        theta_init = np.zeros(n)
    report = certify_equivalence(traj, alpha, lam, theta_init, pair)
    return CheckResult(
        f"equivalence trial {trial + 1}/{trials} [{pair}]",
        report.passed,
        f"alpha={alpha:.3f} lambda={lam:.3f} steps={report.steps} "
        f"max_rel_diff={report.max_rel_diff:.3e} (tol {report.tolerance:g})",
    )


def run_suite(suite: str, trials: int = 100, seed: int = 0, workers: int = 1) -> list[CheckResult]:
    """One suite's checks, in job order; `workers` processes share its jobs
    in chunks of at most JOBS_PER_CHUNK consecutive jobs, fewer where
    that would leave a worker idle."""
    if suite in ("equivalence", "all"):
        check_integer(trials, "trials")
        if trials < 1:
            raise ConfigError(f"trials must be >= 1, got {trials}")
    check_workers(workers)
    if suite in _SUITE_JOBS:
        jobs = [suite]
    elif suite == "equivalence":
        jobs = list(range(trials))
    elif suite == "all":
        jobs = [*_SUITE_JOBS, *range(trials)]
    else:
        raise ConfigError(f"unknown suite {suite!r}")
    size = max(1, min(JOBS_PER_CHUNK, len(jobs) // workers))
    chunks = [jobs[i : i + size] for i in range(0, len(jobs), size)]
    return [check for chunk in run_chunks(_job_checks, (trials, seed), chunks, workers)
            for check in chunk]
