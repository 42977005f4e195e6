"""Forward-view reference algorithms and diagnostics.

These are the ground truth the incremental learners are checked against,
and check alpha and lambda as the learners do. Both online replays return
the (T+1) x n weight history as one array, row t holding theta_t and row 0
the initial weights. They share one horizon loop and one backward target
recursion, U_k = R_{k+1} + gamma_k * ((1 - lam_k) * V_k + lam_k * U_{k+1}):
the lambda-return replay bootstraps on V_k = theta_k . phi'_k, the Watkins
replay on the max action value over phi'_k, cutting the recursion after
each non-greedy action; phi'_k is step k's phi_next, as for the learners.
Each V_k is computed once, when theta_k is. The weights are bit-identical
to the recursion evaluated afresh at every horizon, and agree with the
definitional sums to rounding (the tests pin both).

Each replay keeps a (T+1) x n buffer of iterates, row k holding the k-th
iterate of the latest horizon, and writes every update straight into the
next row. A horizon whose first changed target is at index c (bits
compared, sign of zero included) shares rows 0..c with the previous
horizon, so it resumes at row c and replays only the changed suffix:
O(changed suffix * n) per horizon, O(T^2 * n) in all in the worst case,
for T steps and n features.

Weight-vector convention: theta_k^t is the k-th iterate of the update
sequence performed at time t, and theta_t (single index) means theta_t^t,
the final iterate. Bootstrapped value estimates inside the n-step return
G_t^(n) use theta_{t+n-1}, i.e. the single-index vectors; `theta_lookup`
callables supply them.
"""

from __future__ import annotations

from itertools import islice
from math import copysign
from typing import Callable

import numpy as np

from .algos import AccumulateTD, replay_prediction
from .core import ConfigError, Trajectory, action_values, check_integer, check_real, stack_action_features

ThetaLookup = Callable[[int], np.ndarray]


def constant_lookup(theta: np.ndarray) -> ThetaLookup:
    return lambda j: theta


def n_step_return(traj: Trajectory, t: int, n: int, theta_lookup: ThetaLookup) -> float:
    """G_t^(n): n discounted rewards plus the bootstrapped tail value.

    Truncates at a terminal state (whose value is exactly 0); a horizon
    past the end of a non-terminated trajectory is an error.
    """
    check_integer(n, "n", low=1)
    T = len(traj)
    check_integer(t, "t", 0, T - 1)
    if t + n > T and not traj.episodic:
        raise ConfigError(f"horizon {t + n} beyond recorded data of length {T}")
    g = 0.0
    disc = 1.0
    for j in range(t, min(t + n, T)):
        step = traj.steps[j]
        g += disc * step.reward
        disc *= step.gamma
        if step.terminal:
            return g
    last = t + n - 1
    return g + disc * float(theta_lookup(last) @ traj.steps[last].phi_next)


def interim_lambda_return(
    traj: Trajectory, k: int, h: int, lam: float, theta_lookup: ThetaLookup
) -> float:
    """Lambda-mixture of n-step returns truncated at horizon h (definitional sum)."""
    check_real(lam, "lambda", 1.0)
    check_integer(k, "k", 0, len(traj) - 1)
    check_integer(h, "h", k + 1, len(traj))
    total = 0.0
    weight = 1.0  # lambda^(n-1)
    for n in range(1, h - k):
        total += (1.0 - lam) * weight * n_step_return(traj, k, n, theta_lookup)
        weight *= lam
    return total + weight * n_step_return(traj, k, h - k, theta_lookup)


def interim_lambda_returns_all(
    traj: Trajectory, h: int, lam: float, theta_lookup: ThetaLookup
) -> np.ndarray:
    """All targets G_k^{lambda|h} for 0 <= k < h in one backward sweep.

    Uses the recursion G_k = R_{k+1} + gamma*((1-lam)*V_k(S_{k+1}) +
    lam*G_{k+1}), an exact consequence of the definitional sum (the
    package's property tests pin the two against each other).
    """
    check_real(lam, "lambda", 1.0)
    check_integer(h, "h", 1, len(traj))
    v_next = [float(theta_lookup(k) @ traj.steps[k].phi_next) for k in range(h)]
    targets: list[float] = []
    _retarget(targets, *_rewards_and_discounts(traj), [lam] * h, v_next)
    return np.array(targets)


def offline_lambda_return(
    traj: Trajectory, t: int, lam: float, theta_lookup: ThetaLookup
) -> float:
    """The untruncated lambda-return of a complete episode (Monte Carlo tail)."""
    if not traj.episodic:
        raise ConfigError("offline lambda-return requires a complete episode")
    return interim_lambda_return(traj, t, len(traj), lam, theta_lookup)


def online_lambda_return_algorithm(
    traj: Trajectory, alpha: float, lam: float, theta_init: np.ndarray
) -> np.ndarray:
    """At each time t, replay one update per visited state with horizon-t targets.

    Returns the (T+1) x n weight history: row t is theta_t^t, row 0 is
    theta_init. Bootstraps use the run's own single-index vectors
    theta_j := theta_j^j. Horizon t recomputes its targets backward from
    the newest down to the first whose bits equal the previous horizon's
    (every earlier target is a function of it) and replays from there.
    """
    check_real(lam, "lambda", 1.0)
    return _online_replay(
        traj, alpha, theta_init, [step.phi for step in traj.steps], [lam] * len(traj),
        lambda j, theta: float(theta @ traj.steps[j].phi_next),
    )


def _online_replay(
    traj: Trajectory, alpha: float, theta_init: np.ndarray, features: list[np.ndarray],
    decays: list[float | None], bootstrap: Callable[[int, np.ndarray], float],
) -> np.ndarray:
    """The horizon loop of both online replays; returns the weight history.

    Horizon t adds V_{t-1} = bootstrap(t - 1, theta_{t-1}), retargets with
    `decays` and replays from the first changed target over `features`.
    """
    check_real(alpha, "alpha")
    T = len(traj)
    rewards, gammas = _rewards_and_discounts(traj)
    rows = _iterate_rows(theta_init, T)
    history = np.empty((T + 1, theta_init.shape[0]))
    history[0] = theta_init
    v_next: list[float] = []  # v_next[j] = V_j, from theta_j
    targets: list[float] = []  # the latest horizon's targets
    for t in range(1, T + 1):
        v_next.append(bootstrap(t - 1, history[t - 1]))
        start = _retarget(targets, rewards, gammas, decays, v_next)
        _replay(rows, alpha, targets[start:], features, start)
        history[t] = rows[t]
    return history


def _rewards_and_discounts(traj: Trajectory) -> tuple[list[float], list[float]]:
    return [float(s.reward) for s in traj.steps], [float(s.gamma) for s in traj.steps]


def _retarget(
    targets: list[float], rewards: list[float], gammas: list[float],
    decays: list[float | None], v_next: list[float],
) -> int:
    """The targets at horizon h = len(v_next) by the backward recursion,
    written over `targets` (empty, or the targets at horizon h - 1), with
    V_k = v_next[k] and lam_k = decays[k]. A None decay is a cut: U_k =
    R_{k+1} + gamma_k * V_k, as for U_{h-1}, without reading U_{k+1}
    (0 * inf would be NaN). Stops at the first old target whose bits (sign
    of zero included; a NaN counts as changed) the new one repeats, since
    every earlier target is a function of it; a cut target never changes
    with the horizon, so the scan ends there at the latest. Returns the
    index of the first changed target.
    """
    h = len(v_next)
    old = len(targets)
    targets.extend([0.0] * (h - old))
    u = rewards[h - 1] + gammas[h - 1] * v_next[h - 1]
    targets[h - 1] = u
    for k in range(h - 2, -1, -1):
        lam = decays[k]
        mix = v_next[k] if lam is None else (1.0 - lam) * v_next[k] + lam * u
        u = rewards[k] + gammas[k] * mix
        # the same bits: equal (so not NaN), and a zero of the same sign
        if k < old and u == targets[k] and (u or copysign(1.0, u) == copysign(1.0, targets[k])):
            return k + 1
        targets[k] = u
    return 0


def _iterate_rows(theta_init: np.ndarray, steps: int) -> list[np.ndarray]:
    """The rows of a (steps + 1) x n iterate buffer, row 0 holding theta_init."""
    buffer = np.empty((steps + 1, theta_init.shape[0]))
    buffer[0] = theta_init
    return list(buffer)


def _replay(
    rows: list[np.ndarray], alpha: float, targets: list[float], features, start: int
) -> None:
    """Rows start+1 .. start+len(targets) of the iterate buffer from row
    start, in place: row k+1 = row k + alpha * (u_k - row k . x_k) * x_k
    with targets[k - start] as u_k and features[k] as x_k."""
    step = np.empty_like(rows[0])
    scale = np.empty(())  # a 0-d operand spares the ufunc converting a float each call
    walk = zip(targets, islice(features, start, None), islice(rows, start, None),
               islice(rows, start + 1, None))
    for u, x, row, nxt in walk:
        scale[()] = alpha * (u - float(row.dot(x)))
        np.multiply(x, scale, step)
        np.add(row, step, nxt)


def offline_lambda_return_algorithm(
    traj: Trajectory, alpha: float, lam: float, theta_init: np.ndarray
) -> np.ndarray:
    """One update per visited state at episode end; mid-episode weights stay put.

    All value estimates inside the lambda-returns use theta_init, the
    only weights available before any update happens.
    """
    check_real(alpha, "alpha")
    if not traj.episodic:
        raise ConfigError("the offline algorithm requires a complete episode")
    T = len(traj)
    targets = interim_lambda_returns_all(traj, T, lam, constant_lookup(theta_init))
    rows = _iterate_rows(theta_init, T)
    _replay(rows, alpha, targets.tolist(), [step.phi for step in traj.steps], 0)
    return rows[T].copy()


def _first_nongreedy_after(traj: Trajectory, t: int) -> int:
    """tau: index of the first non-greedy action strictly after step t."""
    if traj.greedy is None:
        raise ConfigError("trajectory lacks greedy-flag annotations")
    for j in range(t + 1, len(traj)):
        if not traj.greedy[j]:
            return j
    return len(traj) + 1  # effectively infinity


def watkins_interim_target(
    traj: Trajectory, t: int, h: int, lam: float, theta_lookup: ThetaLookup
) -> float:
    """Greedy-policy interim target: growth stops at the first non-greedy action.

    U_t^h mixes max-bootstrapped n-step returns up to z = min(h, tau),
    where tau is the first step after t whose behavior action was not
    greedy. Bootstraps use max_a theta_{t+n-1} . psi(S_{t+n}, a).
    """
    check_real(lam, "lambda", 1.0)
    if traj.num_actions is None:
        raise ConfigError("trajectory lacks action annotations")
    check_integer(t, "t", 0, len(traj) - 1)
    check_integer(h, "h", t + 1, len(traj))
    z = min(h, _first_nongreedy_after(traj, t))
    num_actions = traj.num_actions
    total = 0.0
    weight = 1.0
    reward_sum = 0.0
    disc = 1.0
    for n in range(1, z - t + 1):
        step = traj.steps[t + n - 1]
        reward_sum += disc * step.reward
        disc *= step.gamma
        if step.terminal:
            g_n = reward_sum
        else:
            q = action_values(theta_lookup(t + n - 1), step.phi_next, num_actions)
            g_n = reward_sum + disc * float(q.max())
        if n < z - t:
            total += (1.0 - lam) * weight * g_n
            weight *= lam
        else:
            total += weight * g_n
    return total


def watkins_forward_view(
    traj: Trajectory, alpha: float, lam: float, theta_init: np.ndarray
) -> np.ndarray:
    """Replay of the truncated forward view behind the Watkins-style learner.

    Every step k updates the behavior pair psi(S_k, A_k). Returns the
    (T+1) x n weight history.

    The targets are watkins_interim_target's in recursion form: those of
    online_lambda_return_algorithm with V_k = max_a theta_k . psi(S_{k+1}, a)
    (0 after a terminal step), cut where A_{k+1} is not greedy, since growth
    stops there (tau_k = k + 1): U_k = R_{k+1} + gamma_k * V_k.
    """
    check_real(lam, "lambda", 1.0)
    if traj.actions is None or traj.greedy is None or traj.num_actions is None:
        raise ConfigError("Watkins replay needs action and greedy-flag annotations")
    num_actions = traj.num_actions
    psis = [stack_action_features(s.phi, a, num_actions) for s, a in zip(traj.steps, traj.actions)]

    def max_bootstrap(j: int, theta: np.ndarray) -> float:
        q = action_values(theta, traj.steps[j].phi_next, num_actions)
        return 0.0 if traj.steps[j].terminal else float(q.max())

    decays = [lam if greedy else None for greedy in traj.greedy[1:]]
    return _online_replay(traj, alpha, theta_init, psis, decays, max_bootstrap)


def accumulating_trace_nonrecursive(traj: Trajectory, t: int, lam: float) -> np.ndarray:
    """Closed form of the accumulating trace after t steps: a decayed feature sum."""
    check_real(lam, "lambda", 1.0)
    check_integer(t, "t", 1, len(traj))
    n = traj.steps[0].phi.shape[0]
    e = np.zeros(n)
    for k in range(t):
        e *= traj.steps[k].gamma * lam
        e += traj.steps[k].phi
    return e


def prop2_condition_holds(traj: Trajectory) -> bool:
    """True iff no feature is active at a step after any earlier activation.

    Checks e_{t-1}[i] * phi_t[i] == 0 exactly for every feature and step,
    with the trace accumulated undecayed, so the answer does not depend
    on gamma or lambda.
    """
    if len(traj) < 2:
        return True
    acc = traj.steps[0].phi.astype(np.float64).copy()
    for t in range(1, len(traj)):
        phi = traj.steps[t].phi
        if np.any(acc * phi != 0.0):
            return False
        acc += phi
    return True


def theorem1_delta_terms(traj: Trajectory, lam: float, theta_init: np.ndarray) -> np.ndarray:
    """Delta_i^T = (G-bar_i^{lambda|T} - theta_0 . phi_i) phi_i, all bootstraps at theta_0."""
    T = len(traj)
    targets = interim_lambda_returns_all(traj, T, lam, constant_lookup(theta_init))
    out = np.empty((T, theta_init.shape[0]))
    for i in range(T):
        phi = traj.steps[i].phi
        out[i] = (targets[i] - float(theta_init @ phi)) * phi
    return out


def theorem1_ratio(
    traj: Trajectory, alpha: float, lam: float, theta_init: np.ndarray
) -> float:
    """||theta_td - theta_lambda|| / ||theta_td - theta_0|| at the final step.

    theta_td comes from the accumulating-trace learner and theta_lambda
    from the online lambda-return replay, both started at theta_init on
    the same trajectory. The ratio vanishes as alpha -> 0.
    """
    deltas = theorem1_delta_terms(traj, lam, theta_init)
    if np.linalg.norm(deltas.sum(axis=0)) == 0.0:
        raise ConfigError("degenerate input: the step-size-free updates sum to zero")
    learner = AccumulateTD(theta_init.shape[0], alpha=alpha, lam=lam, theta_init=theta_init)
    theta_td = replay_prediction(learner, traj)[-1]
    theta_lam = online_lambda_return_algorithm(traj, alpha, lam, theta_init)[-1]
    denom = float(np.linalg.norm(theta_td - theta_init))
    if denom == 0.0:
        raise ConfigError("degenerate input: accumulating TD never moved the weights")
    return float(np.linalg.norm(theta_td - theta_lam)) / denom

