"""Incremental TD(lambda)-family learners, O(n) per step.

Three trace rules (accumulate, replace, dutch) are the whole family: each
learner steps on a Transition of dense features, which are state features
phi for prediction or action-stacked features psi for control, so
Sarsa(lambda) is one of them run on psi. Next to them stand the dutch
rule for a time-dependent step-size, its tabular form (the same update on
one-hot features), and the Watkins-style learner, which is the dutch rule
plus a trace cut after non-greedy actions.

Each rule is written once, as a function, and each learner class names
its rule once, in `rule`, which `step` applies to its one weight vector.
PREDICTION_LEARNERS is the sweep's variant table: the sweep harness
steps the accumulate, replace and dutch rules on a (rows x n) array to
advance many independent runs in lockstep, each row bit-identical to its
learner. The alpha-t and tabular rules step one weight vector. Each
learner is a single-threaded state machine over a weight vector and an
eligibility trace. Update order follows the published pseudocode
exactly; in particular the previous value estimate (v_old / q_old) is always
captured from pre-update weights, which the exact forward-view
equivalence of the true online variants depends on.

Episode boundaries reset the trace and the stored previous value. For
continuing tasks there is no boundary and the trace is never reset.
run_episode records a prediction episode without a learner; any learner
then steps on its transitions.
"""

from __future__ import annotations

import math
from numbers import Integral, Real

import numpy as np

from .core import ConfigError, Trajectory, Transition, action_values, stack_action_features
from .envs import Mdp, Mrp, Representation, sample_step
from .rng import SplitMix64


def check_step_size(alpha: float) -> None:
    """Step-sizes must be real, finite and >= 0; 0 freezes the weights."""
    if not (isinstance(alpha, Real) and math.isfinite(alpha) and alpha >= 0.0):
        raise ConfigError(f"alpha must be finite and >= 0, got {alpha!r}")


def check_trace_decay(lam: float) -> None:
    if not (isinstance(lam, Real) and 0.0 <= lam <= 1.0):
        raise ConfigError(f"lambda must lie in [0, 1], got {lam!r}")


# The trace rules. Each advances theta and e in place over one transition
# and returns the new stored previous value. Arrays may carry a leading
# row axis: theta, e, phi and phi_next are then (rows, n), and reward,
# alpha, lam and v_old are (rows, 1) columns, so every row is stepped as
# the one-dimensional call would step it, bit for bit (np.vecdot on a row
# is the 1-D dot product). gamma is one float for all rows.


def _dot(a: np.ndarray, b: np.ndarray):
    """a . b, or for rows the (rows, 1) column of row-wise inner products."""
    d = np.vecdot(a, b)
    return d if a.ndim == 1 else d[:, None]


def accumulate_rule(theta, e, v_old, phi, reward, phi_next, gamma, alpha, lam):
    """e <- gamma*lambda*e + phi; theta <- theta + alpha*delta*e."""
    delta = reward + gamma * _dot(theta, phi_next) - _dot(theta, phi)
    e *= gamma * lam
    e += phi
    theta += (alpha * delta) * e
    return v_old


def replace_rule(theta, e, v_old, phi, reward, phi_next, gamma, alpha, lam):
    """Decay e by gamma*lambda, then set it to 1 on active features (binary phi only)."""
    active = phi == 1.0
    if not np.all(active | (phi == 0.0)):
        raise ConfigError(
            "replacing traces are only defined for binary features; "
            f"got non-binary value(s) {phi[~(active | (phi == 0.0))][:3]}"
        )
    delta = reward + gamma * _dot(theta, phi_next) - _dot(theta, phi)
    e *= gamma * lam
    e[active] = 1.0
    theta += (alpha * delta) * e
    return v_old


def dutch_rule(theta, e, v_old, phi, reward, phi_next, gamma, alpha, lam):
    """The true online TD(lambda) step (see TrueOnlineTD)."""
    gl = gamma * lam
    v = _dot(theta, phi)
    v_next = _dot(theta, phi_next)
    delta = reward + gamma * v_next - v
    e_dot_phi = _dot(e, phi)
    e *= gl
    e += phi
    e -= (alpha * gl * e_dot_phi) * phi
    dv = v - v_old
    theta += (alpha * (delta + dv)) * e
    theta -= (alpha * dv) * phi
    return v_next


def dutch_alpha_t_rule(theta, e, v_old, phi, reward, phi_next, gamma, alpha, lam):
    """The true online step for a time-dependent step-size; alpha is alpha_t."""
    gl = gamma * lam
    v = _dot(theta, phi)
    v_next = _dot(theta, phi_next)
    delta_mod = reward + gamma * v_next - v_old
    e_dot_phi = _dot(e, phi)
    e *= gl
    e += alpha * phi
    e -= (alpha * gl * e_dot_phi) * phi
    theta += delta_mod * e
    theta -= (alpha * (v - v_old)) * phi
    return v_next


class _LinearLearner:
    """Weight/trace state shared by the linear learners; `step` applies the class's `rule`."""

    variant: str
    rule: staticmethod

    def __init__(self, n: int, alpha: float, lam: float, theta_init=None):
        if not (isinstance(n, Integral) and n >= 0):
            raise ConfigError(f"feature dimension must be an integer >= 0, got {n!r}")
        check_step_size(alpha)
        check_trace_decay(lam)
        self.n = n
        self.alpha = alpha
        self.lam = lam
        self._theta = np.zeros(n) if theta_init is None else np.array(theta_init, dtype=np.float64)
        if self._theta.shape != (n,):
            raise ConfigError("theta_init length must equal the feature dimension")
        self.e = np.zeros(n)
        self.v_old = 0.0
        self.t = 0
        self.start_episode()

    @property
    def theta(self) -> np.ndarray:
        """Read-only view of the current weights."""
        view = self._theta.view()
        view.flags.writeable = False
        return view

    def start_episode(self) -> None:
        self.e[:] = 0.0
        self.v_old = 0.0

    def value(self, phi: np.ndarray) -> float:
        return float(self._theta @ phi)

    def step(self, tr: Transition) -> None:
        self._advance(tr, self.alpha)

    def _advance(self, tr: Transition, alpha: float) -> None:
        if tr.phi.shape != (self.n,) or tr.phi_next.shape != (self.n,):
            raise ConfigError("transition feature dimension does not match learner")
        self.v_old = self.rule(
            self._theta, self.e, self.v_old, tr.phi, tr.reward, tr.phi_next, tr.gamma, alpha, self.lam
        )
        self.t += 1


class AccumulateTD(_LinearLearner):
    """TD(lambda) with the accumulating trace e <- gamma*lambda*e + phi."""

    variant = "accumulate"
    rule = staticmethod(accumulate_rule)


class ReplaceTD(_LinearLearner):
    """TD(lambda) with the replacing trace; defined for binary features only."""

    variant = "replace"
    rule = staticmethod(replace_rule)


class TrueOnlineTD(_LinearLearner):
    """TD(lambda) with the dutch trace and value-correction term.

    delta = R + gamma*theta.phi' - theta.phi
    e     <- gamma*lambda*e + phi - alpha*gamma*lambda*(e.phi)*phi
    theta <- theta + alpha*(delta + V - V_old)*e - alpha*(V - V_old)*phi

    The resulting weights equal, at every step, those of the online
    lambda-return algorithm replayed from the episode start.
    """

    variant = "true-online"
    rule = staticmethod(dutch_rule)


class TrueOnlineTDAlphaT(_LinearLearner):
    """True online TD(lambda) for a time-dependent step-size schedule.

    The trace absorbs the step-size (e+ = alpha*e for constant alpha) and
    the weight update uses the modified TD error
    delta' = R + gamma*theta.phi' - V_old. `alpha_schedule` is a pure
    function of the global step counter, which never resets; each alpha_t
    is checked like a constant step-size.
    """

    variant = "true-online-alpha-t"
    rule = staticmethod(dutch_alpha_t_rule)

    def __init__(self, n: int, alpha_schedule, lam: float, theta_init=None):
        if not callable(alpha_schedule):
            raise ConfigError(f"alpha_schedule must be a function of t, got {alpha_schedule!r}")
        super().__init__(n, alpha=0.0, lam=lam, theta_init=theta_init)
        self.alpha_schedule = alpha_schedule
        self.alpha = float("nan")  # no constant step-size

    def step(self, tr: Transition) -> None:
        alpha = self.alpha_schedule(self.t)
        check_step_size(alpha)
        self._advance(tr, alpha)


def _one_hot_state(x: np.ndarray) -> int | None:
    """The index of x's single 1.0, or None for all-zero x."""
    ones = np.flatnonzero(x == 1.0)
    if ones.size > 1 or np.count_nonzero(x) != ones.size:
        raise ConfigError(f"tabular learner needs one-hot features, got values {x[x != 0][:3]}")
    return int(ones[0]) if ones.size else None


def _tabular_rule(theta, e, v_old, phi, reward, phi_next, gamma, alpha, lam):
    """The dutch step on one-hot phi (see TabularTrueOnlineTD); one weight vector only."""
    s = _one_hot_state(phi)
    if s is None:
        raise ConfigError("tabular learner needs one-hot features, got all-zero phi")
    s_next = _one_hot_state(phi_next)  # None: a terminal next state
    v_next = 0.0 if s_next is None else theta[s_next]
    dv = theta[s] - v_old
    delta = reward + gamma * v_next - theta[s]
    e[s] = (1.0 - alpha) * e[s] + 1.0
    theta += (alpha * (delta + dv)) * e
    e *= gamma * lam
    theta[s] -= alpha * dv
    return v_next


class TabularTrueOnlineTD(_LinearLearner):
    """True online TD(lambda) on one-hot features, one weight per state.

    S and S' are the indices of the single 1.0 in phi and phi' (S' is a
    terminal state when phi' is all zero); any other feature vector is a
    ConfigError. The dutch trace becomes a weighted average of an
    accumulating and a replacing trace on the visited state:
    e(S) <- (1-alpha)*e(S) + 1, with the gamma*lambda decay applied after
    the value sweep.
    """

    variant = "tabular-true-online"
    rule = staticmethod(_tabular_rule)


def epsilon_greedy(
    theta: np.ndarray,
    phi_s: np.ndarray,
    num_actions: int,
    epsilon: float,
    rng: SplitMix64,
) -> tuple[int, bool]:
    """Epsilon-greedy action and whether the choice attains the max.

    Greedy ties are broken by the lowest action index. The flag is true
    iff the chosen action's value equals the maximum, so an exploratory
    draw that happens to hit the greedy action still counts as greedy.
    """
    if not (isinstance(epsilon, Real) and 0.0 <= epsilon <= 1.0):
        raise ConfigError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    q = action_values(theta, phi_s, num_actions)
    q_max = float(np.max(q))
    if epsilon > 0.0 and rng.random() < epsilon:
        action = rng.below(num_actions)
    else:
        action = int(np.argmax(q))
    return action, bool(q[action] == q_max)


def greedy_toward(q: np.ndarray, behavior: int) -> int:
    """A greedy action of q, the behavior action when it attains the max."""
    return behavior if q[behavior] == q.max() else int(np.argmax(q))


class TrueOnlineWatkinsQ(TrueOnlineTD):
    """True online learning of the greedy policy's values from any behavior.

    The dutch step on action-stacked features, whose bootstrap features
    psi' belong to a greedy action (ties resolved toward the behavior
    action by the caller). A step whose pair psi is not the previous
    step's bootstrap pair follows a non-greedy action, so the trace is
    zeroed before it; the episode's first step follows no pair.
    """

    variant = "true-online-watkins-q"

    def start_episode(self) -> None:
        super().start_episode()
        self._bootstrap_pair = None

    def step(self, tr: Transition) -> None:
        if self._bootstrap_pair is not None and not np.array_equal(tr.phi, self._bootstrap_pair):
            self.e[:] = 0.0
        super().step(tr)
        self._bootstrap_pair = tr.phi_next


# The sweep's variants: each one's learner class, whose `rule` the sweep
# steps its rows with at the row's constant alpha.
PREDICTION_LEARNERS = {cls.variant: cls for cls in (AccumulateTD, ReplaceTD, TrueOnlineTD)}
PREDICTION_VARIANTS = tuple(PREDICTION_LEARNERS)


def make_prediction_learner(
    variant: str, n: int, alpha: float, lam: float, theta_init=None
) -> _LinearLearner:
    if variant not in PREDICTION_LEARNERS:
        raise ConfigError(f"unknown prediction variant {variant!r}; expected {PREDICTION_VARIANTS}")
    return PREDICTION_LEARNERS[variant](n, alpha=alpha, lam=lam, theta_init=theta_init)


def run_episode(
    mrp: Mrp,
    representation: Representation,
    rng: SplitMix64,
    max_steps: int | None = None,
) -> Trajectory:
    """Record one episode (or a capped run) of a chain; a learner then steps on it.

    Continuing chains require max_steps and the run is one uninterrupted
    trajectory; an episodic chain that outlives max_steps raises, since
    silently truncating would corrupt forward-view replay.
    """
    if mrp.continuing and max_steps is None:
        raise ConfigError("continuing chain requires a step cap")
    state = mrp.initial_state(rng)
    steps: list[Transition] = []
    while True:
        if max_steps is not None and len(steps) >= max_steps:
            if not mrp.continuing:
                raise RuntimeError(
                    f"episode exceeded the {max_steps}-step cap without terminating"
                )
            break
        nxt, reward = sample_step(mrp, state, rng)
        terminal = nxt in mrp.terminal_states
        steps.append(Transition(
            representation.phi(state), reward, representation.phi(nxt), mrp.gamma, terminal
        ))
        state = nxt
        if terminal:
            break
    return Trajectory(steps=steps)


def run_control_episode(
    learner,
    mdp: Mdp,
    representation: Representation,
    rng: SplitMix64,
    epsilon: float,
    max_steps: int | None = None,
) -> Trajectory:
    """Drive a learner on action-stacked features with an epsilon-greedy policy.

    Each step updates the pair the behavior took: the learner steps on
    Transition(psi(S, A), R, psi', gamma). Sarsa(lambda) is any trace
    kernel of length representation.n * num_actions; a TrueOnlineWatkinsQ
    bootstraps on a greedy pair instead (ties toward the behavior action)
    and cuts its own trace after non-greedy actions. Records the
    state-level steps with per-step actions and greedy flags, for the
    truncated forward view, and in `stepped` the transitions the learner
    stepped on, for replaying the learner. Action selection always uses
    the pre-update weights, matching the pseudocode order.
    """
    chain = mdp.chains[0]  # gamma, terminal states and start, shared by every action
    if not chain.terminal_states and max_steps is None:
        raise ConfigError("continuing MDP requires a step cap")
    num_actions = mdp.num_actions
    n = getattr(learner, "n", None)
    if n != representation.n * num_actions:
        raise ConfigError(
            f"control learner needs {representation.n} * {num_actions} action features, has {n}"
        )
    watkins = isinstance(learner, TrueOnlineWatkinsQ)
    learner.start_episode()
    state = chain.initial_state(rng)
    phi = representation.phi(state)
    action, greedy = epsilon_greedy(learner.theta, phi, num_actions, epsilon, rng)
    traj = Trajectory(actions=[], greedy=[], num_actions=num_actions, stepped=Trajectory())
    while True:
        if max_steps is not None and len(traj) >= max_steps:
            if chain.terminal_states:
                raise RuntimeError(
                    f"episode exceeded the {max_steps}-step cap without terminating"
                )
            break
        nxt, reward = sample_step(mdp.chains[action], state, rng)
        terminal = nxt in chain.terminal_states
        phi_next = representation.phi(nxt)
        traj.steps.append(Transition(phi, reward, phi_next, chain.gamma, terminal=terminal))
        traj.actions.append(action)
        traj.greedy.append(greedy)
        if terminal:
            psi_next = np.zeros(n)
        else:
            next_action, next_greedy = epsilon_greedy(
                learner.theta, phi_next, num_actions, epsilon, rng
            )
            bootstrap = next_action
            if watkins:
                q_next = action_values(learner.theta, phi_next, num_actions)
                bootstrap = greedy_toward(q_next, next_action)
            psi_next = stack_action_features(phi_next, bootstrap, num_actions)
        psi = stack_action_features(phi, action, num_actions)
        tr = Transition(psi, reward, psi_next, chain.gamma, terminal=terminal)
        learner.step(tr)
        traj.stepped.steps.append(tr)
        if terminal:
            break
        state, phi, action, greedy = nxt, phi_next, next_action, next_greedy
    return traj
