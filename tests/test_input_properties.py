"""Every scalar input of the library takes its valid values and refuses
junk with a ConfigError: no other exception, and no silent result.

The junk is NaN, +-inf, -1, 0, 1.5, 2.5, 2**64, None and a string. A junk
value that is valid for an input (0 for a feature dimension, 2.5 for a
step-size, 2**64 for a step cap) must be taken like any valid value. Each
input is tried with every junk value while Hypothesis draws the other
inputs from their valid ranges.

Sizes stay small: feature dimensions and counts below 100, recorded runs
of a few steps, and step caps only on a chain whose episodes end after
one step, so no drawn value allocates more than a few MB or runs long.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdlab import (
    AccumulateTD,
    ConfigError,
    Mdp,
    Mrp,
    ReplaceTD,
    SplitMix64,
    SweepConfig,
    TabularTrueOnlineTD,
    Transition,
    TrueOnlineTD,
    TrueOnlineTDAlphaT,
    TrueOnlineWatkinsQ,
    accumulating_trace_nonrecursive,
    build_representation,
    generate_mdp,
    generate_mrp,
    interim_lambda_return,
    offline_lambda_return,
    offline_lambda_return_algorithm,
    online_lambda_return_algorithm,
    run_control_episode,
    run_episode,
    watkins_interim_target,
)
from tdlab.figures import one_state_step_size_curve, random_walk_learning_curves
from tdlab.oracle import (
    constant_lookup,
    interim_lambda_returns_all,
    theorem1_delta_terms,
    watkins_forward_view,
)
from tdlab.verify import run_suite
from tests.conftest import synthetic_trajectory

JUNK = (math.nan, math.inf, -math.inf, -1, 0, 1.5, 2.5, 2**64, None, "x")

# each input's valid values, and the junk values that are valid for it too
INPUTS = {
    "runs": (st.integers(1, 99), (2**64,)),
    "steps": (st.integers(1, 99), (2**64,)),
    "master_seed": (st.integers(0, 2**64 - 1), (0,)),
    "n": (st.integers(1, 99), (0,)),
    "alpha": (st.floats(0.0, 2.0), (0, 1.5, 2.5, 2**64)),
    "lam": (st.floats(0.0, 1.0), (0,)),
    "max_steps": (st.none() | st.integers(1, 99), (None, 2**64)),
    "count": (st.integers(1, 3), ()),
}


def junk_cases(*names, skip=()):
    return [
        pytest.param(name, x, id=f"{name}={x!r}")
        for name in names for x in JUNK if x not in skip
    ]


def valid(*names):
    return st.fixed_dictionaries({name: INPUTS[name][0] for name in names})


def expect(call, values, name, value):
    """call(**values) returns; with `name` set to the junk `value` it
    returns too if the value is valid for that input, else raises ConfigError."""
    call(**values)
    junked = {**values, name: value}
    if value in INPUTS[name][1]:
        call(**junked)
    else:
        with pytest.raises(ConfigError):
            call(**junked)


def sweep_config(runs, steps, master_seed):
    SweepConfig(
        env="mrp(5,2,0.1)", representation="tabular", variants=("true-online",),
        alphas=(0.1,), lambdas=(0.5,), steps=steps, runs=runs, master_seed=master_seed,
    )


@pytest.mark.parametrize("name, value", junk_cases("runs", "steps", "master_seed"))
@given(values=valid("runs", "steps", "master_seed"))
@settings(max_examples=10, deadline=None)
def test_sweep_config(name, value, values):
    expect(sweep_config, values, name, value)


def learner_stepper(make):
    """Build a learner of dimension n and, for n >= 1, step it once on a
    one-hot transition, which every rule takes; the alpha-t learner checks
    its step-size there."""

    def build_and_step(n, alpha, lam):
        learner = make(n, alpha, lam)
        if n:
            learner.step(Transition(np.eye(1, n)[0], 1.0, np.zeros(n), 1.0, terminal=True))

    return build_and_step


LEARNERS = [
    learner_stepper(cls)
    for cls in (AccumulateTD, ReplaceTD, TrueOnlineTD, TabularTrueOnlineTD, TrueOnlineWatkinsQ)
] + [learner_stepper(lambda n, alpha, lam: TrueOnlineTDAlphaT(n, lambda t: alpha, lam))]


@pytest.mark.parametrize("name, value", junk_cases("n", "alpha", "lam"))
@given(values=valid("n", "alpha", "lam"))
@settings(max_examples=10, deadline=None)
def test_learners(name, value, values):
    for build_and_step in LEARNERS:
        expect(build_and_step, values, name, value)


TRAJ = synthetic_trajectory(SplitMix64(3), n=3, steps=6, episodic=True)
MDP = generate_mdp(4, 2, 0.1, 0.9, num_actions=2, seed=5)  # a continuing chain per action
REP = build_representation("tabular", MDP.chains[0])  # 4 features, 8 with the action
CONTROL = run_control_episode(
    TrueOnlineWatkinsQ(8, alpha=0.4, lam=0.8), MDP, REP, SplitMix64(6), epsilon=0.5, max_steps=8
)
REPLAYS = (
    lambda alpha, lam: online_lambda_return_algorithm(TRAJ, alpha, lam, np.ones(3)),
    lambda alpha, lam: offline_lambda_return_algorithm(TRAJ, alpha, lam, np.ones(3)),
    lambda alpha, lam: watkins_forward_view(CONTROL, alpha, lam, np.ones(8)),
)
REFERENCES = (
    lambda lam: interim_lambda_return(TRAJ, 1, 5, lam, constant_lookup(np.ones(3))),
    lambda lam: interim_lambda_returns_all(TRAJ, 5, lam, constant_lookup(np.ones(3))),
    lambda lam: offline_lambda_return(TRAJ, 1, lam, constant_lookup(np.ones(3))),
    lambda lam: accumulating_trace_nonrecursive(TRAJ, 4, lam),
    lambda lam: theorem1_delta_terms(TRAJ, lam, np.ones(3)),
    lambda lam: watkins_interim_target(CONTROL, 0, 8, lam, constant_lookup(np.ones(8))),
)


@pytest.mark.parametrize("name, value", junk_cases("alpha", "lam"))
@given(values=valid("alpha", "lam"))
@settings(max_examples=10, deadline=None)
def test_oracle_replays(name, value, values):
    with np.errstate(over="ignore", invalid="ignore"):  # a step-size of 2**64 overflows
        for replay in REPLAYS:
            expect(replay, values, name, value)


@pytest.mark.parametrize("name, value", junk_cases("lam"))
@given(values=valid("lam"))
@settings(max_examples=10, deadline=None)
def test_oracle_references(name, value, values):
    for reference in REFERENCES:
        expect(reference, values, name, value)


ONE_STEP = Mrp(2, [[0.0, 1.0], [0.0, 1.0]], np.zeros((2, 2)), sigma=0.0, gamma=1.0,
               terminal_states=frozenset({1}))
ONE_STEP_REP = build_representation("tabular", ONE_STEP)
DRIVERS = (
    lambda max_steps: run_episode(ONE_STEP, ONE_STEP_REP, SplitMix64(0), max_steps=max_steps),
    lambda max_steps: run_control_episode(
        TrueOnlineTD(ONE_STEP_REP.n * 2, alpha=0.1, lam=0.5), Mdp((ONE_STEP, ONE_STEP)),
        ONE_STEP_REP, SplitMix64(0), epsilon=0.1, max_steps=max_steps,
    ),
)


@pytest.mark.parametrize("name, value", junk_cases("max_steps"))
@given(values=valid("max_steps"))
@settings(max_examples=10, deadline=None)
def test_drivers(name, value, values):
    for driver in DRIVERS:
        expect(driver, values, name, value)


@pytest.mark.parametrize("max_steps", [0, -2, 2.5])
def test_continuing_step_cap_is_a_positive_integer(max_steps):
    # a continuing chain once recorded an empty run at a cap of 0 or less
    with pytest.raises(ConfigError):
        run_episode(MDP.chains[0], REP, SplitMix64(0), max_steps=max_steps)
    with pytest.raises(ConfigError):
        run_control_episode(
            TrueOnlineTD(8, 0.1, 0.5), MDP, REP, SplitMix64(0), 0.1, max_steps=max_steps
        )


@pytest.mark.parametrize("name, value", junk_cases("master_seed"))
@given(values=valid("master_seed"))
@settings(max_examples=10, deadline=None)
def test_generated_chain_seed(name, value, values):
    expect(lambda master_seed: generate_mrp(4, 2, 0.1, 0.9, seed=master_seed), values, name, value)


# counts that size a run; 2**64 is a valid count there too, but would run for ages
COUNTS = (
    lambda count: run_suite("equivalence", trials=count),
    lambda count: one_state_step_size_curve(alphas=(0.5,), episodes=count, runs=1),
    lambda count: one_state_step_size_curve(alphas=(0.5,), episodes=1, runs=count),
    lambda count: random_walk_learning_curves(episodes=count),
    lambda count: generate_mrp(count, 1, 0.1, 0.9, seed=0),
)


@pytest.mark.parametrize("name, value", junk_cases("count", skip=(2**64,)))
@given(values=valid("count"))
@settings(max_examples=5, deadline=None)
def test_counts(name, value, values):
    for call in COUNTS:
        expect(call, values, name, value)
