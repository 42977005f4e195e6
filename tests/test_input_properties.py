"""Every scalar input of the library takes its valid values and refuses
junk with a ConfigError: no other exception, and no silent result.

The junk is NaN, +-inf, -1, 0, 1.5, 2.5, 2**64, None, a string, True and
False (a bool is an int in Python, so True once ran as 1, and as index 1); the
real-valued inputs also get 10**400, an int beyond the largest float, and
NaN and +-inf as numpy float32 and float16. A
junk value that is valid for an input (0 for a feature dimension, 2.5 for
a step-size, 2**64 for a step cap) must be taken like any valid value.
Each input is tried with every junk value while Hypothesis draws the other
inputs from their valid ranges. Counts and indices (a state, a time step,
a horizon) have an upper bound too, and an env file's scalars get the same
junk through JSON.

Sizes stay small: feature dimensions and counts below 100, recorded runs
of a few steps, and step caps only on a chain whose episodes end after
one step, so no drawn value allocates more than a few MB or runs long.
"""

import json
import math
from numbers import Real

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    TileCoderConfig,
    Transition,
    TrueOnlineTD,
    TrueOnlineTDAlphaT,
    TrueOnlineWatkinsQ,
    accumulating_trace_nonrecursive,
    build_representation,
    epsilon_greedy,
    generate_mdp,
    generate_mrp,
    interim_lambda_return,
    n_step_return,
    offline_lambda_return,
    offline_lambda_return_algorithm,
    online_lambda_return_algorithm,
    run_control_episode,
    run_episode,
    run_sweep,
    stack_action_features,
    tile_code,
    watkins_interim_target,
)
from tdlab.envs import MAX_GENERATED_STATES, REPRESENTATION_KINDS, mrp_from_dict, mrp_to_dict
from tdlab.figures import one_state_step_size_curve, random_walk_learning_curves
from tdlab.oracle import (
    constant_lookup,
    interim_lambda_returns_all,
    theorem1_delta_terms,
    watkins_forward_view,
)
from tdlab.verify import run_suite
from tests.conftest import synthetic_trajectory

JUNK = (math.nan, math.inf, -math.inf, -1, 0, 1.5, 2.5, 2**64, None, "x", True, False)
BIG = 10**400  # math.isfinite(BIG) and float(BIG) raise OverflowError
# compared with a Python float, these cast it to their own width (NEP 50)
NARROW = tuple(t(x) for t in (np.float32, np.float16) for x in ("nan", "inf", "-inf"))
REALS = ("alpha", "lam", "gamma", "sigma", "epsilon", "lo", "hi", "signal")

# each input's valid values, and the junk values that are valid for it too
INPUTS = {
    "runs": (st.integers(1, 99), ()),  # 2**64 runs exceed harness.MAX_SWEEP_ROWS
    "steps": (st.integers(1, 99), (2**64,)),
    "master_seed": (st.integers(0, 2**64 - 1), (0,)),
    "n": (st.integers(1, 99), (0,)),
    "alpha": (st.floats(0.0, 2.0), (0, 1.5, 2.5, 2**64)),
    "lam": (st.floats(0.0, 1.0), (0,)),
    # below 1: a sweep's continuing chain needs gamma < 1
    "gamma": (st.floats(0.0, 0.99), (0,)),
    "sigma": (st.floats(0.0, 10.0), (0, 1.5, 2.5, 2**64)),
    "epsilon": (st.floats(0.0, 1.0), (0,)),
    "env": (st.sampled_from(["mrp(5,2,0.1)", "mrp(6,3,1.5)"]), ()),
    "max_steps": (st.none() | st.integers(1, 99), (None, 2**64)),
    "count": (st.integers(1, 3), ()),
    "action": (st.integers(0, 2), (0,)),
    # 2**64 actions, tilings or buckets are refused: numpy cannot allocate them
    "num_actions": (st.integers(3, 5), ()),
    "num_tilings": (st.integers(1, 8), ()),
    "bins_per_signal": (st.integers(1, 20), (2**64,)),
    "hash_size": (st.integers(1, 99), ()),
    "lo": (st.floats(-10.0, -3.0), (-1, 0, 1.5, 2.5)),
    "hi": (st.floats(3.0, 10.0), (-1, 0, 1.5, 2.5, 2**64)),
    "signal": (st.floats(-1e6, 1e6), (math.inf, -math.inf, -1, 0, 1.5, 2.5, 2**64)),
    # a three-state chain's initial state, one terminal state and branching factor
    "initial": (st.integers(0, 2), (0,)),
    "terminal_state": (st.integers(0, 2), (0,)),
    "b": (st.none() | st.integers(1, 3), (None,)),
    # the oracle references' origins t and k, and horizons h, on 6 and 8 steps
    "t": (st.integers(0, 1), (0,)),
    "k": (st.integers(0, 1), (0,)),
    "h": (st.integers(2, 6), ()),
    # SplitMix64.below's n, and the m of sample_without_replacement(5, m)
    "below_n": (st.integers(1, 99), (2**64,)),
    "m": (st.integers(0, 5), (0,)),
}


def junk_cases(*names, skip=()):
    return [
        pytest.param(name, x, id=f"{name}={'10**400' if x is BIG else repr(x)}")
        for name in names for x in (JUNK + (BIG, *NARROW) if name in REALS else JUNK)
        if x not in skip
    ]


def valid(*names):
    return st.fixed_dictionaries({name: INPUTS[name][0] for name in names})


def expect(call, values, name, value):
    """call(**values) returns; with `name` set to the junk `value` it
    returns too if the value is valid for that input, else raises ConfigError."""
    call(**values)
    junked = {**values, name: value}
    # a numpy float as a Python float: a float16 compared with 2**64 would overflow;
    # a bool is junk everywhere, though False == 0
    x = float(value) if isinstance(value, np.floating) else value
    if not isinstance(x, bool) and x in INPUTS[name][1]:
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


def sweep(env, gamma):
    run_sweep(SweepConfig(
        env=env, representation="tabular", variants=("true-online",),
        alphas=(0.1,), lambdas=(0.5,), steps=3, runs=1, master_seed=0, gamma=gamma,
    ))


@pytest.mark.parametrize("name, value", junk_cases("env", "gamma"))
@given(values=valid("env", "gamma"))
@settings(max_examples=5, deadline=None)
def test_sweep_env_and_gamma(name, value, values):
    expect(sweep, values, name, value)


CHAINS = (
    lambda sigma, gamma: Mrp(2, [[0.0, 1.0], [0.0, 1.0]], np.zeros((2, 2)), sigma=sigma,
                             gamma=gamma, terminal_states=frozenset({1})),
    lambda sigma, gamma: generate_mrp(4, 2, sigma, gamma, seed=0),
    lambda sigma, gamma: generate_mdp(4, 2, sigma, gamma, num_actions=2, seed=0),
)


@pytest.mark.parametrize("name, value", junk_cases("sigma", "gamma"))
@given(values=valid("sigma", "gamma"))
@settings(max_examples=10, deadline=None)
def test_chains(name, value, values):
    for chain in CHAINS:
        expect(chain, values, name, value)


def three_states(initial, terminal_state, b):
    Mrp(3, np.eye(3), np.zeros((3, 3)), sigma=0.0, gamma=0.9,
        terminal_states=frozenset({terminal_state}), initial=initial, b=b)


@pytest.mark.parametrize("name, value", junk_cases("initial", "terminal_state", "b"))
@given(values=valid("initial", "terminal_state", "b"))
@settings(max_examples=10, deadline=None)
def test_chain_states(name, value, values):
    # an initial state of True once ran as state 1, and any b was stored
    expect(three_states, values, name, value)


ENV_FILE = mrp_to_dict(generate_mrp(6, 2, 0.1, 0.9, seed=0))
# each scalar key of a gen-mrp file, and the junk values that are valid for it
ENV_FILE_SCALARS = {
    "k": (), "b": (None,), "sigma": (0, 1.5, 2.5, 2**64), "gamma": (0,), "initial": (0,),
    "terminal_states": (0,),  # its one entry
}


@pytest.mark.parametrize("key, value", [
    pytest.param(key, x, id=f"{key}={'10**400' if x is BIG else repr(x)}")
    for key in ENV_FILE_SCALARS for x in JUNK + (BIG,)
])
def test_env_file_scalars(key, value):
    # the loader once coerced with int() and float(): "k": 6.0, "b": -3,
    # "sigma": "0.1", "gamma": false and "initial": true all loaded
    payload = {**ENV_FILE, key: [value] if key == "terminal_states" else value}
    data = json.loads(json.dumps(payload))  # NaN and +-inf as JSON's NaN and Infinity
    if not isinstance(value, bool) and value in ENV_FILE_SCALARS[key]:
        mrp_from_dict(data)
    else:
        with pytest.raises(ConfigError):
            mrp_from_dict(data)


def test_env_file_round_trip_of_a_list_initial():
    # a list initial was kept as a list, and mrp_to_dict raised TypeError on it
    mrp = Mrp(2, [[0.5, 0.5], [0.5, 0.5]], np.zeros((2, 2)), sigma=0.0, gamma=0.9,
              initial=[0.25, 0.75])
    back = mrp_from_dict(json.loads(json.dumps(mrp_to_dict(mrp))))
    assert back.initial.tolist() == [0.25, 0.75]
    assert np.array_equal(back.cum_initial, mrp.cum_initial)


@pytest.mark.parametrize("name, value", junk_cases("gamma"))
@given(values=valid("gamma"))
@settings(max_examples=10, deadline=None)
def test_transition(name, value, values):
    expect(lambda gamma: Transition(np.ones(2), 0.0, np.ones(2), gamma), values, name, value)


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


# each reference with the indices it takes; h is the trace's step count too
INDEX_REFERENCES = (
    (("t",), lambda t: n_step_return(TRAJ, t, 1, constant_lookup(np.ones(3)))),
    (("k", "h"), lambda k, h: interim_lambda_return(TRAJ, k, h, 0.5, constant_lookup(np.ones(3)))),
    (("h",), lambda h: interim_lambda_returns_all(TRAJ, h, 0.5, constant_lookup(np.ones(3)))),
    (("k",), lambda k: offline_lambda_return(TRAJ, k, 0.5, constant_lookup(np.ones(3)))),
    (("h",), lambda h: accumulating_trace_nonrecursive(TRAJ, h, 0.5)),
    (("t", "h"), lambda t, h: watkins_interim_target(CONTROL, t, h, 0.5, constant_lookup(np.ones(8)))),
)


@pytest.mark.parametrize("name, value", junk_cases("t", "k", "h"))
@given(values=valid("t", "k", "h"))
@example(values={"t": 0, "k": 0, "h": 2})  # t = -1 once read steps[-1] in the Watkins target
@settings(max_examples=10, deadline=None)
def test_oracle_reference_indices(name, value, values):
    for names, reference in INDEX_REFERENCES:
        if name in names:
            expect(reference, {n: values[n] for n in names}, name, value)


@pytest.mark.parametrize("name, value", junk_cases("below_n", "m"))
@given(values=valid("below_n", "m"))
@settings(max_examples=10, deadline=None)
def test_draws(name, value, values):
    def draw(below_n, m):
        SplitMix64(0).below(below_n)
        SplitMix64(0).sample_without_replacement(5, m)

    expect(draw, values, name, value)


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


@pytest.mark.parametrize("name, value", junk_cases("master_seed"))
@given(values=valid("master_seed"))
@settings(max_examples=5, deadline=None)
def test_representation_seed(name, value, values):
    for kind in REPRESENTATION_KINDS:
        expect(
            lambda master_seed: build_representation(kind, MDP.chains[0], seed=master_seed),
            values, name, value,
        )


def greedy_action(num_actions):
    """epsilon_greedy on two features per action. The weights have
    2 * num_actions entries wherever that is a size up to 10, so 0 and 1.5
    actions meet the count check, not the dimension check."""
    whole = isinstance(num_actions, Real) and 2 * num_actions in range(11)
    theta = np.zeros(int(2 * num_actions) if whole else 6)
    epsilon_greedy(theta, np.ones(2), num_actions, 0.5, SplitMix64(0))


@pytest.mark.parametrize("name, value", junk_cases("action", "num_actions"))
@given(values=valid("action", "num_actions"))
@settings(max_examples=10, deadline=None)
def test_action_counts(name, value, values):
    expect(lambda action, num_actions: stack_action_features(np.ones(2), action, num_actions),
           values, name, value)
    if name == "num_actions":
        expect(greedy_action, {"num_actions": values["num_actions"]}, name, value)


@pytest.mark.parametrize("name, value", junk_cases("epsilon"))
@given(values=valid("epsilon"))
@settings(max_examples=10, deadline=None)
def test_exploration(name, value, values):
    expect(lambda epsilon: epsilon_greedy(np.zeros(6), np.ones(2), 3, epsilon, SplitMix64(0)),
           values, name, value)


def tile_coder(num_tilings, bins_per_signal, hash_size, lo, hi, signal):
    config = TileCoderConfig(num_tilings, bins_per_signal, ((lo, hi), (0.0, 1.0)), hash_size)
    tile_code([signal, 0.5], config)


TILE_CODER_INPUTS = ("num_tilings", "bins_per_signal", "hash_size", "lo", "hi", "signal")


@pytest.mark.parametrize("name, value", junk_cases(*TILE_CODER_INPUTS))
@given(values=valid(*TILE_CODER_INPUTS))
@settings(max_examples=10, deadline=None)
def test_tile_coder(name, value, values):
    expect(tile_coder, values, name, value)


# counts that size a run; 2**64 is a valid count there too, but would run for ages
COUNTS = (
    lambda count: run_suite("equivalence", trials=count),
    lambda count: run_suite("closed-forms", trials=count),
    lambda count: one_state_step_size_curve(alphas=(0.5,), episodes=count, runs=1),
    lambda count: one_state_step_size_curve(alphas=(0.5,), episodes=1, runs=count),
    lambda count: random_walk_learning_curves(episodes=count),
    lambda count: generate_mrp(count, 1, 0.1, 0.9, seed=0),
    lambda count: n_step_return(TRAJ, 0, count, constant_lookup(np.ones(3))),
)


@pytest.mark.parametrize("name, value", junk_cases("count", skip=(2**64,)))
@given(values=valid("count"))
@settings(max_examples=5, deadline=None)
def test_counts(name, value, values):
    for call in COUNTS:
        expect(call, values, name, value)


@pytest.mark.parametrize("k", [MAX_GENERATED_STATES + 1, 100_000, 2**64])
def test_generated_chain_size_is_capped(k):
    # two k x k arrays: 2**64 states once ended in numpy's ValueError, and
    # 100 000 would ask for 160 GB
    with pytest.raises(ConfigError, match=f"k={k} "):
        generate_mrp(k, 1, 0.1, 0.9, seed=0)
    with pytest.raises(ConfigError, match=f"k={k} "):
        generate_mdp(k, 1, 0.1, 0.9, num_actions=2, seed=0)
