import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdlab import ConfigError, Trajectory, Transition, dot, stack_action_features


def test_dot_terminal_zero_features():
    assert dot(np.array([1.0, 2.0]), np.zeros(2)) == 0.0


def test_dot_hand_arithmetic():
    assert dot(np.array([1.0, 2.0]), np.array([3.0, 0.5])) == 4.0


def test_dot_zero_weights():
    assert dot(np.zeros(3), np.array([1.0, -2.0, 0.3])) == 0.0


def test_dot_dimension_mismatch_is_fatal():
    with pytest.raises(ConfigError):
        dot(np.zeros(3), np.zeros(4))


@given(st.integers(0, 2**32), st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=100, deadline=None)
def test_dot_is_bilinear(seed, a, b):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=6)
    p1, p2 = rng.normal(size=6), rng.normal(size=6)
    lhs = dot(w, a * p1 + b * p2)
    rhs = a * dot(w, p1) + b * dot(w, p2)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_stack_places_block():
    psi = stack_action_features(np.array([1.0, 0.0]), action=1, num_actions=3)
    assert np.array_equal(psi, np.array([0, 0, 1, 0, 0, 0], dtype=float))


def test_stack_terminal_stays_zero():
    psi = stack_action_features(np.zeros(2), action=2, num_actions=3)
    assert psi.shape == (6,) and not psi.any()


def test_stack_single_feature():
    assert np.array_equal(stack_action_features(np.array([0.5]), 0, 2), np.array([0.5, 0.0]))


def test_stack_action_out_of_range():
    with pytest.raises(ConfigError):
        stack_action_features(np.ones(2), 3, 3)
    with pytest.raises(ConfigError):
        stack_action_features(np.ones(2), -1, 3)


@given(st.integers(0, 2**32), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_stack_preserves_norm(seed, action):
    phi = np.random.default_rng(seed).normal(size=5)
    psi = stack_action_features(phi, action, 4)
    # exactly-rounded sums make the comparison order-independent
    assert math.fsum(x * x for x in psi) == math.fsum(x * x for x in phi)


def test_stacked_blocks_are_disjoint():
    rng = np.random.default_rng(3)
    phi = rng.normal(size=4)
    theta = rng.normal(size=12)
    for a in range(3):
        psi = stack_action_features(phi, a, 3)
        for other in range(3):
            if other == a:
                continue
            block = np.zeros(12)
            block[other * 4 : (other + 1) * 4] = theta[other * 4 : (other + 1) * 4]
            assert dot(block, psi) == 0.0


def test_transition_terminal_requires_zero_next():
    with pytest.raises(ConfigError):
        Transition(np.ones(2), 1.0, np.ones(2), 0.9, terminal=True)
    Transition(np.ones(2), 1.0, np.zeros(2), 0.9, terminal=True)


@pytest.mark.parametrize("gamma", [1.5, -0.1, math.nan])
def test_transition_gamma_outside_unit_interval_is_config_error(gamma):
    with pytest.raises(ConfigError, match="gamma"):
        Transition(np.ones(2), 0.0, np.ones(2), gamma)


def test_trajectory_validation():
    phi, zero = np.ones(1), np.zeros(1)
    good = Trajectory(steps=[
        Transition(phi, 0.0, phi, 1.0),
        Transition(phi, 1.0, zero, 1.0, terminal=True),
    ])
    good.validate()
    assert good.episodic
    bad = Trajectory(steps=[
        Transition(phi, 1.0, zero, 1.0, terminal=True),
        Transition(phi, 0.0, phi, 1.0),
    ])
    with pytest.raises(ConfigError):
        bad.validate()


def test_trajectory_phi_indexing():
    phi, zero = np.ones(1), np.zeros(1)
    traj = Trajectory(steps=[Transition(phi, 1.0, zero, 1.0, terminal=True)])
    assert traj.phi(0) is phi
    assert traj.phi(1) is zero
    with pytest.raises(IndexError):
        traj.phi(2)
