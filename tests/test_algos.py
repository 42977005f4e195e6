import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdlab import (
    AccumulateTD,
    ConfigError,
    ReplaceTD,
    SplitMix64,
    TabularTrueOnlineTD,
    TileCoderConfig,
    Trajectory,
    Transition,
    TrueOnlineTD,
    TrueOnlineTDAlphaT,
    TrueOnlineWatkinsQ,
    build_representation,
    canonical_task,
    certify_equivalence,
    epsilon_greedy,
    generate_mdp,
    generate_mrp,
    run_control_episode,
    run_episode,
    tile_code,
)
from tdlab import algos
from tdlab.algos import (
    PREDICTION_LEARNERS,
    PREDICTION_VARIANTS,
    greedy_toward,
    make_prediction_learner,
    replay_prediction,
)
from tdlab.core import action_values, stack_action_features
from tests.conftest import (
    episodic_mdp,
    make_mrp_trajectory,
    one_state_episode,
    synthetic_trajectory,
)


class TestAccumulate:
    def test_trace_reaches_episode_length(self):
        T = 6
        learner = AccumulateTD(1, alpha=0.1, lam=1.0)
        for step in one_state_episode(T).steps:
            learner.step(step)
        assert learner.e[0] == T

    def test_one_state_closed_form(self):
        # oracle: V_T = V0 + T*alpha*(1 - V0) evaluated by hand for T=3, alpha=0.5
        learner = AccumulateTD(1, alpha=0.5, lam=1.0)
        for step in one_state_episode(3).steps:
            learner.step(step)
        assert learner.theta[0] == pytest.approx(1.5, abs=1e-15)

    def test_lambda_zero_trace_is_phi(self):
        traj, n = make_mrp_trajectory(steps=30, seed=5)
        learner = AccumulateTD(n, alpha=0.2, lam=0.0)
        for step in traj.steps:
            learner.step(step)
            assert np.array_equal(learner.e, step.phi)

    def test_dimension_check(self):
        learner = AccumulateTD(3, alpha=0.1, lam=0.5)
        with pytest.raises(ConfigError):
            learner.step(Transition(np.ones(2), 0.0, np.ones(2), 0.9))


class TestReplace:
    def test_two_state_behaves_like_td0(self):
        mrp, rep = canonical_task("two-state")
        for lam in (0.0, 0.5, 1.0):
            repl = ReplaceTD(1, alpha=0.05, lam=lam)
            td0 = AccumulateTD(1, alpha=0.05, lam=0.0)
            rng = SplitMix64(1)
            for _ in range(40):
                traj = run_episode(mrp, rep, SplitMix64(rng.next_u64()))
                for learner in (repl, td0):
                    learner.start_episode()
                    for step in traj.steps:
                        learner.step(step)
            assert repl.theta[0] == td0.theta[0]

    def test_replacement_rule(self):
        learner = ReplaceTD(1, alpha=0.1, lam=1.0)
        learner.e[0] = 0.4
        learner.step(Transition(np.array([1.0]), 0.0, np.array([1.0]), 0.9))
        assert learner.e[0] == 1.0

    def test_decay_rule(self):
        learner = ReplaceTD(1, alpha=0.1, lam=1.0)
        learner.e[0] = 0.4
        learner.step(Transition(np.array([0.0]), 0.0, np.array([1.0]), 0.9))
        assert learner.e[0] == pytest.approx(0.36, abs=1e-15)

    def test_non_binary_features_fatal(self):
        learner = ReplaceTD(2, alpha=0.1, lam=0.5)
        with pytest.raises(ConfigError, match="binary"):
            learner.step(Transition(np.array([0.5, 0.0]), 0.0, np.zeros(2), 0.9, terminal=True))


class TestTrueOnline:
    def test_dutch_trace_hand_value(self):
        # gamma*lam*e + phi - alpha*gamma*lam*(e.phi)*phi with e=phi=(1,0)
        learner = TrueOnlineTD(2, alpha=0.5, lam=1.0)
        learner.e[:] = np.array([1.0, 0.0])
        learner.step(Transition(np.array([1.0, 0.0]), 0.0, np.zeros(2), 1.0, terminal=True))
        assert learner.e.tolist() == [1.5, 0.0]

    def test_lambda_zero_is_one_step_td(self):
        traj, n = make_mrp_trajectory(steps=40, seed=6)
        to = TrueOnlineTD(n, alpha=0.3, lam=0.0)
        td = AccumulateTD(n, alpha=0.3, lam=0.0)
        for step in traj.steps:
            to.step(step)
            td.step(step)
            assert np.array_equal(to.e, step.phi)
        assert np.abs(to.theta - td.theta).max() <= 1e-15

    def test_one_state_closed_form(self):
        # oracle: V_T = V0 + (1-(1-alpha)^T)(1 - V0) at V0=0, alpha=0.5, T=3
        learner = TrueOnlineTD(1, alpha=0.5, lam=1.0)
        for step in one_state_episode(3).steps:
            learner.step(step)
        assert learner.theta[0] == pytest.approx(0.875, abs=1e-15)

    def test_theta_view_is_read_only(self):
        learner = TrueOnlineTD(2, alpha=0.1, lam=0.5)
        with pytest.raises(ValueError):
            learner.theta[0] = 1.0

    def test_a_held_theta_view_follows_steps_and_stays_read_only(self):
        traj, n = make_mrp_trajectory(steps=30, seed=4)
        learner = TrueOnlineTD(n, alpha=0.3, lam=0.8)
        held = learner.theta
        initial = held.copy()
        for steps in (traj.steps[:12], traj.steps[12:]):
            for step in steps:
                learner.step(step)
            learner.start_episode()
        assert not np.array_equal(held, initial)
        assert np.array_equal(held, [learner.value(x) for x in np.eye(n)])
        with pytest.raises(ValueError):
            held[0] = 1.0

    def test_tile_coded_features_match_forward_view(self):
        # 32 buckets for 4 tilings, so some observations collide into a 2
        config = TileCoderConfig(
            num_tilings=4, bins_per_signal=5, signal_ranges=((0.0, 1.0),), hash_size=32
        )
        rng = np.random.default_rng(17)
        x = 0.5
        steps = []
        for _ in range(80):
            x_next = float(np.clip(x + rng.normal(scale=0.1), 0.0, 1.0))
            steps.append(Transition(
                tile_code([x], config), x_next + rng.normal(scale=0.1),
                tile_code([x_next], config), 0.95,
            ))
            x = x_next
        traj = Trajectory(steps=steps)
        report = certify_equivalence(
            traj, 0.1 / config.active_features, 0.9, np.zeros(config.n), "true-online-vs-oracle"
        )
        assert report.compared_steps == len(traj)
        assert report.max_rel_diff <= 1e-8, report


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -0.1])
def test_invalid_step_size_rejected(alpha):
    for build in (
        lambda: AccumulateTD(2, alpha=alpha, lam=0.5),
        lambda: ReplaceTD(2, alpha=alpha, lam=0.5),
        lambda: TrueOnlineTD(2, alpha=alpha, lam=0.5),
        lambda: TrueOnlineWatkinsQ(2, alpha=alpha, lam=0.5),
        lambda: TabularTrueOnlineTD(2, alpha=alpha, lam=0.5),
    ):
        with pytest.raises(ConfigError, match="alpha"):
            build()
    TrueOnlineTD(2, alpha=0.0, lam=0.5)  # alpha = 0 freezes the weights and stays valid


@pytest.mark.parametrize("call", [
    lambda: TrueOnlineTD(2, None, 0.5),
    lambda: TrueOnlineTD(2, "0.1", 0.5),
    lambda: TrueOnlineTD(2, 0.1, None),
    lambda: epsilon_greedy(np.zeros(2), np.ones(1), 2, None, SplitMix64(0)),
    lambda: TrueOnlineTDAlphaT(1, lambda t: None, 0.5).step(
        Transition(np.ones(1), 0.0, np.ones(1), 0.9)
    ),
    lambda: TrueOnlineTDAlphaT(4, 0.1, 0.9),
    lambda: TrueOnlineTD(-1, 0.1, 0.5),
    lambda: TrueOnlineTD(2.5, 0.1, 0.5),
    lambda: TrueOnlineTD(None, 0.1, 0.5),
], ids=[
    "alpha-none", "alpha-str", "lambda-none", "epsilon-none", "alpha-t-none",
    "alpha-t-float-schedule", "n-negative", "n-float", "n-none",
])
def test_non_numbers_are_config_errors(call):
    with pytest.raises(ConfigError):
        call()


def test_ints_and_numpy_floats_are_numbers():
    TrueOnlineTD(2, np.float64(0.1), np.float32(0.5))
    TrueOnlineTD(2, 1, 0)
    assert epsilon_greedy(np.zeros(2), np.ones(1), 2, np.float64(0.0), SplitMix64(0))[0] == 0


class TestAlphaT:
    def test_constant_alpha_trace_scaling(self):
        traj, n = make_mrp_trajectory(steps=50, seed=7)
        alpha = 0.37
        plain = TrueOnlineTD(n, alpha=alpha, lam=0.8)
        scaled = TrueOnlineTDAlphaT(n, alpha_schedule=lambda t: alpha, lam=0.8)
        for step in traj.steps:
            plain.step(step)
            scaled.step(step)
            assert np.abs(scaled.e - alpha * plain.e).max() <= 1e-12

    def test_constant_alpha_matches_standard(self):
        traj, n = make_mrp_trajectory(steps=80, seed=8)
        alpha = 0.6
        plain = TrueOnlineTD(n, alpha=alpha, lam=0.9)
        scaled = TrueOnlineTDAlphaT(n, alpha_schedule=lambda t: alpha, lam=0.9)
        for step in traj.steps:
            plain.step(step)
            scaled.step(step)
            assert np.abs(plain.theta - scaled.theta).max() <= 1e-12

    def test_zero_schedule_freezes_weights(self):
        traj, n = make_mrp_trajectory(steps=30, seed=9)
        learner = TrueOnlineTDAlphaT(n, alpha_schedule=lambda t: 0.0, lam=0.9)
        for step in traj.steps:
            learner.step(step)
        assert not learner.theta.any()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -5.0])
    def test_schedule_values_are_checked(self, bad):
        learner = TrueOnlineTDAlphaT(1, alpha_schedule=lambda t: 0.1 if t == 0 else bad, lam=0.5)
        step = Transition(np.ones(1), 1.0, np.ones(1), 0.9)
        learner.step(step)
        before = learner.theta.copy()
        with pytest.raises(ConfigError, match="alpha"):
            learner.step(step)
        assert np.array_equal(learner.theta, before) and learner.t == 1

    def test_step_counter_is_global(self):
        seen = []
        learner = TrueOnlineTDAlphaT(1, alpha_schedule=lambda t: seen.append(t) or 0.1, lam=0.5)
        for _ in range(2):
            learner.start_episode()
            for step in one_state_episode(2).steps:
                learner.step(step)
        assert seen == [0, 1, 2, 3]


class TestTabular:
    def test_visit_update_weighted_average(self):
        eye = np.eye(3)
        learner = TabularTrueOnlineTD(3, alpha=0.2, lam=0.9)
        learner.e[1] = 2.0
        learner.step(Transition(eye[1], 0.0, eye[2], 0.9))
        # (1-alpha)*e + 1 applied on the visit, then the gamma*lambda decay
        assert learner.e[1] == pytest.approx(2.6 * 0.9 * 0.9, abs=1e-15)

    def test_alpha_one_is_replacing(self):
        eye = np.eye(3)
        learner = TabularTrueOnlineTD(3, alpha=1.0, lam=0.5)
        learner.e[0] = 7.0
        learner.step(Transition(eye[0], 1.0, eye[1], 1.0))
        assert learner.e[0] == pytest.approx(0.5, abs=1e-15)  # set to 1, then decayed

    def test_matches_general_true_online_on_walk(self):
        mrp, rep = canonical_task("random-walk-10")
        alpha, lam = 0.3, 0.9
        general = TrueOnlineTD(rep.n, alpha=alpha, lam=lam)
        tab = TabularTrueOnlineTD(rep.n, alpha=alpha, lam=lam)
        rng = SplitMix64(42)
        for _ in range(10):
            traj = run_episode(mrp, rep, rng)
            for learner in (general, tab):
                learner.start_episode()
                for step in traj.steps:
                    learner.step(step)
            assert np.abs(general.theta - tab.theta).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["walk", "mrp"]),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.0, 2.5),
        lam=st.floats(0.0, 1.0),
        theta_scale=st.sampled_from([0.0, 1.0, 10.0]),
    )
    def test_equals_the_state_indexed_replay_bit_for_bit(self, kind, seed, alpha, lam, theta_scale):
        if kind == "walk":
            mrp, rep = canonical_task("random-walk-10")
            traj = run_episode(mrp, rep, SplitMix64(seed), max_steps=100_000)
        else:
            mrp = generate_mrp(10, 3, 0.1, 0.99, seed=seed)
            rep = build_representation("tabular", mrp, seed=0)
            traj = run_episode(mrp, rep, SplitMix64(seed + 1), max_steps=120)
        rng = SplitMix64(seed ^ 0x5A)
        theta0 = np.array([theta_scale * rng.normal() for _ in range(rep.n)])
        with np.errstate(over="ignore", invalid="ignore"):
            got = replay_prediction(TabularTrueOnlineTD(rep.n, alpha, lam, theta_init=theta0), traj)
            want = state_indexed_tabular_replay(traj, alpha, lam, theta0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("phi", [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.5, 0.0],
                                     [0.0, 2.0, 0.0], [float("nan"), 0.0, 0.0]])
    def test_phi_must_be_one_hot(self, phi):
        learner = TabularTrueOnlineTD(3, alpha=0.5, lam=0.9)
        with pytest.raises(ConfigError, match="one-hot"):
            learner.step(Transition(np.array(phi), 1.0, np.eye(3)[0], 0.9))
        assert not learner.theta.any() and learner.t == 0

    @pytest.mark.parametrize("phi_next", [[1.0, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, -1.0, 0.0]])
    def test_phi_next_must_be_one_hot_or_zero(self, phi_next):
        learner = TabularTrueOnlineTD(3, alpha=0.5, lam=0.9)
        with pytest.raises(ConfigError, match="one-hot"):
            learner.step(Transition(np.eye(3)[0], 1.0, np.array(phi_next), 0.9))
        learner.step(Transition(np.eye(3)[0], 1.0, np.zeros(3), 0.9, terminal=True))
        assert learner.theta.tolist() == [0.5, 0.0, 0.0]

    def test_dimension_checks(self):
        with pytest.raises(ConfigError, match="theta_init"):
            TabularTrueOnlineTD(3, alpha=0.5, lam=0.9, theta_init=np.zeros(2))
        learner = TabularTrueOnlineTD(3, alpha=0.5, lam=0.9)
        with pytest.raises(ConfigError, match="dimension"):
            learner.step(Transition(np.eye(2)[0], 0.0, np.eye(2)[1], 0.9))


def state_indexed_tabular_replay(traj, alpha, lam, theta_init):
    """Reference: the replay tdlab 0.2.0 ran for the tabular learner, which
    stepped on (state, reward, next_state, gamma) with states decoded from
    one-hot features by argmax."""
    v = np.array(theta_init, dtype=np.float64)
    e = np.zeros(v.shape[0])
    v_old = 0.0
    history = [v.copy()]
    for step in traj.steps:
        state = int(np.argmax(step.phi))
        nxt = None if not step.phi_next.any() else int(np.argmax(step.phi_next))
        v_next = 0.0 if nxt is None else v[nxt]
        dv = v[state] - v_old
        v_old = v_next
        delta = step.reward + step.gamma * v_next - v[state]
        e[state] = (1.0 - alpha) * e[state] + 1.0
        v += (alpha * (delta + dv)) * e
        e *= step.gamma * lam
        v[state] -= alpha * dv
        history.append(v.copy())
    return np.array(history)


class TestEpsilonGreedy:
    def test_uniform_at_epsilon_one(self):
        rng = SplitMix64(1)
        theta = np.array([5.0, 0.0, 0.0, 0.0])  # strongly prefers action 0
        counts = np.zeros(4)
        n = 100_000
        for _ in range(n):
            a, _ = epsilon_greedy(theta, np.ones(1), 4, 1.0, rng)
            counts[a] += 1
        chi2 = (((counts - n / 4) ** 2) / (n / 4)).sum()
        assert chi2 < 25.0  # df=3; well beyond the 99.9% quantile

    def test_greedy_at_epsilon_zero(self):
        theta = np.array([0.0, 2.0, 1.0])
        for _ in range(10):
            a, greedy = epsilon_greedy(theta, np.ones(1), 3, 0.0, SplitMix64(3))
            assert a == 1 and greedy

    def test_tie_breaks_to_lowest_index(self):
        a, greedy = epsilon_greedy(np.zeros(3), np.ones(1), 3, 0.0, SplitMix64(3))
        assert a == 0 and greedy

    def test_exploratory_draw_hitting_max_counts_greedy(self):
        theta = np.array([1.0, 1.0, 0.0])
        rng = SplitMix64(5)
        flags = [epsilon_greedy(theta, np.ones(1), 3, 1.0, rng) for _ in range(300)]
        for action, greedy in flags:
            assert greedy == (action in (0, 1))


class TestControl:
    def _setting(self, seed=0):
        mdp = generate_mdp(6, 2, 0.1, 0.9, num_actions=3, seed=seed)
        rep = build_representation("tabular", generate_mrp(6, 2, 0.1, 0.9, seed=1), seed=0)
        return mdp, rep

    def test_sarsa_lambda_zero_is_one_step(self):
        mdp, rep = self._setting(3)
        a = TrueOnlineTD(rep.n * 3, alpha=0.3, lam=0.0)
        b = AccumulateTD(rep.n * 3, alpha=0.3, lam=0.0)
        ta = run_control_episode(a, mdp, rep, SplitMix64(9), epsilon=0.2, max_steps=60)
        tb = run_control_episode(b, mdp, rep, SplitMix64(9), epsilon=0.2, max_steps=60)
        assert ta.actions == tb.actions
        assert np.abs(a.theta - b.theta).max() <= 1e-12

    def test_sarsa_fixed_point_single_pair(self):
        # one state-action looping on itself with reward 1: Q -> 1/(1-gamma)
        gamma = 0.5
        learner = TrueOnlineTD(1, alpha=0.1, lam=0.0)
        psi = np.array([1.0])
        learner.start_episode()
        for _ in range(1000):
            learner.step(Transition(psi, 1.0, psi, gamma))
        assert learner.theta[0] == pytest.approx(1.0 / (1.0 - gamma), abs=1e-3)

    def test_watkins_trace_reset_exact_zero(self):
        mdp, rep = self._setting(4)
        learner = TrueOnlineWatkinsQ(rep.n * 3, alpha=0.4, lam=0.9)
        psi, other = np.zeros(learner.n), np.zeros(learner.n)
        psi[0] = other[1] = 1.0
        learner.step(Transition(psi, 1.0, psi, 0.9))
        assert learner.e[0] != 0.0
        learner.step(Transition(other, 1.0, other, 0.9))  # not the pair bootstrapped on
        assert same_bits(learner.e, other)

    def test_watkins_epsilon_zero_equals_sarsa(self):
        mdp, rep = self._setting(5)
        w = TrueOnlineWatkinsQ(rep.n * 3, alpha=0.5, lam=0.9)
        s = TrueOnlineTD(rep.n * 3, alpha=0.5, lam=0.9)
        tw = run_control_episode(w, mdp, rep, SplitMix64(77), epsilon=0.0, max_steps=80)
        ts = run_control_episode(s, mdp, rep, SplitMix64(77), epsilon=0.0, max_steps=80)
        assert tw.actions == ts.actions
        assert all(tw.greedy)
        assert np.abs(w.theta - s.theta).max() <= 1e-12

    def test_driver_rejects_state_sized_learner(self):
        mdp, rep = self._setting(7)
        with pytest.raises(ConfigError, match="action features"):
            run_control_episode(
                TrueOnlineTD(rep.n, alpha=0.1, lam=0.5), mdp, rep, SplitMix64(1),
                epsilon=0.1, max_steps=10,
            )

    def test_watkins_lambda_zero_is_q_learning(self):
        # tabular one-step Q-learning on the pairs the behavior took
        mdp, rep = self._setting(6)
        alpha = 0.3
        learner = TrueOnlineWatkinsQ(rep.n * 3, alpha=alpha, lam=0.0)
        traj = run_control_episode(learner, mdp, rep, SplitMix64(31), epsilon=0.3, max_steps=50)
        assert not all(traj.greedy)
        q = np.zeros((3, rep.n))
        for step, action in zip(traj.steps, traj.actions):
            s, s2 = int(np.argmax(step.phi)), int(np.argmax(step.phi_next))
            target = step.reward + step.gamma * (0.0 if step.terminal else q[:, s2].max())
            q[action, s] += alpha * (target - q[action, s])
        assert np.abs(learner.theta - q.ravel()).max() <= 1e-12


def relift(traj, final_action, watkins, alpha, lam):
    """A control run's psi transitions, rebuilt from its state-level
    record: each steps from the behavior pair; Sarsa bootstraps on the
    next behavior pair, Watkins on the greedy pair of a learner replayed
    alongside, ties toward the behavior action. final_action is the
    action a capped run selected for its last state."""
    num_actions = traj.num_actions
    learner = TrueOnlineWatkinsQ(traj.steps[0].phi.shape[0] * num_actions, alpha=alpha, lam=lam)
    steps = []
    for j, step in enumerate(traj.steps):
        psi = stack_action_features(step.phi, traj.actions[j], num_actions)
        if step.terminal:
            tr = Transition(psi, step.reward, np.zeros(psi.shape[0]), step.gamma, True)
        else:
            target = traj.actions[j + 1] if j + 1 < len(traj) else final_action
            if watkins:
                target = greedy_toward(
                    action_values(learner.theta, step.phi_next, num_actions), target
                )
            psi_next = stack_action_features(step.phi_next, target, num_actions)
            tr = Transition(psi, step.reward, psi_next, step.gamma)
        if watkins:
            learner.step(tr)
        steps.append(tr)
    return steps


def same_bits(a, b):
    a, b = np.atleast_1d(np.asarray(a, np.float64)), np.atleast_1d(np.asarray(b, np.float64))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@given(
    st.integers(0, 2**32),
    st.booleans(),
    st.sampled_from(["tabular", "binary", "random-normalized"]),
    st.floats(0.01, 2.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_stepped_transitions_are_the_relift(seed, watkins, kind, alpha, lam, epsilon, episodic):
    rng = SplitMix64(seed)
    mdp = episodic_mdp(rng.next_u64()) if episodic else generate_mdp(
        6, 3, 0.1, 0.9, num_actions=3, seed=rng.next_u64()
    )
    rep = build_representation(kind, mdp.chains[0], seed=rng.next_u64())
    cls = TrueOnlineWatkinsQ if watkins else TrueOnlineTD
    run_seed = rng.next_u64()

    def record(cap):
        learner = cls(rep.n * 3, alpha=alpha, lam=lam)
        return run_control_episode(
            learner, mdp, rep, SplitMix64(run_seed), epsilon=epsilon, max_steps=cap
        )

    with np.errstate(all="ignore"):
        traj = record(None if episodic else 40)
        final_action = None
        if not episodic:  # one step more on the same stream selects the same final action
            final_action = record(41).actions[40]
        steps = relift(traj, final_action, watkins, alpha, lam)
    assert traj.episodic == episodic
    assert len(traj.stepped) == len(steps)
    for got, want in zip(traj.stepped.steps, steps):
        assert same_bits(got.phi, want.phi) and same_bits(got.phi_next, want.phi_next)
        assert same_bits(got.reward, want.reward) and same_bits(got.gamma, want.gamma)
        assert got.terminal == want.terminal


@given(
    st.integers(0, 2**32),
    st.floats(0.0, 1.0),
    st.floats(0.01, 1.0),
    st.floats(0.0, 1.0),
    st.sampled_from(["tabular", "binary", "random-normalized"]),
)
@settings(max_examples=60, deadline=None)
def test_watkins_cuts_its_trace_after_exactly_the_non_greedy_actions(
    seed, epsilon, alpha, lam, kind
):
    rng = SplitMix64(seed)
    mdp = generate_mdp(6, 3, 0.1, 0.9, num_actions=3, seed=rng.next_u64())
    rep = build_representation(kind, mdp.chains[0], seed=rng.next_u64())
    driver = TrueOnlineWatkinsQ(rep.n * 3, alpha=alpha, lam=lam)
    traj = run_control_episode(driver, mdp, rep, rng.split(), epsilon=epsilon, max_steps=40)
    traces = []  # the trace each dutch step starts from and leaves
    dutch_rule = algos.dutch_rule

    def spy(theta, e, *rest):
        before = e.copy()
        v_old = dutch_rule(theta, e, *rest)
        traces.append((before, e.copy()))
        return v_old

    replayer = TrueOnlineWatkinsQ(rep.n * 3, alpha=alpha, lam=lam)
    with mock.patch.object(TrueOnlineWatkinsQ, "rule", staticmethod(spy)):
        history = replay_prediction(replayer, traj.stepped)
    assert same_bits(history[-1], driver.theta)
    cuts = [j for j in range(1, len(traj)) if not same_bits(traces[j][0], traces[j - 1][1])]
    assert all(not traces[j][0].any() for j in cuts)
    assert cuts == [j for j in range(1, len(traj)) if not traj.greedy[j]]


class TestRunEpisode:
    def test_one_state_episode_structure(self):
        mrp, rep = canonical_task("one-state")
        traj = run_episode(mrp, rep, SplitMix64(2))
        assert traj.episodic
        assert all(s.reward in (0.0, 1.0) for s in traj.steps)
        assert traj.steps[-1].reward == 1.0

    def test_continuing_cap_is_exact(self):
        mrp = generate_mrp(10, 3, 0.1, 0.99, seed=2)
        rep = build_representation("tabular", mrp, seed=0)
        traj = run_episode(mrp, rep, SplitMix64(2), max_steps=100)
        assert len(traj) == 100 and not traj.episodic

    def test_replay_determinism(self):
        mrp = generate_mrp(10, 3, 0.1, 0.99, seed=2)
        rep = build_representation("binary", mrp, seed=0)
        t1 = run_episode(mrp, rep, SplitMix64(9), max_steps=50)
        t2 = run_episode(mrp, rep, SplitMix64(9), max_steps=50)
        assert all(
            np.array_equal(a.phi, b.phi) and a.reward == b.reward
            for a, b in zip(t1.steps, t2.steps)
        )

    def test_cap_exceeded_on_episodic_is_diagnostic(self):
        mrp, rep = canonical_task("random-walk-10")
        with pytest.raises(RuntimeError, match="cap"):
            run_episode(mrp, rep, SplitMix64(1), max_steps=2)

    def test_continuing_requires_cap(self):
        mrp = generate_mrp(5, 2, 0.0, 0.9, seed=0)
        rep = build_representation("tabular", mrp, seed=0)
        with pytest.raises(ConfigError):
            run_episode(mrp, rep, SplitMix64(1))


def test_step_cost_scales_linearly():
    """Wall-clock check that per-step work is O(n)."""
    rng = np.random.default_rng(0)

    def per_step_cost(n, reps):
        phis = rng.normal(size=(reps + 1, n))
        phis /= np.linalg.norm(phis, axis=1, keepdims=True)  # keep updates stable
        learner = TrueOnlineTD(n, alpha=0.1, lam=0.9)
        transitions = [
            Transition(phis[i], 0.5, phis[i + 1], 0.99) for i in range(reps)
        ]
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for tr in transitions:
                learner.step(tr)
            best = min(best, (time.perf_counter() - t0) / reps)
        return best

    t100 = per_step_cost(100, 2000)
    t10k = per_step_cost(10_000, 200)
    assert t10k / t100 <= 300.0  # linear scaling would give 100


@given(st.integers(0, 2**32), st.floats(0.0, 1.0), st.floats(0.05, 0.9))
@settings(max_examples=40, deadline=None)
def test_traces_reset_at_episode_start(seed, lam, alpha):
    traj = synthetic_trajectory(SplitMix64(seed), n=3, steps=8, episodic=True)
    learner = TrueOnlineTD(3, alpha=alpha, lam=lam)
    for step in traj.steps:
        learner.step(step)
    learner.start_episode()
    assert not learner.e.any() and learner.v_old == 0.0


@settings(max_examples=30, deadline=None)
@given(
    variant=st.sampled_from(PREDICTION_VARIANTS),
    rows=st.integers(1, 5),
    n=st.integers(1, 12),
    steps=st.integers(1, 20),
    seed=st.integers(0, 2**32),
)
def test_rule_rows_step_like_scalar_learners(variant, rows, n, steps, seed):
    """Each row of a batched rule call is bit-identical to its own learner."""
    rng = SplitMix64(seed)
    alpha = np.array([[2.0 * rng.random()] for _ in range(rows)])
    lam = np.array([[rng.random()] for _ in range(rows)])
    learners = [make_prediction_learner(variant, n, alpha[i, 0], lam[i, 0]) for i in range(rows)]
    theta, e, v_old = np.zeros((rows, n)), np.zeros((rows, n)), np.zeros((rows, 1))
    for _ in range(steps):
        phi = np.array([[float(rng.below(2)) for _ in range(n)] for _ in range(rows + 1)])
        reward = np.array([[rng.normal()] for _ in range(rows)])
        v_old = PREDICTION_LEARNERS[variant].rule(
            theta, e, v_old, phi[:-1], reward, phi[1:], 0.9, alpha, lam
        )
        for i, learner in enumerate(learners):
            learner.step(Transition(phi[i], reward[i, 0], phi[i + 1], 0.9))
    assert np.array_equal(theta, [learner.theta for learner in learners], equal_nan=True)
    assert np.array_equal(e, [learner.e for learner in learners], equal_nan=True)
