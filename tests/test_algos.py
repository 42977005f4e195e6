import time

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
from tdlab.algos import PREDICTION_RULES, PREDICTION_VARIANTS, make_prediction_learner
from tests.conftest import make_mrp_trajectory, synthetic_trajectory


def one_state_episode(T):
    phi, zero = np.array([1.0]), np.array([0.0])
    steps = [Transition(phi, 0.0, phi, 1.0) for _ in range(T - 1)]
    steps.append(Transition(phi, 1.0, zero, 1.0, terminal=True))
    return Trajectory(steps=steps)


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
                run_episode(repl, mrp, rep, SplitMix64(rng.next_u64()))
            rng = SplitMix64(1)
            for _ in range(40):
                run_episode(td0, mrp, rep, SplitMix64(rng.next_u64()))
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
        lambda: make_prediction_learner("true-online-alpha-t", 2, alpha, 0.5),
    ):
        with pytest.raises(ConfigError, match="alpha"):
            build()
    TrueOnlineTD(2, alpha=0.0, lam=0.5)  # zero-step recorders stay valid


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
        learner = TabularTrueOnlineTD(3, alpha=0.2, lam=0.9)
        learner.e[1] = 2.0
        learner.step(1, 0.0, 2, 0.9)
        # (1-alpha)*e + 1 applied on the visit, then the gamma*lambda decay
        assert learner.e[1] == pytest.approx(2.6 * 0.9 * 0.9, abs=1e-15)

    def test_alpha_one_is_replacing(self):
        learner = TabularTrueOnlineTD(3, alpha=1.0, lam=0.5)
        learner.e[0] = 7.0
        learner.step(0, 1.0, 1, 1.0)
        assert learner.e[0] == pytest.approx(0.5, abs=1e-15)  # set to 1, then decayed

    def test_matches_general_true_online_on_walk(self):
        mrp, rep = canonical_task("random-walk-10")
        alpha, lam = 0.3, 0.9
        general = TrueOnlineTD(rep.n, alpha=alpha, lam=lam)
        tab = TabularTrueOnlineTD(rep.n, alpha=alpha, lam=lam)
        rng_a, rng_b = SplitMix64(42), SplitMix64(42)
        for _ in range(10):
            run_episode(general, mrp, rep, rng_a)
            run_episode(tab, mrp, rep, rng_b)
            assert np.abs(general.theta - tab.theta).max() <= 1e-12


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
        psi = np.zeros(learner.n)
        psi[0] = 1.0
        learner.step(Transition(psi, 1.0, psi, 0.9), greedy=False)
        assert not learner.e.any()

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
        # trace-free one-step oracle honoring the carried pair: after the
        # update the carried pair becomes (S', A*), ties toward the behavior
        # action, exactly as the incremental learner's feature carry does
        mdp, rep = self._setting(6)
        alpha = 0.3
        learner = TrueOnlineWatkinsQ(rep.n * 3, alpha=alpha, lam=0.0)
        traj = run_control_episode(learner, mdp, rep, SplitMix64(31), epsilon=0.3, max_steps=50)
        n = rep.n
        q = np.zeros(learner.n)
        psi_index = lambda s, a: a * n + s  # tabular features
        pair = psi_index(int(np.argmax(traj.steps[0].phi)), traj.actions[0])
        for j, step in enumerate(traj.steps):
            s2 = int(np.argmax(step.phi_next))
            behavior = traj.actions[j + 1] if j + 1 < len(traj) else traj.final_action
            values = [q[psi_index(s2, b)] for b in range(3)]
            a_star = behavior if values[behavior] == max(values) else int(np.argmax(values))
            q[pair] += alpha * (step.reward + step.gamma * values[a_star] - q[pair])
            pair = psi_index(s2, a_star)
        assert np.abs(learner.theta - q).max() <= 1e-12


class TestRunEpisode:
    def test_one_state_episode_structure(self):
        mrp, rep = canonical_task("one-state")
        traj = run_episode(TrueOnlineTD(1, 0.1, 0.9), mrp, rep, SplitMix64(2))
        assert traj.episodic
        assert all(s.reward in (0.0, 1.0) for s in traj.steps)
        assert traj.steps[-1].reward == 1.0

    def test_continuing_cap_is_exact(self):
        mrp = generate_mrp(10, 3, 0.1, 0.99, seed=2)
        rep = build_representation("tabular", mrp, seed=0)
        traj = run_episode(TrueOnlineTD(rep.n, 0.1, 0.9), mrp, rep, SplitMix64(2), max_steps=100)
        assert len(traj) == 100 and not traj.episodic

    def test_replay_determinism(self):
        mrp = generate_mrp(10, 3, 0.1, 0.99, seed=2)
        rep = build_representation("binary", mrp, seed=0)
        t1 = run_episode(TrueOnlineTD(rep.n, 0.1, 0.9), mrp, rep, SplitMix64(9), max_steps=50)
        t2 = run_episode(TrueOnlineTD(rep.n, 0.1, 0.9), mrp, rep, SplitMix64(9), max_steps=50)
        assert all(
            np.array_equal(a.phi, b.phi) and a.reward == b.reward
            for a, b in zip(t1.steps, t2.steps)
        )

    def test_cap_exceeded_on_episodic_is_diagnostic(self):
        mrp, rep = canonical_task("random-walk-10")
        with pytest.raises(RuntimeError, match="cap"):
            run_episode(TrueOnlineTD(rep.n, 0.1, 0.9), mrp, rep, SplitMix64(1), max_steps=2)

    def test_continuing_requires_cap(self):
        mrp = generate_mrp(5, 2, 0.0, 0.9, seed=0)
        rep = build_representation("tabular", mrp, seed=0)
        with pytest.raises(ConfigError):
            run_episode(TrueOnlineTD(rep.n, 0.1, 0.9), mrp, rep, SplitMix64(1))


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


def test_every_prediction_variant_has_its_rule():
    assert tuple(PREDICTION_RULES) == PREDICTION_VARIANTS


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
        v_old = PREDICTION_RULES[variant](
            theta, e, v_old, phi[:-1], reward, phi[1:], 0.9, alpha, lam
        )
        for i, learner in enumerate(learners):
            learner.step(Transition(phi[i], reward[i, 0], phi[i + 1], 0.9))
    assert np.array_equal(theta, [learner.theta for learner in learners], equal_nan=True)
    assert np.array_equal(e, [learner.e for learner in learners], equal_nan=True)
