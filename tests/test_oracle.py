from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdlab import (
    AccumulateTD,
    ConfigError,
    SplitMix64,
    Trajectory,
    Transition,
    TrueOnlineTD,
    TrueOnlineWatkinsQ,
    accumulating_trace_nonrecursive,
    build_representation,
    certify_equivalence,
    generate_mdp,
    generate_mrp,
    interim_lambda_return,
    n_step_return,
    offline_lambda_return,
    offline_lambda_return_algorithm,
    online_lambda_return_algorithm,
    prop2_condition_holds,
    run_control_episode,
    theorem1_ratio,
    watkins_interim_target,
)
from tdlab import oracle as oracle_module
from tdlab.core import action_values, stack_action_features
from tdlab.algos import replay_prediction
from tdlab.oracle import (
    constant_lookup,
    interim_lambda_returns_all,
    theorem1_delta_terms,
    watkins_forward_view,
)
from tests.conftest import (
    demo_06_watkins_run,
    make_mrp_trajectory,
    episodic_mdp,
    make_walk_episode,
    one_state_episode,
    synthetic_trajectory,
)


class TestNStepReturn:
    def test_one_step_definition(self):
        traj = synthetic_trajectory(SplitMix64(1), n=3, steps=10)
        theta = np.random.default_rng(0).normal(size=3)
        got = n_step_return(traj, 2, 1, constant_lookup(theta))
        want = traj.steps[2].reward + 0.9 * float(theta @ traj.steps[2].phi_next)
        assert got == pytest.approx(want, abs=1e-15)

    def test_terminal_truncation_drops_bootstrap(self):
        traj = one_state_episode(3)
        big = np.array([1e6])
        assert n_step_return(traj, 0, 3, constant_lookup(big)) == 1.0
        assert n_step_return(traj, 0, 10, constant_lookup(big)) == 1.0

    def test_three_step_manual_sum(self):
        traj = synthetic_trajectory(SplitMix64(2), n=3, steps=10, gamma=0.8)
        theta = np.random.default_rng(1).normal(size=3)
        s = traj.steps
        want = (
            s[1].reward
            + 0.8 * s[2].reward
            + 0.8**2 * s[3].reward
            + 0.8**3 * float(theta @ s[3].phi_next)
        )
        got = n_step_return(traj, 1, 3, constant_lookup(theta))
        assert got == pytest.approx(want, rel=1e-14)

    def test_horizon_beyond_data_fatal(self):
        traj = synthetic_trajectory(SplitMix64(3), n=2, steps=5)
        with pytest.raises(ConfigError):
            n_step_return(traj, 3, 5, constant_lookup(np.zeros(2)))


class TestInterimLambdaReturn:
    def test_h_equals_k_plus_one(self):
        traj = synthetic_trajectory(SplitMix64(4), n=3, steps=8)
        theta = np.random.default_rng(2).normal(size=3)
        got = interim_lambda_return(traj, 2, 3, 0.7, constant_lookup(theta))
        want = traj.steps[2].reward + 0.9 * float(theta @ traj.steps[2].phi_next)
        assert got == pytest.approx(want, abs=1e-15)

    def test_lambda_one_collapses_to_n_step(self):
        traj = synthetic_trajectory(SplitMix64(5), n=3, steps=9)
        theta = np.random.default_rng(3).normal(size=3)
        got = interim_lambda_return(traj, 1, 7, 1.0, constant_lookup(theta))
        want = n_step_return(traj, 1, 6, constant_lookup(theta))
        assert got == pytest.approx(want, rel=1e-13)

    @given(st.integers(0, 2**32), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_telescoping_recursion(self, seed, lam):
        """G^{lam|h+1} - G^{lam|h} = (lam*gamma)^{h-k} * delta'_h."""
        rng = SplitMix64(seed)
        traj = synthetic_trajectory(rng, n=3, steps=12, gamma=0.9)
        thetas = [np.array([rng.normal() for _ in range(3)]) for _ in range(13)]
        lookup = lambda j: thetas[j]
        k = 2
        for h in range(k + 1, 11):
            step_h = traj.steps[h]
            delta_mod = (
                step_h.reward
                + 0.9 * float(thetas[h] @ step_h.phi_next)
                - float(thetas[h - 1] @ step_h.phi)
            )
            lhs = interim_lambda_return(traj, k, h + 1, lam, lookup) - interim_lambda_return(
                traj, k, h, lam, lookup
            )
            assert lhs == pytest.approx((lam * 0.9) ** (h - k) * delta_mod, abs=1e-12)

    @given(st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_modified_td_error_relation(self, seed):
        """delta'_t - delta_t = theta_t.phi_t - theta_{t-1}.phi_t."""
        rng = SplitMix64(seed)
        traj = synthetic_trajectory(rng, n=3, steps=10, gamma=0.9)
        thetas = [np.array([rng.normal() for _ in range(3)]) for _ in range(11)]
        for t in range(1, 10):
            step = traj.steps[t]
            v_next = 0.9 * float(thetas[t] @ step.phi_next)
            delta = step.reward + v_next - float(thetas[t] @ step.phi)
            delta_mod = step.reward + v_next - float(thetas[t - 1] @ step.phi)
            gap = float((thetas[t] - thetas[t - 1]) @ step.phi)
            assert delta_mod - delta == pytest.approx(gap, abs=1e-12)

    @given(st.integers(0, 2**32), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_backward_sweep_matches_definition(self, seed, lam):
        rng = SplitMix64(seed)
        traj = synthetic_trajectory(rng, n=3, steps=10, gamma=0.85)
        thetas = [np.array([rng.normal() for _ in range(3)]) for _ in range(11)]
        lookup = lambda j: thetas[j]
        h = 9
        fast = interim_lambda_returns_all(traj, h, lam, lookup)
        for k in range(h):
            assert fast[k] == pytest.approx(
                interim_lambda_return(traj, k, h, lam, lookup), rel=1e-12, abs=1e-12
            )

    def test_invalid_horizon_fatal(self):
        traj = synthetic_trajectory(SplitMix64(6), n=2, steps=5)
        with pytest.raises(ConfigError):
            interim_lambda_return(traj, 3, 3, 0.5, constant_lookup(np.zeros(2)))


class TestOfflineLambdaReturn:
    def test_lambda_zero_is_one_step(self):
        traj = one_state_episode(4)
        theta = np.array([0.25])
        got = offline_lambda_return(traj, 0, 0.0, constant_lookup(theta))
        assert got == pytest.approx(0.0 + 1.0 * 0.25, abs=1e-15)

    def test_lambda_one_is_monte_carlo(self):
        traj = one_state_episode(5)
        got = offline_lambda_return(traj, 0, 1.0, constant_lookup(np.array([123.0])))
        assert got == 1.0  # no bootstrapping at lambda=1

    def test_incomplete_episode_fatal(self):
        traj = synthetic_trajectory(SplitMix64(7), n=2, steps=5)
        with pytest.raises(ConfigError):
            offline_lambda_return(traj, 0, 0.5, constant_lookup(np.zeros(2)))

    def test_equals_interim_at_full_horizon(self):
        traj = synthetic_trajectory(SplitMix64(8), n=3, steps=7, episodic=True)
        theta = np.random.default_rng(5).normal(size=3)
        for t in range(4):
            a = offline_lambda_return(traj, t, 0.6, constant_lookup(theta))
            b = interim_lambda_return(traj, t, len(traj), 0.6, constant_lookup(theta))
            assert a == b


class TestOnlineLambdaReturnAlgorithm:
    def test_first_step_single_update(self):
        traj = synthetic_trajectory(SplitMix64(9), n=3, steps=6)
        theta0 = np.zeros(3)
        run = online_lambda_return_algorithm(traj, 0.5, 0.8, theta0)
        g0 = interim_lambda_return(traj, 0, 1, 0.8, constant_lookup(theta0))
        phi0 = traj.steps[0].phi
        want = theta0 + 0.5 * (g0 - 0.0) * phi0
        assert np.abs(run[1] - want).max() <= 1e-14

    def test_one_state_closed_form(self):
        for T, alpha in [(3, 0.5), (6, 0.2), (1, 1.0)]:
            run = online_lambda_return_algorithm(one_state_episode(T), alpha, 1.0, np.zeros(1))
            assert run[-1][0] == pytest.approx(
                1 - (1 - alpha) ** T, abs=1e-13
            )

    def test_matches_true_online_everywhere(self, walk_episode):
        traj, n = walk_episode
        for alpha, lam in [(0.2, 1.0), (0.9, 0.5), (1.5, 0.95)]:
            run = online_lambda_return_algorithm(traj, alpha, lam, np.zeros(n))
            learner = TrueOnlineTD(n, alpha=alpha, lam=lam)
            for j, step in enumerate(traj.steps):
                learner.step(step)
                denom = 1.0 + np.abs(run[j + 1]).max()
                assert np.abs(learner.theta - run[j + 1]).max() / denom <= 1e-8


class TestOfflineLambdaReturnAlgorithm:
    def test_requires_complete_episode(self):
        traj = synthetic_trajectory(SplitMix64(11), n=2, steps=5)
        with pytest.raises(ConfigError):
            offline_lambda_return_algorithm(traj, 0.1, 0.5, np.zeros(2))

    def test_lambda_one_equals_online_final(self):
        traj = synthetic_trajectory(SplitMix64(12), n=3, steps=8, episodic=True)
        theta0 = np.random.default_rng(7).normal(size=3)
        off = offline_lambda_return_algorithm(traj, 0.4, 1.0, theta0)
        on = online_lambda_return_algorithm(traj, 0.4, 1.0, theta0)[-1]
        assert np.abs(off - on).max() <= 1e-12

    def test_supervised_regression_toward_returns(self):
        traj = one_state_episode(4)
        theta = offline_lambda_return_algorithm(traj, 0.25, 1.0, np.zeros(1))
        # four sequential nudges toward the Monte Carlo return of 1
        assert theta[0] == pytest.approx(1 - 0.75**4, abs=1e-15)


class TestWatkins:
    def _control_traj(self, epsilon, seed=13, steps=80):
        mdp = generate_mdp(6, 3, 0.1, 0.9, num_actions=3, seed=seed)
        rep = build_representation("tabular", generate_mrp(6, 3, 0.1, 0.9, seed=1), seed=0)
        learner = TrueOnlineWatkinsQ(rep.n * 3, alpha=0.4, lam=0.8)
        traj = run_control_episode(
            learner, mdp, rep, SplitMix64(seed), epsilon=epsilon, max_steps=steps
        )
        return traj, rep.n * 3

    def test_all_greedy_matches_interim_with_max_bootstrap(self):
        traj, n = self._control_traj(epsilon=0.0)
        assert all(traj.greedy)
        theta = np.random.default_rng(5).normal(size=n)
        lookup = constant_lookup(theta)
        lam, t, h = 0.8, 3, 10
        # definitional mixture with max-bootstrapped n-step returns; tau is
        # infinite on an all-greedy trajectory so z = h
        def g_tilde(num):
            total, disc = 0.0, 1.0
            for m in range(num):
                step = traj.steps[t + m]
                total += disc * step.reward
                disc *= step.gamma
            boot = (theta.reshape(3, -1) @ traj.steps[t + num - 1].phi_next).max()
            return total + disc * boot

        want = sum((1 - lam) * lam ** (num - 1) * g_tilde(num) for num in range(1, h - t))
        want += lam ** (h - t - 1) * g_tilde(h - t)
        got = watkins_interim_target(traj, t, h, lam, lookup)
        assert got == pytest.approx(want, rel=1e-13)

    def test_tau_next_step_gives_one_step_target(self):
        traj, n = self._control_traj(epsilon=0.5, seed=21)
        greedy = traj.greedy
        t = next(j for j in range(len(traj) - 1) if not greedy[j + 1])
        theta = np.random.default_rng(3).normal(size=n)
        u = watkins_interim_target(traj, t, len(traj), 0.8, constant_lookup(theta))
        step = traj.steps[t]
        q = (theta.reshape(3, -1) @ step.phi_next).max()
        assert u == pytest.approx(step.reward + step.gamma * q, rel=1e-13)

    def test_replay_matches_forward_view(self):
        for eps, seed in [(0.3, 31), (0.15, 32), (0.6, 33)]:
            traj, n = self._control_traj(epsilon=eps, seed=seed)
            a = replay_prediction(TrueOnlineWatkinsQ(n, alpha=0.4, lam=0.8), traj.stepped)
            b = watkins_forward_view(traj, 0.4, 0.8, np.zeros(n))
            denom = 1.0 + np.abs(b).max(axis=1)
            assert (np.abs(a - b).max(axis=1) / denom).max() <= 1e-8

    def test_bootstraps_on_phi_next(self):
        # step 0 bootstraps on phi_next = a, the copy its learner reads; step
        # 1's phi is b, which would bootstrap on max(2, 5) instead of max(1, 3)
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        traj = Trajectory(
            steps=[Transition(a, 1.0, a, 0.9), Transition(b, 0.0, np.zeros(2), 0.9, terminal=True)],
            actions=[0, 0], greedy=[True, True], num_actions=2,
        )
        theta = np.array([1.0, 2.0, 3.0, 5.0])  # action 0's block, then action 1's
        target = 1.0 + 0.9 * 3.0
        assert watkins_interim_target(traj, 0, 1, 0.8, constant_lookup(theta)) == target
        history = watkins_forward_view(traj, 0.5, 0.8, theta)
        np.testing.assert_array_equal(history[1], [1.0 + 0.5 * (target - 1.0), 2.0, 3.0, 5.0])

    def test_missing_annotations_fatal(self):
        traj = synthetic_trajectory(SplitMix64(14), n=2, steps=5)
        with pytest.raises(ConfigError):
            watkins_interim_target(traj, 0, 3, 0.5, constant_lookup(np.zeros(2)))


def bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def watkins_recursion_targets(traj, h, lam, theta_lookup):
    """Every Watkins target U_k^h, k < h, by the backward recursion from
    scratch: U_k = R_{k+1} + gamma_k * ((1 - lam) * V_k + lam * U_{k+1}) with
    V_k = max_a theta_k . psi(S_{k+1}, a) (0 after a terminal step), and
    U_k = R_{k+1} + gamma_k * V_k at the horizon and before a non-greedy action."""
    us = [0.0] * h
    for k in range(h - 1, -1, -1):
        step = traj.steps[k]
        q = action_values(theta_lookup(k), step.phi_next, traj.num_actions)
        v = 0.0 if step.terminal else float(np.max(q))
        if k == h - 1 or not traj.greedy[k + 1]:
            us[k] = step.reward + step.gamma * v
        else:
            us[k] = step.reward + step.gamma * ((1.0 - lam) * v + lam * us[k + 1])
    return np.array(us)


def watkins_per_horizon_loop(traj, alpha, lam, theta_init):
    """The Watkins forward view with every horizon's targets evaluated
    afresh by watkins_recursion_targets and replayed from theta_init over
    the behavior pairs, O(T^2) targets. Returns the weight history and each horizon's targets
    (entry t-1 for horizon t)."""
    T = len(traj)
    history = np.empty((T + 1, theta_init.shape[0]))
    history[0] = theta_init
    psis = [
        stack_action_features(s.phi, a, traj.num_actions) for s, a in zip(traj.steps, traj.actions)
    ]
    targets = []
    for t in range(1, T + 1):
        targets.append(watkins_recursion_targets(traj, t, lam, lambda j: history[j]))
        history[t] = replay_from_init(history[0], alpha, targets[-1], psis)
    return history, targets


def lambda_return_per_horizon_loop(traj, alpha, lam, theta_init):
    """The online lambda-return algorithm replayed from interim_lambda_returns_all.
    Returns the weight history and each horizon's targets."""
    T = len(traj)
    history = np.empty((T + 1, theta_init.shape[0]))
    history[0] = theta_init
    targets = []
    for t in range(1, T + 1):
        targets.append(interim_lambda_returns_all(traj, t, lam, lambda j: history[j]))
        history[t] = replay_from_init(history[0], alpha, targets[-1], [s.phi for s in traj.steps])
    return history, targets


def replay_from_init(theta_init, alpha, targets, features):
    """theta_init after one update per target, in order."""
    theta = theta_init.copy()
    for u, x in zip(targets, features):
        theta += alpha * (u - float(theta @ x)) * x
    return theta


unit_or_ends = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestIncrementalOracles:
    """The horizon-incremental replays against their per-horizon definitions, bit for bit."""

    @given(
        st.integers(0, 2**32),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
        unit_or_ends,
        st.floats(0.01, 2.0),
        st.sampled_from(["tabular", "random-normalized"]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_watkins_forward_view_is_the_per_horizon_loop(
        self, seed, epsilon, lam, alpha, kind, episodic
    ):
        rng = SplitMix64(seed)
        if episodic:
            mdp, cap = episodic_mdp(rng.next_u64()), None
        else:
            mdp, cap = generate_mdp(6, 3, 0.1, 0.9, num_actions=3, seed=rng.next_u64()), 40
        rep = build_representation(kind, mdp.chains[0], seed=rng.next_u64())
        learner = TrueOnlineWatkinsQ(rep.n * 3, alpha=alpha, lam=lam)
        traj = run_control_episode(learner, mdp, rep, rng.split(), epsilon=epsilon, max_steps=cap)
        assert traj.episodic == episodic
        if epsilon == 0.0:
            assert all(traj.greedy)  # tau is infinite for every origin
        theta_init = np.array([rng.normal() for _ in range(rep.n * 3)])
        want, targets = watkins_per_horizon_loop(traj, alpha, lam, theta_init)
        got, starts = replay_starts(watkins_forward_view, traj, alpha, lam, theta_init)
        assert bits_equal(got, want)
        assert starts == first_changed_targets(targets)  # a cut ends the scan

    @given(
        st.integers(0, 2**16),
        unit_or_ends,
        st.floats(0.01, 2.0),
        st.sampled_from(["tabular", "random-normalized", "random-walk"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_online_lambda_return_is_the_per_horizon_loop(self, seed, lam, alpha, source):
        if source == "random-walk":
            traj, n = make_walk_episode(seed)  # ends at the terminal state
        else:
            traj, n = make_mrp_trajectory(steps=40, seed=seed, kind=source)  # capped
        theta_init = np.random.default_rng(seed).normal(size=n)
        run = online_lambda_return_algorithm(traj, alpha, lam, theta_init)
        want, _ = lambda_return_per_horizon_loop(traj, alpha, lam, theta_init)
        assert bits_equal(run, want)


def first_changed_targets(targets):
    """For each horizon, the index of its first target whose bits differ
    from the previous horizon's, or that is a NaN (0 at the first horizon)."""
    starts = [0]
    for old, new in zip(targets, targets[1:]):
        kept = (old.view(np.uint64) == new[:-1].view(np.uint64)) & ~np.isnan(old)
        starts.append(int(np.argmin(np.append(kept, False))))
    return starts


def replay_starts(oracle, *args):
    """The oracle's weight history and the iterate each of its horizons resumed at."""
    starts = []
    replay = oracle_module._replay

    def spy(rows, alpha, targets, features, start):
        starts.append(start)
        replay(rows, alpha, targets, features, start)

    with mock.patch.object(oracle_module, "_replay", spy):
        return oracle(*args), starts


def zero_stretch_trajectory(rng, k, steps, stretch=25):
    """One-hot continuing chain whose rewards are exactly zero in every other
    stretch of `stretch` steps, the first included, and normal elsewhere."""
    phis = np.eye(k)
    state = rng.next_u64() % k
    out = []
    for t in range(steps):
        nxt = rng.next_u64() % k
        reward = 0.0 if (t // stretch) % 2 == 0 else rng.normal()
        out.append(Transition(phis[state], reward, phis[nxt], 0.9))
        state = nxt
    return Trajectory(steps=out)


LAMBDAS_THAT_SETTLE = st.one_of(st.just(0.0), st.floats(0.0, 0.6))


class TestResumingOracles:
    """Each horizon resumes at its first changed target. On long chains
    with lambda <= 0.6, a horizon's leading targets keep their bits, so the
    resume skips work; every example checks that it does, from the
    reference's own targets, and that the oracle resumed exactly there."""

    @given(
        st.integers(0, 2**16),
        LAMBDAS_THAT_SETTLE,
        st.floats(0.01, 2.0),
        st.integers(150, 200),
        st.sampled_from(["tabular", "random-normalized"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_online_lambda_return_resumes_on_long_chains(self, seed, lam, alpha, steps, kind):
        traj, n = make_mrp_trajectory(steps=steps, seed=seed, kind=kind)
        theta_init = np.random.default_rng(seed).normal(size=n)
        want, targets = lambda_return_per_horizon_loop(traj, alpha, lam, theta_init)
        assert max(first_changed_targets(targets)) > 0
        got, starts = replay_starts(online_lambda_return_algorithm, traj, alpha, lam, theta_init)
        assert bits_equal(got, want)
        assert starts == first_changed_targets(targets)

    @given(st.integers(0, 2**32), LAMBDAS_THAT_SETTLE, st.floats(0.01, 2.0))
    @settings(max_examples=10, deadline=None)
    def test_online_lambda_return_resumes_over_zero_rewards(self, seed, lam, alpha):
        traj = zero_stretch_trajectory(SplitMix64(seed), k=5, steps=150)
        theta_init = np.zeros(5)
        want, targets = lambda_return_per_horizon_loop(traj, alpha, lam, theta_init)
        starts = first_changed_targets(targets)
        assert any(s > 0 and targets[t][0] == 0.0 for t, s in enumerate(starts))
        got, got_starts = replay_starts(
            online_lambda_return_algorithm, traj, alpha, lam, theta_init
        )
        assert bits_equal(got, want)
        assert got_starts == starts

    def test_a_target_that_changes_only_its_sign_of_zero_is_replayed(self):
        # theta_0 = -0.0 and a zero reward discounted by gamma = 0: target 0 is
        # +0.0 at horizon 1 and -0.0 once target 1 (-1) mixes in; the update
        # with -0.0 keeps theta's zeros negative, the one with +0.0 does not
        e = np.eye(3)
        traj = Trajectory(steps=[
            Transition(e[0], -0.0, e[1], 0.0),
            Transition(e[1], -1.0, e[2], 0.9),
            Transition(e[2], 0.5, e[0], 0.9),
        ])
        theta_init = np.full(3, -0.0)
        want, targets = lambda_return_per_horizon_loop(traj, 0.5, 0.5, theta_init)
        assert targets[0][0] == targets[1][0] and not bits_equal(targets[0][:1], targets[1][:1])
        assert bits_equal(online_lambda_return_algorithm(traj, 0.5, 0.5, theta_init), want)

    @given(
        st.integers(0, 2**32),
        LAMBDAS_THAT_SETTLE,
        st.floats(0.01, 2.0),
        st.sampled_from(["tabular", "random-normalized"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_watkins_forward_view_resumes_on_long_greedy_episodes(self, seed, lam, alpha, kind):
        rng = SplitMix64(seed)
        mdp = generate_mdp(6, 3, 0.1, 0.9, num_actions=3, seed=rng.next_u64())
        rep = build_representation(kind, mdp.chains[0], seed=rng.next_u64())
        learner = TrueOnlineWatkinsQ(rep.n * 3, alpha=alpha, lam=lam)
        traj = run_control_episode(learner, mdp, rep, rng.split(), epsilon=0.0, max_steps=120)
        assert all(traj.greedy)  # tau is infinite for every origin
        theta_init = np.array([rng.normal() for _ in range(rep.n * 3)])
        want, targets = watkins_per_horizon_loop(traj, alpha, lam, theta_init)
        assert max(first_changed_targets(targets)) > 0
        got, starts = replay_starts(watkins_forward_view, traj, alpha, lam, theta_init)
        assert bits_equal(got, want)
        assert starts == first_changed_targets(targets)


def recorded_targets(oracle, *args):
    """The oracle's weight history and each horizon's targets as `_retarget` left them."""
    horizons = []
    retarget = oracle_module._retarget

    def spy(targets, *rest):
        start = retarget(targets, *rest)
        horizons.append(np.array(targets))
        return start

    with mock.patch.object(oracle_module, "_retarget", spy):
        return oracle(*args), horizons


class TestWatkinsRecursion:
    """The Watkins replay's targets are the lambda-return recursion with
    max bootstraps, cut after every non-greedy action."""

    @given(
        st.integers(0, 2**32),
        st.sampled_from([0.0, 0.3, 1.0]),
        unit_or_ends,
        st.floats(0.01, 1.0),
        st.sampled_from(["tabular", "binary", "random-normalized"]),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_recursion_targets_match_definition(self, seed, epsilon, lam, alpha, kind, episodic):
        rng = SplitMix64(seed)
        if episodic:
            mdp, cap = episodic_mdp(rng.next_u64()), None
        else:
            mdp, cap = generate_mdp(6, 3, 0.1, 0.9, num_actions=3, seed=rng.next_u64()), 40
        rep = build_representation(kind, mdp.chains[0], seed=rng.next_u64())
        learner = TrueOnlineWatkinsQ(rep.n * 3, alpha=alpha, lam=lam)
        traj = run_control_episode(learner, mdp, rep, rng.split(), epsilon=epsilon, max_steps=cap)
        theta_init = np.array([rng.normal() for _ in range(rep.n * 3)])
        history, horizons = recorded_targets(watkins_forward_view, traj, alpha, lam, theta_init)
        assert len(horizons) == len(traj)
        for h, targets in enumerate(horizons, start=1):
            for k in range(h):
                want = watkins_interim_target(traj, k, h, lam, lambda j: history[j])
                assert targets[k] == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("ignore_cuts", [False, True])
    def test_watkins_pair_catches_a_recursion_that_ignores_cuts(self, monkeypatch, ignore_cuts):
        traj, n = demo_06_watkins_run()
        assert not all(traj.greedy)
        if ignore_cuts:
            retarget = oracle_module._retarget
            monkeypatch.setattr(
                oracle_module, "_retarget",
                lambda targets, rewards, gammas, decays, v_next: retarget(
                    targets, rewards, gammas, [0.9] * len(decays), v_next
                ),
            )
        report = certify_equivalence(traj, 0.4, 0.9, np.zeros(n), "watkins-vs-truncated-oracle")
        assert report.passed != ignore_cuts, report

    def test_a_cut_target_stays_finite_when_the_next_target_overflows(self):
        # A_1 = 0 is not greedy (theta_0 prefers action 1), so U_0 is cut to
        # R_1 + gamma * 1e308; U_1 = 1e308 + 0.9 * 1e308 overflows at horizon 2,
        # and reading it as 0 * inf would make U_0 a NaN
        phi = np.ones(1)
        traj = Trajectory(
            steps=[Transition(phi, 1.0, phi, 0.9), Transition(phi, 1e308, phi, 0.9)],
            actions=[0, 0], greedy=[True, False], num_actions=2,
        )
        with np.errstate(over="ignore", invalid="ignore"):  # the replay of U_1 overflows
            _, horizons = recorded_targets(
                watkins_forward_view, traj, 0.5, 0.9, np.array([0.0, 1e308])
            )
        assert horizons[1][1] == np.inf
        assert horizons[0][0] == horizons[1][0] == 1.0 + 0.9 * 1e308


class TestNonRecursiveTrace:
    @given(st.integers(0, 2**32), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_equals_recursive_accumulating_trace(self, seed, lam):
        traj = synthetic_trajectory(SplitMix64(seed), n=4, steps=12, gamma=0.9)
        learner = AccumulateTD(4, alpha=0.0, lam=lam)
        for t, step in enumerate(traj.steps, start=1):
            learner.step(step)
            closed = accumulating_trace_nonrecursive(traj, t, lam)
            assert np.abs(learner.e - closed).max() <= 1e-12 * max(1.0, np.abs(closed).max())

    def test_t_one_is_phi0(self):
        traj = synthetic_trajectory(SplitMix64(15), n=3, steps=5)
        assert np.array_equal(accumulating_trace_nonrecursive(traj, 1, 0.7), traj.steps[0].phi)

    def test_lambda_zero_is_latest_phi(self):
        traj = synthetic_trajectory(SplitMix64(16), n=3, steps=5)
        got = accumulating_trace_nonrecursive(traj, 4, 0.0)
        assert np.array_equal(got, traj.steps[3].phi)


class TestProp2Condition:
    def test_disjoint_one_hot_chain_holds(self):
        eye = np.eye(5)
        steps = [
            Transition(eye[s], 0.1, np.zeros(5) if s == 4 else eye[s + 1], 1.0, terminal=s == 4)
            for s in range(5)
        ]
        assert prop2_condition_holds(Trajectory(steps=steps))

    def test_always_active_feature_fails(self):
        phi = np.ones(1)
        steps = [Transition(phi, 1.0, phi, 1.0), Transition(phi, 1.0, np.zeros(1), 1.0, terminal=True)]
        assert not prop2_condition_holds(Trajectory(steps=steps))

    def test_revisit_fails(self):
        eye = np.eye(3)
        steps = [
            Transition(eye[0], 0.0, eye[1], 1.0),
            Transition(eye[1], 0.0, eye[0], 1.0),
            Transition(eye[0], 0.0, np.zeros(3), 1.0, terminal=True),
        ]
        assert not prop2_condition_holds(Trajectory(steps=steps))

    def test_sparse_disjoint_activations_hold(self):
        rng = np.random.default_rng(8)
        n, T = 24, 8
        perm = rng.permutation(n)
        steps = []
        for t in range(T):
            phi = np.zeros(n)
            phi[perm[3 * t : 3 * t + 3]] = rng.normal(size=3)
            nxt = np.zeros(n)
            if t + 1 < T:
                nxt[perm[3 * (t + 1) : 3 * (t + 1) + 3]] = 1.0
            steps.append(Transition(phi, 0.0, nxt, 0.9, terminal=t + 1 == T))
        assert prop2_condition_holds(Trajectory(steps=steps))


class TestTheoremOne:
    def test_lambda_zero_ratio_is_zero(self, walk_episode):
        traj, n = walk_episode
        assert theorem1_ratio(traj, 0.05, 0.0, np.zeros(n)) == 0.0

    def test_ratios_decrease_with_alpha(self, walk_episode):
        traj, n = walk_episode
        ratios = [theorem1_ratio(traj, a, 0.9, np.zeros(n)) for a in (1e-1, 1e-2, 1e-3)]
        assert ratios[0] > ratios[1] > ratios[2] > 0.0

    def test_ratio_scales_linearly_in_alpha(self, walk_episode):
        traj, n = walk_episode
        r2 = theorem1_ratio(traj, 1e-2, 0.9, np.zeros(n))
        r3 = theorem1_ratio(traj, 1e-3, 0.9, np.zeros(n))
        r4 = theorem1_ratio(traj, 1e-4, 0.9, np.zeros(n))
        assert 0.03 <= r3 / r2 <= 0.3
        assert 0.03 <= r4 / r3 <= 0.3

    def test_delta_terms_match_definitional_interim(self, walk_episode):
        traj, n = walk_episode
        theta0 = np.full(n, 0.3)
        deltas = theorem1_delta_terms(traj, 0.9, theta0)
        T = len(traj)
        for i in (0, T // 2, T - 1):
            g_bar = interim_lambda_return(traj, i, T, 0.9, constant_lookup(theta0))
            phi = traj.steps[i].phi
            want = (g_bar - float(theta0 @ phi)) * phi
            assert np.abs(deltas[i] - want).max() <= 1e-12

    def test_degenerate_inputs_raise(self):
        phi = np.ones(1)
        # zero rewards and zero weights: every update direction is zero
        steps = [Transition(phi, 0.0, phi, 1.0), Transition(phi, 0.0, np.zeros(1), 1.0, terminal=True)]
        with pytest.raises(ConfigError):
            theorem1_ratio(Trajectory(steps=steps), 0.1, 0.9, np.zeros(1))
