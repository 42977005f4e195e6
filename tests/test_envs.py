import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdlab import (
    ConfigError,
    SplitMix64,
    TileCoderConfig,
    build_representation,
    canonical_task,
    generate_mdp,
    generate_mrp,
    sample_step,
    stationary_distribution,
    tile_code,
    true_values,
)
from tdlab.envs import (
    Mdp,
    Mrp,
    binary_feature_length,
    mrp_from_dict,
    mrp_to_dict,
    sample_steps,
    simulate_chains,
)
from tdlab.rng import SplitMix64Rows


def test_generate_mrp_structure():
    mrp = generate_mrp(10, 3, 0.1, 0.99, seed=4)
    nonzeros = (mrp.P > 0).sum(axis=1)
    assert np.all(nonzeros == 3)
    assert np.all(np.abs(mrp.P.sum(axis=1) - 1.0) <= 1e-12)
    assert mrp.continuing


@given(st.integers(1, 12), st.integers(0, 2**48))
@settings(max_examples=60, deadline=None)
def test_generate_mrp_branching_property(k, seed):
    b = 1 + seed % k
    mrp = generate_mrp(k, b, 0.0, 0.9, seed=seed)
    assert np.all((mrp.P > 0).sum(axis=1) == b)
    assert np.all(np.abs(mrp.P.sum(axis=1) - 1.0) <= 1e-12)


def test_generate_mrp_single_state():
    mrp = generate_mrp(1, 1, 0.0, 0.9, seed=0)
    assert mrp.P.tolist() == [[1.0]]


def test_generate_mrp_deterministic():
    a = generate_mrp(10, 3, 0.1, 0.99, seed=123)
    b = generate_mrp(10, 3, 0.1, 0.99, seed=123)
    assert np.array_equal(a.P, b.P) and np.array_equal(a.r_mean, b.r_mean)


def test_generate_mrp_validates_branching():
    with pytest.raises(ConfigError):
        generate_mrp(10, 11, 0.1, 0.99, seed=0)


def test_generate_mdp_rows():
    mdp = generate_mdp(6, 2, 0.1, 0.9, num_actions=3, seed=5)
    assert mdp.num_actions == 3
    for chain in mdp.chains:
        assert chain.P.shape == (6, 6)
        assert np.all(np.abs(chain.P.sum(axis=1) - 1.0) <= 1e-12)
    nxt, reward = sample_step(mdp.chains[1], 0, SplitMix64(1))
    assert 0 <= nxt < 6 and np.isfinite(reward)


@given(st.integers(1, 9), st.integers(0, 2**48))
@settings(max_examples=30, deadline=None)
def test_generate_mrp_is_the_one_action_mdp(k, seed):
    b = 1 + seed % k
    mrp = generate_mrp(k, b, 0.2, 0.9, seed=seed)
    chain = generate_mdp(k, b, 0.2, 0.9, num_actions=3, seed=seed).chains[0]
    assert np.array_equal(mrp.P, chain.P) and np.array_equal(mrp.r_mean, chain.r_mean)


@pytest.mark.parametrize("sigma, gamma, match", [
    (-1.0, 0.9, "sigma"), (float("nan"), 0.9, "sigma"), (0.1, 1.5, "gamma"), (0.1, -0.1, "gamma"),
    (float("inf"), 0.9, "sigma must be finite and >= 0"),
])
def test_generate_mdp_validates_sigma_and_gamma(sigma, gamma, match):
    with pytest.raises(ConfigError, match=match):
        generate_mdp(4, 2, sigma, gamma, num_actions=2, seed=0)


def test_mdp_chains_must_agree():
    a = generate_mrp(4, 2, 0.1, 0.9, seed=1)
    with pytest.raises(ConfigError, match="at least one action"):
        Mdp(())
    with pytest.raises(ConfigError, match="action 1"):
        Mdp((a, generate_mrp(5, 2, 0.1, 0.9, seed=2)))
    with pytest.raises(ConfigError, match="action 1"):
        Mdp((a, generate_mrp(4, 2, 0.1, 0.8, seed=2)))
    episodic = Mrp(k=4, P=a.P, r_mean=a.r_mean, sigma=0.1, gamma=0.9,
                   terminal_states=frozenset({3}))
    with pytest.raises(ConfigError, match="action 2"):
        Mdp((a, a, episodic))
    assert Mdp((a, generate_mrp(4, 3, 0.5, 0.9, seed=3))).num_actions == 2


def test_random_walk_task():
    mrp, rep = canonical_task("random-walk-10")
    for s in range(1, 10):
        assert mrp.P[s, s - 1] == 0.7
    assert mrp.P[0, 10] == 0.7  # leftmost exits to the terminal state
    assert mrp.P[9, 9] == 0.3  # rightmost self-loops on its right move
    assert mrp.gamma == 1.0 and mrp.initial == 9
    assert rep.kind == "tabular" and rep.n == 10
    assert not rep.phi(10).any()


def test_two_state_task_values():
    mrp, rep = canonical_task("two-state")
    v = true_values(mrp)
    assert v[0] == pytest.approx(2.0, abs=1e-12)
    assert v[1] == pytest.approx(0.0, abs=1e-12)
    assert rep.table[:2].tolist() == [[1.0], [1.0]]


def test_one_state_task_returns_one():
    mrp, rep = canonical_task("one-state")
    rng = SplitMix64(3)
    for _ in range(20):
        state, total = 0, 0.0
        while state not in mrp.terminal_states:
            state, r = sample_step(mrp, state, rng)
            total += r
        assert total == 1.0
    assert rep.n == 1 and rep.phi(0)[0] == 1.0


def test_unknown_task_fatal():
    with pytest.raises(ConfigError):
        canonical_task("three-state")


def test_sample_step_sigma_zero_exact():
    mrp = generate_mrp(8, 3, 0.0, 0.9, seed=9)
    rng = SplitMix64(1)
    for _ in range(100):
        s = rng.below(8)
        nxt, reward = sample_step(mrp, s, rng)
        assert reward == mrp.r_mean[s, nxt]


def test_sample_step_terminal_fatal():
    mrp, _ = canonical_task("one-state")
    with pytest.raises(ConfigError):
        sample_step(mrp, 1, SplitMix64(0))


def test_sample_step_frequencies_match_rows():
    mrp = generate_mrp(6, 3, 0.0, 0.9, seed=21)
    rng = SplitMix64(2)
    n = 100_000
    state = 2
    counts = np.zeros(6)
    for _ in range(n):
        nxt, _ = sample_step(mrp, state, rng)
        counts[nxt] += 1
    p = mrp.P[state]
    bound = 3.0 * np.sqrt(p * (1 - p) * n)
    assert np.all(np.abs(counts - n * p) <= bound + 1e-9)


def test_binary_representation_codes():
    mrp = generate_mrp(10, 3, 0.1, 0.99, seed=1)
    rep = build_representation("binary", mrp, seed=0)
    assert rep.n == 4
    assert rep.phi(0).tolist() == [0, 0, 0, 1]  # first state encodes 1
    assert rep.phi(1).tolist() == [0, 0, 1, 0]
    assert rep.phi(2).tolist() == [0, 0, 1, 1]
    assert not any(np.array_equal(rep.phi(s), np.zeros(4)) for s in range(10))


def test_binary_length_k100():
    assert binary_feature_length(100) == 7
    mrp = generate_mrp(100, 10, 0.1, 0.99, seed=1)
    assert build_representation("binary", mrp).n == 7


def test_random_normalized_unit_length():
    mrp = generate_mrp(10, 3, 0.1, 0.99, seed=1)
    rep = build_representation("random-normalized", mrp, seed=5)
    assert rep.n == 5
    norms = np.linalg.norm(rep.table, axis=1)
    assert np.all(np.abs(norms - 1.0) <= 1e-12)


def test_representation_determinism():
    mrp = generate_mrp(10, 3, 0.1, 0.99, seed=1)
    a = build_representation("random-normalized", mrp, seed=5)
    b = build_representation("random-normalized", mrp, seed=5)
    assert np.array_equal(a.table, b.table)


def test_tile_coding_rejected_for_mrps():
    mrp = generate_mrp(10, 3, 0.1, 0.99, seed=1)
    with pytest.raises(ConfigError):
        build_representation("tile-coding", mrp, seed=0)


def _coder(hash_size=4096, bias=True):
    return TileCoderConfig(
        num_tilings=8,
        bins_per_signal=10,
        signal_ranges=((0.0, 1.0), (0.0, 1.0)),
        hash_size=hash_size,
        bias_unit=bias,
    )


def test_tile_code_active_count():
    vec = tile_code([0.3, 0.7], _coder())
    assert np.flatnonzero(vec).shape[0] == 9
    assert np.all(vec[np.flatnonzero(vec)] == 1.0)
    no_bias = tile_code([0.3, 0.7], _coder(bias=False))
    assert np.flatnonzero(no_bias).shape[0] == 8


def test_tile_code_deterministic():
    a = tile_code([0.25, 0.5], _coder())
    b = tile_code([0.25, 0.5], _coder())
    assert np.array_equal(np.flatnonzero(a), np.flatnonzero(b))


def test_tile_code_same_micro_cell_same_features():
    cfg = _coder()
    # all tiling boundaries are multiples of bin_width / num_tilings
    micro = (1.0 / cfg.bins_per_signal) / cfg.num_tilings
    x = [100.2 * micro, 55.3 * micro]
    y = [100.8 * micro, 55.7 * micro]
    assert np.array_equal(np.flatnonzero(tile_code(x, cfg)), np.flatnonzero(tile_code(y, cfg)))


def test_tile_code_clips_out_of_range():
    cfg = _coder()
    for signals in ([-5.0, 2.0], [-np.inf, np.inf]):
        assert np.array_equal(
            np.flatnonzero(tile_code(signals, cfg)), np.flatnonzero(tile_code([0.0, 1.0], cfg))
        )


def test_tile_code_bias_always_last():
    cfg = _coder(hash_size=128)
    vec = tile_code([0.9, 0.1], cfg)
    assert np.flatnonzero(vec)[-1] == 128
    assert vec.shape == (129,)


def test_tile_coder_needs_a_signal_range():
    with pytest.raises(ConfigError, match="at least one signal range"):
        TileCoderConfig(num_tilings=1, bins_per_signal=1, signal_ranges=(), hash_size=4)


@pytest.mark.parametrize("lo, hi", [(-1e308, 1e308), (-2**1023, 2**1023), (0.0, np.float32("inf"))])
def test_tile_coder_range_width_must_be_finite(lo, hi):
    # (-1e308, 1e308) was once taken, and tile_code([1e308]) then raised
    # ValueError on a NaN bin; a float32 inf once passed as within the floats
    with pytest.raises(ConfigError, match="finite"):
        TileCoderConfig(num_tilings=1, bins_per_signal=1, signal_ranges=((lo, hi),), hash_size=4)


@pytest.mark.parametrize("ranges", [((0.0,),), "ab", (0.5,), 5, ((0.0, 0.5, 1.0),)])
def test_tile_coder_range_must_be_a_pair(ranges):
    # these once raised Python's unpacking ValueError or a TypeError
    with pytest.raises(ConfigError, match="pairs") as exc:
        TileCoderConfig(num_tilings=1, bins_per_signal=1, signal_ranges=ranges, hash_size=4)
    assert str(exc.value).endswith(f"got {ranges!r}")


@pytest.mark.parametrize("signals", [0.5, [[0.5, 0.5]], [0.5], [0.5, 0.5, 0.5]])
def test_tile_code_needs_one_signal_per_range(signals):
    # a bare number once raised IndexError and a nested list TypeError
    with pytest.raises(ConfigError, match="expected 2 signals in a list"):
        tile_code(signals, _coder())


def test_true_values_two_state_and_zero_rewards():
    mrp, _ = canonical_task("two-state")
    assert true_values(mrp)[:2] == pytest.approx([2.0, 0.0], abs=1e-12)
    silent = Mrp(k=2, P=np.array([[0.5, 0.5], [0.5, 0.5]]), r_mean=np.zeros((2, 2)),
                 sigma=0.0, gamma=0.9)
    assert np.all(true_values(silent) == 0.0)


def test_true_values_residual():
    mrp = generate_mrp(10, 3, 0.1, 0.99, seed=8)
    v = true_values(mrp)
    residual = (np.eye(10) - mrp.gamma * mrp.P) @ v - mrp.expected_rewards()
    assert np.abs(residual).max() <= 1e-10


def test_true_values_random_walk_matches_monte_carlo():
    # independent oracle: vectorized simulation, 100k episodes per state
    mrp, _ = canonical_task("random-walk-10")
    v = true_values(mrp)
    rng = np.random.default_rng(20260811)
    episodes = 100_000
    for start in range(10):
        pos = np.full(episodes, start, dtype=np.int64)
        steps = np.zeros(episodes, dtype=np.int64)
        alive = np.ones(episodes, dtype=bool)
        while alive.any():
            moves = rng.random(alive.sum()) < 0.7
            cur = pos[alive]
            nxt = np.where(moves, cur - 1, np.minimum(cur + 1, 9))
            steps[alive] += 1
            pos[alive] = nxt
            still = nxt >= 0
            idx = np.flatnonzero(alive)
            alive[idx[~still]] = False
        mean, se = steps.mean(), steps.std(ddof=1) / np.sqrt(episodes)
        assert abs(v[start] - mean) <= 3 * se


def test_stationary_swap_chain():
    swap = Mrp(k=2, P=np.array([[0.0, 1.0], [1.0, 0.0]]), r_mean=np.zeros((2, 2)),
               sigma=0.0, gamma=0.9)
    assert stationary_distribution(swap) == pytest.approx([0.5, 0.5], abs=1e-12)


def test_stationary_single_state():
    one = Mrp(k=1, P=np.array([[1.0]]), r_mean=np.zeros((1, 1)), sigma=0.0, gamma=0.9)
    assert stationary_distribution(one).tolist() == [1.0]


def test_stationary_residual_random_mrp():
    mrp = generate_mrp(10, 3, 0.1, 0.99, seed=17)
    d = stationary_distribution(mrp)
    assert np.abs(d @ mrp.P - d).max() <= 1e-12
    assert d.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_requires_continuing():
    mrp, _ = canonical_task("two-state")
    with pytest.raises(ConfigError):
        stationary_distribution(mrp)


def test_stationary_of_a_periodic_chain_is_config_error():
    # 2 -> 0 and the cycle 0 <-> 1: from uniform, the mass swaps between 0
    # and 1 forever, so power iteration never settles
    P = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    mrp = Mrp(k=3, P=P, r_mean=np.zeros((3, 3)), sigma=0.0, gamma=0.9)
    with pytest.raises(ConfigError, match="periodic or reducible"):
        stationary_distribution(mrp, max_iter=100)


def test_stationary_of_a_cycling_chain_fails_fast():
    # what `tdlab sweep --task "mrp(4,1,0.0)" --seed 2` builds: from uniform,
    # its power iterate repeats bit for bit at iteration 3, so it can never
    # settle; the cycle check raises at once instead of after max_iter
    mrp = generate_mrp(4, 1, 0.0, 0.99, seed=2)
    started = time.perf_counter()
    with pytest.raises(ConfigError, match=(
        r"^power iteration did not reach residual 1e-12 in 200000 iterations; "
        r"the chain may be periodic or reducible$"
    )):
        stationary_distribution(mrp)
    assert time.perf_counter() - started < 0.5


def test_mrp_roundtrip_serialization():
    mrp = generate_mrp(7, 2, 0.3, 0.95, seed=33)
    data = mrp_to_dict(mrp)
    back = mrp_from_dict(data)
    assert np.array_equal(back.P, mrp.P)
    assert np.array_equal(back.r_mean, mrp.r_mean)
    assert back.sigma == mrp.sigma and back.gamma == mrp.gamma
    assert isinstance(back.initial, np.ndarray)
    with pytest.raises(ConfigError):
        mrp_from_dict({"format": "something-else"})


def test_mrp_row_sum_validation():
    with pytest.raises(ConfigError):
        Mrp(k=2, P=np.array([[0.5, 0.4], [0.5, 0.5]]), r_mean=np.zeros((2, 2)),
            sigma=0.0, gamma=0.9)


@pytest.mark.parametrize("row", [[1.5, -0.5, 0.0], [float("nan"), 0.5, 0.5]])
def test_mrp_rejects_negative_or_nan_probabilities(row):
    P = np.array([row, [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ConfigError, match=r"must be >= 0: states \[0\]"):
        Mrp(k=3, P=P, r_mean=np.zeros((3, 3)), sigma=0.0, gamma=0.9)


@pytest.mark.parametrize("reward", [float("nan"), float("inf"), -float("inf")])
def test_mrp_rejects_non_finite_expected_rewards(reward):
    r_mean = np.zeros((3, 3))
    r_mean[1, 0] = reward  # a transition P never takes still makes r_bar[1] non-finite
    with pytest.raises(ConfigError, match=r"expected rewards must be finite: states \[1\]"):
        Mrp(k=3, P=np.eye(3), r_mean=r_mean, sigma=0.0, gamma=0.9)


@pytest.mark.parametrize("field", [
    {"initial": 3}, {"initial": -1}, {"initial": np.array([0.5, 0.5])},
    {"initial": np.array([0.5, 0.6, -0.1])}, {"initial": np.array([0.5, 0.2, 0.2])},
    {"terminal_states": frozenset({3})},
])
def test_mrp_rejects_bad_initial_or_terminal_states(field):
    with pytest.raises(ConfigError, match="initial|terminal state"):
        Mrp(k=3, P=np.eye(3), r_mean=np.zeros((3, 3)), sigma=0.0, gamma=0.9, **field)


@pytest.mark.parametrize("drop", ["P", "initial", "terminal_states"])
def test_mrp_from_dict_names_missing_keys(drop):
    data = mrp_to_dict(generate_mrp(4, 2, 0.1, 0.9, seed=1))
    del data[drop]
    with pytest.raises(ConfigError, match=f"lacks the key '{drop}'"):
        mrp_from_dict(data)


def test_mrp_from_dict_malformed_values():
    data = mrp_to_dict(generate_mrp(4, 2, 0.1, 0.9, seed=1))
    data["P"] = [[1.0], [0.5, 0.5]]
    with pytest.raises(ConfigError, match="malformed MRP file"):
        mrp_from_dict(data)


@pytest.mark.parametrize("key", ["P", "r_mean", "sigma", "gamma"])
def test_mrp_from_dict_refuses_an_int_beyond_the_floats(key):
    # float(10**400) raises OverflowError, once a traceback from `sweep --task file:...`
    data = mrp_to_dict(generate_mrp(4, 2, 0.1, 0.9, seed=1))
    if key in ("P", "r_mean"):
        data[key][0][0] = 10**400
    else:
        data[key] = 10**400
    with pytest.raises(ConfigError, match="malformed MRP file"):
        mrp_from_dict(data)


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=9),
    sigma=st.sampled_from([0.0, 0.3]),
    env_seed=st.integers(min_value=0, max_value=10_000),
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=5),
    steps=st.integers(min_value=1, max_value=25),
)
def test_simulate_chains_match_sample_step(k, sigma, env_seed, seeds, steps):
    mrp = generate_mrp(k, min(3, k), sigma, 0.9, seed=env_seed)
    states, rewards = simulate_chains(mrp, steps, SplitMix64Rows(seeds))
    assert states.shape == (steps + 1, len(seeds)) and rewards.shape == (steps, len(seeds))
    for i, seed in enumerate(seeds):
        rng = SplitMix64(seed)
        state = mrp.initial_state(rng)
        assert states[0, i] == state
        for t in range(steps):
            state, reward = sample_step(mrp, state, rng)
            assert (states[t + 1, i], rewards[t, i]) == (state, reward)


@settings(max_examples=20, deadline=None)
@given(
    sigma=st.sampled_from([0.0, 0.3]),
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=4),
    cuts=st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6),
)
def test_chains_drawn_a_time_block_at_a_time_are_the_chains_drawn_at_once(sigma, seeds, cuts):
    # an odd number of steps per block leaves a Box-Muller spare pending across blocks
    mrp = generate_mrp(6, 3, sigma, 0.9, seed=4)
    whole = simulate_chains(mrp, sum(cuts), SplitMix64Rows(seeds))
    rng, states = SplitMix64Rows(seeds), None
    blocks = []
    for steps in cuts:
        states, rewards = simulate_chains(mrp, steps, rng, None if states is None else states[-1])
        blocks.append((states, rewards))
    assert np.array_equal(np.vstack([blocks[0][0][:1]] + [b[0][1:] for b in blocks]), whole[0])
    assert np.vstack([b[1] for b in blocks]).tobytes() == whole[1].tobytes()


class FixedUniform:
    """An rng whose every uniform draw is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("u", [0.0, 0.3, 0.5, 0.5 - 1e-13, 0.9999999999999, 1.0 - 2.0**-53])
def test_samplers_draw_what_a_per_call_cumsum_draws(u):
    # rows and the initial distribution sum to 1 - 1e-13, so a u close to 1
    # lands past the last cumulative entry and is clipped to state k - 1
    short = [0.5, 0.5 - 1e-13, 0.0]
    P = np.array([short, [0.0, 0.25, 0.75], [1.0, 0.0, 0.0]])
    mrp = Mrp(3, P, np.zeros((3, 3)), sigma=0.0, gamma=0.9, initial=np.array(short))
    for s in range(3):
        want = int(np.searchsorted(np.cumsum(P[s]), u, side="right").clip(0, 2))
        assert sample_step(mrp, s, FixedUniform(u))[0] == want
    want = int(np.searchsorted(np.cumsum(short), u, side="right").clip(0, 2))
    assert mrp.initial_state(FixedUniform(u)) == want


def test_sample_steps_from_given_states():
    mrp = generate_mrp(7, 3, 0.5, 0.9, seed=5)
    starts = np.array([0, 6, 3, 3])
    rows = SplitMix64Rows([11, 12, 13, 14])
    nxt, reward = sample_steps(mrp, starts, rows)
    want = [sample_step(mrp, int(s), SplitMix64(seed)) for s, seed in zip(starts, [11, 12, 13, 14])]
    assert list(zip(nxt.tolist(), reward.tolist())) == want


def test_sample_steps_terminal_fatal():
    mrp, _ = canonical_task("one-state")
    with pytest.raises(ConfigError, match="cannot step from terminal state 1"):
        sample_steps(mrp, np.array([0, 1]), SplitMix64Rows([0, 1]))
