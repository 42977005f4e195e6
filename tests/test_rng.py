import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdlab.core import ConfigError
from tdlab.rng import GOLDEN_GAMMA, SplitMix64, SplitMix64Rows, mix64


def test_same_seed_same_stream():
    a, b = SplitMix64(12345), SplitMix64(12345)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_mix64_is_stable_and_distinct():
    values = {mix64(x) for x in range(1000)}
    assert len(values) == 1000
    assert mix64(1) == mix64(1) != mix64(2)


def test_uniform_range_and_mean():
    rng = SplitMix64(7)
    xs = np.array([rng.random() for _ in range(50_000)])
    assert xs.min() >= 0.0 and xs.max() < 1.0
    assert abs(xs.mean() - 0.5) < 0.01
    assert abs(xs.var() - 1 / 12) < 0.005


def test_normal_moments():
    rng = SplitMix64(8)
    xs = np.array([rng.normal() for _ in range(100_000)])
    assert abs(xs.mean()) < 0.02
    assert abs(xs.std() - 1.0) < 0.02
    # third moment of a symmetric distribution
    assert abs((xs**3).mean()) < 0.1


def test_normal_mean_std_shift():
    rng = SplitMix64(9)
    xs = np.array([rng.normal(5.0, 0.25) for _ in range(20_000)])
    assert abs(xs.mean() - 5.0) < 0.02
    assert abs(xs.std() - 0.25) < 0.02


def test_below_bounds_and_uniformity():
    rng = SplitMix64(10)
    draws = np.array([rng.below(7) for _ in range(70_000)])
    assert draws.min() == 0 and draws.max() == 6
    counts = np.bincount(draws, minlength=7)
    assert np.all(np.abs(counts - 10_000) < 500)
    with pytest.raises(ConfigError):
        rng.below(0)


def test_sample_without_replacement():
    rng = SplitMix64(11)
    for _ in range(200):
        picks = rng.sample_without_replacement(10, 4)
        assert len(set(picks)) == 4
        assert all(0 <= p < 10 for p in picks)
    assert sorted(rng.sample_without_replacement(5, 5)) == [0, 1, 2, 3, 4]
    with pytest.raises(ConfigError):
        rng.sample_without_replacement(3, 4)


def test_split_streams_differ():
    rng = SplitMix64(12)
    child = rng.split()
    a = [child.next_u64() for _ in range(10)]
    b = [rng.next_u64() for _ in range(10)]
    assert a != b


def test_state_update_uses_golden_gamma():
    rng = SplitMix64(0)
    rng.next_u64()
    assert rng._state == GOLDEN_GAMMA


@settings(max_examples=40, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6),
    m=st.integers(min_value=0, max_value=20),
)
def test_uniforms_are_m_scalar_random_calls(seeds, m):
    rows, scalars = SplitMix64Rows(seeds), [SplitMix64(s) for s in seeds]
    state = rows._state.copy()
    u = rows.uniforms(m)
    assert u.shape == (m, len(seeds)) and u.dtype == np.float64
    assert u.T.tolist() == [[s.random() for _ in range(m)] for s in scalars]
    if m == 0:
        assert rows._state.tolist() == state.tolist()
    assert rows.random().tolist() == [s.random() for s in scalars]  # the streams go on in step


def scalar_rounds(rng, steps, normals):
    """`steps` rounds of random(), then normal() when normals, on one SplitMix64."""
    rounds = [(rng.random(), rng.normal() if normals else None) for _ in range(steps)]
    return [u for u, _ in rounds], [z for _, z in rounds]


def assert_rounds_match(rows, scalars, steps, normals):
    u, z = rows.chain_draws(steps, normals)
    assert u.shape == (steps, len(scalars))
    want = [scalar_rounds(s, steps, normals) for s in scalars]
    assert u.T.tolist() == [w[0] for w in want]
    if normals:
        assert z.shape == (steps, len(scalars))
        assert z.T.tolist() == [w[1] for w in want]
    else:
        assert z is None


@settings(max_examples=40, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=6),
    calls=st.lists(
        st.one_of(st.just("random"), st.tuples(st.integers(0, 7), st.booleans())),
        min_size=1, max_size=12,
    ),
)
def test_rows_match_scalar_streams(seeds, calls):
    # chain draw batches of any size, with or without normals, between single
    # uniforms: an odd batch leaves a Box-Muller spare for the next
    rows, scalars = SplitMix64Rows(seeds), [SplitMix64(s) for s in seeds]
    for call in calls:
        if call == "random":
            assert rows.random().tolist() == [s.random() for s in scalars]
        else:
            assert_rounds_match(rows, scalars, *call)


def test_rows_match_scalar_normals_at_scale():
    # numpy's log/cos/sin differ from math's by one ulp on ~0.2% of inputs,
    # so thousands of draws are needed to see such a difference
    seeds = [mix64(i) for i in range(1000)]
    rows, scalars = SplitMix64Rows(seeds), [SplitMix64(s) for s in seeds]
    for steps in (3, 8, 5):
        assert_rounds_match(rows, scalars, steps, True)


def test_rows_normal_keeps_the_box_muller_spare():
    rows, scalar = SplitMix64Rows([3]), SplitMix64(3)
    assert_rounds_match(rows, [scalar], 1, True)  # draws a Box-Muller pair, keeps the spare
    assert rows.chain_draws(0, True)[1].shape == (0, 1)  # and keeps it through an empty batch
    assert rows.chain_draws(0, False)[0].shape == (0, 1)
    assert_rounds_match(rows, [scalar], 1, True)  # returns the spare
    assert rows.random()[0] == scalar.random()
