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
    calls=st.lists(st.sampled_from(["random", "normal"]), min_size=1, max_size=40),
)
def test_rows_match_scalar_streams(seeds, calls):
    rows, scalars = SplitMix64Rows(seeds), [SplitMix64(s) for s in seeds]
    for call in calls:
        if call == "random":
            got, want = rows.random(), [s.random() for s in scalars]
        else:
            got, want = rows.normal(0.5, 2.0), [s.normal(0.5, 2.0) for s in scalars]
        assert got.tolist() == want


def test_rows_match_scalar_normals_at_scale():
    # numpy's log/cos/sin differ from math's by one ulp on ~0.2% of inputs,
    # so thousands of draws are needed to see such a difference
    seeds = [mix64(i) for i in range(1000)]
    rows, scalars = SplitMix64Rows(seeds), [SplitMix64(s) for s in seeds]
    for _ in range(8):
        assert rows.normal().tolist() == [s.normal() for s in scalars]


def test_rows_normal_keeps_the_box_muller_spare():
    rows, scalar = SplitMix64Rows([3]), SplitMix64(3)
    first, second = rows.normal(), rows.normal()  # one Box-Muller pair
    assert [first[0], second[0]] == [scalar.normal(), scalar.normal()]
    assert rows.random()[0] == scalar.random()
