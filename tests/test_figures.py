import numpy as np
import pytest

from tdlab import AccumulateTD, ConfigError, TrueOnlineTD, canonical_task, harness, run_episode
from tdlab.figures import (
    mrp_best_lambda_curves,
    one_state_step_size_curve,
    random_walk_learning_curves,
    two_state_asymptotic_rms,
)
from tdlab.harness import table_to_csv
from tdlab.rng import SplitMix64


def test_learning_curves_start_at_one_and_improve():
    header, rows = random_walk_learning_curves(seed=3)
    assert header == ["time", "offline", "online", "accumulate"]
    assert rows[0][1] == 1.0  # offline untouched during the first episode
    online = [r[2] for r in rows]
    assert online[-1] < 1.0


def test_learning_curves_offline_moves_only_at_episode_ends():
    _, rows = random_walk_learning_curves(seed=3, episodes=3)
    offline = [r[1] for r in rows]
    assert len(set(offline)) == 3


def test_one_state_curve_shape():
    header, rows = one_state_step_size_curve(alphas=(0.1, 1.0), episodes=5, runs=40, seed=2)
    assert header == ["alpha", "accumulate", "true_online"]
    by_alpha = {r[0]: r for r in rows}
    # at alpha=1 the online method nails the value after one episode
    assert by_alpha[1.0][2] == 0.0
    assert by_alpha[1.0][1] > by_alpha[0.1][1]


def scalar_one_state_curve(alphas, episodes, runs, seed):
    """Figure 2 as one accumulate/true-online learner pair per (alpha, run)."""
    mrp, rep = canonical_task("one-state")
    rng = SplitMix64(seed)
    recorded = [[run_episode(mrp, rep, rng) for _ in range(episodes)] for _ in range(runs)]
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha in alphas:
            sq = [0.0, 0.0]
            for trajs in recorded:
                pair = (AccumulateTD(1, alpha, 1.0), TrueOnlineTD(1, alpha, 1.0))
                for traj in trajs:
                    for i, learner in enumerate(pair):
                        learner.start_episode()
                        for tr in traj.steps:
                            learner.step(tr)
                        sq[i] += (learner.theta[0] - 1.0) ** 2
            rows.append([alpha, *(float(np.sqrt(x / (runs * episodes))) for x in sq)])
    return rows


@pytest.mark.parametrize("alphas, episodes, runs, seed", [
    (tuple((i + 1) / 20 for i in range(40)), 10, 5, 1),  # an array ** 2 moves alpha 1.0's last bit
    ((0, 1e-9, 0.5, 1, 3, 50), 3, 7, 11),
])
def test_one_state_curve_matches_scalar_learner_pairs(alphas, episodes, runs, seed):
    _, rows = one_state_step_size_curve(alphas=alphas, episodes=episodes, runs=runs, seed=seed)
    assert repr(rows) == repr(scalar_one_state_curve(alphas, episodes, runs, seed))


@pytest.mark.parametrize("alpha", [-0.1, float("nan"), float("inf")])
def test_one_state_curve_rejects_invalid_step_sizes(alpha):
    with pytest.raises(ConfigError, match="alpha must be finite and >= 0"):
        one_state_step_size_curve(alphas=(0.5, alpha), episodes=1, runs=1)


def test_two_state_replace_flat_at_td0():
    td0 = two_state_asymptotic_rms("replace", 0.0)
    for lam in (0.3, 0.7, 1.0):
        assert two_state_asymptotic_rms("replace", lam) == td0


def test_two_state_accumulate_reaches_lms_at_lambda_one():
    assert two_state_asymptotic_rms("accumulate", 1.0) <= 1.02


def test_fig4_structure_small():
    header, rows = mrp_best_lambda_curves(runs=2, steps=30, master_seed=5)
    assert header == ["representation", "variant", "lambda", "alpha", "metric_mean", "metric_se"]
    reps = {r[0] for r in rows}
    assert reps == {"tabular", "binary", "random-normalized"}
    rn_variants = {r[1] for r in rows if r[0] == "random-normalized"}
    assert "replace" not in rn_variants


def test_fig4_same_csv_at_one_and_two_workers():
    one = table_to_csv(mrp_best_lambda_curves(runs=2, steps=30, master_seed=3, workers=1))
    two = table_to_csv(mrp_best_lambda_curves(runs=2, steps=30, master_seed=3, workers=2))
    assert one == two


def test_fig4_simulates_each_chain_once(monkeypatch):
    # the three representation sweeps share their chains: 600 cells x 2 runs in
    # one block of rows, each chain drawn once, a time block at a time
    calls = []
    original = harness.simulate_chains

    def counted(mrp, steps, rng, start=None):
        calls.append((rng, steps, start is None))
        return original(mrp, steps, rng, start)

    monkeypatch.setattr(harness, "simulate_chains", counted)
    mrp_best_lambda_curves(runs=2, steps=30, master_seed=5)
    assert len({id(rng) for rng, _, _ in calls}) == 1 and len(calls[0][0]) == 600 * 2
    assert sum(steps for _, steps, _ in calls) == 30
    assert [first for _, _, first in calls] == [True] + [False] * (len(calls) - 1)


def test_table_to_csv_formatting():
    text = table_to_csv((["a", "b"], [[1.5, ""], [0.1, "x"]]))
    assert text.split("\n")[1] == "1.5,"
    assert "0.10000000000000001,x" in text
