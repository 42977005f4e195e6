from tdlab import harness
from tdlab.figures import (
    mrp_best_lambda_curves,
    one_state_step_size_curve,
    random_walk_learning_curves,
    two_state_asymptotic_rms,
)
from tdlab.harness import table_to_csv


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
    # the three representation sweeps share their chains: 600 cells x 2 runs, one block
    calls = []
    original = harness.simulate_chains

    def counted(mrp, steps, rng):
        calls.append((steps, len(rng)))
        return original(mrp, steps, rng)

    monkeypatch.setattr(harness, "simulate_chains", counted)
    mrp_best_lambda_curves(runs=2, steps=30, master_seed=5)
    assert calls == [(30, 600 * 2)]


def test_table_to_csv_formatting():
    text = table_to_csv((["a", "b"], [[1.5, ""], [0.1, "x"]]))
    assert text.split("\n")[1] == "1.5,"
    assert "0.10000000000000001,x" in text
