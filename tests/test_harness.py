import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdlab import (
    BestPoint,
    ConfigError,
    SplitMix64,
    SweepConfig,
    best_per_lambda,
    build_representation,
    canonical_task,
    certify_equivalence,
    generate_mdp,
    generate_mrp,
    harness,
    oracle,
    paper_alpha_grid,
    paper_lambda_grid,
    run_control_episode,
    run_sweep,
    run_sweeps,
    sample_step,
    sweep_to_csv,
)
from tdlab import algos
from tdlab.algos import (
    PREDICTION_VARIANTS,
    TrueOnlineTD,
    TrueOnlineWatkinsQ,
    make_prediction_learner,
)
from tdlab.core import Trajectory, Transition
from tdlab.harness import (
    DIVERGENCE_THRESHOLD,
    EQUIVALENCE_PAIRS,
    CellResult,
    SweepResult,
    _plan_sweep,
    _sweep_cells,
    error_quadratic,
    resolve_env,
)
from tdlab.envs import Representation, simulate_chains
from tdlab.envs import build_representation as build_rep
from tdlab.rng import SplitMix64Rows, mix64
from tests.conftest import demo_06_watkins_run, make_mrp_trajectory


class TestPaperGrids:
    def test_alpha_grid(self):
        grid = paper_alpha_grid()
        assert len(grid) == 30  # 11 log points and 20 linear points sharing 0.1
        assert grid[0] == pytest.approx(1e-3)
        assert 0.1 in grid and 2.0 in grid
        assert grid.count(0.1) == 1
        assert list(grid) == sorted(grid)

    def test_lambda_grid(self):
        grid = paper_lambda_grid()
        assert len(grid) == 20  # 10 coarse and 11 fine points sharing 0.9
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert grid.count(0.9) == 1
        assert 0.95 in grid


def small_config(**overrides):
    base = dict(
        env="mrp(10,3,0.1)",
        representation="tabular",
        variants=("accumulate", "replace", "true-online"),
        alphas=(0.05, 0.3),
        lambdas=(0.0, 0.9),
        steps=40,
        runs=6,
        master_seed=99,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestRunSweep:
    def test_deterministic_repeat(self):
        a = run_sweep(small_config())
        b = run_sweep(small_config())
        assert sweep_to_csv(a) == sweep_to_csv(b)

    def test_parallel_matches_sequential(self):
        a = run_sweep(small_config())
        b = run_sweep(small_config(), workers=2)
        assert sweep_to_csv(a) == sweep_to_csv(b)

    def test_lambda_zero_rows_paired_across_variants(self):
        result = run_sweep(small_config())
        for alpha in (0.05, 0.3):
            means = {
                c.metric_mean for c in result.cells if c.lam == 0.0 and c.alpha == alpha
            }
            assert len(means) == 1

    def test_divergence_bookkeeping(self):
        config = small_config(
            variants=("accumulate",), alphas=(2.0,), lambdas=(1.0,), steps=300, runs=5
        )
        result = run_sweep(config)
        cell = result.cells[0]
        assert cell.diverged >= 1
        assert 0 <= cell.diverged <= cell.runs
        assert np.isfinite(cell.metric_mean) and cell.metric_mean > 1.0

    def test_cells_independently_reproducible(self):
        """A cell recomputed standalone from its documented seed matches the sweep."""
        config = small_config()
        result = run_sweep(config)
        mrp = resolve_env(config.env, config.gamma, config.master_seed)
        from tdlab.harness import REPRESENTATION_SEED_SALT

        rep = build_rep(
            config.representation, mrp,
            seed=mix64(config.master_seed ^ REPRESENTATION_SEED_SALT),
        )
        rows = sweep_cells(config, mrp, rep, [3])  # lambda=0.9, alpha=0.3
        for ci, variant, mean, se, div in rows:
            cell = result.cell(variant, 0.3, 0.9)
            assert (cell.metric_mean, cell.metric_se, cell.diverged) == (mean, se, div)

    def test_replace_rejected_on_nonbinary_features(self):
        with pytest.raises(ConfigError, match="binary"):
            run_sweep(small_config(representation="random-normalized"))

    def test_canonical_env_resolution(self):
        mrp = resolve_env("random-walk-10", 0.99, 0)
        assert mrp.gamma == 1.0 and 10 in mrp.terminal_states
        mrp2 = resolve_env("mrp(6, 2, 0.25)", 0.9, 7)
        assert mrp2.k == 6 and mrp2.sigma == 0.25 and mrp2.gamma == 0.9
        with pytest.raises(ConfigError):
            resolve_env("mdp(3)", 0.9, 0)

    @pytest.mark.parametrize("env", ["random-walk-10", "one-state", "two-state"])
    @pytest.mark.parametrize("weighting", ["stationary", "uniform"])
    def test_sweeps_reject_episodic_chains(self, env, weighting):
        with pytest.raises(ConfigError, match="sweeps need a continuing chain"):
            run_sweep(small_config(env=env, weighting=weighting, variants=("true-online",)))

    def test_env_file_resolves_like_its_generator(self, tmp_path):
        from tdlab.envs import mrp_to_dict

        mrp = resolve_env("mrp(6,2,0.3)", 0.9, 4)
        path = tmp_path / "env.json"
        path.write_text(json.dumps(mrp_to_dict(mrp)))
        loaded = resolve_env(f"file:{path}", 0.5, 0)  # the file's own gamma applies
        assert np.array_equal(loaded.P, mrp.P) and np.array_equal(loaded.r_mean, mrp.r_mean)
        assert loaded.gamma == 0.9
        config = small_config(env="mrp(6,2,0.3)", gamma=0.9, master_seed=4)
        from_file = small_config(env=f"file:{path}", master_seed=4)
        assert sweep_to_csv(run_sweep(config)) == sweep_to_csv(run_sweep(from_file))

    def test_result_records_the_gamma_the_chain_used(self, tmp_path):
        from tdlab.envs import mrp_to_dict

        path = tmp_path / "env.json"
        path.write_text(json.dumps(mrp_to_dict(resolve_env("mrp(6,2,0.3)", 0.9, 4))))
        config = small_config(env=f"file:{path}", gamma=0.5)
        assert run_sweep(config).config.gamma == 0.9
        generated = small_config(env="mrp(6,2,0.3)", gamma=0.5)
        assert run_sweep(generated).config == generated


MIXED_SWEEPS = (
    ("tabular", ("accumulate", "replace", "true-online")),
    ("binary", ("replace",)),
    ("random-normalized", ("true-online", "accumulate")),
    ("tabular", ("true-online",)),
)


class TestRunSweeps:
    """Sweeps that share their chains, run in one pass."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_result_equals_its_sweep_alone(self, workers):
        configs = tuple(small_config(representation=r, variants=v) for r, v in MIXED_SWEEPS)
        results = run_sweeps(configs, workers=workers)
        assert len(results) == len(configs)
        for config, result in zip(configs, results):
            assert result.config == config
            assert sweep_to_csv(result) == sweep_to_csv(run_sweep(config))

    @pytest.mark.parametrize("change", [
        dict(steps=41), dict(runs=5), dict(master_seed=100), dict(env="mrp(10,3,0.2)"),
        dict(alphas=(0.05, 0.4)), dict(lambdas=(0.0,)), dict(gamma=0.9),
        dict(weighting="uniform"),
    ])
    def test_configs_must_share_their_chains(self, change):
        with pytest.raises(ConfigError, match="differ only in representation and variants"):
            run_sweeps((small_config(), small_config(representation="binary", **change)))

    def test_no_configs_rejected(self):
        with pytest.raises(ConfigError, match="at least one config"):
            run_sweeps(())

    def test_zero_initial_error_rejected_before_the_pool(self, tmp_path, monkeypatch):
        from tdlab.envs import mrp_to_dict

        mrp = resolve_env("mrp(6,2,0.3)", 0.9, 4)
        path = tmp_path / "env.json"
        path.write_text(json.dumps({**mrp_to_dict(mrp), "r_mean": np.zeros((6, 6)).tolist()}))

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        configs = tuple(
            small_config(env=f"file:{path}", representation=r) for r in ("tabular", "binary")
        )
        with pytest.raises(ConfigError, match="zero initial error"):
            run_sweeps(configs, workers=2)


class TestRunChunks:
    def test_strided_chunks_in_chunk_order(self):
        assert harness.run_chunks(list, (), range(7), 2) == [[0, 2, 4, 6], [1, 3, 5]]

    def test_empty_chunks_are_not_sent(self):
        assert harness.run_chunks(list, (), range(1), 2) == [[0]]

    def test_one_worker_runs_all_items_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        items = list(range(5))
        assert harness.run_chunks(list, (), items, 1) == [items]

    @pytest.mark.parametrize("workers", [0, 1.5, (os.cpu_count() or 1) + 1])
    def test_worker_count_checked(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            harness.run_chunks(list, (), range(3), workers)


def sweep_cells(config, mrp, rep, cell_indices):
    """The sweep's pool task run on one config's plan."""
    return _sweep_cells(mrp, (_plan_sweep(config, mrp, rep),), cell_indices)[0]


def quadratic_by_definition(d, M):
    """d' M d written out: (d_i M_ij) d_j over every (i, j) in row-major
    order, added one by one from +0.0."""
    d, M = d.tolist(), M.tolist()
    total = 0.0
    for i in range(len(d)):
        for j in range(len(d)):
            total += (d[i] * M[i][j]) * d[j]
    return total


def metric_cases():
    """(M, rows of d, each row's error by hand or None) for the sweep metric."""
    rng = np.random.default_rng(3)
    M = rng.standard_normal((6, 6))
    M[rng.random((6, 6)) < 0.4] = 0.0
    yield M, rng.standard_normal((5, 6)) * 10.0 ** rng.integers(-8, 9, (5, 6)), None
    # one weight, uniform weighting, v = (2, 0): theta* = 1 and E(theta) = (theta - 1)^2,
    # so E(0) = 1, E(0.5) = 0.25 and E(2) = 1
    mrp, rep = canonical_task("two-state")
    M, theta_star, _ = error_quadratic(mrp, rep, "uniform")
    yield M, np.array([[0.0], [0.5], [2.0]]) - theta_star, [1.0, 0.25, 1.0]
    # the error at theta* itself is 0
    mrp = generate_mrp(8, 3, 0.1, 0.95, seed=50)
    M, theta_star, _ = error_quadratic(mrp, build_representation("tabular", mrp, seed=0))
    yield M, np.tile(theta_star, (3, 1)) - theta_star, [0.0, 0.0, 0.0]


def scalar_run(variant, n, alpha, lam, transitions, M, theta_star, e0):
    """One run's (metric, diverged) from a scalar learner stepping through
    the transitions, frozen on divergence at its last finite weights."""
    learner = make_prediction_learner(variant, n, alpha, lam)
    H = np.zeros((len(transitions) + 1, n))
    diverged = False
    for t, step in enumerate(transitions):
        learner.step(step)
        theta = learner.theta
        if not np.abs(theta).max() <= DIVERGENCE_THRESHOLD:
            diverged = True
            H[t + 1 :] = theta if np.isfinite(theta).all() else H[t]
            break
        H[t + 1] = theta
    errors = np.array([quadratic_by_definition(h - theta_star, M) for h in H])
    return (errors[1:] / e0).mean(), diverged


def scalar_sweep_cells(config, mrp, rep, cell_indices):
    """_sweep_cells written one run at a time: a learner per run stepping on
    sample_step's chain, frozen on divergence at its last finite weights."""
    M, theta_star, e0 = error_quadratic(mrp, rep, config.weighting)
    n_alpha = len(config.alphas)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for ci, variant in itertools.product(cell_indices, config.variants):
            lam, alpha = config.lambdas[ci // n_alpha], config.alphas[ci % n_alpha]
            cell_seed = mix64(config.master_seed ^ ci)
            metrics, diverged = np.empty(config.runs), 0
            for r in range(config.runs):
                rng = SplitMix64(mix64(cell_seed ^ mix64(r + 1)))
                state = mrp.initial_state(rng)
                transitions = []
                for t in range(config.steps):
                    nxt, reward = sample_step(mrp, state, rng)
                    transitions.append(Transition(rep.phi(state), reward, rep.phi(nxt), mrp.gamma))
                    state = nxt
                metrics[r], run_diverged = scalar_run(
                    variant, rep.n, alpha, lam, transitions, M, theta_star, e0
                )
                diverged += run_diverged
            se = metrics.std(ddof=1) / np.sqrt(config.runs) if config.runs > 1 else 0.0
            out.append((ci, variant, float(metrics.mean()), float(se), diverged))
    return out


def exact(rows):
    """Rows with every float as its hex form: equal iff bit-identical (NaN too)."""
    return [tuple(x.hex() if isinstance(x, float) else x for x in row) for row in rows]


def sweep_setting(config):
    mrp = resolve_env(config.env, config.gamma, config.master_seed)
    return mrp, build_rep(config.representation, mrp, seed=config.master_seed + 1)


class TestBatchedEngine:
    """The chunk-batched sweep equals the sweep run one scalar learner at a time."""

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["tabular", "binary", "random-normalized"]),
        variants=st.sets(st.sampled_from(PREDICTION_VARIANTS), min_size=1),
        alphas=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3, unique=True).map(sorted),
        lambdas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=2, unique=True).map(sorted),
        steps=st.integers(1, 40),
        runs=st.integers(1, 3),
        sigma=st.sampled_from([0.0, 0.1, 1.0]),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_sweep_cells_equal_scalar_reference(
        self, kind, variants, alphas, lambdas, steps, runs, sigma, seed, data
    ):
        if kind == "random-normalized":
            variants.discard("replace")
        config = small_config(
            env=f"mrp(7,3,{sigma})", representation=kind, alphas=tuple(alphas),
            lambdas=tuple(lambdas), steps=steps, runs=runs, master_seed=seed,
            weighting="uniform",
            variants=tuple(v for v in PREDICTION_VARIANTS if v in variants) or ("accumulate",),
        )
        cells = data.draw(st.lists(
            st.integers(0, len(alphas) * len(lambdas) - 1), min_size=1, unique=True
        ))
        mrp, rep = sweep_setting(config)
        assert exact(sweep_cells(config, mrp, rep, cells)) == exact(
            scalar_sweep_cells(config, mrp, rep, cells)
        )

    @pytest.mark.parametrize("kind", ["tabular", "binary", "random-normalized"])
    def test_divergent_corner(self, kind):
        # alpha=1.79e308 on rewards of sd 10 overflows to non-finite weights in
        # one step for most runs (frozen at the previous weights) and stays
        # finite past the threshold for the rest; alpha=2 diverges gradually
        config = small_config(
            env="mrp(10,3,10.0)", representation=kind, variants=("accumulate", "true-online"),
            alphas=(2.0, 1.79e308), lambdas=(1.0,), steps=300, runs=3,
        )
        mrp, rep = sweep_setting(config)
        rows = sweep_cells(config, mrp, rep, [0, 1])
        assert sum(row[4] for row in rows) >= 6
        assert exact(rows) == exact(scalar_sweep_cells(config, mrp, rep, [0, 1]))


class TestRunMetrics:
    """The sweep metric is an ordered sum whose bits per row do not depend
    on the block, and divergence hands off from the whole-block test to the
    per-row freeze at the step it happens."""

    @staticmethod
    def chains(mrp, rows, steps, seed):
        return simulate_chains(mrp, steps, SplitMix64Rows([seed + r for r in range(rows)]))

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 8),
        kind=st.sampled_from(["tabular", "binary", "random-normalized", "dense"]),
        n=st.integers(1, 8),
        variant=st.sampled_from(PREDICTION_VARIANTS),
        rows=st.integers(1, 5),
        steps=st.integers(1, 30),
        seed=st.integers(0, 2**32),
        alphas=st.lists(st.floats(0.0, 3.0), min_size=5, max_size=5),
        lambdas=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    )
    # two binary features: one- and two-row blocks once took another einsum order
    @example(k=3, kind="binary", n=1, variant="accumulate", rows=3, steps=30, seed=2,
             alphas=[0.1, 0.2, 0.3, 0.4, 0.5], lambdas=[0.5] * 5)
    def test_block_equals_each_row_alone(
        self, k, kind, n, variant, rows, steps, seed, alphas, lambdas
    ):
        mrp = generate_mrp(k, min(k, 2), 1.0, 0.9, seed=seed)
        if kind == "dense":  # n = 1..8 features, any k
            rep = Representation("dense", np.random.default_rng(seed).standard_normal((k, n)))
        else:  # tabular n = k; binary n = 2 at k = 2, 3; random-normalized n = 5
            rep = build_representation(kind, mrp, seed=seed)
        if variant == "replace" and kind not in ("tabular", "binary"):
            variant = "accumulate"
        M, theta_star, e0 = error_quadratic(mrp, rep)
        states, rewards = self.chains(mrp, rows, steps, seed)
        alpha, lam = np.array(alphas[:rows]), np.array(lambdas[:rows])

        def run(r):
            return harness._run_metrics(
                variant, states[:, r], rewards[:, r], rep.table, mrp.gamma,
                alpha[r, None], lam[r, None], M, theta_star, e0,
            )

        with np.errstate(over="ignore", invalid="ignore"):
            metrics, diverged = run(slice(None))
            alone = [run(slice(r, r + 1)) for r in range(rows)]
        assert [m.hex() for m in metrics.tolist()] == [m[0].hex() for m, _ in alone]
        assert diverged.tolist() == [d[0] for _, d in alone]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        rows=st.integers(3, 40),
        structure=st.sampled_from(["dense", "diagonal", "half-zero"]),
        seed=st.integers(0, 2**32),
    )
    def test_metric_equals_einsum_from_three_rows(self, n, rows, structure, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n))
        M = A @ A.T
        if structure == "diagonal":
            M = np.diag(np.diag(M))
        elif structure == "half-zero":
            M[rng.random((n, n)) < 0.5] = 0.0
        D = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-8, 9, (rows, n))
        got = harness._quadratic(D, harness._quadratic_terms(M))
        assert got.tobytes() == np.einsum("ri,ij,rj->r", D, M, D).tobytes()

    def test_metric_is_the_definition(self):
        for M, D, by_hand in metric_cases():
            got = harness._quadratic(D, harness._quadratic_terms(M))
            assert got.tolist() == [quadratic_by_definition(d, M) for d in D]
            if by_hand is not None:
                assert got.tolist() == pytest.approx(by_hand, abs=1e-12)

    @pytest.mark.parametrize("variant", ["accumulate", "true-online"])
    @pytest.mark.parametrize("spike", [1e101, np.inf, np.nan])
    def test_hand_off_when_one_row_leaves_the_threshold(self, variant, spike):
        # every row is live until step 12, when a reward spike sends row 1's
        # weights past the threshold: to finite weights (it is frozen at
        # them, and stays frozen after its weights come back under the
        # threshold) or to inf/NaN (it is frozen at step 11's weights)
        mrp = generate_mrp(6, 2, 0.1, 0.5, seed=8)
        rep = build_representation("random-normalized", mrp, seed=1)
        M, theta_star, e0 = error_quadratic(mrp, rep)
        rows, steps, t0 = 4, 40, 12
        states, rewards = self.chains(mrp, rows, steps, 0)
        alpha, lam = np.full((rows, 1), 0.5), np.full((rows, 1), 0.9)

        def run(rewards):
            return harness._run_metrics(
                variant, states, rewards, rep.table, mrp.gamma, alpha, lam, M, theta_star, e0
            )

        assert not run(rewards)[1].any()
        rewards[t0, 1] = spike
        chains = [
            [Transition(rep.phi(states[t, r]), rewards[t, r], rep.phi(states[t + 1, r]), mrp.gamma)
             for t in range(steps)]
            for r in range(rows)
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            metrics, diverged = run(rewards)
            expected = [
                scalar_run(variant, rep.n, 0.5, 0.9, chain, M, theta_star, e0) for chain in chains
            ]
            unfrozen = make_prediction_learner(variant, rep.n, 0.5, 0.9)
            for step in chains[1]:
                unfrozen.step(step)
        assert (np.abs(unfrozen.theta).max() <= DIVERGENCE_THRESHOLD) == np.isfinite(spike)
        assert diverged.tolist() == [False, True, False, False]
        assert [d for _, d in expected] == [False, True, False, False]
        assert np.isfinite(metrics).all()
        assert [m.hex() for m in metrics.tolist()] == [float(m).hex() for m, _ in expected]


def test_blocked_sweep_cells_match_one_block(monkeypatch):
    config = small_config(runs=3, steps=30)
    mrp, rep = sweep_setting(config)
    whole = sweep_cells(config, mrp, rep, [0, 1, 2, 3])
    monkeypatch.setattr(harness, "CHAIN_BLOCK_VALUES", 1)  # one cell per block
    assert exact(sweep_cells(config, mrp, rep, [0, 1, 2, 3])) == exact(whole)


def test_error_quadratic_solves_stationary_once(monkeypatch):
    calls = []
    original = oracle.stationary_distribution

    def counted(mrp):
        calls.append(mrp)
        return original(mrp)

    monkeypatch.setattr(oracle, "stationary_distribution", counted)
    mrp = generate_mrp(10, 3, 0.1, 0.99, seed=4)
    error_quadratic(mrp, build_representation("binary", mrp), "stationary")
    assert len(calls) == 1


def test_sweep_config_rejects_lambda_outside_unit_interval():
    for lam in (-0.1, 1.5, float("nan")):
        with pytest.raises(ConfigError, match="lambda must lie in"):
            small_config(lambdas=(0.5, lam))


class TestCsv:
    def test_header_and_order(self):
        result = run_sweep(small_config(runs=2, steps=10))
        lines = sweep_to_csv(result).strip().split("\n")
        assert lines[0] == "variant,alpha,lambda,metric_mean,metric_se,runs,diverged"
        rows = [line.split(",") for line in lines[1:]]
        variants = [r[0] for r in rows]
        assert variants == sorted(variants, key=("accumulate", "replace", "true-online").index)
        # within a variant: lambda-major, alpha ascending
        assert [r[1:3] for r in rows[:4]] == [
            ["0.050000000000000003", "0"],
            ["0.29999999999999999", "0"],
            ["0.050000000000000003", "0.90000000000000002"],
            ["0.29999999999999999", "0.90000000000000002"],
        ]

    def test_seventeen_significant_digits_roundtrip(self):
        result = run_sweep(small_config(runs=2, steps=10))
        lines = sweep_to_csv(result).strip().split("\n")[1:]
        for line, cell in zip(lines, result.cells):
            fields = line.split(",")
            assert float(fields[3]) == cell.metric_mean
            assert float(fields[4]) == cell.metric_se


class TestBestPerLambda:
    def test_single_alpha_identity(self):
        result = run_sweep(small_config(alphas=(0.1,), runs=3, steps=20))
        curves = best_per_lambda(result)
        for variant, points in curves.items():
            for p in points:
                assert p.alpha == 0.1
                assert p.metric_mean == result.cell(variant, 0.1, p.lam).metric_mean

    def test_lambda_zero_identical_across_variants(self):
        result = run_sweep(small_config())
        curves = best_per_lambda(result)
        vals = {curve[0].metric_mean for curve in curves.values()}
        assert len(vals) == 1

    def test_best_bounded_by_every_cell(self):
        result = run_sweep(small_config())
        curves = best_per_lambda(result)
        for variant, points in curves.items():
            for p in points:
                for c in result.cells:
                    if c.variant == variant and c.lam == p.lam and 2 * c.diverged <= c.runs:
                        assert p.metric_mean <= c.metric_mean

    def test_majority_diverged_cells_excluded(self):
        config = small_config(runs=4)
        cells = (
            CellResult("accumulate", 0.1, 1.0, 0.5, 0.01, 4, 3),  # >50% diverged
            CellResult("accumulate", 0.2, 1.0, 0.9, 0.01, 4, 0),
        )
        result = SweepResult(config=small_config(variants=("accumulate",),
                                                 alphas=(0.1, 0.2), lambdas=(1.0,)), cells=cells)
        curves = best_per_lambda(result)
        assert curves["accumulate"][0].alpha == 0.2

    def test_all_diverged_marks_absent(self):
        result = SweepResult(
            config=small_config(variants=("accumulate",), alphas=(0.1,), lambdas=(1.0,)),
            cells=(CellResult("accumulate", 0.1, 1.0, 5.0, 0.1, 4, 4),),
        )
        point = best_per_lambda(result)["accumulate"][0]
        assert point.alpha is None and point.metric_mean is None

    def test_tie_prefers_smaller_alpha(self):
        result = SweepResult(
            config=small_config(variants=("accumulate",), alphas=(0.1, 0.2), lambdas=(0.5,)),
            cells=(
                CellResult("accumulate", 0.1, 0.5, 0.7, 0.01, 4, 0),
                CellResult("accumulate", 0.2, 0.5, 0.7, 0.01, 4, 0),
            ),
        )
        assert best_per_lambda(result)["accumulate"][0].alpha == 0.1


def scanned_best_per_lambda(result):
    """best_per_lambda as one scan of every cell per (variant, lambda)."""
    curves = {v: [] for v in result.config.variants}
    for variant in result.config.variants:
        for lam in result.config.lambdas:
            best = None
            for c in result.cells:
                if c.variant != variant or c.lam != lam:
                    continue
                if 2 * c.diverged > c.runs or not np.isfinite(c.metric_mean):
                    continue
                if best is None or c.metric_mean < best.metric_mean:
                    best = BestPoint(lam, c.alpha, c.metric_mean, c.metric_se)
            curves[variant].append(best if best is not None else BestPoint(lam, None, None, None))
    return curves


@settings(max_examples=60, deadline=None)
@given(data=st.data(), runs=st.integers(1, 4))
def test_best_per_lambda_equals_the_scan_of_every_cell(data, runs):
    # few metric values, so ties are common; NaN and inf means; any divergence count
    alphas, lambdas = (0.05, 0.3, 0.7), (0.0, 0.5, 1.0)
    config = small_config(alphas=alphas, lambdas=lambdas, runs=runs)
    grid = list(itertools.product(config.variants, lambdas, alphas))
    cells = data.draw(st.permutations(grid))
    cells = cells[: data.draw(st.integers(0, len(cells)))]
    result = SweepResult(config=config, cells=tuple(
        CellResult(
            variant, alpha, lam,
            data.draw(st.sampled_from([0.25, 0.5, 0.5, 1.0, float("nan"), float("inf")])),
            data.draw(st.sampled_from([0.0, 0.01, 0.02])), runs,
            data.draw(st.integers(0, runs)),
        )
        for variant, lam, alpha in cells
    ))
    assert best_per_lambda(result) == scanned_best_per_lambda(result)


class TestCertify:
    def test_true_online_pass_and_accumulate_fail(self):
        traj, n = make_mrp_trajectory(steps=200, seed=60)
        ok = certify_equivalence(traj, 0.7, 0.95, np.zeros(n), "true-online-vs-oracle")
        assert ok.passed and ok.max_rel_diff <= 1e-8
        bad = certify_equivalence(traj, 0.7, 0.95, np.zeros(n), "accumulate-vs-oracle")
        assert not bad.passed and bad.max_rel_diff > 1e-3

    def test_lambda_zero_all_prediction_pairs_tight(self):
        traj, n = make_mrp_trajectory(steps=100, seed=61, kind="tabular")
        for pair in (
            "true-online-vs-oracle",
            "accumulate-vs-oracle",
            "alpha-t-constant-vs-true-online",
            "tabular-vs-one-hot-true-online",
        ):
            report = certify_equivalence(traj, 0.5, 0.0, np.zeros(n), pair)
            assert report.max_rel_diff <= 1e-12, pair

    def test_sarsa_pair_requires_annotations(self):
        traj, n = make_mrp_trajectory(steps=30, seed=62)
        with pytest.raises(ConfigError):
            certify_equivalence(traj, 0.1, 0.5, np.zeros(n), "sarsa-vs-oracle-on-psi")

    def test_sarsa_pair_on_capped_control_run(self):
        mdp = generate_mdp(6, 2, 0.1, 0.9, num_actions=2, seed=70)
        rep = build_representation("random-normalized", generate_mrp(6, 2, 0.1, 0.9, seed=2), seed=3)
        learner = TrueOnlineTD(rep.n * 2, alpha=0.6, lam=0.9)
        traj = run_control_episode(learner, mdp, rep, SplitMix64(8), epsilon=0.25, max_steps=70)
        assert not traj.episodic and not traj.stepped.episodic
        report = certify_equivalence(traj, 0.6, 0.9, np.zeros(rep.n * 2), "sarsa-vs-oracle-on-psi")
        assert report.passed

    @pytest.mark.parametrize("pair", ["sarsa-vs-oracle-on-psi", "watkins-vs-truncated-oracle"])
    def test_control_pairs_need_the_stepped_transitions(self, pair):
        mdp = generate_mdp(6, 2, 0.1, 0.9, num_actions=2, seed=71)
        rep = build_representation("tabular", mdp.chains[0], seed=0)
        learner = TrueOnlineWatkinsQ(rep.n * 2, alpha=0.5, lam=0.9)
        traj = run_control_episode(learner, mdp, rep, SplitMix64(9), epsilon=0.3, max_steps=20)
        bare = Trajectory(traj.steps, traj.actions, traj.greedy, traj.num_actions)
        with pytest.raises(ConfigError, match="run_control_episode"):
            certify_equivalence(bare, 0.5, 0.9, np.zeros(rep.n * 2), pair)

    @pytest.mark.parametrize("ties_low", [False, True])
    def test_watkins_pair_catches_a_driver_that_breaks_ties_low(self, monkeypatch, ties_low):
        # demo 06's Watkins run at epsilon 0.6: at theta = 0 every action
        # ties. The mutant bootstraps on the lowest tied action and so cuts
        # its trace after tied greedy actions, where the forward view does
        # not. At demo 06's own epsilon 0.3 the mutant passes: no
        # exploratory draw lands on a tied action other than the lowest,
        # and the tied bootstrap values agree.
        if ties_low:
            monkeypatch.setattr(algos, "greedy_toward", lambda q, behavior: int(np.argmax(q)))
        traj, n = demo_06_watkins_run(epsilon=0.6)
        report = certify_equivalence(traj, 0.4, 0.9, np.zeros(n), "watkins-vs-truncated-oracle")
        assert report.passed != ties_low, report

    @pytest.mark.parametrize("epsilon", [0.3, 0.6])
    def test_watkins_pair_catches_a_driver_that_carries_the_bootstrap_pair(
        self, monkeypatch, epsilon
    ):
        # the mutant lifts each state's feature vector once, so a step
        # updates the greedy pair the previous step bootstrapped on, not the
        # pair the behavior took, and its learner never cuts a trace
        lift = algos.stack_action_features
        lifted = {}  # id(phi) -> (phi, psi); holding phi keeps its id unique

        def lift_each_vector_once(phi, action, num_actions):
            if id(phi) not in lifted:
                lifted[id(phi)] = (phi, lift(phi, action, num_actions))
            return lifted[id(phi)][1]

        monkeypatch.setattr(algos, "stack_action_features", lift_each_vector_once)
        traj, n = demo_06_watkins_run(epsilon)
        assert all(
            tr.phi is prev.phi_next for prev, tr in zip(traj.stepped.steps, traj.stepped.steps[1:])
        )
        report = certify_equivalence(traj, 0.4, 0.9, np.zeros(n), "watkins-vs-truncated-oracle")
        assert not report.passed, report

    def test_unknown_pair_fatal(self):
        traj, n = make_mrp_trajectory(steps=10, seed=63)
        with pytest.raises(ConfigError):
            certify_equivalence(traj, 0.1, 0.5, np.zeros(n), "sarsa-vs-watkins")

    @pytest.mark.parametrize("pair", EQUIVALENCE_PAIRS)
    def test_invalid_trajectory_is_rejected_before_replay(self, pair):
        # a terminal first step followed by another step is no episode
        phi, zero = np.ones(1), np.zeros(1)
        traj = Trajectory(steps=[
            Transition(phi, 1.0, zero, 1.0, terminal=True),
            Transition(phi, 0.0, phi, 1.0),
        ])
        with pytest.raises(ConfigError, match="terminal"):
            certify_equivalence(traj, 0.5, 0.9, np.zeros(1), pair)

    def test_tabular_pair_rejects_features_that_are_not_one_hot(self):
        traj, n = make_mrp_trajectory(steps=20, seed=64, kind="binary")
        with pytest.raises(ConfigError, match="one-hot"):
            certify_equivalence(traj, 0.5, 0.9, np.zeros(n), "tabular-vs-one-hot-true-online")
