import itertools
import json
import multiprocessing
import os
import time
from dataclasses import replace
from unittest import mock

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
    paper_alpha_grid,
    paper_lambda_grid,
    run_control_episode,
    run_sweep,
    run_sweeps,
    sample_step,
    stationary_distribution,
    sweep_to_csv,
    true_values,
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
        chunks = [range(7)[0::2], range(7)[1::2]]
        assert harness.run_chunks(list, (), chunks, 2) == [[0, 2, 4, 6], [1, 3, 5]]

    def test_empty_chunks_are_not_sent(self):
        assert harness.run_chunks(list, (), [range(1)], 2) == [[0]]

    def test_one_worker_runs_all_items_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        chunks = [[0, 1], [2], [3, 4]]
        assert harness.run_chunks(list, (), chunks, 1) == chunks

    def test_one_cell_sweep_at_two_workers_starts_no_pool(self, monkeypatch):
        config = small_config(alphas=(0.1,), lambdas=(0.5,))
        expected = sweep_to_csv(run_sweep(config))

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)  # two workers on one CPU too
        assert sweep_to_csv(run_sweep(config, workers=2)) == expected

    def test_one_process_per_non_empty_chunk(self, monkeypatch):
        sizes = []
        pool = harness.ProcessPoolExecutor
        monkeypatch.setattr(harness, "ProcessPoolExecutor", lambda max_workers: (
            sizes.append(max_workers) or pool(max_workers=max_workers)
        ))
        monkeypatch.setattr(harness, "usable_cpus", lambda: 3)
        assert harness.run_chunks(list, (), [[0], [1]], 3) == [[0], [1]]
        assert sizes == [2]

    def test_more_chunks_than_workers_start_one_process_per_worker(self, monkeypatch):
        sizes = []
        pool = harness.ProcessPoolExecutor
        monkeypatch.setattr(harness, "ProcessPoolExecutor", lambda max_workers: (
            sizes.append(max_workers) or pool(max_workers=max_workers)
        ))
        chunks = [[i] for i in range(7)]
        assert harness.run_chunks(list, (), chunks, 2) == chunks
        assert sizes == [2]

    def test_results_in_chunk_order_when_later_chunks_finish_first(self):
        chunks = [[0.3], [0.0], [0.0], [0.0]]
        assert harness.run_chunks(sleep_and_return, (), chunks, 2) == [0.3, 0.0, 0.0, 0.0]

    def test_a_failing_chunk_cancels_the_queued_chunks(self, tmp_path):
        chunks = [[str(tmp_path), i] for i in range(20)]
        with pytest.raises(ConfigError, match="chunk 0 failed"):
            harness.run_chunks(fail_on_chunk_zero, (), chunks, 2)
        ran = len(list(tmp_path.iterdir()))
        assert ran < len(chunks) // 2, f"{ran} of {len(chunks) - 1} other chunks ran"
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [0, 1.5, (os.cpu_count() or 1) + 1])
    def test_worker_count_checked(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            harness.run_chunks(list, (), [[0], [1], [2]], workers)

    def test_worker_count_bounded_by_the_cpus_the_process_may_use(self, monkeypatch):
        # as under taskset -c 0 on a machine of any size
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert harness.usable_cpus() == 1
        harness.check_workers(1)
        with pytest.raises(ConfigError, match=r"workers must lie in \[1, 1\]"):
            harness.check_workers(2)


def sleep_and_return(chunk):
    """A run_chunks task that takes chunk[0] seconds to return it."""
    time.sleep(chunk[0])
    return chunk[0]


def fail_on_chunk_zero(chunk):
    """A run_chunks task that raises on chunk 0 and leaves a marker file
    in the directory chunk[0] for each other chunk it runs."""
    directory, index = chunk
    if index == 0:
        raise ConfigError("chunk 0 failed")
    time.sleep(0.05)
    open(os.path.join(directory, f"chunk-{index}"), "w").close()


def sweep_cells(config, mrp, rep, cell_indices):
    """The sweep's pool task run on one config's plan, as (cell_index,
    variant, mean, se, diverged) rows, cell by cell, variant by variant."""
    mean, se, div = _sweep_cells(mrp, (_plan_sweep(config, mrp, rep),), cell_indices)[0]
    columns = zip(mean.T.tolist(), se.T.tolist(), div.T.tolist())
    return [
        (ci, variant, *cell)
        for ci, cell_columns in zip(cell_indices, columns)
        for variant, *cell in zip(config.variants, *cell_columns)
    ]


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
                (variant,), states[:, r], rewards[:, r], rep.table, mrp.gamma,
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

    # random-normalized cases are named by the variant alone
    @pytest.mark.parametrize("variant, kind", [
        pytest.param(v, kind, id=v if kind == "random-normalized" else f"{v}-{kind}")
        for kind in ("random-normalized", "tabular", "binary")
        for v in ("accumulate", "true-online")
    ])
    @pytest.mark.parametrize("spike", [1e101, np.inf, np.nan])
    def test_hand_off_when_one_row_leaves_the_threshold(self, variant, spike, kind):
        # every row is live until step 12, when a reward spike sends row 1's
        # weights past the threshold: to finite weights (it is frozen at
        # them, and stays frozen after its weights come back under the
        # threshold) or to inf/NaN (it is frozen at step 11's weights)
        mrp = generate_mrp(6, 2, 0.1, 0.5, seed=8)
        rep = build_representation(kind, mrp, seed=1)
        M, theta_star, e0 = error_quadratic(mrp, rep)
        rows, steps, t0 = 4, 40, 12
        states, rewards = self.chains(mrp, rows, steps, 0)
        alpha, lam = np.full((rows, 1), 0.5), np.full((rows, 1), 0.9)

        def run(rewards):
            return harness._run_metrics(
                (variant,), states, rewards, rep.table, mrp.gamma, alpha, lam, M, theta_star, e0
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

    @settings(max_examples=80, deadline=None)
    @given(
        k=st.integers(2, 8),
        aggregated=st.booleans(),
        variants=st.lists(st.sampled_from(PREDICTION_VARIANTS), min_size=1, unique=True),
        rows=st.integers(1, 5),
        steps=st.integers(1, 30),
        seed=st.integers(0, 2**32),
        alphas=st.lists(st.floats(0.0, 2.0) | st.just(1.79e308), min_size=5, max_size=5),
        lambdas=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
        sigma=st.sampled_from([0.0, 1.0]),
        zero_rewards=st.booleans(),
        data=st.data(),
    )
    # zero rewards keep theta at +-0 while alpha 1.79e308 overflows the true
    # online trace: the dense path then makes NaN from inf * 0 where the
    # index path makes inf, and both rows freeze
    @example(k=5, aggregated=False, variants=["true-online", "accumulate", "replace"], rows=5,
             steps=30, seed=3, alphas=[2.0, 1.79e308, 0.5, 1.5, 0.0],
             lambdas=[0.0, 1.0, 0.5, 0.0, 1.0], sigma=0.0, zero_rewards=True, data=None)
    def test_one_hot_path_equals_the_dense_path(
        self, k, aggregated, variants, rows, steps, seed, alphas, lambdas, sigma, zero_rewards,
        data,
    ):
        # the sweep steps one-hot tables by index; forcing the dense path on
        # the same tables gives every metric and diverged flag the same bits
        mrp = generate_mrp(k, min(k, 2), sigma, 0.9, seed=seed)
        if aggregated:  # several states may share a column, and a column may go unused
            n = data.draw(st.integers(1, k))
            table = np.eye(n)[data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))]
        else:
            table = np.eye(k)
        assert harness._one_hot_columns(table) is not None
        rep = Representation("one-hot", table)
        M, theta_star, e0 = error_quadratic(mrp, rep)
        states, rewards = self.chains(mrp, rows, steps, seed)
        if zero_rewards:
            rewards[:] = 0.0
        alpha, lam = np.array(alphas[:rows])[:, None], np.array(lambdas[:rows])[:, None]

        def run():
            return harness._run_metrics(
                tuple(variants), states, rewards, table, mrp.gamma, alpha, lam, M, theta_star, e0
            )

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            metrics, diverged = run()
            with mock.patch.object(harness, "_one_hot_columns", lambda table: None):
                dense_metrics, dense_diverged = run()
        assert [m.hex() for m in metrics.tolist()] == [m.hex() for m in dense_metrics.tolist()]
        assert diverged.tolist() == dense_diverged.tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(2, 8),
        kind=st.sampled_from(["tabular", "binary", "random-normalized", "dense"]),
        n=st.integers(1, 8),
        scale=st.sampled_from([1.0, 30.0]),
        variants=st.lists(st.sampled_from(PREDICTION_VARIANTS), min_size=1, unique=True),
        rows=st.integers(1, 5),
        steps=st.integers(1, 30),
        seed=st.integers(0, 2**32),
        alphas=st.lists(st.floats(0.0, 3.0), min_size=5, max_size=5),
        lambdas=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
        budget=st.sampled_from(["one step", "every step", "default"]),
    )
    # large dense features at alpha 3: every true-online row diverges, and one
    # accumulate row of three
    @example(k=4, kind="dense", n=4, scale=30.0, variants=["true-online", "accumulate"],
             rows=3, steps=30, seed=1, alphas=[3.0] * 5, lambdas=[0.9] * 5, budget="one step")
    def test_stacked_variants_equal_each_variant_alone(
        self, k, kind, n, scale, variants, rows, steps, seed, alphas, lambdas, budget
    ):
        # a plan's variants step in lockstep in one weight array and the
        # metric is summed every K steps; each variant's rows keep the bits
        # of that variant run alone with the metric summed every step
        mrp = generate_mrp(k, min(k, 2), 1.0, 0.9, seed=seed)
        if kind == "dense":  # n = 1..8 features, any k
            table = np.random.default_rng(seed).standard_normal((k, n)) * scale
            rep = Representation("dense", table)
        else:
            rep = build_representation(kind, mrp, seed=seed)
        if kind not in ("tabular", "binary"):
            variants = [v for v in variants if v != "replace"] or ["true-online"]
        M, theta_star, e0 = error_quadratic(mrp, rep)
        states, rewards = self.chains(mrp, rows, steps, seed)
        alpha, lam = np.array(alphas[:rows])[:, None], np.array(lambdas[:rows])[:, None]
        values = {"one step": 1, "every step": len(variants) * rows * rep.n * steps,
                  "default": harness.METRIC_BLOCK_VALUES}

        def run(variants, budget):
            with mock.patch.object(harness, "METRIC_BLOCK_VALUES", budget):
                return harness._run_metrics(
                    tuple(variants), states, rewards, rep.table, mrp.gamma,
                    alpha, lam, M, theta_star, e0,
                )

        with np.errstate(over="ignore", invalid="ignore"):
            metrics, diverged = run(variants, values[budget])
            alone = [run([v], 1) for v in variants]
        assert [m.hex() for m in metrics.tolist()] == [
            m.hex() for own, _ in alone for m in own.tolist()
        ]
        assert diverged.tolist() == [d for _, own in alone for d in own.tolist()]


@pytest.mark.parametrize("master_seed", [0, 2**64 - 1])
@pytest.mark.parametrize("runs", [1, 3])
def test_run_seeds_equal_the_scalar_formula(master_seed, runs):
    cells = [0, 1, 7, 599]
    seeds = harness._run_seeds(master_seed, cells, runs)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [
        mix64(mix64(master_seed ^ ci) ^ mix64(r + 1)) for ci in cells for r in range(runs)
    ]


def test_blocked_sweep_cells_match_one_block(monkeypatch):
    config = small_config(runs=3, steps=30)
    mrp, rep = sweep_setting(config)
    whole = sweep_cells(config, mrp, rep, [0, 1, 2, 3])
    monkeypatch.setattr(harness, "CHAIN_BLOCK_VALUES", 1)  # one cell per block
    assert exact(sweep_cells(config, mrp, rep, [0, 1, 2, 3])) == exact(whole)


def test_blocks_are_sized_by_the_plan_with_the_most_variants(monkeypatch):
    # room for the chains of three cells, so for the errors of one cell of
    # three variants: the three-variant plan bounds the block at one cell
    config = small_config(runs=3, steps=30)
    mrp, rep = sweep_setting(config)
    plans = (
        _plan_sweep(replace(config, variants=("true-online",)), mrp, rep),
        _plan_sweep(config, mrp, rep),
    )
    rows = []
    monkeypatch.setattr(harness, "simulate_chains", lambda mrp, steps, rng: (
        rows.append(len(rng)) or simulate_chains(mrp, steps, rng)
    ))
    monkeypatch.setattr(harness, "CHAIN_BLOCK_VALUES", 3 * config.runs * (config.steps + 1))
    harness._sweep_cells(mrp, plans, [0, 1, 2])
    assert rows == [config.runs] * 3


def test_error_quadratic_solves_stationary_once(monkeypatch):
    calls = []
    original = harness.stationary_distribution

    def counted(mrp):
        calls.append(mrp)
        return original(mrp)

    monkeypatch.setattr(harness, "stationary_distribution", counted)
    mrp = generate_mrp(10, 3, 0.1, 0.99, seed=4)
    error_quadratic(mrp, build_representation("binary", mrp), "stationary")
    assert len(calls) == 1


class TestErrorQuadraticTarget:
    """error_quadratic's theta_star, the weighted least-squares fit."""

    def test_tabular_is_exact(self):
        mrp = generate_mrp(8, 3, 0.1, 0.95, seed=40)
        _, theta, _ = error_quadratic(mrp, build_representation("tabular", mrp, seed=0))
        assert np.abs(theta - true_values(mrp)).max() <= 1e-9

    def test_two_state_uniform_weighting(self):
        mrp, rep = canonical_task("two-state")
        _, theta, _ = error_quadratic(mrp, rep, "uniform")
        assert theta[0] == pytest.approx(1.0, abs=1e-12)

    def test_gradient_at_solution_vanishes(self):
        mrp = generate_mrp(10, 3, 0.1, 0.99, seed=41)
        rep = build_representation("random-normalized", mrp, seed=2)
        _, theta, _ = error_quadratic(mrp, rep)
        d = stationary_distribution(mrp)
        phi = rep.table
        grad = -2.0 * phi.T @ (d * (true_values(mrp) - phi @ theta))
        assert np.linalg.norm(grad) <= 1e-10

    def test_rank_deficient_features_fall_back_to_pinv(self):
        mrp = generate_mrp(6, 2, 0.0, 0.9, seed=42)
        table = np.zeros((6, 3))
        table[:, 0] = 1.0
        table[:, 1] = 2.0  # linearly dependent column
        _, theta, _ = error_quadratic(mrp, Representation(kind="binary", table=table))
        assert np.all(np.isfinite(theta))


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


def result_of_cells(config, cells):
    """The SweepResult holding the given cells, one for every (variant,
    lambda, alpha) of the config's grids, at the cells' own run count."""
    (runs,) = {c.runs for c in cells}
    config = replace(config, runs=runs)
    grid = (len(config.variants), len(config.lambdas), len(config.alphas))
    assert len(cells) == np.prod(grid)
    mean, se, div = np.empty(grid), np.empty(grid), np.empty(grid, dtype=int)
    for c in cells:
        i = (config.variants.index(c.variant), config.lambdas.index(c.lam),
             config.alphas.index(c.alpha))
        mean[i], se[i], div[i] = c.metric_mean, c.metric_se, c.diverged
    return SweepResult(config, mean, se, div)


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
        result = result_of_cells(small_config(variants=("accumulate",),
                                              alphas=(0.1, 0.2), lambdas=(1.0,)), cells)
        curves = best_per_lambda(result)
        assert curves["accumulate"][0].alpha == 0.2

    def test_all_diverged_marks_absent(self):
        result = result_of_cells(
            small_config(variants=("accumulate",), alphas=(0.1,), lambdas=(1.0,)),
            (CellResult("accumulate", 0.1, 1.0, 5.0, 0.1, 4, 4),),
        )
        point = best_per_lambda(result)["accumulate"][0]
        assert point.alpha is None and point.metric_mean is None

    def test_tie_prefers_smaller_alpha(self):
        result = result_of_cells(
            small_config(variants=("accumulate",), alphas=(0.1, 0.2), lambdas=(0.5,)),
            (
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


GRID = (3, 3, 3)  # (variants, lambdas, alphas) of small_config with three alphas and lambdas
CELLS = int(np.prod(GRID))


def grid_result(runs, means, ses, diverged):
    config = small_config(alphas=(0.05, 0.3, 0.7), lambdas=(0.0, 0.5, 1.0), runs=runs)
    return SweepResult(
        config, np.reshape(means, GRID), np.reshape(ses, GRID),
        np.minimum(np.reshape(diverged, GRID), runs),
    )


nan, inf = float("nan"), float("inf")


@settings(max_examples=100, deadline=None)
@given(
    runs=st.integers(1, 4),
    # few metric values, so ties are common, -0.0 against +0.0 among them
    means=st.lists(st.sampled_from([0.25, 0.5, 1.0, 0.0, -0.0, nan, inf, -inf]),
                   min_size=CELLS, max_size=CELLS),
    ses=st.lists(st.sampled_from([0.0, 0.01, 0.02]), min_size=CELLS, max_size=CELLS),
    diverged=st.lists(st.integers(0, 4), min_size=CELLS, max_size=CELLS),  # capped at runs
)
# runs=2: lambda row 0 of the first variant ties -0.0 and +0.0 at one
# diverged run of two (eligible); row 1 has no eligible cell (two of two
# diverged, NaN, -inf); row 2 ties +0.0 against -0.0
@example(
    runs=2,
    means=[-0.0, 0.0, 0.5, 0.25, nan, -inf, 0.0, -0.0, 0.0] + [0.5] * 18,
    ses=[0.01, 0.02, 0.0] * 9,
    diverged=[1, 1, 0, 2, 0, 0, 0, 0, 0] + [0] * 18,
)
def test_best_per_lambda_equals_the_scan_of_every_cell(runs, means, ses, diverged):
    result = grid_result(runs, means, ses, diverged)
    # repr tells -0.0 from +0.0 and a numpy scalar from a Python float
    assert repr(best_per_lambda(result)) == repr(scanned_best_per_lambda(result))


def test_sweep_result_cells_and_lookup():
    result = grid_result(4, [0.25 * i for i in range(CELLS)], [0.0] * CELLS, [1] * CELLS)
    cells = result.cells
    assert [(c.variant, c.lam, c.alpha) for c in cells] == list(itertools.product(
        result.config.variants, result.config.lambdas, result.config.alphas
    ))
    assert [c.metric_mean for c in cells] == [0.25 * i for i in range(CELLS)]
    assert result.cell("replace", 0.7, 0.5) == cells[9 + 3 + 2]
    for absent in (("replace", 0.6, 0.5), ("replace", 0.7, 0.6), ("dutch", 0.7, 0.5)):
        with pytest.raises(KeyError):
            result.cell(*absent)
    with pytest.raises(ValueError, match="read-only"):
        result.metric_mean[0, 0, 0] = 1.0
    with pytest.raises(ConfigError, match=r"shape \(3, 3, 3\)"):
        SweepResult(result.config, np.zeros((3, 9)), result.metric_se, result.diverged)


def hex_arrays(result):
    """The result's arrays with every float as its hex form."""
    return (
        [x.hex() for x in result.metric_mean.ravel().tolist()],
        [x.hex() for x in result.metric_se.ravel().tolist()],
        result.diverged.tolist(),
    )


@pytest.mark.parametrize("alphas, lambdas, runs", [
    ((0.05, 0.3, 0.7), (0.0, 0.5, 1.0), 3),  # 9 cells: chunks of 5 and 4, se computed
    ((0.3,), (0.9,), 2),  # one cell: the second chunk is empty
])
def test_run_sweeps_scatter_is_the_same_at_one_and_two_workers(alphas, lambdas, runs):
    configs = (
        small_config(alphas=alphas, lambdas=lambdas, runs=runs, steps=30),
        small_config(alphas=alphas, lambdas=lambdas, runs=runs, steps=30,
                     representation="random-normalized", variants=("true-online",)),
    )
    one, two = run_sweeps(configs, workers=1), run_sweeps(configs, workers=2)
    for a, b in zip(one, two):
        assert hex_arrays(a) == hex_arrays(b)
        assert sweep_to_csv(a) == sweep_to_csv(b)
        assert a.metric_mean.shape == (len(a.config.variants), len(lambdas), len(alphas))
        # each cell holds what the pool task gives on that cell alone
        mrp = resolve_env(a.config.env, a.config.gamma, a.config.master_seed)
        rep = build_rep(a.config.representation, mrp, seed=mix64(
            a.config.master_seed ^ harness.REPRESENTATION_SEED_SALT
        ))
        for ci in range(len(lambdas) * len(alphas)):
            for _, variant, mean, se, div in sweep_cells(a.config, mrp, rep, [ci]):
                cell = a.cell(variant, alphas[ci % len(alphas)], lambdas[ci // len(alphas)])
                assert (cell.metric_mean.hex(), cell.metric_se.hex(), cell.diverged) == (
                    mean.hex(), se.hex(), div
                )


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
