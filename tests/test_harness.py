import itertools
import json
import multiprocessing
import os
import threading
import time
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tdlab import (
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
    SweepResult,
    _plan_sweep,
    _sweep_cells,
    error_quadratic,
    resolve_env,
)
from tdlab.envs import Representation, simulate_chains
from tdlab.envs import build_representation as build_rep
from tdlab.rng import SplitMix64Rows, mix64
from tests.conftest import demo_06_watkins_run, make_mrp_trajectory, meet


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
        lam0 = result.config.lambdas.index(0.0)
        for a in range(len(result.config.alphas)):
            assert len(set(result.metric_mean[:, lam0, a].tolist())) == 1

    def test_divergence_bookkeeping(self):
        config = small_config(
            variants=("accumulate",), alphas=(2.0,), lambdas=(1.0,), steps=300, runs=5
        )
        result = run_sweep(config)
        diverged, mean = result.diverged[0, 0, 0], result.metric_mean[0, 0, 0]
        assert diverged >= 1
        assert 0 <= diverged <= config.runs
        assert np.isfinite(mean) and mean > 1.0

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
        for variant, mean, se, div in cell_stats(config, mrp, rep, 3):  # lambda=0.9, alpha=0.3
            i = (config.variants.index(variant), config.lambdas.index(0.9), config.alphas.index(0.3))
            assert (result.metric_mean[i], result.metric_se[i], result.diverged[i]) == (mean, se, div)

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
            raise AssertionError("a pool process was started")

        monkeypatch.setattr(harness, "Process", no_pool)
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
            raise AssertionError("a pool process was started")

        monkeypatch.setattr(harness, "Process", no_pool)
        chunks = [[0, 1], [2], [3, 4]]
        assert harness.run_chunks(list, (), chunks, 1) == chunks

    def test_one_cell_sweep_at_two_workers_starts_no_pool(self, monkeypatch):
        config = small_config(alphas=(0.1,), lambdas=(0.5,))
        expected = sweep_to_csv(run_sweep(config))

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool process was started")

        monkeypatch.setattr(harness, "Process", no_pool)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)  # two workers on one CPU too
        assert sweep_to_csv(run_sweep(config, workers=2)) == expected

    def test_one_process_per_non_empty_chunk(self, monkeypatch):
        # this process and one child for two chunks at three workers
        children = count_children(monkeypatch)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 3)
        assert harness.run_chunks(list, (), [[0], [1]], 3) == [[0], [1]]
        assert children == [1]

    def test_more_chunks_than_workers_start_one_process_per_worker(self, monkeypatch):
        # this process and workers - 1 children
        children = count_children(monkeypatch)
        chunks = [[i] for i in range(7)]
        assert harness.run_chunks(list, (), chunks, 2) == chunks
        assert children == [1]
        assert multiprocessing.active_children() == []

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

    def test_a_dead_child_names_its_chunk(self, tmp_path):
        chunks = [(str(tmp_path), os.getpid(), i) for i in range(2)]
        with pytest.raises(RuntimeError, match=r"returned no result: .* code \[7\]") as exc:
            harness.run_chunks(exit_in_the_child, (), chunks, 2)
        [mark] = [name for name in os.listdir(tmp_path) if name.startswith("exited-")]
        assert str(exc.value).startswith(f"chunk {mark[len('exited-'):]} returned no result")
        assert multiprocessing.active_children() == []

    def test_a_result_pickle_cannot_send_raises(self, tmp_path):
        chunks = [(str(tmp_path), os.getpid(), i) for i in range(2)]
        with pytest.raises(TypeError, match="pickle"):
            harness.run_chunks(lock_in_the_child, (), chunks, 2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_no_child_outlives_the_caller_raising(self, tmp_path, interrupt):
        # the child is still in its chunk when this process raises
        chunks = [(str(tmp_path), os.getpid(), interrupt) for _ in range(2)]
        start = time.monotonic()
        with pytest.raises(interrupt, match="in the calling process"):
            harness.run_chunks(raise_here_sleep_in_the_child, (), chunks, 2)
        assert time.monotonic() - start < 20
        assert multiprocessing.active_children() == []

    def test_every_chunk_runs_once_at_more_workers_than_cpus(self, tmp_path, monkeypatch):
        # a chunk handed out twice would find its mark taken
        monkeypatch.setattr(harness, "usable_cpus", lambda: 6)
        chunks = [(str(tmp_path), i) for i in range(300)]
        assert harness.run_chunks(mark_once, (), chunks, 6) == list(range(300))
        assert len(os.listdir(tmp_path)) == 300
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
    )
    def test_spawn_gives_the_fork_result(self, tmp_path):
        # index_once_met runs in the child by construction, list only if it is quick
        strided = [range(7)[0::2], range(7)[1::2], range(3)]
        results = {}
        for method in ("fork", "spawn"):
            (tmp_path / method).mkdir()
            met = [(str(tmp_path / method), os.getpid(), i) for i in range(2)]
            with start_method(method):
                results[method] = (harness.run_chunks(list, (), strided, 2),
                                   harness.run_chunks(index_once_met, (), met, 2))
            assert multiprocessing.active_children() == []
        assert results["spawn"] == results["fork"] == ([[0, 2, 4, 6], [1, 3, 5], [0, 1, 2]], [0, 1])

    @pytest.mark.parametrize("workers", [0, 1.5, True, (os.cpu_count() or 1) + 1])
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


def count_children(monkeypatch) -> list:
    """Patch run_chunks' process start to count the children it starts:
    the returned list holds that count once run_chunks has started them."""
    started = [0]
    real = harness.Process

    def counted(**kwargs):
        started[0] += 1
        return real(**kwargs)

    monkeypatch.setattr(harness, "Process", counted)
    return started


class start_method:
    """Run a block under the given multiprocessing start method."""

    def __init__(self, method):
        self.method = method

    def __enter__(self):
        self.saved = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method(self.method, force=True)

    def __exit__(self, *exc):
        multiprocessing.set_start_method(self.saved, force=True)


def exit_in_the_child(chunk):
    """A run_chunks task on (directory, caller pid, index): each of two
    processes takes a chunk; the pool child marks its index and exits with
    code 7."""
    directory, caller, index = chunk
    meet(directory)
    if os.getpid() != caller:
        open(os.path.join(directory, f"exited-{index}"), "w").close()
        os._exit(7)
    return index


def lock_in_the_child(chunk):
    """A run_chunks task on (directory, caller pid, index): each of two
    processes takes a chunk; the pool child returns a lock, which pickle
    cannot send."""
    directory, caller, index = chunk
    meet(directory)
    return index if os.getpid() == caller else threading.Lock()


def raise_here_sleep_in_the_child(chunk):
    """A run_chunks task on (directory, caller pid, exception class): each of
    two processes takes a chunk; the calling process raises the exception,
    the pool child sleeps a minute."""
    directory, caller, interrupt = chunk
    meet(directory)
    if os.getpid() == caller:
        raise interrupt("raised in the calling process")
    time.sleep(60)


def mark_once(chunk):
    """A run_chunks task on (directory, index): creates the file of that
    index, which fails if it exists, and returns the index."""
    directory, index = chunk
    open(os.path.join(directory, str(index)), "x").close()
    return index


def index_once_met(chunk):
    """A run_chunks task on (directory, caller pid, index): each of two
    processes takes a chunk, and both return its index."""
    directory, _, index = chunk
    meet(directory)
    return index


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


def sweep_cells(config, mrp, rep, rows):
    """The sweep's pool task run on one config's plan over a range of
    (cell, run) rows, as (row, variant, metric, diverged) tuples, row by
    row, variant by variant."""
    metric, diverged = _sweep_cells(mrp, (_plan_sweep(config, mrp, rep),), rows)[0]
    return [
        (r, variant, m, d)
        for r, row_metrics, row_diverged in zip(rows, metric.T.tolist(), diverged.T.tolist())
        for variant, m, d in zip(config.variants, row_metrics, row_diverged)
    ]


def cell_stats(config, mrp, rep, ci):
    """Cell ci's (variant, mean, se, diverged) tuples from the pool task
    run on that cell's runs alone, each variant's runs reduced one array
    at a time."""
    runs = config.runs
    metric, diverged = _sweep_cells(
        mrp, (_plan_sweep(config, mrp, rep),), range(ci * runs, (ci + 1) * runs)
    )[0]
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for variant, metrics, flags in zip(config.variants, metric, diverged):
            se = metrics.std(ddof=1) / np.sqrt(runs) if runs > 1 else 0.0
            out.append((variant, float(metrics.mean()), float(se), int(flags.sum())))
    return out


def periodic_chains_rejected(mrp, rep):
    """error_quadratic(mrp, rep), with the draw rejected when the chain is
    periodic: power iteration then finds no stationary distribution
    (generate_mrp(8, 2, ...) at seeds 123, 239 and 282, for one)."""
    try:
        return error_quadratic(mrp, rep)
    except ConfigError as exc:
        assume("power iteration" not in str(exc))
        raise


def run_metrics(variants, states, rewards, table, gamma, alpha, lam, M, theta_star, e0):
    """Each stacked row's (metric, diverged) from the sweep's learners
    stepped over whole pre-drawn chains, as one time block."""
    learners = harness._Learners(
        variants, table, gamma, alpha, lam, M, theta_star, e0, len(rewards)
    )
    learners.advance(states, rewards)
    return learners.finish()


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


def scalar_sweep_cells(config, mrp, rep, rows):
    """_sweep_cells written one run at a time: for each (cell, run) row
    and variant, a learner stepping on sample_step's chain from that row's
    seed, frozen on divergence at its last finite weights, as (row,
    variant, metric, diverged) tuples."""
    M, theta_star, e0 = error_quadratic(mrp, rep, config.weighting)
    n_alpha, runs = len(config.alphas), config.runs
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for r, variant in itertools.product(rows, config.variants):
            ci = r // runs
            lam, alpha = config.lambdas[ci // n_alpha], config.alphas[ci % n_alpha]
            rng = SplitMix64(mix64(mix64(config.master_seed ^ ci) ^ mix64(r % runs + 1)))
            state = mrp.initial_state(rng)
            transitions = []
            for t in range(config.steps):
                nxt, reward = sample_step(mrp, state, rng)
                transitions.append(Transition(rep.phi(state), reward, rep.phi(nxt), mrp.gamma))
                state = nxt
            metric, diverged = scalar_run(variant, rep.n, alpha, lam, transitions, M, theta_star, e0)
            out.append((r, variant, float(metric), diverged))
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
        # a range of rows whose ends may fall inside a cell
        total = len(alphas) * len(lambdas) * runs
        start = data.draw(st.integers(0, total - 1))
        rows = range(start, data.draw(st.integers(start + 1, total)))
        mrp, rep = sweep_setting(config)
        assert exact(sweep_cells(config, mrp, rep, rows)) == exact(
            scalar_sweep_cells(config, mrp, rep, rows)
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
        rows = sweep_cells(config, mrp, rep, range(6))
        assert sum(row[3] for row in rows) >= 6
        scalar = scalar_sweep_cells(config, mrp, rep, range(6))
        assert exact(rows) == exact(scalar)
        # rows 1-4: both ends inside a cell, two variants a row
        assert exact(sweep_cells(config, mrp, rep, range(1, 5))) == exact(scalar[2:10])

    def test_divergent_corner_sweep_warns_nothing(self):
        # the divergent corner's huge metrics overflow in the runs' variance:
        # reducing runs to cells must not warn, at one worker or two
        configs = [
            small_config(
                env="mrp(10,3,10.0)", representation=kind, variants=("accumulate", "true-online"),
                alphas=(2.0, 1.79e308), lambdas=(1.0,), steps=300, runs=3,
            )
            for kind in ("tabular", "binary", "random-normalized")
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for config in configs:
                one, two = run_sweep(config), run_sweep(config, workers=2)
                assert sweep_to_csv(one) == sweep_to_csv(two)


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
    # a periodic chain, which error_quadratic refuses: the draw is rejected
    @example(k=8, kind="tabular", n=1, variant="accumulate", rows=1, steps=1, seed=239,
             alphas=[0.1] * 5, lambdas=[0.5] * 5)
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
        M, theta_star, e0 = periodic_chains_rejected(mrp, rep)
        states, rewards = self.chains(mrp, rows, steps, seed)
        alpha, lam = np.array(alphas[:rows]), np.array(lambdas[:rows])

        def run(r):
            return run_metrics(
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
            return run_metrics(
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
        M, theta_star, e0 = periodic_chains_rejected(mrp, rep)
        states, rewards = self.chains(mrp, rows, steps, seed)
        if zero_rewards:
            rewards[:] = 0.0
        alpha, lam = np.array(alphas[:rows])[:, None], np.array(lambdas[:rows])[:, None]

        def run():
            return run_metrics(
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
        M, theta_star, e0 = periodic_chains_rejected(mrp, rep)
        states, rewards = self.chains(mrp, rows, steps, seed)
        alpha, lam = np.array(alphas[:rows])[:, None], np.array(lambdas[:rows])[:, None]
        values = {"one step": 1, "every step": len(variants) * rows * rep.n * steps,
                  "default": harness.METRIC_BLOCK_VALUES}

        def run(variants, budget):
            with mock.patch.object(harness, "METRIC_BLOCK_VALUES", budget):
                return run_metrics(
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


class TestTimeMean:
    """The sweep's running time mean has the bits of numpy's mean over the
    whole (rows, steps) array, whatever the blocks the steps arrive in."""

    @staticmethod
    def rows(steps, rng):
        x = rng.standard_normal((6, steps)) * 10.0 ** rng.integers(-8, 9, (6, steps))
        x[1] = -0.0
        x[2] = np.where(rng.random(steps) < 0.5, -0.0, 0.0)
        x[3, rng.integers(steps)] = np.inf
        x[4, rng.integers(steps)] = np.nan
        x[5] = rng.random(steps) * 1e300  # its sums overflow from about 2 steps on
        return x

    @staticmethod
    def folded(x, block):
        mean = harness._TimeMean(x.shape[1], x.shape[0])
        for t in range(0, x.shape[1], block):
            mean.add(x[:, t : t + block].T)
        return mean.mean()

    def test_every_length_to_3000_and_some_long_ones(self):
        rng = np.random.default_rng(26)
        for steps in [*range(1, 3001), 4096, 10_000, 100_000]:
            x = self.rows(steps, rng)
            with np.errstate(over="ignore", invalid="ignore"):
                got = self.folded(x, 1 + steps % 37)  # blocks of 1 to 37 steps
                assert got.tobytes() == x.mean(axis=1).tobytes(), steps

    @pytest.mark.parametrize("block", [1, 7, 8, 9, 128, 300])
    def test_any_blocks(self, block):
        x = self.rows(300, np.random.default_rng(block))
        with np.errstate(over="ignore", invalid="ignore"):
            assert self.folded(x, block).tobytes() == x.mean(axis=1).tobytes()

    def test_tree_of_numpy_pairwise_sum(self):
        # leaves of at most 128 values, halves split at a multiple of 8
        assert list(harness._pairwise_tree(128)) == [128]
        assert list(harness._pairwise_tree(129)) == [64, 65, 0]
        assert list(harness._pairwise_tree(300)) == [72, 72, 0, 72, 84, 0, 0]


@pytest.mark.parametrize("master_seed", [0, 2**64 - 1])
@pytest.mark.parametrize("runs", [1, 3])
def test_run_seeds_equal_the_scalar_formula(master_seed, runs):
    # at three runs each range starts and stops inside a cell
    for rows in (range(0, 4), range(2, 8), range(599 * runs - 1, 599 * runs + 4)):
        seeds = harness._run_seeds(master_seed, rows, runs)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [
            mix64(mix64(master_seed ^ (r // runs)) ^ mix64(r % runs + 1)) for r in rows
        ]


def test_blocked_sweep_cells_match_one_block(monkeypatch):
    config = small_config(runs=3, steps=30)
    mrp, rep = sweep_setting(config)
    rows = range(1, 11)  # from inside cell 0 to inside cell 3
    whole = sweep_cells(config, mrp, rep, rows)
    monkeypatch.setattr(harness, "CHAIN_BLOCK_VALUES", 1)  # one row per block
    assert exact(sweep_cells(config, mrp, rep, rows)) == exact(whole)


def test_blocks_are_sized_by_the_plan_with_the_most_variants(monkeypatch):
    # room for the weights of one cell's runs at three variants of ten
    # features: the three-variant plan bounds the block at one cell's runs
    config = small_config(runs=3, steps=30)
    mrp, rep = sweep_setting(config)
    plans = (
        _plan_sweep(replace(config, variants=("true-online",)), mrp, rep),
        _plan_sweep(config, mrp, rep),
    )
    blocks = []

    def recorded(mrp, steps, rng, start=None):
        if start is None:  # a block's first time block
            blocks.append(len(rng))
        return simulate_chains(mrp, steps, rng, start)

    monkeypatch.setattr(harness, "simulate_chains", recorded)
    monkeypatch.setattr(harness, "CHAIN_BLOCK_VALUES", 3 * rep.n * config.runs)
    harness._sweep_cells(mrp, plans, range(3 * config.runs))
    assert blocks == [config.runs] * 3


def test_small_blocks_bound_every_array_and_keep_every_bit(monkeypatch):
    # blocks of 6 rows, so cell 1's five runs span the first two blocks, and
    # time blocks of 29 steps; 300 steps make a pairwise tree of four leaves
    config = small_config(runs=5, steps=300)
    mrp, rep = sweep_setting(config)
    binary = build_rep("binary", mrp, seed=config.master_seed + 1)
    plans = (
        _plan_sweep(config, mrp, rep),
        _plan_sweep(replace(config, representation="binary", variants=("true-online",)),
                    mrp, binary),
    )
    rows = range(20)  # cells 0-3
    whole = harness._sweep_cells(mrp, plans, rows)
    chain_bound = metric_bound = 3 * rep.n * 6
    sizes = {"chains": [], "weights": [], "metric": [], "time mean": []}
    blocks = []

    def recorded_chains(mrp, steps, rng, start=None):
        if start is None:  # a block's first time block
            blocks.append(len(rng))
        states, rewards = simulate_chains(mrp, steps, rng, start)
        sizes["chains"] += [states.size, rewards.size]
        return states, rewards

    advance = harness._Learners.advance

    def recorded_advance(self, states, rewards):
        sizes["weights"] += [a.size for a in (self.theta, self.e, self.shown, self.star)]
        sizes["metric"].append(self.D.size)
        sizes["time mean"] += [self.time_mean._acc.size, *(a.size for a in self.time_mean._sums)]
        advance(self, states, rewards)

    monkeypatch.setattr(harness, "simulate_chains", recorded_chains)
    monkeypatch.setattr(harness._Learners, "advance", recorded_advance)
    monkeypatch.setattr(harness, "CHAIN_BLOCK_VALUES", chain_bound)
    monkeypatch.setattr(harness, "METRIC_BLOCK_VALUES", metric_bound)
    blocked = harness._sweep_cells(mrp, plans, rows)
    assert blocks == [6, 6, 6, 2]
    assert max(sizes["chains"]) == 30 * 6 <= chain_bound
    assert max(sizes["weights"]) == chain_bound
    assert max(sizes["time mean"]) <= chain_bound
    assert max(sizes["metric"]) <= metric_bound
    for got, want in zip(blocked, whole):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
        assert len(lines) == result.metric_mean.size
        for line, mean, se in zip(lines, result.metric_mean.ravel(), result.metric_se.ravel()):
            fields = line.split(",")
            assert float(fields[3]) == mean
            assert float(fields[4]) == se


def result_of_cells(config, runs, means, ses, diverged):
    """The SweepResult of the config's grids at the given run count, from
    each cell's mean, se and diverged count in (variant, lambda, alpha)
    order."""
    config = replace(config, runs=runs)
    grid = (len(config.variants), len(config.lambdas), len(config.alphas))
    return SweepResult(
        config, np.reshape(np.array(means, float), grid), np.reshape(np.array(ses, float), grid),
        np.reshape(np.array(diverged, int), grid),
    )


def one_lambda(alphas, means, diverged):
    """best_per_lambda of one accumulate variant at lambda 1.0 over the
    given alphas, with 4 runs a cell and an se of 0.01."""
    config = small_config(variants=("accumulate",), alphas=alphas, lambdas=(1.0,))
    result = result_of_cells(config, 4, means, [0.01] * len(alphas), diverged)
    return [a[0, 0] for a in best_per_lambda(result)]


class TestBestPerLambda:
    def test_single_alpha_identity(self):
        result = run_sweep(small_config(alphas=(0.1,), runs=3, steps=20))
        alpha_index, mean, se, found = best_per_lambda(result)
        assert found.all() and (alpha_index == 0).all()
        assert mean.tobytes() == result.metric_mean[..., 0].tobytes()
        assert se.tobytes() == result.metric_se[..., 0].tobytes()

    def test_lambda_zero_identical_across_variants(self):
        result = run_sweep(small_config())
        _, mean, _, found = best_per_lambda(result)
        assert found[:, 0].all()
        assert len(set(mean[:, 0].tolist())) == 1

    def test_best_bounded_by_every_cell(self):
        result = run_sweep(small_config())
        _, mean, _, found = best_per_lambda(result)
        assert found.all()
        eligible = 2 * result.diverged <= result.config.runs
        assert ((mean[..., None] <= result.metric_mean) | ~eligible).all()

    def test_majority_diverged_cells_excluded(self):
        # alpha 0.1 has the smaller mean, but 3 of its 4 runs diverged
        alpha_index, _, _, found = one_lambda((0.1, 0.2), [0.5, 0.9], [3, 0])
        assert found and alpha_index == 1

    def test_all_diverged_marks_absent(self):
        assert not one_lambda((0.1,), [5.0], [4])[3]

    def test_tie_prefers_smaller_alpha(self):
        alpha_index, _, _, found = one_lambda((0.1, 0.2), [0.7, 0.7], [0, 0])
        assert found and alpha_index == 0


def scanned_best_per_lambda(result):
    """best_per_lambda as a scan of every alpha per (variant, lambda),
    index by index: (alpha_index, mean, se, found) arrays, with zeros
    where no alpha is eligible."""
    grid = result.metric_mean.shape[:2]
    alpha_index, found = np.zeros(grid, dtype=np.intp), np.zeros(grid, dtype=bool)
    mean, se = np.zeros(grid), np.zeros(grid)
    for v, j, a in np.ndindex(result.metric_mean.shape):
        m = result.metric_mean[v, j, a]
        if 2 * result.diverged[v, j, a] > result.config.runs or not np.isfinite(m):
            continue
        if not found[v, j] or m < mean[v, j]:
            alpha_index[v, j], mean[v, j], se[v, j] = a, m, result.metric_se[v, j, a]
            found[v, j] = True
    return alpha_index, mean, se, found


GRID = (3, 3, 3)  # (variants, lambdas, alphas) of small_config with three alphas and lambdas
CELLS = int(np.prod(GRID))


def grid_result(runs, means, ses, diverged):
    config = small_config(alphas=(0.05, 0.3, 0.7), lambdas=(0.0, 0.5, 1.0))
    return result_of_cells(config, runs, means, ses, np.minimum(diverged, runs))


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
    got, want = best_per_lambda(result), scanned_best_per_lambda(result)
    assert got[3].dtype == want[3].dtype and got[3].tobytes() == want[3].tobytes()
    found = want[3]
    # where found is False the other three hold no result; tobytes tells -0.0 from +0.0
    for g, w in zip(got[:3], want[:3]):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g[found].tobytes() == w[found].tobytes()


def test_sweep_result_cells_and_lookup():
    result = grid_result(4, [0.25 * i for i in range(CELLS)], [0.0] * CELLS, [1] * CELLS)
    c = result.config
    # the CSV reads the arrays in (variant, lambda, alpha) order
    rows = [line.split(",") for line in sweep_to_csv(result).splitlines()[1:]]
    assert [(v, float(lam), float(alpha)) for v, alpha, lam, *_ in rows] == list(
        itertools.product(c.variants, c.lambdas, c.alphas)
    )
    assert [float(r[3]) for r in rows] == [0.25 * i for i in range(CELLS)]
    assert {(r[5], r[6]) for r in rows} == {("4", "1")}
    i = (c.variants.index("replace"), c.lambdas.index(0.5), c.alphas.index(0.7))
    assert result.metric_mean[i] == 0.25 * (9 + 3 + 2)
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
    # 27 rows: chunks of 14 and 13, so cell 4's runs fall to both workers; se computed
    ((0.05, 0.3, 0.7), (0.0, 0.5, 1.0), 3),
    ((0.3,), (0.9,), 2),  # one cell: one chunk, run in this process
])
def test_run_sweeps_row_cut_is_the_same_at_one_and_two_workers(alphas, lambdas, runs):
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
        # each cell holds what the pool task gives on that cell's runs alone
        mrp = resolve_env(a.config.env, a.config.gamma, a.config.master_seed)
        rep = build_rep(a.config.representation, mrp, seed=mix64(
            a.config.master_seed ^ harness.REPRESENTATION_SEED_SALT
        ))
        for ci in range(len(lambdas) * len(alphas)):
            for variant, mean, se, div in cell_stats(a.config, mrp, rep, ci):
                i = (a.config.variants.index(variant), ci // len(alphas), ci % len(alphas))
                assert (a.metric_mean[i].hex(), a.metric_se[i].hex(), a.diverged[i]) == (
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
