"""verify's jobs, each suite and each equivalence trial, through the
process pool: any worker count gives the checks of one process, in job
order, and a trial's error reaches the caller."""

import multiprocessing
import os

import pytest

from tdlab import ConfigError, verify
from tdlab.verify import run_suite


@pytest.mark.parametrize("trials", [60, 7, 1])  # 7 splits unevenly, 1 leaves a worker idle
@pytest.mark.parametrize("seed", [0, 1])
def test_two_workers_give_the_checks_of_one(seed, trials):
    assert run_suite("all", trials, seed, workers=2) == run_suite("all", trials, seed, workers=1)


@pytest.mark.parametrize("seed", [0, 1])
def test_two_workers_give_the_equivalence_checks_of_one(seed):
    assert run_suite("equivalence", 7, seed, workers=2) == run_suite("equivalence", 7, seed, workers=1)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patch reaches the workers by fork"
)
def test_two_workers_leave_every_suite_to_the_pool(monkeypatch):
    expected = run_suite("all", 3, 0, workers=1)
    parent = os.getpid()

    def in_a_worker(suite):
        def checks(*args):
            if os.getpid() == parent:
                raise AssertionError(f"{suite.__name__} ran in the calling process")
            return suite(*args)
        return checks

    for name in ("closed_form_checks", "proposition_checks", "theorem1_checks"):
        monkeypatch.setattr(verify, name, in_a_worker(getattr(verify, name)))
    assert run_suite("all", 3, 0, workers=2) == expected


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patch reaches the workers by fork"
)
def test_a_worker_error_reaches_the_caller(monkeypatch):
    certify = verify.certify_equivalence

    def refuse_watkins(traj, alpha, lam, theta_init, pair):
        if pair == "watkins-vs-truncated-oracle":  # trial 3 of 4, in the second of two chunks
            raise ConfigError(f"refused in process {os.getpid()}")
        return certify(traj, alpha, lam, theta_init, pair)

    monkeypatch.setattr(verify, "certify_equivalence", refuse_watkins)
    with pytest.raises(ConfigError, match="refused in process") as exc:
        run_suite("equivalence", 4, 0, workers=2)
    assert str(exc.value) != f"refused in process {os.getpid()}"  # raised in a worker
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, 1.5, (os.cpu_count() or 1) + 1])
def test_worker_count_checked_before_any_suite(workers, monkeypatch):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "closed_form_checks", no_suite)
    with pytest.raises(ConfigError, match="workers"):
        run_suite("all", 5, 0, workers=workers)
