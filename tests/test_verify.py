"""verify's jobs, each suite and each equivalence trial, through the
process pool: any worker count gives the checks of one process, in job
order, and a trial's error reaches the caller."""

import multiprocessing
import os

import pytest

from tdlab import ConfigError, verify
from tdlab.verify import run_suite
from tests.conftest import meet


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
def test_two_workers_run_every_job_once_in_both_processes(monkeypatch, tmp_path):
    # 3 suites and 3 trials in two chunks of three jobs, one chunk to each process
    expected = run_suite("all", 3, 0, workers=1)
    job_checks = verify._job_checks

    def recorded(trials, seed, jobs):
        meet(tmp_path)
        for job in jobs:
            with open(tmp_path / f"job-{job}", "x") as mark:  # a job run twice raises here
                mark.write(str(os.getpid()))
        return job_checks(trials, seed, jobs)

    monkeypatch.setattr(verify, "_job_checks", recorded)
    assert run_suite("all", 3, 0, workers=2) == expected
    jobs = {path.name: path.read_text() for path in tmp_path.glob("job-*")}
    assert sorted(jobs) == ["job-0", "job-1", "job-2", "job-closed-forms", "job-propositions",
                            "job-theorem1"]
    assert len(set(jobs.values())) == 2
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patch reaches the workers by fork"
)
def test_a_worker_error_reaches_the_caller(monkeypatch, tmp_path):
    # four trials in two chunks, one to each process; only the child refuses
    certify, parent = verify.certify_equivalence, os.getpid()

    def refuse_in_the_child(traj, alpha, lam, theta_init, pair):
        meet(tmp_path)
        if os.getpid() != parent:
            raise ConfigError(f"refused in process {os.getpid()}")
        return certify(traj, alpha, lam, theta_init, pair)

    monkeypatch.setattr(verify, "certify_equivalence", refuse_in_the_child)
    with pytest.raises(ConfigError, match="refused in process") as exc:
        run_suite("equivalence", 4, 0, workers=2)
    assert str(exc.value) != f"refused in process {parent}"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [0, 1.5, (os.cpu_count() or 1) + 1])
def test_worker_count_checked_before_any_suite(workers, monkeypatch):
    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify, "closed_form_checks", no_suite)
    with pytest.raises(ConfigError, match="workers"):
        run_suite("all", 5, 0, workers=workers)
