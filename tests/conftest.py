from __future__ import annotations

import os
import time

import numpy as np
import pytest

from tdlab import (
    Mdp,
    Mrp,
    SplitMix64,
    Trajectory,
    Transition,
    TrueOnlineWatkinsQ,
    build_representation,
    canonical_task,
    generate_mdp,
    generate_mrp,
    run_control_episode,
    run_episode,
)


def make_mrp_trajectory(steps=120, seed=0, kind="random-normalized", k=10, b=3,
                        sigma=0.1, gamma=0.99):
    """Recorded continuing-chain trajectory plus its feature dimension."""
    mrp = generate_mrp(k, b, sigma, gamma, seed=seed)
    rep = build_representation(kind, mrp, seed=seed + 1)
    traj = run_episode(mrp, rep, SplitMix64(seed + 2), max_steps=steps)
    return traj, rep.n


def make_walk_episode(seed=0):
    mrp, rep = canonical_task("random-walk-10")
    traj = run_episode(mrp, rep, SplitMix64(seed), max_steps=100_000)
    return traj, rep.n


def one_state_episode(T):
    """The one-state episode of T steps: reward 0, then 1 on termination."""
    phi, zero = np.array([1.0]), np.array([0.0])
    steps = [Transition(phi, 0.0, phi, 1.0) for _ in range(T - 1)]
    steps.append(Transition(phi, 1.0, zero, 1.0, terminal=True))
    return Trajectory(steps=steps)


def synthetic_trajectory(rng: SplitMix64, n=4, steps=25, gamma=0.9, episodic=False):
    """Dense random-feature trajectory for oracle identities."""
    out = []
    phi = np.array([rng.normal() for _ in range(n)])
    for t in range(steps):
        last = episodic and t == steps - 1
        phi_next = np.zeros(n) if last else np.array([rng.normal() for _ in range(n)])
        out.append(Transition(phi, rng.normal(), phi_next, gamma, terminal=last))
        phi = phi_next
    return Trajectory(steps=out)


def episodic_mdp(seed, k=6, num_actions=3, end_prob=0.1):
    """Random MDP in which every action ends the episode (state k-1) with
    probability end_prob per step."""
    chains = []
    for chain in generate_mdp(k - 1, 2, 0.1, 0.9, num_actions, seed=seed).chains:
        P, r = np.zeros((k, k)), np.zeros((k, k))
        P[: k - 1, : k - 1] = (1.0 - end_prob) * chain.P
        P[: k - 1, k - 1] = end_prob
        P[k - 1, k - 1] = 1.0
        r[: k - 1, : k - 1] = chain.r_mean
        r[: k - 1, k - 1] = 1.0
        chains.append(Mrp(k, P, r, sigma=0.1, gamma=0.9, terminal_states=frozenset({k - 1})))
    return Mdp(tuple(chains))


def demo_06_watkins_run(epsilon=0.3):
    """Demo 06's Watkins episode: 150 steps from theta = 0, where every
    action ties, at epsilon 0.3 by default, so exploration cuts the trace."""
    mdp = generate_mdp(8, 3, 0.1, 0.9, num_actions=3, seed=404)
    rep = build_representation("tabular", mdp.chains[0], seed=0)
    learner = TrueOnlineWatkinsQ(rep.n * 3, alpha=0.4, lam=0.9)
    traj = run_control_episode(learner, mdp, rep, SplitMix64(2), epsilon=epsilon, max_steps=150)
    return traj, rep.n * 3


def meet(directory, parties=2, timeout=30.0):
    """Mark this process in `directory`, then wait until `parties` processes
    have. A pool task that calls it first runs in two processes whatever the
    scheduling: of two chunks at two workers, the first process to take one
    waits for the other to take the second."""
    open(os.path.join(directory, f"pid-{os.getpid()}"), "a").close()
    deadline = time.monotonic() + timeout
    while sum(name.startswith("pid-") for name in os.listdir(directory)) < parties:
        if time.monotonic() > deadline:
            raise AssertionError(f"{parties} processes never met in {directory}")
        time.sleep(0.001)


def forbid_fork(monkeypatch) -> None:
    """Make any fork, such as a pool starting a child, fail the test."""
    def no_pool():
        raise AssertionError("a pool process was started")

    monkeypatch.setattr(os, "fork", no_pool)


def no_child_left():
    """Assert that every child process this one started has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def walk_episode():
    return make_walk_episode(seed=11)
