from __future__ import annotations

import numpy as np
import pytest

from tdlab import (
    SplitMix64,
    Trajectory,
    Transition,
    build_representation,
    canonical_task,
    generate_mrp,
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


@pytest.fixture
def walk_episode():
    return make_walk_episode(seed=11)
