"""Tile-coded features for continuous signals.

Eight overlapping tilings of ten bins per signal plus a bias unit give
nine active features per observation, hashed into a fixed-size table.
Nearby inputs share most of their active features, which is where the
generalization comes from. The code is an ordinary dense vector, so any
learner consumes it; here true online TD(lambda) learns the values of a
drifting continuous signal and is certified against its forward view.
"""

import numpy as np

from tdlab import (
    TileCoderConfig,
    Trajectory,
    Transition,
    TrueOnlineTD,
    certify_equivalence,
    dot,
    tile_code,
)

config = TileCoderConfig(
    num_tilings=8,
    bins_per_signal=10,
    signal_ranges=((0.0, 1.0), (0.0, 1.0)),
    hash_size=4096,
    bias_unit=True,
)

a = tile_code([0.52, 0.30], config)
active = np.flatnonzero(a)
print(f"feature space: {config.n} entries, {active.size} active per observation")
print("active indices:", active.tolist())

for delta in (0.002, 0.02, 0.1, 0.4):
    b = tile_code([0.52 + delta, 0.30], config)
    shared = np.intersect1d(active, np.flatnonzero(b)).size
    print(f"shift first signal by {delta:>5}: {shared}/9 active features shared")

# a linear value estimate is just a sum of the active weights
rng = np.random.default_rng(0)
weights = rng.normal(size=config.n)
print(f"\nvalue = sum of active weights: {dot(weights, a):.6f} vs {weights[active].sum():.6f}")

# a signal pair (x, y) drifting on the unit square; the reward is x. Away
# from the edges the drift has mean zero, so V(x) is about x / (1 - gamma).
gamma, lam, alpha = 0.9, 0.9, 0.3 / config.active_features
learner = TrueOnlineTD(config.n, alpha=alpha, lam=lam)
steps = []
s = np.array([0.5, 0.5])
for _ in range(20000):
    s_next = np.clip(s + rng.normal(scale=0.05, size=2), 0.0, 1.0)
    tr = Transition(tile_code(s, config), float(s_next[0]), tile_code(s_next, config), gamma)
    learner.step(tr)
    steps.append(tr)
    s = s_next
print("\nlearned values after 20000 steps (reward = x, gamma = 0.9):")
for x in (0.1, 0.5, 0.9):
    print(f"  x={x}: V = {learner.value(tile_code([x, 0.5], config)):6.2f}"
          f"   (x/(1-gamma) = {x / (1 - gamma):4.1f})")

report = certify_equivalence(
    Trajectory(steps=steps[:150]), alpha, lam, np.zeros(config.n), "true-online-vs-oracle"
)
print(f"\nfirst 150 steps vs the online lambda-return replay: max rel diff "
      f"{report.max_rel_diff:.2e} -> {'exact' if report.passed else 'MISMATCH'}")
