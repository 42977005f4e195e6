"""The core exactness property, demonstrated step by step.

True online TD(lambda) computes, after every single transition, exactly
the weight vector that the online lambda-return replay would produce by
rebuilding its whole update sequence from scratch. Classic accumulating-
trace TD(lambda) only approximates that replay, and the gap grows with
the step-size.
"""

import numpy as np

from tdlab import (
    SplitMix64,
    build_representation,
    certify_equivalence,
    generate_mrp,
    run_episode,
)

mrp = generate_mrp(k=10, b=3, sigma=0.1, gamma=0.99, seed=2024)
rep = build_representation("random-normalized", mrp, seed=7)

traj = run_episode(mrp, rep, SplitMix64(5), max_steps=200)
print(f"recorded {len(traj)} steps on a random 10-state chain, "
      f"{rep.n}-dimensional unit-norm features\n")

print(f"{'alpha':>6} {'lambda':>7} {'true online vs replay':>22} {'accumulate vs replay':>22}")
for alpha in (0.1, 0.5, 1.0, 2.0):
    for lam in (0.5, 0.9, 1.0):
        exact = certify_equivalence(traj, alpha, lam, np.zeros(rep.n), "true-online-vs-oracle")
        approx = certify_equivalence(traj, alpha, lam, np.zeros(rep.n), "accumulate-vs-oracle")
        print(f"{alpha:>6} {lam:>7} {exact.max_rel_diff:>22.3e} {approx.max_rel_diff:>22.3e}")

print("\nthe left column sits at floating-point noise for every setting;"
      "\nthe right column is only small when alpha is small.")
