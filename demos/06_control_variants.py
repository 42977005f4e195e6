"""Control with action-conditioned features.

State features are copied into one block per action, so each action owns
a slice of the weight vector. True online Sarsa(lambda) is plain true
online TD(lambda) run on those stacked features, and learns the behavior
policy's values; the Watkins-style variant learns the greedy policy's
values from the same exploratory stream by bootstrapping on the max and
zeroing its trace after every non-greedy action. Both are exact with
respect to their forward views, which this script re-certifies.
"""

import numpy as np

from tdlab import (
    SplitMix64,
    TrueOnlineTD,
    TrueOnlineWatkinsQ,
    build_representation,
    certify_equivalence,
    generate_mdp,
    run_control_episode,
)

mdp = generate_mdp(k=8, b=3, sigma=0.1, gamma=0.9, num_actions=3, seed=404)
rep = build_representation("tabular", mdp.chains[0], seed=0)
theta0 = np.zeros(rep.n * 3)

sarsa = TrueOnlineTD(rep.n * 3, alpha=0.4, lam=0.9)
straj = run_control_episode(sarsa, mdp, rep, SplitMix64(1), epsilon=0.2, max_steps=150)
r1 = certify_equivalence(straj, 0.4, 0.9, theta0, "sarsa-vs-oracle-on-psi")
print(f"true online Sarsa vs its replay: max rel diff {r1.max_rel_diff:.2e} "
      f"over {r1.steps} steps -> {'exact' if r1.passed else 'MISMATCH'}")

watkins = TrueOnlineWatkinsQ(rep.n * 3, alpha=0.4, lam=0.9)
wtraj = run_control_episode(watkins, mdp, rep, SplitMix64(2), epsilon=0.3, max_steps=150)
resets = sum(1 for g in wtraj.greedy if not g)
r2 = certify_equivalence(wtraj, 0.4, 0.9, theta0, "watkins-vs-truncated-oracle")
print(f"Watkins-style learner vs truncated replay: max rel diff {r2.max_rel_diff:.2e} "
      f"({resets} exploratory actions cut the trace) -> "
      f"{'exact' if r2.passed else 'MISMATCH'}")

q = watkins.theta.reshape(3, rep.n)
print("\ngreedy-policy value estimates after one exploratory run:")
print("  state:", "  ".join(f"{s:>6}" for s in range(8)))
print("  maxQ :", "  ".join(f"{v:>6.2f}" for v in q.max(axis=0)))
