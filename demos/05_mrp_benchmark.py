"""A desk-scale slice of the random-MRP benchmark.

Sweeps (variant, alpha, lambda) on a random (k=10, b=3, sigma=0.1) chain
with gamma=0.99 and reports, per lambda, the best-over-alpha normalized
MSE against the least-squares solution. Ten runs per cell here to stay
quick; the CLI runs the full grids:

    tdlab sweep --task "mrp(10,3,0.1)" --repr tabular \
        --variants accumulate,replace,true-online --paper-grid \
        --runs 50 --steps 100 --seed 1 --out sweep.csv
"""

from tdlab import SweepConfig, best_per_lambda, run_sweep

config = SweepConfig(
    env="mrp(10,3,0.1)",
    representation="tabular",
    variants=("accumulate", "replace", "true-online"),
    alphas=(0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2),
    lambdas=(0.0, 0.5, 0.8, 0.9, 0.95, 1.0),
    steps=100,
    runs=10,
    master_seed=20260811,
)
result = run_sweep(config)
# (variants, lambdas) arrays; found is False where no alpha was eligible
alpha_index, mean, _, found = best_per_lambda(result)

print("normalized MSE at the best alpha (tabular features, 10 runs/cell)\n")
print(f"{'lambda':>7}" + "".join(f" {v:>13}" for v in config.variants))
for j, lam in enumerate(config.lambdas):
    row = "".join(
        f" {m:>8.3f}@{config.alphas[a]:<4.2g}" if ok else f" {'-':>13}"
        for m, a, ok in zip(mean[:, j], alpha_index[:, j], found[:, j])
    )
    print(f"{lam:>7.2f}{row}")

best = [m[ok].min() for m, ok in zip(mean, found)]
print("\nbest overall:", ", ".join(f"{v} {m:.3f}" for v, m in zip(config.variants, best)))
print("diverged runs recorded:",
      result.diverged.sum(), "across", result.diverged.size, "cells")
