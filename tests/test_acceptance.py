"""Acceptance suite: one test per exit criterion, each at its pinned
tolerance, printing a PASS line with the measured margin.

Budgets: criterion 1 must finish within a minute, criterion 7 within ten;
the rest are effectively instant. Tolerances here are contractual; do not
loosen them to make a failing build green.
"""

import time

import numpy as np

from tdlab import (
    AccumulateTD,
    ReplaceTD,
    SplitMix64,
    SweepConfig,
    TabularTrueOnlineTD,
    Trajectory,
    Transition,
    TrueOnlineTD,
    TrueOnlineTDAlphaT,
    TrueOnlineWatkinsQ,
    best_per_lambda,
    build_representation,
    canonical_task,
    certify_equivalence,
    generate_mdp,
    generate_mrp,
    paper_alpha_grid,
    paper_lambda_grid,
    run_control_episode,
    run_episode,
    run_sweep,
    run_sweeps,
    theorem1_ratio,
)
from tdlab.figures import two_state_asymptotic_rms
from tdlab.algos import replay_prediction
from tdlab.rng import mix64
from tests.conftest import one_state_episode

MASTER_SEED = 20260811


def _record_mrp_trajectory(env_seed, rep_kind, steps, run_seed):
    mrp = generate_mrp(10, 3, 0.1, 0.99, seed=env_seed)
    rep = build_representation(rep_kind, mrp, seed=mix64(env_seed ^ 0xF))
    traj = run_episode(mrp, rep, SplitMix64(run_seed), max_steps=steps)
    return traj, rep.n


def _record_walk_episodes(rep_kind, min_steps, run_seed):
    mrp, tab = canonical_task("random-walk-10")
    rep = tab if rep_kind == "tabular" else build_representation(rep_kind, mrp, seed=7)
    rng = SplitMix64(run_seed)
    episodes, total = [], 0
    while total < min_steps:
        ep = run_episode(mrp, rep, rng, max_steps=100_000)
        episodes.append(ep)
        total += len(ep)
    return episodes, rep.n


def test_criterion_1_true_online_matches_forward_view():
    """100 randomized settings, every step within 1e-8, under a minute.

    At alpha=2 some feature sets make both methods diverge (identically);
    each setting is checked step-for-step over the float64-representable
    range, i.e. until the paired weights pass the divergence threshold.
    """
    started = time.monotonic()
    alphas = (0.01, 0.1, 0.5, 1.0, 2.0)
    lambdas = (0.0, 0.3, 0.7, 0.9, 0.95, 1.0)
    rep_kinds = ("tabular", "binary", "random-normalized")
    rng = SplitMix64(MASTER_SEED)
    worst = 0.0
    truncated_settings = 0
    for trial in range(100):
        alpha = alphas[rng.below(len(alphas))]
        lam = lambdas[rng.below(len(lambdas))]
        kind = rep_kinds[rng.below(len(rep_kinds))]
        if rng.below(2) == 0:
            traj, n = _record_mrp_trajectory(
                env_seed=rng.next_u64(), rep_kind=kind, steps=200, run_seed=rng.next_u64()
            )
            report = certify_equivalence(traj, alpha, lam, np.zeros(n), "true-online-vs-oracle")
            assert report.passed, (trial, alpha, lam, kind, report.max_rel_diff)
            worst = max(worst, report.max_rel_diff)
            truncated_settings += int(report.compared_steps < report.steps)
        else:
            episodes, n = _record_walk_episodes(kind, min_steps=200, run_seed=rng.next_u64())
            carry = np.zeros(n)
            for ep in episodes:
                report = certify_equivalence(ep, alpha, lam, carry, "true-online-vs-oracle")
                assert report.passed, (trial, alpha, lam, kind, report.max_rel_diff)
                worst = max(worst, report.max_rel_diff)
                if report.compared_steps < report.steps:
                    truncated_settings += 1
                    break  # weights left the representable range; setting done
                learner = TrueOnlineTD(n, alpha=alpha, lam=lam, theta_init=carry)
                with np.errstate(over="ignore", invalid="ignore"):
                    for step in ep.steps:
                        learner.step(step)
                carry = learner.theta.copy()
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0, f"exactness suite took {elapsed:.1f}s"
    print(f"PASS criterion 1: 100/100 settings within 1e-8 (worst {worst:.2e}; "
          f"{truncated_settings} settings diverged in lockstep past the float64 range; "
          f"{elapsed:.1f}s)")


def test_criterion_2_one_state_closed_forms():
    """Simulated final values equal both closed forms within 1e-12."""
    v0s = (-1.0, -0.25, 0.0, 0.5, 1.5)
    alphas = (0.05, 0.2, 0.5, 0.8, 1.0)
    horizons = (1, 2, 3, 5, 8)
    worst = 0.0
    for v0 in v0s:
        for alpha in alphas:
            for T in horizons:
                traj = one_state_episode(T)
                acc = AccumulateTD(1, alpha=alpha, lam=1.0, theta_init=np.array([v0]))
                to = TrueOnlineTD(1, alpha=alpha, lam=1.0, theta_init=np.array([v0]))
                for step in traj.steps:
                    acc.step(step)
                    to.step(step)
                err_acc = abs(acc.theta[0] - (v0 + T * alpha * (1 - v0)))
                err_to = abs(to.theta[0] - (v0 + (1 - (1 - alpha) ** T) * (1 - v0)))
                assert err_acc <= 1e-12, (v0, alpha, T)
                assert err_to <= 1e-12, (v0, alpha, T)
                worst = max(worst, err_acc, err_to)
    print(f"PASS criterion 2: closed forms on the 5x5x5 grid (worst |error| {worst:.2e})")


def test_criterion_3_two_state_asymptotes():
    """accumulate(1) reaches the best representable error; replace pins to TD(0)."""
    started = time.monotonic()
    lms_rms = 1.0
    acc = two_state_asymptotic_rms("accumulate", 1.0, alpha=0.01)
    assert acc <= 1.02 * lms_rms, acc
    td0 = two_state_asymptotic_rms("replace", 0.0, alpha=0.01)
    worst_gap = 0.0
    for lam in paper_lambda_grid():
        repl = two_state_asymptotic_rms("replace", lam, alpha=0.01)
        gap = abs(repl - td0) / td0
        worst_gap = max(worst_gap, gap)
        assert gap <= 0.02, (lam, repl, td0)
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0
    print(f"PASS criterion 3: accumulate(1) RMS {acc:.4f} <= 1.02, replace flat at "
          f"TD(0) {td0:.4f} (max gap {worst_gap:.2e}, {elapsed:.1f}s)")


def test_criterion_4_propositions():
    """lambda=0 and no-revisit episodes collapse the variants within 1e-12."""
    mrp, rep = canonical_task("random-walk-10")
    traj = run_episode(mrp, rep, SplitMix64(MASTER_SEED + 1), max_steps=100_000)
    alpha = 0.4

    def histories(learners):
        out = []
        for learner in learners:
            hist = [learner.theta.copy()]
            for step in traj.steps:
                learner.step(step)
                hist.append(learner.theta.copy())
            out.append(np.array(hist))
        return out

    hists = histories([
        AccumulateTD(rep.n, alpha, 0.0),
        ReplaceTD(rep.n, alpha, 0.0),
        TrueOnlineTD(rep.n, alpha, 0.0),
        TrueOnlineTDAlphaT(rep.n, lambda t: alpha, 0.0),
        TabularTrueOnlineTD(rep.n, alpha, 0.0),
    ])
    worst_l0 = max(float(np.abs(h - hists[0]).max()) for h in hists[1:])
    assert worst_l0 <= 1e-12

    rng = SplitMix64(MASTER_SEED + 2)
    n = 14
    eye = np.eye(n)
    chain = Trajectory(steps=[
        Transition(eye[s], rng.normal(), np.zeros(n) if s == n - 1 else eye[s + 1], 1.0,
                   terminal=s == n - 1)
        for s in range(n)
    ])
    worst_nr = 0.0
    for lam in (0.3, 0.9, 1.0):
        variants = [AccumulateTD(n, 0.7, lam), ReplaceTD(n, 0.7, lam), TrueOnlineTD(n, 0.7, lam)]
        bases = None
        for learner in variants:
            hist = [learner.theta.copy()]
            for step in chain.steps:
                learner.step(step)
                hist.append(learner.theta.copy())
            if bases is None:
                bases = np.array(hist)
            else:
                worst_nr = max(worst_nr, float(np.abs(np.array(hist) - bases).max()))
    assert worst_nr <= 1e-12
    print(f"PASS criterion 4: lambda=0 diff {worst_l0:.2e}, no-revisit diff {worst_nr:.2e} "
          f"(both <= 1e-12)")


def test_criterion_5_theorem_one_ratios():
    mrp, rep = canonical_task("random-walk-10")
    traj = run_episode(mrp, rep, SplitMix64(MASTER_SEED + 3), max_steps=100_000)
    alphas = (1e-1, 1e-2, 1e-3, 1e-4)
    ratios = [theorem1_ratio(traj, a, 0.9, np.zeros(rep.n)) for a in alphas]
    assert all(ratios[i + 1] < ratios[i] for i in range(3)), ratios
    pair_small = ratios[2] / ratios[1]
    pair_smallest = ratios[3] / ratios[2]
    assert 0.03 <= pair_small <= 0.3, pair_small
    assert 0.03 <= pair_smallest <= 0.3, pair_smallest
    table = ", ".join(f"{a:g}:{r:.3e}" for a, r in zip(alphas, ratios))
    print(f"PASS criterion 5: ratios strictly decreasing [{table}]; "
          f"pair ratios {pair_small:.3f}, {pair_smallest:.3f} in [0.03, 0.3]")


def test_criterion_6_variant_cross_checks():
    # constant-alpha time-dependent variant == standard true online
    traj, n = _record_mrp_trajectory(env_seed=5, rep_kind="random-normalized",
                                     steps=200, run_seed=6)
    r1 = certify_equivalence(traj, 0.6, 0.9, np.zeros(n), "alpha-t-constant-vs-true-online")
    assert r1.max_rel_diff <= 1e-12, r1

    # tabular true online == general true online on one-hot features
    traj_tab, n_tab = _record_mrp_trajectory(env_seed=5, rep_kind="tabular",
                                             steps=200, run_seed=7)
    r2 = certify_equivalence(traj_tab, 0.6, 0.9, np.zeros(n_tab), "tabular-vs-one-hot-true-online")
    assert r2.max_rel_diff <= 1e-12, r2

    # greedy-only behavior: the max-bootstrap learner equals the on-policy one
    mdp = generate_mdp(8, 3, 0.1, 0.9, num_actions=3, seed=11)
    rep = build_representation("tabular", generate_mrp(8, 3, 0.1, 0.9, seed=2), seed=0)
    w = TrueOnlineWatkinsQ(rep.n * 3, alpha=0.5, lam=0.9)
    traj_greedy = run_control_episode(w, mdp, rep, SplitMix64(13), epsilon=0.0, max_steps=150)
    assert all(traj_greedy.greedy)
    a = replay_prediction(TrueOnlineWatkinsQ(rep.n * 3, alpha=0.5, lam=0.9), traj_greedy.stepped)
    # Sarsa's run on the same stream bootstraps on the behavior pairs
    traj_sarsa = run_control_episode(
        TrueOnlineTD(rep.n * 3, alpha=0.5, lam=0.9), mdp, rep, SplitMix64(13),
        epsilon=0.0, max_steps=150,
    )
    assert traj_sarsa.actions == traj_greedy.actions
    b = replay_prediction(TrueOnlineTD(rep.n * 3, alpha=0.5, lam=0.9), traj_sarsa.stepped)
    diff_ws = float(np.abs(a - b).max())
    assert diff_ws <= 1e-12, diff_ws

    # exploring behavior: the learner equals its truncated forward view
    w2 = TrueOnlineWatkinsQ(rep.n * 3, alpha=0.5, lam=0.9)
    traj_explore = run_control_episode(w2, mdp, rep, SplitMix64(14), epsilon=0.3, max_steps=150)
    assert not all(traj_explore.greedy)
    r4 = certify_equivalence(
        traj_explore, 0.5, 0.9, np.zeros(rep.n * 3), "watkins-vs-truncated-oracle"
    )
    assert r4.max_rel_diff <= 1e-8, r4
    print(f"PASS criterion 6: alpha-t {r1.max_rel_diff:.2e}, tabular {r2.max_rel_diff:.2e}, "
          f"greedy-Watkins-vs-Sarsa {diff_ws:.2e} (<=1e-12); "
          f"Watkins-vs-forward-view {r4.max_rel_diff:.2e} (<=1e-8)")


def test_criterion_7_desk_scale_dominance():
    """Best-setting normalized MSE: true online at least ties everywhere."""
    started = time.monotonic()
    summaries = []
    configs = tuple(
        SweepConfig(
            env="mrp(10,3,0.1)",
            representation=rep_kind,
            variants=variants,
            alphas=paper_alpha_grid(),
            lambdas=paper_lambda_grid(),
            steps=100,
            runs=50,
            master_seed=MASTER_SEED,
        )
        for rep_kind, variants in (
            ("tabular", ("accumulate", "replace", "true-online")),
            ("binary", ("accumulate", "replace", "true-online")),
            ("random-normalized", ("accumulate", "true-online")),
        )
    )
    # one pass: the three sweeps share each chain
    for result in run_sweeps(configs, workers=2):
        rep_kind, variants = result.config.representation, result.config.variants
        _, mean, se, found = best_per_lambda(result)

        def overall_best(variant):
            """(mean, se) at the variant's best lambda, among those with an eligible alpha."""
            v = variants.index(variant)
            assert found[v].any(), (rep_kind, variant)
            j = np.where(found[v], mean[v], np.inf).argmin()
            return mean[v, j], se[v, j]

        to, _ = overall_best("true-online")
        acc, acc_se = overall_best("accumulate")
        assert to <= acc + 2 * acc_se, (rep_kind, to, acc, acc_se)
        if "replace" in variants:
            repl, repl_se = overall_best("replace")
            assert to <= repl + 2 * repl_se, (rep_kind, to, repl, repl_se)
        if rep_kind == "random-normalized":
            v = variants.index("true-online")
            assert result.config.lambdas[0] == 0.0 and found[v, 0]
            lam0 = mean[v, 0]
            assert to < 0.95 * lam0, (to, lam0)
            summaries.append(
                f"{rep_kind}: TO {to:.3f} <= acc {acc:.3f}+2se, "
                f"traces effective ({to:.3f} < 0.95*{lam0:.3f})"
            )
        else:
            summaries.append(f"{rep_kind}: TO {to:.3f} <= acc {acc:.3f}+2se, repl {repl:.3f}+2se")
    elapsed = time.monotonic() - started
    assert elapsed <= 600.0, f"dominance sweeps took {elapsed:.1f}s"
    print(f"PASS criterion 7: {'; '.join(summaries)} ({elapsed:.0f}s)")


def test_criterion_8_divergence_realism():
    """Accumulating traces blow up at the aggressive corner; dutch traces never
    diverge at alpha <= 1. The 1e100 overflow threshold needs ~300 steps of
    exponential growth to trip, hence the longer runs here."""
    started = time.monotonic()
    config = SweepConfig(
        env="mrp(10,3,0.1)",
        representation="tabular",
        variants=("accumulate", "true-online"),
        alphas=paper_alpha_grid(),
        lambdas=paper_lambda_grid(),
        steps=300,
        runs=5,
        master_seed=MASTER_SEED,
    )
    result = run_sweep(config, workers=2)
    variants, lambdas, alphas = config.variants, config.lambdas, config.alphas
    corner = result.diverged[variants.index("accumulate"), lambdas.index(1.0), alphas.index(2.0)]
    assert corner >= 1, corner
    # (lambda, alpha) indices of true online cells at alpha <= 1 with a diverged run
    to_diverged = np.argwhere(
        result.diverged[variants.index("true-online")][:, np.array(alphas) <= 1.0] > 0
    )
    assert not to_diverged.size, to_diverged
    elapsed = time.monotonic() - started
    print(f"PASS criterion 8: accumulate diverged {corner}/{config.runs} at "
          f"(alpha=2.0, lambda=1.0); true online 0 divergences for alpha <= 1.0 "
          f"({elapsed:.0f}s)")
