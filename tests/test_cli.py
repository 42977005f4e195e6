import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdlab import ConfigError, SweepConfig, __version__, harness, run_sweep
from tdlab.algos import PREDICTION_VARIANTS
from tdlab.cli import main
from tdlab.envs import REPRESENTATION_KINDS


def run_cli(args, capsys=None):
    code = main(args)
    return code


def test_gen_mrp_writes_valid_env(tmp_path):
    out = tmp_path / "env.json"
    assert main(["gen-mrp", "--k", "10", "--b", "3", "--sigma", "0.1",
                 "--gamma", "0.99", "--seed", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["format"] == "tdlab-mrp" and data["version"] == 1
    P = np.array(data["P"])
    assert np.all((P > 0).sum(axis=1) == 3)
    assert data["manifest"]["command"] == "gen-mrp"


def test_gen_mrp_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen-mrp", "--k", "6", "--b", "2", "--sigma", "0", "--gamma", "0.9",
            "--seed", "7", "--out"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_gen_mrp_branching_validation(capsys):
    assert main(["gen-mrp", "--k", "10", "--b", "11", "--sigma", "0",
                 "--gamma", "0.9", "--seed", "1"]) == 2
    assert "b must be an integer in [1, 10], got 11" in capsys.readouterr().err


def test_sweep_csv_and_manifest_replay(tmp_path):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sweep", "--task", "mrp(6,2,0.1)", "--repr", "binary",
            "--variants", "accumulate,true-online", "--alphas", "0.1 0.4",
            "--lambdas", "0 0.8", "--runs", "3", "--steps", "25",
            "--seed", "5", "--out"]
    assert main(args + [str(out1)]) == 0
    text = out1.read_text()
    first, header = text.split("\n")[:2]
    assert first.startswith("# manifest=")
    assert header == "variant,alpha,lambda,metric_mean,metric_se,runs,diverged"
    manifest = json.loads(first[len("# manifest="):])
    cfg = tmp_path / "replay.json"
    cfg.write_text(json.dumps(manifest))
    assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out2.read_text() == text


def test_sweep_requires_grid(capsys):
    assert main(["sweep", "--task", "mrp(4,2,0)", "--variants", "true-online",
                 "--runs", "1", "--steps", "5"]) == 2
    assert "paper-grid" in capsys.readouterr().err


@pytest.mark.parametrize("grids", [["--alphas", "0.1"], ["--alphas", "0.1", "--lambdas", "0.5"]])
def test_sweep_paper_grid_excludes_the_grid_flags(grids, tmp_path, capsys):
    # the grids were once ignored, yet recorded in the manifest
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--paper-grid", *grids, "--runs", "1", "--steps", "3",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --paper-grid excludes --alphas and --lambdas\n"
    assert not out.exists()


def test_sweep_refuses_an_empty_config_path(tmp_path, capsys):
    # an empty --config once ran the default sweep
    out = tmp_path / "sweep.csv"
    assert main(SMALL_SWEEP + ["--alphas", "0.1", "--config", "", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read : ")
    assert not out.exists()


def test_sweep_paper_grid_row_count(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--task", "mrp(4,2,0.1)", "--repr", "tabular",
                 "--variants", "true-online", "--paper-grid",
                 "--runs", "1", "--steps", "5", "--seed", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    # manifest + header + 30 alphas x 20 lambdas
    assert len(lines) == 2 + 30 * 20


def test_sweep_missing_env_file(capsys):
    assert main(["sweep", "--task", "file:/nonexistent/env.json",
                 "--variants", "true-online", "--alphas", "0.1",
                 "--lambdas", "0.5", "--runs", "1", "--steps", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_env_file_roundtrip(tmp_path):
    env = tmp_path / "env.json"
    main(["gen-mrp", "--k", "5", "--b", "2", "--sigma", "0", "--gamma", "0.9",
          "--seed", "3", "--out", str(env)])
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--task", f"file:{env}", "--repr", "tabular",
                 "--variants", "true-online", "--alphas", "0.2",
                 "--lambdas", "0.5", "--runs", "2", "--steps", "10",
                 "--seed", "1", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 3  # manifest + header + 1 row


def test_tdlab_seed_env_override(tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("TDLAB_SEED", "42")
    main(["gen-mrp", "--k", "5", "--b", "2", "--sigma", "0", "--gamma", "0.9",
          "--seed", "1", "--out", str(a)])
    monkeypatch.delenv("TDLAB_SEED")
    main(["gen-mrp", "--k", "5", "--b", "2", "--sigma", "0", "--gamma", "0.9",
          "--seed", "42", "--out", str(b)])
    assert json.loads(a.read_text())["P"] == json.loads(b.read_text())["P"]


def test_verify_exit_codes():
    assert main(["verify", "--suite", "closed-forms"]) == 0
    assert main(["verify", "--suite", "equivalence", "--trials", "5"]) == 0


@pytest.mark.parametrize("seed", [16, 6421])
def test_theorem1_suite_passes_when_the_first_episode_revisits_no_state(seed, capsys):
    # seeds whose first random-walk episode walks straight to the end, where
    # accumulating TD is the lambda-return exactly and the ratio is noise
    assert main(["verify", "--suite", "theorem1", "--seed", str(seed)]) == 0
    assert "2/2 checks passed" in capsys.readouterr().out


def test_verify_output_lines(capsys):
    main(["verify", "--suite", "propositions"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])
    assert lines[-1].startswith("verify propositions:")


def test_figures_fig3(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["figures", "--figure", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1] == "lambda,accumulate,replace,true_online"
    values = [line.split(",") for line in lines[2:]]
    replace_col = {v[2] for v in values}
    assert len(replace_col) == 1  # flat across lambda


def test_figures_fig1_offline_piecewise_constant(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["figures", "--figure", "1", "--seed", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")[2:]
    offline = [float(line.split(",")[1]) for line in lines]
    assert len(set(offline)) <= 3  # one level per episode


def test_figures_fig1_csv_body_is_pinned(tmp_path):
    # the online and offline lambda-return oracles on one-hot features, whose
    # dot products are exact; the digest was taken on OpenBLAS's SkylakeX
    # kernel and fails on Haswell, Zen and Prescott, since the setup still
    # goes through BLAS (ROADMAP.md, item 1)
    out = tmp_path / "fig1.csv"
    assert main(["figures", "--figure", "1", "--out", str(out)]) == 0
    manifest, body = out.read_text().split("\n", 1)
    assert json.loads(manifest[len("# manifest="):])["params"]["seed"] == 1
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "ce9a48d10963b1d7f68887255b9459b9659a2384d01ddcabe219baa68d929351"
    )


def test_figures_fig3_csv_body_is_pinned(tmp_path):
    # one always-on feature, so every dot product is a single product
    out = tmp_path / "fig3.csv"
    assert main(["figures", "--figure", "3", "--out", str(out)]) == 0
    _, body = out.read_text().split("\n", 1)
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "77549897942d04552f8fdd921db5992da551bed7fe63f3857fdf59b1e61cc583"
    )


def test_figures_fig2_csv_body_is_pinned(tmp_path):
    # one always-on feature, so every dot product is a single product
    out = tmp_path / "fig2.csv"
    assert main(["figures", "--figure", "2", "--runs", "5", "--out", str(out)]) == 0
    _, body = out.read_text().split("\n", 1)
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "57f4dd1e541a8e281eb19bca8e034c9ff9289e54b9344660a55c263e6be4b4c7"
    )


def test_figures_fig2_default_csv_body_is_pinned(tmp_path):
    # 40 step-sizes x 200 runs x 10 episodes, as the scalar learner pairs computed it
    out = tmp_path / "fig2.csv"
    assert main(["figures", "--figure", "2", "--out", str(out)]) == 0
    manifest, body = out.read_text().split("\n", 1)
    assert json.loads(manifest[len("# manifest="):])["params"] == {
        "figure": 2, "runs": 200, "seed": 1,
    }
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "fd2769cbee68950fc2f44537f0212c576c8c62e6b998e9c6791b4f22862d1e25"
    )


@pytest.mark.parametrize("steps, seed, diverged, digest", [
    (100, 5, {}, "d4a0de7835fbeffa396d329081b8c8eea9198a1219ab8328c516e590c7382661"),
    # two accumulate cells with one diverged run each (an inf standard error)
    # beside live replace and true-online rows of the same cells
    (200, 1, {"accumulate": 2}, "d303325cd50da739c5b940fbd989be700484b4c5ae630bb4010ebbb87ea4327e"),
])
def test_tabular_paper_grid_sweep_csv_body_is_pinned(tmp_path, steps, seed, diverged, digest):
    # the sweep engine on one-hot features, whose dot products are exact; the
    # digest was taken on OpenBLAS's SkylakeX kernel and fails on Haswell,
    # Zen and Prescott, whose M and theta* differ (ROADMAP.md, item 1);
    # metrics reach 1e197 where runs diverge
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--task", "mrp(10,3,0.1)", "--repr", "tabular", "--paper-grid",
        "--runs", "2", "--steps", str(steps), "--seed", str(seed), "--out", str(out),
    ]) == 0
    _, body = out.read_text().split("\n", 1)
    counts = {}
    for row in body.splitlines()[1:]:
        variant, *_, runs_diverged = row.split(",")
        if runs_diverged != "0":
            counts[variant] = counts.get(variant, 0) + 1
    assert counts == diverged
    assert hashlib.sha256(body.encode()).hexdigest() == digest


def test_figures_fig4_csv_body_is_pinned(tmp_path):
    # tabular (one-hot), binary and random-normalized sweeps through
    # best_per_lambda: 85 binary cells with diverged runs, 75 of them
    # ineligible, and the se column; taken on OpenBLAS's SkylakeX kernel,
    # like the tabular sweep pins above
    out = tmp_path / "fig4.csv"
    assert main(["figures", "--figure", "4", "--runs", "5", "--seed", "20260811",
                 "--out", str(out)]) == 0
    _, body = out.read_text().split("\n", 1)
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "2bf995b8b5f3760931d2c777ffa270eecb34994bcfac343ea1387f2e043fd47d"
    )


@pytest.mark.parametrize("figure, params", [
    (1, {"seed": 4}),
    (2, {"runs": 2, "seed": 4}),
    (3, {}),
    (4, {"runs": 2, "steps": 3, "seed": 4}),
])
def test_figure_manifest_names_only_the_flags_it_reads(figure, params, tmp_path):
    out = tmp_path / "fig.csv"
    assert main(["figures", "--figure", str(figure), "--runs", "2", "--steps", "3",
                 "--seed", "4", "--out", str(out)]) == 0
    manifest = json.loads(out.read_text().split("\n", 1)[0][len("# manifest="):])
    assert manifest["params"] == {"figure": figure, **params}


def test_figure_1_file_does_not_depend_on_flags_it_ignores(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["figures", "--figure", "1", "--runs", "1", "--steps", "1", "--out", str(a)]) == 0
    assert main(["figures", "--figure", "1", "--runs", "7", "--steps", "9", "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()


# SHA-256 of `verify --suite all --trials 60` stdout as tdlab 0.2.0 prints it,
# since every control step updates the pair the behavior took;
# a change that moves any certified difference must declare it
PINNED_VERIFY_STDOUT = {
    0: "c4390eff41617587cda31a182f3a0770d019049208e91574835cf3e96d2fc3d9",
    1: "1d7b22d4899ad4a467594d19e6984b4741ac6ebb1af7c5b7abe5340e452e3459",
    2: "f35887c1c742fef9c7b5c3c921bec1de6a58ece19758cac493caa8eafd4b50fd",
}


@pytest.mark.parametrize("seed", sorted(PINNED_VERIFY_STDOUT))
def test_verify_stdout_is_pinned(capsys, seed):
    assert main(["verify", "--suite", "all", "--trials", "60", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_VERIFY_STDOUT[seed]


def test_verify_still_reports_the_oracle_precision_failure(capsys):
    # the float forward-view oracle, not the learner, is off at this trial
    # (ROADMAP.md, item 3); the pool must report it as one process does
    assert main(["verify", "--suite", "equivalence", "--trials", "96", "--seed", "13"]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "FAIL equivalence trial 96/96 [true-online-vs-oracle]: alpha=1.582 lambda=0.481 "
        "steps=120 max_rel_diff=1.295e-06 (tol 1e-08)",
        "verify equivalence: 95/96 checks passed",
    ]


def test_figures_unknown_id():
    with pytest.raises(SystemExit) as exc:
        main(["figures", "--figure", "9"])
    assert exc.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--repr", "nonsense"])
    assert exc.value.code == 2


SMALL_SWEEP = ["sweep", "--task", "mrp(4,2,0.1)", "--variants", "true-online",
               "--lambdas", "0.5", "--steps", "5"]


def test_sweep_unbuildable_variant_is_config_error(capsys):
    for variant in ("tabular-true-online", "true-online-alpha-t"):
        assert main(SMALL_SWEEP + ["--alphas", "0.1", "--variants", variant]) == 2
        err = capsys.readouterr().err
        assert f"unknown variant {variant!r}" in err
        assert str(PREDICTION_VARIANTS) in err
        assert variant not in PREDICTION_VARIANTS


@pytest.mark.parametrize("alphas", ["nan", "-0.1"])
def test_sweep_invalid_alpha_is_config_error(alphas, capsys):
    assert main(SMALL_SWEEP + ["--alphas", alphas]) == 2
    assert "alpha must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("name, alphas, lambdas", [
    ("alpha", "0.3,0.1", "0.5"),
    ("alpha", "0.1 0.1", "0.5"),
    ("lambda", "0.1", "0.9,0.5"),
    ("lambda", "0.1", "0.5 0.5"),
])
def test_sweep_unsorted_or_duplicate_grid_is_config_error(name, alphas, lambdas, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    args = SMALL_SWEEP + ["--alphas", alphas, "--lambdas", lambdas, "--out", str(out)]
    assert main(args) == 2
    assert f"{name} grid must be ascending without duplicates" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (SMALL_SWEEP + ["--alphas", "0.1 x"], "malformed grid '0.1 x'"),
    (SMALL_SWEEP + ["--alphas", "0.1", "--lambdas", "0.5,,y"], "malformed grid '0.5,,y'"),
    (SMALL_SWEEP + ["--alphas", "0.1", "--task", "mrp(10,3,1..2)"],
     "malformed sigma in 'mrp(10,3,1..2)'"),
    (SMALL_SWEEP + ["--alphas", "0.1", "--task", "mrp(10,3,1e999)"],
     "sigma must be finite and >= 0"),
    (SMALL_SWEEP + ["--alphas", "0.1", "--variants", ""],
     "variant list must be non-empty without repeats, got ()"),
    (SMALL_SWEEP + ["--alphas", "0.1", "--variants", "true-online,true-online"],
     "variant list must be non-empty without repeats, got ('true-online', 'true-online')"),
    (["gen-mrp", "--k", "3", "--b", "2", "--sigma", "inf"], "sigma must be finite and >= 0"),
    (["gen-mrp", "--k", "3", "--b", "2", "--sigma", "nan"], "sigma must be finite and >= 0"),
])
def test_malformed_number_or_list_is_config_error(args, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()


def test_config_values_coerced_through_flag_types(tmp_path):
    cfg, out1, out2 = tmp_path / "cfg.json", tmp_path / "a.csv", tmp_path / "b.csv"
    cfg.write_text(json.dumps({"format": "tdlab-config", "version": 1,
                               "params": {"runs": "2", "gamma": "0.9"}}))
    assert main(SMALL_SWEEP + ["--alphas", "0.1", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(SMALL_SWEEP + ["--alphas", "0.1", "--runs", "2", "--gamma", "0.9",
                               "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize("params", [{"runs": "two"}, {"runs": 2.5}, {"paper_grid": "yes"},
                                    {"weighting": "nonsense"}])
def test_config_value_of_wrong_type_is_config_error(params, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "tdlab-config", "version": 1, "params": params}))
    assert main(SMALL_SWEEP + ["--alphas", "0.1", "--config", str(cfg)]) == 2
    assert "config value" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["task", "variants", "runs", "seed", "gamma", "weighting"])
def test_config_null_leaves_the_flag_at_its_default(key, tmp_path):
    cfg, out1, out2 = tmp_path / "cfg.json", tmp_path / "a.csv", tmp_path / "b.csv"
    cfg.write_text(json.dumps({"format": "tdlab-config", "version": 1, "params": {key: None}}))
    assert main(SMALL_SWEEP + ["--alphas", "0.1", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(SMALL_SWEEP + ["--alphas", "0.1", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


@pytest.mark.parametrize("workers", [0, -3, (os.cpu_count() or 1) + 1])
def test_sweep_workers_bounded_before_any_pool(workers, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool process was started")

    monkeypatch.setattr(harness, "Process", no_pool)
    config = SweepConfig(env="mrp(4,2,0.1)", representation="tabular", variants=("true-online",),
                         alphas=(0.1,), lambdas=(0.5,), steps=5, runs=1, master_seed=0)
    with pytest.raises(ConfigError, match="workers"):
        run_sweep(config, workers=workers)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_cli_workers_out_of_range(workers, capsys):
    assert main(SMALL_SWEEP + ["--alphas", "0.1", "--workers", workers]) == 2
    assert "workers must lie in" in capsys.readouterr().err


def test_explicit_flag_equal_to_its_default_beats_config(tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "a.csv"
    cfg.write_text(json.dumps({"format": "tdlab-config", "version": 1,
                               "params": {"runs": 2, "steps": 7}}))
    # 50 is the --runs default; the config still fills the unset --steps
    assert main(SMALL_SWEEP[:-2] + ["--alphas", "0.1", "--runs", "50", "--config", str(cfg),
                                    "--out", str(out)]) == 0
    first, _, row = out.read_text().strip().split("\n")
    params = json.loads(first[len("# manifest="):])["params"]
    assert (params["runs"], params["steps"]) == (50, 7)
    assert row.split(",")[5] == "50"


# valid sweep flag values, small enough that a paper-grid sweep stays fast
MERGE_VALUES = {
    "task": st.builds("mrp({},{},{})".format, st.integers(3, 6), st.integers(2, 3),
                      st.sampled_from([0.0, 0.1, 1.0])),
    "repr": st.sampled_from(REPRESENTATION_KINDS),
    "variants": st.sampled_from(["true-online", "accumulate", "accumulate,true-online"]),
    "paper_grid": st.booleans(),
    "alphas": st.sampled_from(["0.1", "0.05,0.2"]),
    "lambdas": st.sampled_from(["0.5", "0 0.9"]),
    "runs": st.integers(1, 2),
    "steps": st.integers(1, 5),
    "seed": st.integers(0, 2**64 - 1),
    "gamma": st.floats(0.0, 0.99),
    "weighting": st.sampled_from(["stationary", "uniform"]),
    "workers": st.just(1),
}
SIZED = ("alphas", "lambdas", "runs", "steps")  # never left to the 50 x 100 defaults
CONFIG_FORMS = (
    lambda p: {"format": "tdlab-config", "version": 1, "params": p},
    lambda p: {"format": "tdlab-config", "version": 1, **p},
    lambda p: {"tool": "tdlab", "version": __version__, "command": "sweep", "params": p},
)


def as_flags(values):
    """Sweep flags for `values`; --paper-grid is given when its value is true."""
    flags = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if key != "paper_grid":
            flags.append(f"{flag}={value}")
        elif value:
            flags.append(flag)
    return flags


@given(
    st.fixed_dictionaries({}, optional={**MERGE_VALUES, "paper_grid": st.just(True)}),
    st.fixed_dictionaries(
        {key: MERGE_VALUES[key] for key in SIZED},
        optional={key: st.none() | s for key, s in MERGE_VALUES.items() if key not in SIZED},
    ),
    st.sampled_from(CONFIG_FORMS),
)
@settings(max_examples=20, deadline=None)
def test_config_values_are_the_defaults_of_the_flags_not_typed(typed, config, form):
    merged = {**{k: v for k, v in config.items() if v is not None}, **typed}
    if merged.get("paper_grid"):  # --paper-grid excludes the grid flags
        typed = {k: v for k, v in typed.items() if k not in ("alphas", "lambdas")}
        config = {**config, "alphas": None, "lambdas": None}
        merged = {k: v for k, v in merged.items() if k not in ("alphas", "lambdas")}
    with tempfile.TemporaryDirectory() as directory:
        cfg, out1, out2 = (os.path.join(directory, name) for name in ("c.json", "a.csv", "b.csv"))
        with open(cfg, "w") as fh:
            json.dump(form(config), fh)
        assert main(["sweep", *as_flags(typed), "--config", cfg, "--out", out1]) == 0
        assert main(["sweep", *as_flags(merged), "--out", out2]) == 0
        with open(out1) as a, open(out2) as b:
            assert a.read() == b.read()


def test_every_representation_has_default_variants():
    assert set(harness.DEFAULT_VARIANTS) == set(REPRESENTATION_KINDS)
    for variants in harness.DEFAULT_VARIANTS.values():
        assert set(variants) <= set(PREDICTION_VARIANTS)


@pytest.mark.parametrize("rep, variants", [
    ("tabular", "accumulate,replace,true-online"),
    ("binary", "accumulate,replace,true-online"),
    ("random-normalized", "accumulate,true-online"),
])
def test_sweep_runs_the_variants_its_representation_supports(rep, variants, tmp_path):
    out = tmp_path / "a.csv"
    assert main(["sweep", "--repr", rep, "--alphas", "0.1", "--lambdas", "0.5", "--runs", "1",
                 "--steps", "5", "--out", str(out)]) == 0
    manifest, _, *rows = out.read_text().strip().split("\n")
    assert json.loads(manifest[len("# manifest="):])["params"]["variants"] == variants
    assert [row.split(",")[0] for row in rows] == variants.split(",")
    # the manifest replays to the same bytes
    cfg, replay = tmp_path / "m.json", tmp_path / "b.csv"
    cfg.write_text(manifest[len("# manifest="):])
    assert main(["sweep", "--config", str(cfg), "--out", str(replay)]) == 0
    assert replay.read_text() == out.read_text()


def test_explicit_replace_on_non_binary_features_is_refused(tmp_path, capsys):
    out = tmp_path / "a.csv"
    assert main(["sweep", "--repr", "random-normalized", "--variants", "replace", "--alphas", "0.1",
                 "--lambdas", "0.5", "--runs", "1", "--steps", "5", "--out", str(out)]) == 2
    assert "replacing traces require binary features" in capsys.readouterr().err
    assert not out.exists()


def test_config_is_validated_whole(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "a.csv"
    cfg.write_text(json.dumps({"format": "tdlab-config", "version": 1, "params": {"runs": "two"}}))
    # the typed --runs wins, yet the file's malformed runs is still refused
    assert main(SMALL_SWEEP + ["--alphas", "0.1", "--runs", "2", "--config", str(cfg),
                               "--out", str(out)]) == 2
    assert "config value for runs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("payload, versions", [
    ({"tool": "tdlab", "version": "0.1.0", "command": "sweep", "params": {}},
     ["'0.1.0'", f"tdlab {__version__}"]),
    ({"tool": "other", "version": __version__, "command": "sweep", "params": {}},
     ["'other'", f"tdlab {__version__}"]),
    ({"format": "tdlab-config", "version": 99, "params": {}}, ["version 99", "version 1"]),
])
def test_config_refuses_a_file_of_another_tool_or_version(payload, versions, tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "a.csv"
    cfg.write_text(json.dumps(payload))
    assert main(SMALL_SWEEP + ["--alphas", "0.1", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg} ") and all(v in err for v in versions)
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--figure", "1", "--runs", "-3"],
    ["--figure", "3", "--steps", "-5"],
    ["--figure", "2", "--workers", "0"],
    ["--figure", "1", "--workers", str((os.cpu_count() or 1) + 1)],
])
def test_figures_rejects_every_invalid_size_flag(args, tmp_path, capsys):
    out = tmp_path / "fig.csv"
    assert main(["figures", *args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err and not out.exists()


def test_gen_mrp_empty_out_path_is_config_error(capsys):
    assert main(["gen-mrp", "--k", "3", "--b", "2", "--sigma", "0", "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def _env_payload(**overrides):
    from tdlab.envs import generate_mrp, mrp_to_dict

    return {**mrp_to_dict(generate_mrp(4, 2, 0.1, 0.9, seed=1)), **overrides}


def _write_bad_file(tmp_path, case):
    """A path whose contents the named case spoils; a directory for 'directory'."""
    path = tmp_path / "input.json"
    if case == "directory":
        path.mkdir()
    elif case == "malformed-json":
        path.write_text('{"format": ')
    elif case == "json-list":
        path.write_text("[1, 2]")
    elif case == "missing-key":
        data = _env_payload()
        del data["r_mean"]
        path.write_text(json.dumps(data))
    elif case == "bad-initial":
        path.write_text(json.dumps(_env_payload(initial=99)))
    elif case == "infinite-sigma":
        path.write_text(json.dumps(_env_payload(sigma=float("inf"))))  # writes Infinity
    elif case == "params-not-object":
        path.write_text(json.dumps({"format": "tdlab-config", "version": 1, "params": [1]}))
    return path


@pytest.mark.parametrize("case", ["malformed-json", "json-list", "directory", "missing-key",
                                  "bad-initial", "infinite-sigma"])
def test_bad_env_file_is_config_error(case, tmp_path, capsys):
    path = _write_bad_file(tmp_path, case)
    assert main(SMALL_SWEEP + ["--alphas", "0.1", "--task", f"file:{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: env file ") and str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("case", ["malformed-json", "json-list", "directory", "params-not-object"])
def test_bad_config_file_is_config_error(case, tmp_path, capsys):
    path = _write_bad_file(tmp_path, case)
    assert main(SMALL_SWEEP + ["--alphas", "0.1", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


def test_sweep_config_refuses_another_commands_manifest(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "tool": "tdlab", "version": "0.2.0", "command": "figures",
        "params": {"figure": 1, "runs": 2, "steps": 5, "seed": 3},
    }))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--alphas", "0.1", "--lambdas", "0.5", "--variants", "true-online",
                 "--config", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'figures'" in err and "'sweep'" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--task", "random-walk-10", "--weighting", "uniform", "--steps", "5"],
    ["--task", "random-walk-10", "--weighting", "uniform", "--steps", "100"],
    ["--task", "random-walk-10", "--steps", "100"],
    ["--task", "one-state", "--weighting", "uniform"],
    ["--task", "EPISODIC_FILE"],
])
def test_sweep_rejects_episodic_chains(extra, tmp_path, capsys):
    from tdlab.envs import canonical_task, mrp_to_dict

    episodic = tmp_path / "episodic.json"
    episodic.write_text(json.dumps(mrp_to_dict(canonical_task("random-walk-10")[0])))
    extra = [f"file:{episodic}" if arg == "EPISODIC_FILE" else arg for arg in extra]
    out = tmp_path / "sweep.csv"
    assert main(SMALL_SWEEP + ["--alphas", "0.1", "--out", str(out)] + extra) == 2
    assert "error: sweeps need a continuing chain" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_out_path_is_config_error(tmp_path, capsys):
    assert main(SMALL_SWEEP + ["--alphas", "0.1", "--out", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err


# every suite checks --trials, as figures check --runs and --steps even
# where they do not read them; closed-forms --trials 0 once exited 0
@pytest.mark.parametrize("suite", ["equivalence", "all", "closed-forms", "propositions", "theorem1"])
@pytest.mark.parametrize("trials", ["-1", "0"])
def test_verify_rejects_non_positive_trials(suite, trials, capsys):
    assert main(["verify", "--suite", suite, "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: trials must be an integer >= 1, got {trials}\n"
    assert captured.out == ""


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_figure_2_rejects_runs_below_one(runs, tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert main(["figures", "--figure", "2", "--runs", runs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: runs must be an integer >= 1, got {runs}")
    assert "Traceback" not in err and not out.exists()


def test_sweep_refuses_an_env_file_with_a_nan_reward(tmp_path, capsys):
    # once accepted: the sweep exited 0 with metric_mean nan and every run diverged
    env = tmp_path / "env.json"
    assert main(["gen-mrp", "--k", "5", "--b", "2", "--sigma", "0.1", "--gamma", "0.9",
                 "--seed", "3", "--out", str(env)]) == 0
    data = json.loads(env.read_text())
    data["r_mean"][2] = [float("nan")] * 5
    env.write_text(json.dumps(data))  # json writes the literal NaN
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--task", f"file:{env}", "--alphas", "0.1", "--lambdas", "0.5",
                 "--runs", "2", "--steps", "20", "--variants", "true-online",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "expected rewards must be finite: states [2]" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("gamma_flag", [[], ["--gamma", "0.5"]])
def test_sweep_manifest_records_the_gamma_of_an_env_file(gamma_flag, tmp_path):
    env = tmp_path / "env.json"
    assert main(["gen-mrp", "--k", "5", "--b", "2", "--sigma", "0.1", "--gamma", "0.9",
                 "--seed", "3", "--out", str(env)]) == 0
    out, replay = tmp_path / "sweep.csv", tmp_path / "replay.csv"
    assert main(["sweep", "--task", f"file:{env}", "--variants", "true-online",
                 "--alphas", "0.2", "--lambdas", "0.5", "--runs", "2", "--steps", "10",
                 "--out", str(out)] + gamma_flag) == 0
    text = out.read_text()
    manifest = json.loads(text.split("\n")[0][len("# manifest="):])
    assert manifest["params"]["gamma"] == 0.9
    cfg = tmp_path / "manifest.json"
    cfg.write_text(json.dumps(manifest))
    assert main(["sweep", "--config", str(cfg), "--out", str(replay)]) == 0
    assert replay.read_text() == text


SEEDED = {
    "gen-mrp": ["gen-mrp", "--k", "3", "--b", "2", "--sigma", "0.1"],
    "sweep": SMALL_SWEEP + ["--alphas", "0.1", "--runs", "1"],
    "verify": ["verify", "--suite", "closed-forms"],
    "figures": ["figures", "--figure", "4", "--runs", "1", "--steps", "5"],
}


@pytest.mark.parametrize("command", SEEDED)
@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seed_outside_u64_is_config_error(command, seed, monkeypatch, capsys):
    assert main(SEEDED[command] + [f"--seed={seed}"]) == 2
    assert f"error: --seed must be in [0, 2^64), got {seed}" in capsys.readouterr().err
    monkeypatch.setenv("TDLAB_SEED", str(seed))
    assert main(SEEDED[command]) == 2
    assert f"error: TDLAB_SEED must be in [0, 2^64), got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize("command", SEEDED)
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_bounds_are_accepted(command, seed, monkeypatch, capsys):
    assert main(SEEDED[command] + [f"--seed={seed}"]) == 0
    monkeypatch.setenv("TDLAB_SEED", str(seed))
    assert main(SEEDED[command]) == 0
    assert "error" not in capsys.readouterr().err
