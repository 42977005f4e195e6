"""Generated command lines and --config payloads: every tdlab subcommand
exits 0 or 2 and never ends in a traceback. `verify` may also exit 1, but
only for the known oracle-precision failure of ROADMAP item 3.

Sizes stay small (steps <= 5, runs <= 2, trials <= 2) and --workers stays
within 1..the CPUs the process may use, so no example starts a large pool or a long run.
The sweep's --runs and verify's --trials are sometimes drawn above their caps
(harness.MAX_SWEEP_ROWS, verify.MAX_TRIALS), which must refuse them.
Figure 3 is left out: it takes no size flag, costs about 0.75 s a run,
and test_cli.py runs it already.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from tdlab import __version__
from tdlab.cli import main
from tdlab.harness import MAX_SWEEP_ROWS, usable_cpus
from tdlab.verify import MAX_TRIALS

CPUS = usable_cpus()

JUNK = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e999", "0x10", "1.5", "[]", "None"])


def mostly(valid, bad=JUNK):
    """A value from `valid`, or about one time in sixteen one from `bad`,
    so that a command line of a dozen flags is still often all valid."""
    return st.integers(0, 15).flatmap(lambda i: bad if i == 15 else valid)


SEEDS = mostly(
    st.integers(0, 2**64 - 1).map(str), st.sampled_from(["-1", str(2**64), str(2**70)]) | JUNK
)
WORKERS = st.integers(1, CPUS).map(str)


def floats(lo, hi):
    return mostly(st.floats(lo, hi).map(str), JUNK | st.floats().map(repr))


def ints(lo, hi, cap=None):
    """An integer in [lo, hi], or a bad value: junk, one below 1 or, given a
    cap, one above it."""
    bad = JUNK | st.integers(-2, 0).map(str)
    if cap is not None:
        bad |= st.integers(cap + 1, 10**15).map(str)
    return mostly(st.integers(lo, hi).map(str), bad)


def grid(lo):
    values = st.lists(st.floats(lo, 1.0), min_size=1, max_size=3, unique=True)
    return mostly(values.map(sorted), st.lists(floats(-1.0, 2.0), max_size=3)).map(
        lambda xs: ",".join(map(str, xs))
    )


# branching 2 or 3: a one-successor chain is often periodic, and then
# power iteration gives up (exit 2) only after 200 000 steps, about 2 s
TASKS = mostly(
    st.builds("mrp({},{},{})".format, st.integers(3, 8), st.integers(2, 3), floats(0.0, 1.0)),
    st.sampled_from(["random-walk-10", "bogus", "mrp(a,b,c)", "mrp(4,9,0.1)", "mrp(0,1,0.1)",
                     "file:missing.json"]),
)

SWEEP_VALUES = {
    "task": TASKS,
    "repr": mostly(st.sampled_from(["tabular", "binary", "random-normalized"]), st.just("dense")),
    "variants": st.lists(
        mostly(st.sampled_from(["accumulate", "replace", "true-online"]), st.just("sarsa")),
        max_size=3,
    ).map(",".join),
    "alphas": grid(0.01),
    "lambdas": grid(0.0),
    "runs": ints(1, 2, MAX_SWEEP_ROWS),
    "steps": ints(1, 5),
    "seed": SEEDS,
    "gamma": floats(0.0, 0.99),
    "weighting": mostly(st.sampled_from(["stationary", "uniform"]), st.just("other")),
    "workers": WORKERS,
}


def flags(values: dict, required=()):
    """Some of the flags in `values` (always those in `required`), as --name=value."""
    chosen = st.fixed_dictionaries(
        {name: values[name] for name in required},
        optional={name: s for name, s in values.items() if name not in required},
    )
    return chosen.map(lambda d: [f"--{name}={v}" for name, v in d.items()])


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2), st.floats(-2.0, 2.0), st.text(max_size=4)
)
CONFIG_VALUES = {
    name: mostly(s, JSON_SCALARS | st.lists(JSON_SCALARS, max_size=2))
    for name, s in SWEEP_VALUES.items()
    if name != "workers"
}
CONFIG_VALUES["workers"] = st.integers(1, CPUS) | st.sampled_from(["x", None, 1.5])
CONFIG_VALUES["paper_grid"] = mostly(st.booleans(), JSON_SCALARS)
CONFIG_PARAMS = st.fixed_dictionaries({}, optional={**CONFIG_VALUES, "bogus": JSON_SCALARS})

CONFIG_PAYLOADS = mostly(
    st.one_of(
        CONFIG_PARAMS.map(lambda p: {"format": "tdlab-config", "version": 1, "params": p}),
        CONFIG_PARAMS.map(lambda p: {"format": "tdlab-config", "version": 1, **p}),
        CONFIG_PARAMS.map(
            lambda p: {"tool": "tdlab", "version": __version__, "command": "sweep", "params": p}
        ),
    ),
    st.sampled_from([{"format": "tdlab-config", "params": [1]}, {"format": "other"}, [], 3,
                     {"tool": "tdlab", "version": "0.1.0", "command": "sweep", "params": {}}]),
).map(lambda payload: json.dumps(payload).encode()) | st.sampled_from([b"{", b"", b"\xff"])


def run(argv, env_seed=None, codes=(0, 2)):
    """Run tdlab on argv, with TDLAB_SEED set to env_seed or unset, and
    require an exit code in `codes` and no traceback. Returns the code
    and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        os.environ.pop("TDLAB_SEED", None)
        if env_seed is not None:
            os.environ["TDLAB_SEED"] = env_seed
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in codes, (argv, env_seed, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


ENV_SEEDS = mostly(st.none(), SEEDS)
OUTS = mostly(st.sampled_from([None, "out.csv"]), st.just("missing-dir/out.csv"))


def with_out(argv, out, directory):
    return argv if out is None else argv + [f"--out={os.path.join(directory, out)}"]


@given(
    flags(SWEEP_VALUES, required=("alphas", "lambdas")),
    st.booleans(),
    st.none() | CONFIG_PAYLOADS,
    OUTS,
    ENV_SEEDS,
)
@settings(max_examples=40, deadline=None)
def test_sweep_exits_0_or_2(argv, paper_grid, payload, out, env_seed):
    with tempfile.TemporaryDirectory() as directory:
        argv = ["sweep"] + argv + (["--paper-grid"] if paper_grid else [])
        given_flags = {arg.split("=", 1)[0][2:] for arg in argv[1:]}
        try:
            config = json.loads(payload or b"{}")
        except ValueError:
            config = {}
        params = config.get("params", config) if isinstance(config, dict) else {}
        sized = params if isinstance(params, dict) else {}
        for name, default in (("runs", "1"), ("steps", "5")):  # never the 50 x 100 defaults
            if name not in given_flags and name not in sized:
                argv.append(f"--{name}={default}")
        if payload is not None:
            path = os.path.join(directory, "config.json")
            with open(path, "wb") as fh:
                fh.write(payload)
            argv.append(f"--config={path}")
        run(with_out(argv, out, directory), env_seed)


ORACLE_TRIAL = re.compile(r"FAIL equivalence trial \d+/\d+ \[[a-z-]*oracle[a-z-]*\]: ")


@given(
    flags({"suite": mostly(st.sampled_from(["equivalence", "theorem1", "closed-forms",
                                            "propositions", "all"]), st.just("none")),
           "trials": ints(1, 2, MAX_TRIALS), "seed": SEEDS}, required=("suite", "trials")),
    ENV_SEEDS,
)
@settings(max_examples=15, deadline=None)
def test_verify_exits_0_or_2(argv, env_seed):
    code, out = run(["verify"] + argv, env_seed, codes=(0, 1, 2))
    if code == 1:
        # a few seeds fail an equivalence trial against a float forward-view
        # oracle whose replay amplifies rounding error (e.g. seed 275, trial
        # 1, at alpha 1.865); ROADMAP item 3 mends that. Nothing else may fail.
        failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
        assert failed and all(ORACLE_TRIAL.match(line) for line in failed), out


@given(
    flags({"figure": mostly(st.sampled_from(["1", "2", "4"]), st.sampled_from(["0", "5", "x"])),
           "runs": ints(1, 2), "steps": ints(1, 5), "seed": SEEDS, "workers": WORKERS},
          required=("figure", "runs", "steps")),
    OUTS,
    ENV_SEEDS,
)
@settings(max_examples=20, deadline=None)
def test_figures_exits_0_or_2(argv, out, env_seed):
    with tempfile.TemporaryDirectory() as directory:
        run(with_out(["figures"] + argv, out, directory), env_seed)


@given(
    flags({"k": ints(1, 12), "b": ints(1, 4), "sigma": floats(0.0, 2.0),
           "gamma": floats(0.0, 1.0), "seed": SEEDS}, required=("k", "b", "sigma")),
    OUTS,
    ENV_SEEDS,
)
@settings(max_examples=30, deadline=None)
def test_gen_mrp_exits_0_or_2(argv, out, env_seed):
    with tempfile.TemporaryDirectory() as directory:
        run(with_out(["gen-mrp"] + argv, out, directory), env_seed)
