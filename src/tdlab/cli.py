"""Command-line entry point: environment generation, sweeps, verification,
and figure-data export.

Environment files are JSON with the envelope fields `format` (tdlab-mrp),
`version` (1), and the payload keys `k`, `b`, `sigma`, `gamma`, `P`,
`r_mean`, `terminal_states`, `initial`, `name`, plus the `manifest` that
produced the file. `sweep --task file:PATH` loads one through
`harness.resolve_env`, like every other --task form. Config files passed
via --config use the same envelope with format tdlab-config, version 1,
and flag names as keys. A config value becomes its flag's default, so a
flag typed on the command line beats it; a null value leaves its flag at
the default, and a key naming no flag is ignored. The file is validated
whole: a malformed value is refused even where a typed flag overrides
it. An input file that cannot be read or parsed is a configuration error
naming the file. The environment variable TDLAB_SEED, when set,
overrides any seed. A seed outside [0, 2^64), from either source, is a
configuration error.

Every emitted artifact embeds its manifest (a JSON object holding the
tool name and version, the subcommand, and the parameters the artifact
depends on, the master seed among them: a figure's manifest names only
the flags that figure reads). `sweep --config` replays a sweep's
manifest, byte for byte while a `file:` env is unchanged. It refuses a
manifest of another subcommand, of another tool, or of another tdlab
version, and a tdlab-config file of another format version. CSV outputs carry the
manifest as a leading `# manifest=` comment line followed by the
documented header row.

Exit codes: 0 success, 1 check failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .algos import PREDICTION_VARIANTS
from .core import ConfigError, check_integer, check_seed, read_json_object
from .envs import REPRESENTATION_KINDS, generate_mrp, mrp_to_dict
from .harness import (
    DEFAULT_VARIANTS,
    SweepConfig,
    check_workers,
    paper_alpha_grid,
    paper_lambda_grid,
    run_sweep,
    sweep_to_csv,
    table_to_csv,
    usable_cpus,
)
from .figures import (
    mrp_best_lambda_curves,
    one_state_step_size_curve,
    random_walk_learning_curves,
    two_state_asymptote_curves,
)
from . import verify as verify_suites

CONFIG_FORMAT = "tdlab-config"
CONFIG_VERSION = 1


def _manifest(command: str, params: dict) -> dict:
    return {"tool": "tdlab", "version": __version__, "command": command, "params": params}


def _manifest_line(manifest: dict) -> str:
    return "# manifest=" + json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_config_file(path: str, command: str) -> dict:
    data = read_json_object(path)
    if data.get("format") == CONFIG_FORMAT:
        if data.get("version") != CONFIG_VERSION:
            raise ConfigError(f"{path} is tdlab-config version {data.get('version')!r}, "
                              f"this tdlab reads version {CONFIG_VERSION}")
        flat = {k: v for k, v in data.items() if k not in ("format", "version")}
        params = data.get("params", flat)
    elif data.get("command") is not None and "params" in data:
        if (data.get("tool"), data.get("version")) != ("tdlab", __version__):
            raise ConfigError(f"{path} is a manifest of {data.get('tool')!r} version "
                              f"{data.get('version')!r}, not of tdlab {__version__}")
        if data["command"] != command:  # a bare manifest replays its own command only
            raise ConfigError(f"{path} is a {data['command']!r} manifest, not a {command!r} one")
        params = data["params"]
    else:
        raise ConfigError(f"{path} is not a tdlab-config file or manifest")
    if not isinstance(params, dict):
        raise ConfigError(f"{path}: params must be a JSON object")
    return params


def _coerce(action: argparse.Action, value):
    """A config-file value as the flag's argparse type would parse it."""
    if action.nargs == 0:  # store_true flags take a JSON boolean
        if not isinstance(value, bool):
            raise ConfigError(
                f"config value for {action.dest} must be true or false, got {value!r}"
            )
        return value
    try:
        value = (action.type or str)(str(value))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config value for {action.dest}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise ConfigError(
            f"config value for {action.dest} must be one of {list(action.choices)}"
        )
    return value


def _config_defaults(args: argparse.Namespace, sweep: argparse.ArgumentParser) -> dict:
    """The --config file's values as defaults for `sweep`'s flags, each
    checked as its flag would be; null values and keys naming no flag
    are left out."""
    actions = {a.dest: a for a in sweep._actions if hasattr(args, a.dest)}
    defaults = {}
    for key, value in _load_config_file(args.config, args.command).items():
        dest = key.replace("-", "_")
        if value is not None and dest in actions:
            defaults[dest] = _coerce(actions[dest], value)
    return defaults


def _resolve_seed(seed: int) -> int:
    """The master seed: TDLAB_SEED when set, else the flag, in [0, 2^64)."""
    env = os.environ.get("TDLAB_SEED")
    source = "--seed"
    if env is not None:
        source = "TDLAB_SEED"
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"TDLAB_SEED must be an integer, got {env!r}") from exc
    check_seed(seed, source)
    return seed


def _parse_variants(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"malformed grid {text!r}: {exc}") from exc


def cmd_gen_mrp(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    mrp = generate_mrp(k=args.k, b=args.b, sigma=args.sigma, gamma=args.gamma, seed=seed)
    payload = mrp_to_dict(mrp)
    payload["manifest"] = _manifest("gen-mrp", {
        "k": args.k, "b": args.b, "sigma": args.sigma, "gamma": args.gamma, "seed": seed,
    })
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    import hashlib  # here, not at the top: it loads OpenSSL, which no other command needs

    checksum = hashlib.sha256(text.encode()).hexdigest()
    _write_text(args.out, text)
    print(
        f"gen-mrp: k={args.k} b={args.b} sigma={args.sigma:g} gamma={args.gamma:g} "
        f"seed={seed} sha256={checksum[:16]}",
        file=sys.stderr,
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    if args.paper_grid:
        if args.alphas is not None or args.lambdas is not None:
            raise ConfigError("--paper-grid excludes --alphas and --lambdas")
        alphas, lambdas = paper_alpha_grid(), paper_lambda_grid()
    else:
        if not args.alphas or not args.lambdas:
            raise ConfigError("pass --paper-grid or both --alphas and --lambdas")
        alphas, lambdas = _parse_grid(args.alphas), _parse_grid(args.lambdas)
    variants = args.variants
    if variants is None:  # neither typed nor in a config file
        variants = ",".join(DEFAULT_VARIANTS[args.repr])
    config = SweepConfig(
        env=args.task,
        representation=args.repr,
        variants=_parse_variants(variants),
        alphas=alphas,
        lambdas=lambdas,
        steps=args.steps,
        runs=args.runs,
        master_seed=seed,
        gamma=args.gamma,
        weighting=args.weighting,
    )
    result = run_sweep(config, workers=args.workers)
    manifest = _manifest("sweep", {
        "task": args.task, "repr": args.repr, "variants": variants,
        "paper_grid": args.paper_grid, "alphas": args.alphas, "lambdas": args.lambdas,
        "steps": args.steps, "runs": args.runs, "seed": seed, "gamma": result.config.gamma,
        "weighting": args.weighting,
    })
    _write_text(args.out, _manifest_line(manifest) + sweep_to_csv(result))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    # the worker count changes no output byte, so it is not a flag
    checks = verify_suites.run_suite(
        args.suite, trials=args.trials, seed=seed, workers=usable_cpus()
    )
    failures = 0
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
        failures += 0 if check.passed else 1
    print(f"verify {args.suite}: {len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def cmd_figures(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    check_integer(args.runs, "runs", low=1)
    check_integer(args.steps, "steps", low=1)
    check_workers(args.workers)
    if args.figure == 1:
        table, reads = random_walk_learning_curves(seed=seed), ("seed",)
    elif args.figure == 2:
        table, reads = one_state_step_size_curve(runs=args.runs, seed=seed), ("runs", "seed")
    elif args.figure == 3:
        table, reads = two_state_asymptote_curves(), ()
    elif args.figure == 4:
        table = mrp_best_lambda_curves(
            runs=args.runs, steps=args.steps, master_seed=seed, workers=args.workers
        )
        reads = ("runs", "steps", "seed")
    else:
        raise ConfigError(f"unknown figure id {args.figure}")
    flags = {"runs": args.runs, "steps": args.steps, "seed": seed}
    # the manifest names the flags this figure reads, so one artifact has one manifest
    manifest = _manifest("figures", {"figure": args.figure, **{k: flags[k] for k in reads}})
    _write_text(args.out, _manifest_line(manifest) + table_to_csv(table))
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The CLI parser and its sweep subparser, whose defaults --config sets."""
    parser = argparse.ArgumentParser(
        prog="tdlab",
        description="TD(lambda) family benchmarks: generate environments, run sweeps, "
        "verify exactness properties, export figure data.",
    )
    parser.add_argument("--version", action="version", version=f"tdlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-mrp", help="generate a random MRP environment file")
    g.add_argument("--k", type=int, required=True, help="number of states")
    g.add_argument("--b", type=int, required=True, help="branching factor")
    g.add_argument("--sigma", type=float, required=True, help="reward standard deviation")
    g.add_argument("--gamma", type=float, default=0.99)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default=None, help="output file (default: stdout)")
    g.set_defaults(func=cmd_gen_mrp)

    s = sub.add_parser("sweep", help="parameter scan over (variant, alpha, lambda)")
    s.add_argument("--task", default="mrp(10,3,0.1)",
                   help="a continuing chain: mrp(k,b,sigma) or file:PATH")
    s.add_argument("--repr", default="tabular", choices=REPRESENTATION_KINDS)
    s.add_argument("--variants", default=None,
                   help=f"comma-separated, of {', '.join(PREDICTION_VARIANTS)} "
                        "(default: every variant --repr supports)")
    s.add_argument("--paper-grid", action="store_true",
                   help="use the benchmark alpha/lambda grids")
    s.add_argument("--alphas", default=None, help="space- or comma-separated step-sizes")
    s.add_argument("--lambdas", default=None, help="space- or comma-separated trace decays")
    s.add_argument("--runs", type=int, default=50)
    s.add_argument("--steps", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--gamma", type=float, default=0.99,
                   help="discount of an mrp(k,b,sigma) task; a file: env keeps its own")
    s.add_argument("--weighting", default="stationary", choices=["stationary", "uniform"])
    s.add_argument("--workers", type=int, default=1, help="worker processes, 1 to the usable CPU count")
    s.add_argument("--out", default=None, help="output CSV (default: stdout)")
    s.add_argument("--config", default=None, help="JSON config/manifest file")
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run exactness and property check suites")
    v.add_argument("--suite", required=True,
                   choices=["equivalence", "theorem1", "closed-forms", "propositions", "all"])
    v.add_argument("--trials", type=int, default=100, help="randomized equivalence trials")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    f = sub.add_parser("figures", help="emit the data behind a benchmark figure")
    f.add_argument("--figure", type=int, required=True, choices=[1, 2, 3, 4])
    f.add_argument("--runs", type=int, default=None)
    f.add_argument("--steps", type=int, default=100)
    f.add_argument("--seed", type=int, default=1)
    f.add_argument("--workers", type=int, default=1, help="worker processes, 1 to the usable CPU count")
    f.add_argument("--out", default=None, help="output CSV (default: stdout)")
    f.set_defaults(func=cmd_figures)

    return parser, s


def main(argv: list[str] | None = None) -> int:
    parser, sweep = build_parser()
    args = parser.parse_args(argv)
    try:
        # an empty path is a path too; argv is parsed again, so a typed flag beats the file
        if getattr(args, "config", None) is not None:
            sweep.set_defaults(**_config_defaults(args, sweep))
            args = parser.parse_args(argv)
        if args.command == "figures" and args.runs is None:
            args.runs = 200 if args.figure == 2 else 50
        return args.func(args)
    except (ConfigError, OSError) as exc:  # OSError: an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
