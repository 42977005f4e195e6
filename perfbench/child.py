"""Launch one tdlab command the way the `tdlab` console script does, with timestamps.

    python perfbench/child.py TIMING_JSON MODE [TRACE_DIR] -- CLI_ARGS...

MODE is `setup` (import `tdlab.cli` and stop), `run` (call `tdlab.cli.main`)
or `trace` (as `run`, with the span recorder installed; spans go to
TRACE_DIR). The CPU-speed probe (`speed.py`) writes its times to
`probes.txt` beside TIMING_JSON: in `setup` right after the import, in
`run` and `trace` while the command runs. TIMING_JSON receives CLOCK_MONOTONIC timestamps in ns: when
`tdlab.cli` finished importing, when the command started and when it
returned, plus its exit code. The parent measures set-up time from just
before the spawn to the import timestamp. Only `sys`, `os` and `time`
are imported before `tdlab.cli`, so set-up time is the program's own.
"""

import os
import sys
import time


def main() -> int:
    timing_path, mode = sys.argv[1], sys.argv[2]
    sep = sys.argv.index("--")
    trace_dir = sys.argv[3] if sep > 3 else None
    cli_args = sys.argv[sep + 1 :]

    import tdlab.cli

    t_import = time.monotonic_ns()
    timing = {"pid": os.getpid(), "t_import": t_import}
    import speed

    import numpy as np  # already imported by tdlab.cli

    probes = os.path.join(os.path.dirname(timing_path), "probes.txt")
    if mode == "setup":
        timing["numpy"] = np.__version__
        speed.probe_now(probes, np, speed.SETUP_PROBES)
        _write(timing_path, timing)
        return 0

    recorder = None
    if mode == "trace":
        import spans

        recorder = spans.install(trace_dir)
    speed.install(probes, np)
    rc = 1
    timing["t_start"] = time.monotonic_ns()
    try:
        rc = tdlab.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        speed.stop()
        timing["t_end"] = time.monotonic_ns()
        timing["rc"] = rc
        if recorder is not None:
            recorder.flush()
        _write(timing_path, timing)
    return rc


def _write(path: str, payload: dict) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
