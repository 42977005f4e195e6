"""Record the reference outputs that `run.py` checks against.

    python3 perfbench/pin.py [--workload NAME ...] [--check-unpinned]

Runs every workload command once for each seed of its input pool, in the
same hermetic child environment as the benchmark, and writes the CSV
digests (sweeps and figures) or the check count and certified step total
(verify) to `perfbench/reference.json`. Run it only on the commit whose
outputs are the reference; the file records that commit's outputs, which
later changes must reproduce byte for byte.

--check-unpinned reruns each workload's default seed without the
BLAS/OpenMP thread pin and compares with the stored reference instead of
writing it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from run import HERE, ROOT, child_env, spawn
from workloads import WORKLOADS, check_csv, check_verify, csv_reference, \
    split_manifest, verify_reference

REFERENCE = os.path.join(HERE, "reference.json")
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_once(w, seed: int, env: dict, work: str):
    out_csv = os.path.join(work, "out.csv")
    s = spawn("run", w.cli_args(seed, out_csv), work, 600.0, env)
    if w.output == "verify":
        return s, s.stdout
    with open(out_csv) as fh:
        return s, fh.read()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--check-unpinned", action="store_true")
    args = parser.parse_args()
    names = args.workload or list(WORKLOADS)
    refs = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            refs = json.load(fh)
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="pin-", dir=os.path.join(ROOT, ".perfbench_work"))
    status = 0
    try:
        for name in names:
            w = WORKLOADS[name]
            if args.check_unpinned:
                env = {k: v for k, v in child_env().items() if k not in THREAD_PINS}
                s, text = run_once(w, w.default_seed, env, work)
                ref = refs[name][str(w.default_seed)]
                if w.output == "verify":
                    _, failed, _ = check_verify(text, s.rc, ref)
                else:
                    _, failed = check_csv(text, ref, w.default_seed)
                print(f"{name} seed {w.default_seed} without thread pins: "
                      f"{'identical' if failed == 0 else f'{failed} operations differ'}")
                status |= failed != 0
                continue
            table = {}
            for seed in w.pool():
                s, text = run_once(w, seed, child_env(), work)
                if s.rc != 0:
                    print(f"{name} seed {seed}: exit {s.rc}", file=sys.stderr)
                    return 1
                if w.output == "verify":
                    table[str(seed)] = verify_reference(text)
                else:
                    table[str(seed)] = csv_reference(split_manifest(text)[1])
                print(f"{name} seed {seed}: wall_s={s.wall_s:.3f} {json.dumps(table[str(seed)])[:90]}")
            refs[name] = table
            with open(REFERENCE, "w") as fh:
                json.dump(refs, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
