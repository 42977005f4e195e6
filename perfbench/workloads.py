"""The benchmark's workloads, their inputs and their output checks.

Every workload is one `tdlab` CLI command, run closed-loop: one command
at a time, the next only after the previous one exits.

Inputs come from the benchmark seed through a pool of POOL_SIZE command
seeds per workload, starting at the workload's default seed. A run's
commands walk through the pool: the k-th command of a run with benchmark
seed n uses pool entry (n * POOL_STRIDE + k) mod POOL_SIZE, so one run
averages over several inputs. The output of every pool seed was recorded
at the seed commit in `reference.json` (`pin.py` rewrites it), so each
command's output is checked against a pinned reference byte for byte,
whatever benchmark seed the run was given.
"""

from __future__ import annotations

import base64
import hashlib
import re
from dataclasses import dataclass

POOL_SIZE = 16
# Benchmark seeds n and n+1 start POOL_STRIDE apart in the pool; coprime
# with POOL_SIZE, so the first 16 benchmark seeds start at 16 different inputs.
POOL_STRIDE = 7

# Run sizes. One paper-grid sweep cell is alphas x lambdas = 31 x 21 = 600.
PAPER_GRID_CELLS = 600
SWEEP_RUNS = 1
SWEEP_STEPS = 100
FIGURE_RUNS = 1
VERIFY_TRIALS = 60
# variants per representation in figure 4: tabular 3, binary 3, random-normalized 2
FIGURE_VARIANTS = {"accumulate": 3, "replace": 2, "true-online": 3}
SWEEP_VARIANTS = ("accumulate", "replace", "true-online")


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    workers: int
    output: str  # "csv" (written to --out) or "verify" (stdout)

    def pool(self) -> list[int]:
        return [self.default_seed + i for i in range(POOL_SIZE)]

    def input_seed(self, bench_seed: int, rep: int) -> int:
        """Command seed of a run's `rep`-th command (0-based)."""
        return self.default_seed + (bench_seed * POOL_STRIDE + rep) % POOL_SIZE

    def cli_args(self, seed: int, out_path: str) -> list[str]:
        if self.name == "sweep-tabular":
            return [
                "sweep", "--task", "mrp(10,3,0.1)", "--repr", "tabular",
                "--variants", ",".join(SWEEP_VARIANTS), "--paper-grid",
                "--steps", str(SWEEP_STEPS), "--runs", str(SWEEP_RUNS), "--workers", "1",
                "--seed", str(seed), "--out", out_path,
            ]
        if self.name == "dominance-2w":
            return [
                "figures", "--figure", "4", "--workers", "2", "--runs", str(FIGURE_RUNS),
                "--steps", str(SWEEP_STEPS), "--seed", str(seed), "--out", out_path,
            ]
        return ["verify", "--suite", "all", "--trials", str(VERIFY_TRIALS), "--seed", str(seed)]

    def nominal_steps(self) -> int:
        """Learner-steps a sweep workload asks for: variants x cells x runs x steps."""
        if self.name == "sweep-tabular":
            return len(SWEEP_VARIANTS) * PAPER_GRID_CELLS * SWEEP_RUNS * SWEEP_STEPS
        if self.name == "dominance-2w":
            return sum(FIGURE_VARIANTS.values()) * PAPER_GRID_CELLS * FIGURE_RUNS * SWEEP_STEPS
        raise ValueError("verify-all counts certified steps from its output")


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-tabular", 0, 1, "csv"),
        Workload("dominance-2w", 20260811, 2, "csv"),  # acceptance criterion 7's seed
        Workload("verify-all", 0, 1, "verify"),
    )
}


# -- output digests -----------------------------------------------------------


def row_hash(row: str) -> bytes:
    return hashlib.blake2b(row.encode(), digest_size=4).digest()


def csv_reference(body: str) -> dict:
    lines = body.splitlines()
    return {
        "sha256": hashlib.sha256(body.encode()).hexdigest(),
        "header": lines[0],
        "rows": len(lines) - 1,
        "row_hashes": base64.b64encode(b"".join(row_hash(r) for r in lines[1:])).decode(),
    }


def split_manifest(text: str) -> tuple[dict | None, str]:
    """(manifest, CSV body below the manifest line); the manifest embeds the
    tool version, so only the body is compared against the reference."""
    import json

    first, _, body = text.partition("\n")
    if not first.startswith("# manifest="):
        return None, text
    try:
        return json.loads(first[len("# manifest="):]), body
    except ValueError:
        return None, body


def check_csv(text: str, ref: dict, seed: int) -> tuple[int, int]:
    """(attempted, failed) with one operation per reference CSV row."""
    attempted = ref["rows"]
    manifest, body = split_manifest(text)
    if manifest is None or manifest.get("params", {}).get("seed") != seed:
        return attempted, attempted
    if hashlib.sha256(body.encode()).hexdigest() == ref["sha256"]:
        return attempted, 0
    lines = body.splitlines()
    if not lines or lines[0] != ref["header"]:
        return attempted, attempted
    expected = base64.b64decode(ref["row_hashes"])
    rows = lines[1:]
    failed = abs(len(rows) - attempted)
    for i, row in enumerate(rows[:attempted]):
        failed += row_hash(row) != expected[4 * i : 4 * i + 4]
    return attempted, max(failed, 1)


_CHECK_LINE = re.compile(r"^(PASS|FAIL) ")
_STEPS = re.compile(r"\bsteps=(\d+)\b")
_SUMMARY = re.compile(r"^verify all: (\d+)/(\d+) checks passed$", re.M)


def verify_summary(stdout: str) -> dict:
    lines = [ln for ln in stdout.splitlines() if _CHECK_LINE.match(ln)]
    certified = 0
    for ln in lines:
        m = _STEPS.search(ln)
        if ln[5:].startswith("equivalence trial") and m:
            certified += int(m.group(1))
    summary = _SUMMARY.search(stdout)
    return {
        "checks": len(lines),
        "failed": sum(1 for ln in lines if ln.startswith("FAIL")),
        "certified_steps": certified,
        "summary": None if summary is None else [int(summary.group(1)), int(summary.group(2))],
    }


def verify_reference(stdout: str) -> dict:
    s = verify_summary(stdout)
    return {"checks": s["checks"], "certified_steps": s["certified_steps"]}


def check_verify(stdout: str, rc: int, ref: dict) -> tuple[int, int, int]:
    """(attempted, failed, certified steps) with one operation per check.

    The reference is exit 0 and `N/N checks passed` with the pinned N; the
    certified step total is pinned too, since it depends only on the inputs.
    """
    n = ref["checks"]
    s = verify_summary(stdout)
    failed = s["failed"] + max(0, n - s["checks"])
    if rc != 0 or s["summary"] != [n, n] or s["certified_steps"] != ref["certified_steps"]:
        failed = max(failed, 1)
    return n, min(failed, n), s["certified_steps"]
