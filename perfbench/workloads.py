"""The four benchmark workloads: op configs, work units and output checks.

A workload is a fixed op shape.  The benchmark seed only chooses the
program seed of each op, so every run does the same amount of work and
the same seed always gives the same artifact bytes.  Checks read only
public functions and the written artifacts, never package internals.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Distinct op configs per run.  Timed ops cycle through them, so every
# config is also rerun and its bytes compared with the earlier run.
CONFIGS_PER_RUN = 3


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    shape: dict
    work_per_op: int
    work_unit: str
    why: str
    check: Callable[[list[dict], Path], list[str]]


def read_records(out_dir: Path) -> list[dict]:
    with open(out_dir / "results.json") as f:
        return [json.loads(line) for line in f if line.strip()]


def _by_method(records: list[dict], method: str) -> list[dict]:
    return [r for r in records if r["method"] == method]


def _check_drift(records: list[dict], out_dir: Path) -> list[str]:
    from noisewalk import oracle

    target = float(oracle.drift_free_group_srw(2))
    problems = []
    for label in ("coord1", "coord2"):
        recs = _by_method(records, f"drift-mc-{label}")
        if len(recs) != 1:
            problems.append(f"expected one drift-mc-{label} record, got {len(recs)}")
            continue
        r = recs[0]
        if not abs(r["value"] - target) <= 4 * r["std_error"]:
            problems.append(
                f"{label} drift {r['value']} is more than 4 SE "
                f"({r['std_error']}) from {target}"
            )
    return problems


def _check_dimension(records: list[dict], out_dir: Path) -> list[str]:
    from noisewalk import oracle

    expect = oracle.h_semigroup(2, 0.5)  # semigroup drift is 1 letter per step
    recs = _by_method(records, "local-dimension")
    if len(recs) != 1:
        return [f"expected one local-dimension record, got {len(recs)}"]
    rel = abs(recs[0]["value"] - expect) / expect
    problems = []
    if not rel <= 0.05:
        problems.append(f"local dimension {recs[0]['value']} is {rel:.1%} from {expect}")
    if not (out_dir / "tree.txt").is_file():
        problems.append("tree.txt missing")
    return problems


@functools.cache
def _mu_entropy(n: int) -> float:
    """H(mu^n) of the free-group step, from the brute-force reference."""
    from noisewalk import measures, oracle

    mu = measures.uniform_measure(2)
    return measures.shannon_entropy(oracle.brute_force_convolution(mu, n))


def _check_entropy(records: list[dict], out_dir: Path) -> list[str]:
    levels = _by_method(records, "entropy-exact")
    n_max = ENTROPY_EXACT.shape["n_max"]
    if sorted(r["n"] for r in levels) != list(range(1, n_max + 1)):
        return [f"entropy-exact levels {[r['n'] for r in levels]}"]
    problems = []
    for r in levels:
        if r["details"]["truncated"]:
            problems.append(f"level {r['n']} truncated")
        h_mu = _mu_entropy(r["n"])
        slack = 1e-9 * h_mu
        if not h_mu - slack <= r["value"] <= 2 * h_mu + slack:
            problems.append(
                f"level {r['n']}: H(pi^n) = {r['value']} outside "
                f"[H(mu^n), 2 H(mu^n)] = [{h_mu}, {2 * h_mu}]"
            )
    return problems


def _check_tv(records: list[dict], out_dir: Path) -> list[str]:
    problems = []
    exact = _by_method(records, "tv-exact")
    if len(exact) != TV_POOL.shape["n_exact"]:
        problems.append(f"expected {TV_POOL.shape['n_exact']} tv-exact records")
    for r in exact:
        if not 0 < r["value"] <= 1:
            problems.append(f"exact TV at n={r['n']} is {r['value']}, not in (0, 1]")
    mc = _by_method(records, "tv-lower-mc")
    if len(mc) != 1 or not mc[0]["ci_low"] > 0:
        problems.append(f"Monte Carlo TV lower bound not positive: {mc}")
    return problems


def _free_group_ball_parity_size(k: int) -> int:
    """Support size of the rank-2 simple random walk after k steps."""
    # reduced words of length j <= k with j = k mod 2; |S_0| = 1, |S_j| = 4 3^(j-1)
    return sum(1 if j == 0 else 4 * 3 ** (j - 1) for j in range(k % 2, k + 1, 2))


DRIFT_LONG = Workload(
    name="drift_long",
    subcommand="drift",
    shape={"group": "free_group:2", "rho": 0.5, "n": 10_000, "trials": 1000,
           "workers": 1},
    work_per_op=1000 * 10_000 * 2,
    work_unit="walk steps (trials * n * 2 coordinates)",
    why="few long streams: the walkers stack reduction dominates and "
        "per-trial stream creation is negligible",
    check=_check_drift,
)

DIMENSION_MANY = Workload(
    name="dimension_many",
    subcommand="dimension",
    shape={"group": "free_semigroup:2", "rho": 0.5, "trials": 20_000,
           "horizon": 400, "keep_depth": 30, "t_grid": list(range(1, 31)),
           "centers": 500, "export_tree_depth": 6, "workers": 1},
    work_per_op=20_000,
    work_unit="boundary samples",
    why="many short streams on an inverse-free support: per-trial stream "
        "creation, the inverse-free boundary path, the cylinder tree and tree.txt",
    check=_check_dimension,
)

ENTROPY_EXACT = Workload(
    name="entropy_exact",
    subcommand="entropy",
    shape={"group": "free_group:2", "rho": 0.5, "method": "exact", "n_max": 6,
           "cap": 2_000_000, "workers": 1},
    # the pair law at 0 < rho < 1 has the product of the single supports
    work_per_op=sum(_free_group_ball_parity_size(k) ** 2 for k in range(1, 7)),
    work_unit="pair-convolution atoms summed over levels",
    why="exact pair convolution to n = 6 with a histogram readout: nearly "
        "all time is in the convolution levels",
    check=_check_entropy,
)

TV_POOL = Workload(
    name="tv_pool",
    subcommand="tv",
    shape={"group": "free_group:2", "rho": 0.9, "n": 50, "trials": 20_000,
           "n_exact": 6, "cap": 2_000_000, "threshold_frac": 0.04, "workers": 2},
    work_per_op=1,
    work_unit="commands",
    why="per-atom exact-TV readout plus the Monte Carlo through the 2-worker "
        "process pool on a free group, where words cancel",
    check=_check_tv,
)

WORKLOADS = {w.name: w for w in (DRIFT_LONG, DIMENSION_MANY, ENTROPY_EXACT, TV_POOL)}


def op_seed(workload: str, seed: int, index: int) -> int:
    """Program seed of config ``index`` in a run with benchmark seed ``seed``."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def op_configs(workload: Workload, seed: int) -> list[dict]:
    """The CONFIGS_PER_RUN configs one run cycles through."""
    return [
        {"spec_version": 1, **workload.shape, "seed": op_seed(workload.name, seed, i)}
        for i in range(CONFIGS_PER_RUN)
    ]
