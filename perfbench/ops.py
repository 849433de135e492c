"""One benchmark op: a user command run in-process, timed and checked.

An op writes its config to a work directory, then runs
``cli.parse_config`` and ``cli.execute`` exactly as the ``noisewalk``
command does, with the artifacts going to ``<work dir>/out``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from workloads import read_records

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# artifacts under the determinism contract; meta.json may differ per run
DIGEST_FILES = ("results.json", "table.csv", "tree.txt")


class MissingPackage(Exception):
    pass


def import_package():
    """Import noisewalk from this checkout's source tree, and nowhere else."""
    if not (SRC / "noisewalk" / "cli.py").is_file():
        raise MissingPackage(f"no noisewalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import noisewalk
    import noisewalk.cli

    if Path(noisewalk.__file__).resolve().parent != SRC / "noisewalk":
        raise MissingPackage(f"noisewalk imported from {noisewalk.__file__}")
    return noisewalk


@dataclass
class OpResult:
    seconds: float
    digest: str
    artifact_bytes: int
    problems: list[str] = field(default_factory=list)


def artifact_digest(out_dir: Path) -> tuple[str, int]:
    """sha256 over the contract artifacts present, and their total size."""
    h = hashlib.sha256()
    size = 0
    for name in DIGEST_FILES:
        path = out_dir / name
        if path.is_file():
            data = path.read_bytes()
            h.update(f"{name} {len(data)}\n".encode())
            h.update(data)
            size += len(data)
    return h.hexdigest(), size


def run_op(workload, config: dict, work_dir: Path, tracer=None) -> OpResult:
    """Run one op; with a tracer, its wrappers are installed for the op only."""
    from noisewalk import cli

    work_dir.mkdir(parents=True, exist_ok=True)
    out_dir = work_dir / "out"
    cfg_path = work_dir / "config.json"
    cfg_path.write_text(json.dumps({**config, "out": str(out_dir)}))
    if tracer is not None:
        tracer.install()
        tracer.op += 1
        root = tracer.open("op")
    try:
        t0 = perf_counter()
        cfg = cli.parse_config(workload.subcommand, str(cfg_path), {})
        cli.execute(cfg)
        seconds = perf_counter() - t0
    except Exception:  # a failed op is counted, and the run goes on
        return OpResult(perf_counter() - t0, "", 0, [traceback.format_exc()])
    finally:
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    digest, size = artifact_digest(out_dir)
    try:
        problems = workload.check(read_records(out_dir), out_dir)
    except Exception:
        problems = [traceback.format_exc()]
    return OpResult(seconds, digest, size, problems)
