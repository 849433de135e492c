"""Run one noisewalk benchmark workload and print its metrics.

    python3 perfbench/run.py --workload drift_long --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  After one untimed warm-up op, the run times ops for
``--seconds`` seconds (and at least one op per config), checks every
op's artifacts, and prints the metrics, last of all as one JSON line.
Each op's wall time is divided by that of a fixed reference job run
just before and just after it, which cancels most of the drift in the
host's speed.  ``--trace 0`` gives the end-to-end metrics.  ``--trace 1``
alternates untraced and traced ops and gives the per-layer metrics, in
wall seconds, per traced op.
Details of the run and the spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import layertrace
import ops
import workloads

STATE = ops.ROOT / ".perfbench"
SETUP_PROBES = 9

END_TO_END_UNITS = {
    "op_ref_p50": "ref",
    "work_per_ref": "work/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


_CUM = np.linspace(0.25, 1.0, 4)


def reference_seconds() -> float:
    """Wall time of a fixed job that runs no noisewalk code.

    Other tenants of a shared host slow every process on it by 20-60% for
    minutes at a time.  Dividing an op by this job, run next to it, cancels
    most of that.  The job mixes what the ops spend their time on: many
    small Philox generators and pure-Python steps, then cache-missing
    gathers and sorts over 1 MiB arrays.  It stays well under the peak
    memory of any op, so ``peak_rss_mb`` still reads the op's peak.
    """
    t0 = perf_counter()
    for key in range(1000):
        gen = np.random.Generator(np.random.Philox(key=key))
        np.searchsorted(_CUM, gen.random(400))
    s = 0
    for i in range(60_000):
        s += i * i % 7
    rng = np.random.default_rng(0)
    for _ in range(4):
        perm = rng.permutation(1 << 18)
        x = np.arange(1 << 18, dtype=np.int32)[perm]
        x.sort()
    return perf_counter() - t0


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving the checkout."""
    git = ops.ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest child (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024  # ru_maxrss is in KiB on Linux


# Runs and times each probe it is asked for.  The probes are its children,
# not ours, so until it is closed they stay out of our RUSAGE_CHILDREN and
# thus out of peak_rss_mb.
_PROBER = """
import subprocess, sys, time
for _ in sys.stdin:
    t0 = time.perf_counter()
    subprocess.run(sys.argv[1:], check=True)
    print(time.perf_counter() - t0, flush=True)
"""


class SetupProbes:
    """Wall times of fresh interpreters importing noisewalk and parsing a config.

    The run takes the probes between its ops, spread over its length, so
    that their median follows the host's speed over the whole run and not
    over the few seconds at its end.
    """

    def __init__(self, workload, config: dict, tmp: Path):
        cfg_path = tmp / "setup.json"
        cfg_path.write_text(json.dumps({**config, "out": str(tmp / "setup-out")}))
        cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
               workload.subcommand, str(cfg_path)]
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _PROBER, *cmd], cwd=ops.ROOT,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []

    def probe(self):
        try:
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline()
        except BrokenPipeError:
            line = ""
        if not line:
            raise RuntimeError("a set-up probe failed")
        self.times.append(float(line))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


class Run:
    """Runs ops of one workload and keeps every op's result."""

    def __init__(self, workload, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        self.reference: dict[int, str] = {}  # config index -> first digest
        self.log: list[dict] = []

    def op(self, index: int, config: dict, kind: str, tracer=None) -> ops.OpResult:
        work = self.tmp / f"op{len(self.log)}"
        gc.collect()
        r = ops.run_op(self.workload, config, work, tracer)
        shutil.rmtree(work, ignore_errors=True)
        problems = list(r.problems)
        ref = self.reference.setdefault(index, r.digest) if r.digest else ""
        if r.digest != ref:
            problems.append(f"artifacts of config {index} differ from its first run")
        self.log.append({"config": index, "kind": kind, "seconds": r.seconds,
                         "digest": r.digest, "bytes": r.artifact_bytes,
                         "problems": problems})
        for p in problems[:3]:
            print(f"op {len(self.log) - 1} ({kind}) failed: {p.strip()}",
                  file=sys.stderr)
        return r

    def seconds(self, kind: str) -> list[float]:
        return [e["seconds"] for e in self.log if e["kind"] == kind]

    @property
    def failed(self) -> int:
        return sum(1 for e in self.log if e["problems"])

    def digest(self) -> str:
        """One digest over the artifacts of every config, in config order."""
        return hashlib.sha256(
            "".join(self.reference[k] for k in sorted(self.reference)).encode()
        ).hexdigest()


def run_workload(workload, seed: int, seconds: float, trace: bool, tmp: Path,
                 probes: SetupProbes | None = None):
    configs = workloads.op_configs(workload, seed)
    run = Run(workload, tmp)
    # The warm-up reruns config 0 with one worker, so its bytes also check
    # that results do not depend on the worker count.
    run.op(0, {**configs[0], "workers": 1}, "warmup")
    tracer = layertrace.Tracer() if trace else None
    refs = [reference_seconds()]  # refs[i], refs[i + 1] bracket timed op i
    start = perf_counter()
    i = 0
    while i < len(configs) or perf_counter() - start < seconds:
        k = i % len(configs)
        run.op(k, configs[k], "timed")
        refs.append(reference_seconds())
        if trace:
            run.op(k, configs[k], "traced", tracer)
        if probes is not None and (perf_counter() - start
                                   >= len(probes.times) * seconds / SETUP_PROBES):
            probes.probe()
        i += 1
    while probes is not None and len(probes.times) < SETUP_PROBES:
        probes.probe()
    return run, tracer, refs


def op_refs(run: Run, refs: list[float]) -> list[float]:
    """Each timed op's wall time over the mean of the references around it."""
    return [s / ((refs[i] + refs[i + 1]) / 2)
            for i, s in enumerate(run.seconds("timed"))]


def end_to_end(workload, run: Run, refs: list[float], setup: list[float],
               rss: float) -> dict:
    op_ref_p50 = statistics.median(op_refs(run, refs))
    return {
        "op_ref_p50": op_ref_p50,
        # at the median op: a sum over ops would follow single stalled ops
        "work_per_ref": workload.work_per_op / op_ref_p50,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
    }


def per_layer(run: Run, tracer: layertrace.Tracer) -> dict:
    traced = run.seconds("traced")
    per_op = {k: v / len(traced) for k, v in layertrace.layer_totals(tracer.spans).items()}
    level_s = per_op["measures.level_s"]
    per_op["measures.atoms_per_s"] = per_op["measures.atoms"] / level_s if level_s else 0.0
    per_op["cli.artifact_bytes"] = statistics.mean(
        e["bytes"] for e in run.log if e["kind"] == "traced")
    per_op["trace.op_s_p50"] = statistics.median(traced)
    per_op["trace.overhead_s"] = statistics.median(traced) - statistics.median(
        run.seconds("timed"))
    return per_op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ops.import_package()
    except ops.MissingPackage as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    STATE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=STATE, prefix="ops-") as tmp_name:
        tmp = Path(tmp_name)
        if not args.trace:
            config = workloads.op_configs(workload, args.seed)[0]
            with SetupProbes(workload, config, tmp) as probes:
                run, tracer, refs = run_workload(
                    workload, args.seed, args.seconds, False, tmp, probes)
                rss = peak_rss_mb()  # while the probes are not our children
            values = end_to_end(workload, run, refs, probes.times, rss)
            units = END_TO_END_UNITS
        else:
            run, tracer, refs = run_workload(
                workload, args.seed, args.seconds, True, tmp)
            values = per_layer(run, tracer)
            units = {k: u for k, (u, _) in layertrace.LAYER_METRICS.items()}
            tracer.write(STATE / f"{workload.name}-spans.tsv.gz")

    attempted = len(run.log)
    env = environment()
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "artifact_digest": run.digest(),
        "attempted": attempted, "failed": run.failed,
        "missing_trace_targets": [] if tracer is None else tracer.missing,
        "ops": run.log, "reference_s": refs, "metrics": values,
    }
    (STATE / f"{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops ({len(run.seconds('timed'))} timed), {run.failed} failed")
    print(f"work unit: {workload.work_unit}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  wall time of an op: median {statistics.median(run.seconds('timed')):.6g} s, "
          f"fastest {min(run.seconds('timed')):.6g} s; reference job: median "
          f"{statistics.median(refs):.6g} s")
    print(f"  fail_frac = {run.failed / attempted:.6g} ratio")
    if tracer is not None:
        print(f"trace targets missing: {tracer.missing or 'none'}")
        if workload.shape.get("workers", 1) > 1:
            print("note: spans inside pool workers are not collected; there "
                  "walkers.self_s includes pool overhead and the workers' rng time")
    print(f"artifact digest: {run.digest()}")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
