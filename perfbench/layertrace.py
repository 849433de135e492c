"""Per-layer spans recorded from outside the noisewalk package.

``Tracer.install()`` replaces each listed public function with a timing
wrapper at every binding inside ``noisewalk.*`` that refers to it:
module attributes, from-imports such as ``estimators.iter_convolution_levels``
and the package re-exports.  Methods are wrapped on their class.
``uninstall()`` puts the originals back, so untraced ops run unwrapped
code.  Generators are timed per ``next()``.

Spans live in memory as ``[name, start, end, parent, op, extra]`` and are
written out once, when the run ends.  Spans made inside pool worker
processes stay in those processes and are not collected.
"""

from __future__ import annotations

import gzip
import sys
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, OP, EXTRA = range(6)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# (span name, module, attribute or Class.method, kind, extra-from-call)
# kind "call" times the call; "gen" times every next() of the result.
# The extra function reads a count from (args, kwargs, result or item).
TARGETS = [
    ("rng.generator", "noisewalk.rng", "generator", "call", None),
    ("rng.sample_indices", "noisewalk.rng", "sample_indices", "call",
     lambda a, k, r: _arg(a, k, 1, "size")),
    ("walkers.final_lengths", "noisewalk.walkers", "final_lengths", "call",
     lambda a, k, r: _arg(a, k, 2, "trials")),
    ("walkers.pair_prefix_lengths", "noisewalk.walkers", "pair_prefix_lengths",
     "call", lambda a, k, r: _arg(a, k, 2, "trials")),
    ("walkers.boundary_prefixes", "noisewalk.walkers", "boundary_prefixes", "call",
     lambda a, k, r: _arg(a, k, 3, "trials")),
    ("measures.iter_convolution_levels", "noisewalk.measures",
     "iter_convolution_levels", "gen",
     lambda a, k, lv: (lv.level, lv.size, float(lv.lost_mass))),
    ("measures.mass_counts", "noisewalk.measures", "ConvolutionLevel.mass_counts",
     "call", None),
    ("estimators.drift_mc", "noisewalk.estimators", "drift_mc", "call", None),
    ("estimators.shannon_pointwise", "noisewalk.estimators", "shannon_pointwise",
     "call", None),
    ("estimators.entropy_exact_curve", "noisewalk.estimators",
     "entropy_exact_curve", "call", None),
    ("estimators.entropy_rate_estimate", "noisewalk.estimators",
     "entropy_rate_estimate", "call", None),
    ("estimators.tv_exact", "noisewalk.estimators", "tv_exact", "call", None),
    ("estimators.tv_lower_bound_mc", "noisewalk.estimators", "tv_lower_bound_mc",
     "call", None),
    ("estimators.rho_sweep", "noisewalk.estimators", "rho_sweep", "call", None),
    ("boundary.sample_boundary", "noisewalk.boundary", "sample_boundary", "call",
     None),
    ("boundary.build_tree", "noisewalk.boundary", "build_tree", "call",
     lambda a, k, tree: sum(tree.node_count(t) for t in range(1, tree.depth + 1))),
    ("boundary.local_dimension", "noisewalk.boundary", "local_dimension", "call",
     None),
    ("boundary.export_records", "noisewalk.boundary", "CylinderTree.export_records",
     "gen", lambda a, k, line: 1),
    ("cli.parse_config", "noisewalk.cli", "parse_config", "call", None),
    ("cli.execute", "noisewalk.cli", "execute", "call", None),
    ("cli.write_report", "noisewalk.cli", "write_report", "call", None),
]


class Tracer:
    """Wraps the TARGETS while installed and keeps every span in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def _wrap_call(self, name, fn, extra):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if extra is not None:
                tracer.spans[idx][EXTRA] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, name, fn, extra):
        tracer = self

        def traced(*args, **kwargs):
            return tracer._timed_next(name, fn(*args, **kwargs), args, kwargs, extra)

        traced.__wrapped__ = fn
        return traced

    def _timed_next(self, name, gen, args, kwargs, extra):
        # the extra of a generator span is (index of its first span, value)
        first = len(self.spans)
        try:
            while True:
                idx = self.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.spans[idx][EXTRA] = (first, extra(args, kwargs, item))
                yield item
        finally:
            gen.close()

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every binding; record missing names."""
        self.missing = []
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "noisewalk" or key.startswith("noisewalk."))
        ]
        for name, modname, attr, kind, extra in self.targets:
            owner = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, meth, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(name)
                continue
            wrap = self._wrap_gen if kind == "gen" else self._wrap_call
            wrapper = wrap(name, fn, extra)
            if cls_name:
                self._bind(owner, meth, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._bind(m, key, wrapper)

    def _bind(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def write(self, path: Path) -> None:
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt") as f:
            f.write("name\tstart\tend\tparent\top\textra\n")
            for s in self.spans:
                f.write(f"{s[NAME]}\t{s[START]!r}\t{s[END]!r}\t{s[PARENT]}\t{s[OP]}"
                        f"\t{'' if s[EXTRA] is None else s[EXTRA]}\n")


# ---------------------------------------------------------------------------
# per-layer metrics

LEVELS = range(1, 7)

# name -> (unit, better)
LAYER_METRICS = {
    "rng.streams": ("count", "lower"),
    "rng.stream_s": ("s", "lower"),
    "rng.draws": ("count", "lower"),
    "rng.sample_s": ("s", "lower"),
    "walkers.trials": ("count", "higher"),
    "walkers.wall_s": ("s", "lower"),
    "walkers.self_s": ("s", "lower"),
    "measures.level_s": ("s", "lower"),
    "measures.atoms": ("count", "lower"),
    "measures.atoms_per_s": ("1/s", "higher"),
    **{f"measures.level_s.L{n}": ("s", "lower") for n in LEVELS},
    **{f"measures.atoms.L{n}": ("count", "lower") for n in LEVELS},
    "measures.lost_mass": ("prob", "lower"),
    "measures.readout_s": ("s", "lower"),
    "estimators.wall_s": ("s", "lower"),
    "estimators.self_s": ("s", "lower"),
    "boundary.tree_s": ("s", "lower"),
    "boundary.tree_nodes": ("count", "lower"),
    "boundary.dimension_s": ("s", "lower"),
    "boundary.export_s": ("s", "lower"),
    "boundary.export_lines": ("count", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.artifact_bytes": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.op_s_p50": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Sum the per-layer metrics over all spans (not yet per op).

    A layer's wall time counts only spans with no ancestor in the same
    layer; its self time is each span minus the union of its children.
    Spans come from one thread and close in stack order, so the children
    of a span never overlap and their union is the sum of their lengths.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def layer(i):
        return spans[i][NAME].split(".", 1)[0]

    tot: dict[str, float] = {k: 0.0 for k in LAYER_METRICS}
    lost_by_run: dict[int, float] = {}
    for i, s in enumerate(spans):
        name, dur, extra = s[NAME], s[END] - s[START], s[EXTRA]
        own = layer(i)
        self_s = dur - child_time[i]
        p = s[PARENT]
        while p >= 0 and layer(p) != own:
            p = spans[p][PARENT]
        outermost = p < 0
        if own in ("walkers", "estimators"):
            tot[f"{own}.self_s"] += self_s
            if outermost:
                tot[f"{own}.wall_s"] += dur
        if own == "cli":
            tot["cli.self_s"] += self_s
        if name == "rng.generator":
            tot["rng.streams"] += 1
            tot["rng.stream_s"] += dur
        elif name == "rng.sample_indices":
            tot["rng.draws"] += extra
            tot["rng.sample_s"] += dur
        elif own == "walkers":
            tot["walkers.trials"] += extra
        elif name == "measures.iter_convolution_levels" and extra is not None:
            run, (level, size, lost) = extra
            lost_by_run[run] = lost  # cumulative, so the last level's value
            tot["measures.level_s"] += dur
            tot["measures.atoms"] += size
            if level in LEVELS:
                tot[f"measures.level_s.L{level}"] += dur
                tot[f"measures.atoms.L{level}"] += size
        elif name == "measures.mass_counts":
            tot["measures.readout_s"] += dur
        elif name == "boundary.build_tree":
            tot["boundary.tree_s"] += dur
            tot["boundary.tree_nodes"] += extra
        elif name == "boundary.local_dimension":
            tot["boundary.dimension_s"] += dur
        elif name == "boundary.export_records":
            tot["boundary.export_s"] += dur
            tot["boundary.export_lines"] += 0 if extra is None else extra[1]
        elif name == "cli.parse_config":
            tot["cli.parse_s"] += dur
        elif name == "cli.write_report":
            tot["cli.write_s"] += dur
    tot["measures.lost_mass"] = sum(lost_by_run.values())
    return tot
