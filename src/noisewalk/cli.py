"""Configuration-driven experiment runner.

Subcommands: ``drift``, ``entropy``, ``tv``, ``dimension``, ``sweep``,
``report``.  Every run is described by a JSON config file (versioned
with ``"spec_version": 1``) and/or command-line flags; flags override
file values.  Unknown config keys are hard errors, and the seed is
mandatory: there is no wall-clock fallback, so a config fully
determines every emitted byte.

Artifacts land in the output directory: ``results.json`` (one JSON
record per line), ``table.csv`` (schema
rho,n,trials,seed,method,value,std_error,ci_low,ci_high), ``meta.json``
(timestamps and environment; the only file allowed to differ between
reruns), an optional ``plot.svg``, plus subcommand extras (``sweep.csv``,
``tree.txt``).

Exit codes: 0 success, 2 validation or input error, 3 compute-budget or
truncation error, or a run that could not allocate its memory.
"""

from __future__ import annotations

import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import click

from . import __version__
from . import boundary as boundary_mod
from . import estimators, measures, oracle, walkers
from .errors import (
    BudgetError,
    InputError,
    TruncationError,
    UnsupportedRegimeError,
    ValidationError,
)

CSV_HEADER = "rho,n,trials,seed,method,value,std_error,ci_low,ci_high"


class RunConfig(SimpleNamespace):
    """Validated description of one run: its ``subcommand``, the resolved
    step ``measure``, and every key the subcommand reads, parsed."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _parser(test, what: str, convert=None):
    """Parser for a key whose values pass ``test``, described as ``what``.

    The parser takes (value, key) and returns ``convert(value)``, or the
    value itself, or raises ValidationError naming the key.
    """

    def parse(value, key: str):
        if not test(value):
            raise ValidationError(f"{key} must be {what}, got {value!r}")
        return value if convert is None else convert(value)

    return parse


def _integer(minimum: int):
    return _parser(lambda x: _is_int(x) and x >= minimum, f"an integer >= {minimum}")


def _positive_ints(min_len: int, what: str, distinct: bool = False):
    return _parser(
        lambda x: isinstance(x, (list, tuple)) and len(x) >= min_len
        and all(_is_int(e) and e >= 1 for e in x)
        and not (distinct and len(set(x)) < len(x)),
        what,
        tuple,
    )


def _group(text: str) -> measures.FiniteMeasure:
    """The uniform step measure of free_group:K or free_semigroup:M."""
    parts = text.split(":")
    if len(parts) != 2 or parts[0] not in ("free_group", "free_semigroup"):
        raise ValidationError(
            f"group must look like free_group:2 or free_semigroup:2, got {text!r}"
        )
    try:
        rank = int(parts[1])
    except ValueError:
        raise ValidationError(f"group rank {parts[1]!r} is not an integer") from None
    if rank < 1 or (parts[0] == "free_group" and rank < 2):
        raise ValidationError(f"group rank {rank} too small for {parts[0]}")
    if rank > walkers._MAX_RANK_INT8:
        raise ValidationError(f"group rank {rank} exceeds {walkers._MAX_RANK_INT8}")
    return measures.uniform_measure(rank, inverse_free=parts[0] == "free_semigroup")


def _inline_measure(value) -> measures.FiniteMeasure | None:
    """The inline step measure, or None for "uniform" (the group's own)."""
    if value == "uniform":
        return None
    rank = value.get("rank")
    if _is_int(rank) and rank > walkers._MAX_RANK_INT8:  # checked before any word table
        raise ValidationError(f"measure rank {rank} exceeds {walkers._MAX_RANK_INT8}")
    try:
        mu = measures.measure_from_json_dict(value)
    except (InputError, ValidationError) as e:
        raise ValidationError(f"bad inline measure: {e}") from None
    if mu.kind != "single":
        raise ValidationError("the step measure must be single kind; pairs are built internally")
    return mu


# Most points a rho_grid may hold; every point is a run.
_MAX_RHO_POINTS = 10_000


def _rho_grid(value) -> tuple[float, ...]:
    if isinstance(value, str) and value.lstrip().startswith("["):
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            raise ValidationError(f"bad rho_grid list {value!r}") from None
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 3:
            raise ValidationError(f"rho_grid string must be a:b:step, got {value!r}")
        try:
            a, b, step = (float(p) for p in parts)
        except ValueError:
            raise ValidationError(f"bad rho_grid {value!r}") from None
        if not all(map(math.isfinite, (a, b, step))) or step <= 0 or b < a:
            raise ValidationError(f"bad rho_grid {value!r}")
        # the points a + i * step up to b + 1e-9 are counted before any is
        # built; one spare candidate covers rounding in a + i * step
        span = (b - a + 1e-9) / step
        if span >= _MAX_RHO_POINTS:  # floor(span) + 1 points
            raise ValidationError(
                f"rho_grid {value!r} has more than {_MAX_RHO_POINTS} points"
            )
        grid = []
        for i in range(int(span) + 2):
            x = a + i * step
            if x > b + 1e-9:
                break
            grid.append(min(x, 1.0) if x <= 1 + 1e-9 else x)
    elif all(_is_number(x) for x in value):
        grid = [float(x) for x in value]
    else:
        raise ValidationError(f"bad rho_grid {value!r}")
    if not grid:
        raise ValidationError("rho_grid is empty")
    if len(grid) > _MAX_RHO_POINTS:
        raise ValidationError(f"rho_grid has more than {_MAX_RHO_POINTS} points")
    for x in grid:
        if not 0 <= x <= 1:
            raise ValidationError(f"rho {x} outside [0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("rho_grid must be strictly increasing")
    return tuple(grid)


# The one parser of every config key.  JSON numbers are the only
# numbers; a null value never reaches a parser, it leaves the key unset.
_PARSERS = {
    "group": _parser(lambda x: isinstance(x, str), "a string", _group),
    "measure": _parser(lambda x: x == "uniform" or isinstance(x, dict),
                       '"uniform" or an inline object', _inline_measure),
    "rho": _parser(lambda x: _is_number(x) and 0 <= x <= 1, "a number in [0, 1]",
                   float),
    "rho_grid": _parser(lambda x: isinstance(x, (str, list, tuple)),
                        "a list or an a:b:step string", _rho_grid),
    "n": _integer(1),
    "trials": _integer(1),
    "seed": _parser(lambda x: _is_int(x) and 0 <= x < 2**64,
                    "an integer in [0, 2^64)"),
    "cap": _integer(1),
    "workers": _integer(1),
    "out": _parser(lambda x: isinstance(x, str), "a string", Path),
    "plot": _parser(lambda x: isinstance(x, bool), "true or false"),
    "method": _parser(lambda x: x in ("auto", "pointwise", "exact"),
                      "auto, pointwise or exact"),
    "n_max": _integer(1),
    "n_exact": _integer(1),
    "threshold_frac": _parser(lambda x: _is_number(x) and 0 < x <= 1,
                              "a number in (0, 1]", float),
    "horizon": _integer(1),
    "t_grid": _positive_ints(2, "a list of at least two integers >= 1"),
    "centers": _integer(1),
    "min_count": _integer(1),
    "keep_depth": _integer(0),
    "export_tree_depth": _integer(0),
    "tv_ns": _positive_ints(0, "a list of distinct integers >= 1", distinct=True),
}

# Keys every run subcommand reads, with their parsed defaults; None
# means unset.
_SHARED = {"group": None, "measure": None, "seed": None, "workers": 1, "out": Path(".")}

# The keys each subcommand reads, with their parsed defaults: the one
# statement of what its config file and its flags may set.
_SUBCOMMANDS = {
    "drift": {**_SHARED, "rho": None, "n": 1000, "trials": 400},
    # entropy runs strict, and level 6 of pi_rho on four uniform semigroup
    # letters has 16^6 atoms, above the default cap: so 5, not DEFAULT_N_MAX
    "entropy": {**_SHARED, "rho": None, "n": 5000, "trials": 200,
                "cap": measures.DEFAULT_CAP, "plot": False, "method": "auto",
                "n_max": 5},
    "tv": {**_SHARED, "rho": None, "n": 50, "trials": 10_000,
           "cap": measures.DEFAULT_CAP, "plot": False, "n_exact": 6,
           "threshold_frac": 0.2},
    "dimension": {**_SHARED, "rho": None, "trials": 20_000,
                  "rho_grid": None, "horizon": 200, "t_grid": None,
                  "centers": 300, "min_count": 5, "keep_depth": None,
                  "export_tree_depth": None},
    "sweep": {**_SHARED, "n": 4000, "trials": 150, "cap": measures.DEFAULT_CAP,
              "plot": False, "rho_grid": None, "tv_ns": (), "threshold_frac": 0.2,
              "n_max": estimators.DEFAULT_N_MAX},
    "report": {"out": Path("."), "plot": False},
}

# The command-line flag of each key that has one, in --help order; a
# subcommand takes the flags of its own keys.  An unset flag is None.
_FLAGS = {
    "seed": {"type": int, "help": "RNG seed (mandatory)."},
    "trials": {"type": int},
    "rho": {"type": float},
    "rho_grid": {"type": str, "help": "Grid a:b:step."},
    "n": {"type": int},
    "group": {"type": str, "help": "free_group:K or free_semigroup:M."},
    "out": {"type": click.Path(), "help": "Output directory."},
    "workers": {"type": int},
    "plot": {"is_flag": True, "help": "Also write plot.svg."},
}


def parse_config(
    subcommand: str, config_path: str | None, overrides: dict
) -> RunConfig:
    """Load, merge, and validate the configuration for one subcommand.

    ``overrides`` holds flag values, which replace file values; None, in
    either, leaves a key unset.  The file, when present, must carry
    ``"spec_version": 1`` and only keys the subcommand accepts.  Every
    key is parsed by its one parser before any cross-key check runs.
    """
    if subcommand not in _SUBCOMMANDS:
        raise ValidationError(f"unknown subcommand {subcommand!r}")
    cfg: dict = {}
    if config_path is not None:
        try:
            with open(config_path) as f:
                cfg = json.load(f)
        except (OSError, UnicodeDecodeError) as e:
            raise ValidationError(f"cannot read config file {config_path}: {e}") from None
        except json.JSONDecodeError as e:
            raise ValidationError(f"config is not valid JSON: {e}") from None
        if not isinstance(cfg, dict):
            raise ValidationError("config must be a JSON object")
        if "spec_version" not in cfg:
            raise ValidationError('config is missing "spec_version"')
        if type(cfg["spec_version"]) is not int or cfg["spec_version"] != 1:  # not True, 1.0
            raise ValidationError(f"unsupported spec_version {cfg['spec_version']!r}")
        del cfg["spec_version"]
    given = {k: x for k, x in cfg.items() if x is not None}
    given.update((k, x) for k, x in overrides.items() if x is not None)
    table = _SUBCOMMANDS[subcommand]
    unknown = set(given) - set(table)
    if unknown:
        raise ValidationError(
            f"unknown config keys for {subcommand}: {sorted(unknown)}"
        )
    v = {**table, **{k: _PARSERS[k](x, k) for k, x in given.items()}}

    if subcommand == "report":
        return RunConfig(subcommand=subcommand, **v)
    if v["seed"] is None:
        raise ValidationError("seed is mandatory (no wall-clock default)")

    mu, group = v["measure"], v["group"]
    if group is not None:
        if mu is None:
            mu = group
        elif mu.rank != group.rank:
            raise ValidationError(
                f"measure rank {mu.rank} conflicts with group rank {group.rank}"
            )
        elif group.inverse_free and not mu.inverse_free:
            raise ValidationError(
                "free_semigroup group with a measure using inverse letters"
            )
    if mu is None:
        raise ValidationError("config needs a group or an inline measure")
    v["measure"] = mu

    rho, rho_grid = v.get("rho"), v.get("rho_grid")
    if rho is not None and rho_grid is not None:
        raise ValidationError("give rho or rho_grid, not both")
    if subcommand == "tv" and rho is None:
        raise ValidationError("tv needs rho")
    if subcommand == "sweep" and rho_grid is None:
        raise ValidationError("sweep needs a rho_grid")
    if subcommand == "dimension":
        if rho is None and rho_grid is None:
            raise ValidationError("dimension needs rho or a two-point rho_grid")
        if rho_grid is not None and len(rho_grid) != 2:
            raise ValidationError("dimension rho_grid must have exactly two values")
        if v["t_grid"] is None:
            if v["horizon"] < 2:
                raise ValidationError(f"horizon {v['horizon']} leaves the default t_grid one "
                                      "depth: give a horizon >= 2, or a t_grid")
            v["t_grid"] = tuple(range(1, min(21, v["horizon"] + 1)))
        keep, export = v["keep_depth"], v["export_tree_depth"]
        if rho_grid is not None:  # the two-point check builds no tree
            for key in ("keep_depth", "export_tree_depth"):
                if v[key] is not None:
                    raise ValidationError(f"dimension with a rho_grid does not read {key}")
        # 0 means the default
        deepest = max(v["t_grid"])
        if keep and keep < deepest:
            raise ValidationError(
                f"keep_depth {keep} is below the deepest t_grid depth {deepest}"
            )
        if export and export > deepest:
            raise ValidationError(
                f"export_tree_depth {export} exceeds the deepest t_grid depth {deepest}"
            )
        # no position at the horizon has more letters, so no deeper depth is usable
        letters = v["horizon"] * mu.max_atom_length
        if deepest > letters:
            raise ValidationError(
                f"t_grid depth {deepest} exceeds horizon x longest atom = {letters}"
            )
        if keep and keep > letters:
            raise ValidationError(
                f"keep_depth {keep} exceeds horizon x longest atom = {letters}"
            )

    return RunConfig(subcommand=subcommand, **v)


# ---------------------------------------------------------------------------
# records and artifacts


def _result_record(r: estimators.EstimateResult, cfg: RunConfig, rho) -> dict:
    """A result as one record of the run: the run's subcommand and seed beside it."""
    return {
        "subcommand": cfg.subcommand,
        "rho": None if rho is None else float(rho),
        "n": r.n,
        "trials": r.trials,
        "seed": cfg.seed,
        "method": r.method,
        "value": float(r.value),
        "std_error": float(r.std_error),
        "ci_low": float(r.ci_low),
        "ci_high": float(r.ci_high),
        "details": _plain(r.details),
    }


def _plain(obj):
    """Recursively convert values to plain JSON-serializable types."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if obj is None or isinstance(obj, (int, float, str)):  # bool is an int
        return obj
    return float(obj)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv_row_of(record: dict) -> str:
    return ",".join(
        _csv_cell(record.get(k))
        for k in ("rho", "n", "trials", "seed", "method", "value",
                  "std_error", "ci_low", "ci_high")
    )


def write_report(
    out_dir: Path, records: list[dict], extra_files: dict[str, str], meta: dict | None
) -> None:
    """Write table.csv and the extra files, and with ``meta`` also
    results.json and meta.json.

    ``report`` passes no ``meta``: the run that made results.json keeps
    its record.  Everything except meta.json is a pure function of the
    records, so reruns with the same config are byte-identical.
    """
    if not records:
        raise ValidationError("no results to report")
    files = {"table.csv": CSV_HEADER + "\n" + "".join(_csv_row_of(r) + "\n" for r in records)}
    if meta is not None:
        files["results.json"] = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        files["meta.json"] = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    files.update(extra_files)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            (out_dir / name).write_text(content)
    except OSError as e:
        raise ValidationError(f"cannot write artifacts: {e}") from None


# The series each charted method adds to plot.svg: its x key, series label
# and y-axis name.  A record charted against rho also adds its
# details.closed_form, when it has one, to the series "closed form".
_CHARTED = {
    "entropy-exact": ("n", "H(n)", "H (nats)"),
    "tv-oracle": ("n", "closed form", "TV"),
    "tv-exact": ("n", "exact", "TV"),
    "shannon-pointwise": ("rho", "h estimate", "h (nats)"),
    "entropy-increment": ("rho", "h estimate", "h (nats)"),
}


def _chart(records: list[dict]) -> str | None:
    """plot.svg of the records, or None when no record is charted.

    The x axis is n when any record is charted against n, and rho
    otherwise; records charted against rho with a null rho are skipped.
    A record is named by its results.json line, its position plus one.
    """
    charted = []
    for line, r in enumerate(records, 1):
        method = r.get("method")
        if isinstance(method, str) and method in _CHARTED:
            charted.append((line, r, *_CHARTED[method]))
    x_key = "n" if any(c[2] == "n" for c in charted) else "rho"
    series: dict[str, list] = {}
    ylabels: dict[str, None] = {}
    for line, r, key, label, ylabel in charted:
        x = r.get(key)
        if key != x_key or (key == "rho" and x is None):
            continue
        ys = [(label, "value", r.get("value"))]
        details = r.get("details")
        if key == "rho" and isinstance(details, dict) and details.get("closed_form") is not None:
            ys.append(("closed form", "closed_form", details["closed_form"]))
        for to, name, y in ys:
            if not (_is_number(x) and _is_number(y)):
                raise ValidationError(
                    f"results.json line {line} has no numeric {key} and {name} to plot"
                )
            series.setdefault(to, []).append((x, y))
        ylabels[ylabel] = None
    if not series:
        return None
    ylabel = " / ".join(ylabels)
    return _svg_line_chart(
        [(label, sorted(points)) for label, points in series.items()],
        f"{ylabel} against {x_key}", x_key, ylabel,
    )


def _svg_line_chart(series, title, xlabel, ylabel) -> str:
    """Self-contained SVG polyline chart.

    ``series`` is a list of (label, [(x, y), ...]); coordinates are
    formatted with fixed precision so output is deterministic.
    """
    width, height = 640, 420
    ml, mr, mt, mb = 64, 16, 36, 48
    palette = ["#1f6fb2", "#d1495b", "#3a7d44", "#8e6c8a", "#c77d2e", "#3d3d3d"]
    pts = [p for _, data in series for p in data]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    y0 -= 0.05 * (y1 - y0)
    y1 += 0.05 * (y1 - y0)

    def px(x):
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for i in range(5):
        xv = x0 + i * (x1 - x0) / 4
        yv = y0 + i * (y1 - y0) / 4
        parts.append(
            f'<line x1="{px(xv):.2f}" y1="{height-mb}" x2="{px(xv):.2f}" '
            f'y2="{height-mb+4}" stroke="black"/>'
            f'<text x="{px(xv):.2f}" y="{height-mb+18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
        parts.append(
            f'<line x1="{ml-4}" y1="{py(yv):.2f}" x2="{ml}" y2="{py(yv):.2f}" '
            f'stroke="black"/>'
            f'<text x="{ml-8}" y="{py(yv)+4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )
    parts.append(
        f'<line x1="{ml}" y1="{height-mb}" x2="{width-mr}" y2="{height-mb}" '
        f'stroke="black"/>'
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height-mb}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(ml+width-mr)/2:.1f}" y="{height-10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>'
        f'<text x="16" y="{(mt+height-mb)/2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(mt+height-mb)/2:.1f})">{ylabel}</text>'
    )
    for i, (label, data) in enumerate(series):
        color = palette[i % len(palette)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in data)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width-mr-8}" y="{mt+16+14*i}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# subcommand executors


def _run_drift(cfg: RunConfig):
    step = cfg.measure
    if cfg.rho is not None:
        step = measures.build_pi_rho(cfg.measure, cfg.rho)
    r = estimators.drift_mc(step, cfg.n, cfg.trials, cfg.seed, workers=cfg.workers)
    records = [_result_record(r, cfg, cfg.rho)]
    for label in ("coord1", "coord2"):
        if label in r.details:
            coord = estimators.EstimateResult(
                **r.details[label], n=r.n, trials=r.trials, method=f"drift-mc-{label}",
            )
            records.append(_result_record(coord, cfg, cfg.rho))
    return records, {}


def _run_entropy(cfg: RunConfig):
    # strict: a cut level exits 3 rather than leave the rate a bracket
    try:
        results = estimators.entropy_estimate(
            cfg.measure, cfg.rho, cfg.n, cfg.trials, cfg.seed, cfg.n_max, cfg.cap,
            method=cfg.method, strict=True,
        )
    except TruncationError as e:
        raise TruncationError(f"exact entropy needs a larger cap: {e}", e.level, e.lost_mass)
    return [_result_record(r, cfg, cfg.rho) for r in results], {}


def _run_tv(cfg: RunConfig):
    records = []
    m = measures.uniform_letter_count(cfg.measure)
    if m is not None:
        for n in range(1, cfg.n + 1):
            r = estimators.exact_result(oracle.tv_semigroup(m, cfg.rho, n), n, "tv-oracle")
            records.append(_result_record(r, cfg, cfg.rho))
    values = estimators.tv_exact_curve(
        cfg.measure, cfg.rho, min(cfg.n_exact, cfg.n), cap=cfg.cap
    )
    for n, v in enumerate(values, 1):
        r = estimators.exact_result(v, n, "tv-exact")
        records.append(_result_record(r, cfg, cfg.rho))
    r = estimators.tv_lower_bound_mc(
        cfg.measure, cfg.rho, cfg.n, cfg.trials, cfg.seed,
        threshold_frac=cfg.threshold_frac, workers=cfg.workers,
    )
    records.append(_result_record(r, cfg, cfg.rho))
    return records, {}


def _run_dimension(cfg: RunConfig):
    extras: dict[str, str] = {}
    if cfg.rho_grid is not None:
        results = boundary_mod.dimension_singularity_check(
            cfg.measure, cfg.rho_grid[0], cfg.rho_grid[1],
            horizon=cfg.horizon, trials=cfg.trials, t_grid=cfg.t_grid,
            n_centers=cfg.centers, seed=cfg.seed, min_count=cfg.min_count,
            workers=cfg.workers,
        )
        rhos = (*cfg.rho_grid, None)  # the gap record has no rho
    else:
        keep = cfg.keep_depth or max(cfg.t_grid)
        samples = boundary_mod.sample_boundary(
            cfg.measure, cfg.rho, cfg.horizon, cfg.trials, cfg.seed,
            keep_depth=keep, workers=cfg.workers,
        )
        tree = boundary_mod.build_tree(samples, max(cfg.t_grid))
        # the export first: the fit then reads the levels it built
        if cfg.export_tree_depth:
            extras["tree.txt"] = "".join(
                line + "\n" for line in tree.export_records(cfg.export_tree_depth)
            )
        results = (boundary_mod.local_dimension(
            tree, cfg.t_grid, cfg.centers, cfg.seed, min_count=cfg.min_count,
        ),)
        rhos = (cfg.rho,)
    m = measures.uniform_letter_count(cfg.measure)
    records = []
    for rho, r in zip(rhos, results):
        rec = _result_record(r, cfg, rho)
        if m is not None and rho is not None:
            rec["details"]["closed_form"] = oracle.h_semigroup(m, rho)
        records.append(rec)
    return records, extras


def _run_sweep(cfg: RunConfig):
    # first the grid points, which refuse a bad n_max before any work; each
    # coordinate of pi_rho is a mu-walk, so one drift of mu serves them all
    points = estimators.rho_sweep(
        cfg.measure, cfg.rho_grid, n=cfg.n, trials=cfg.trials, seed=cfg.seed,
        tv_ns=cfg.tv_ns, threshold_frac=cfg.threshold_frac,
        entropy_exact_max=cfg.n_max, cap=cfg.cap, workers=cfg.workers,
    )
    drift = estimators.drift_mc(cfg.measure, cfg.n, cfg.trials, cfg.seed,
                                workers=cfg.workers)
    records = [_result_record(drift, cfg, None)]
    lines = [",".join(["rho", "h_value", "h_std_error", "h_closed_form",
                       *(f"tv{tn}_value" for tn in cfg.tv_ns)])]
    for rho, (ent, *tvs) in points:
        records += [_result_record(r, cfg, rho) for r in (ent, *tvs)]
        closed = ent.details.get("closed_form")
        lines.append(",".join([repr(rho), repr(ent.value), repr(ent.std_error),
                               "" if closed is None else repr(closed),
                               *(repr(tr.value) for tr in tvs)]))
    return records, {"sweep.csv": "".join(line + "\n" for line in lines)}


def _run_report(cfg: RunConfig):
    """The records of results.json, one JSON object per line; a blank line
    is refused too, so a line number always names the record it gives."""
    path = cfg.out / "results.json"
    try:
        with open(path) as f:
            lines = list(f)
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read {path}: {e}") from None
    records = []
    for number, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValidationError(f"results.json line {number} is not JSON: {e}") from None
        if not isinstance(record, dict):
            raise ValidationError(f"results.json line {number} is not a JSON object")
        records.append(record)
    return records, {}  # write_report refuses an empty list


_EXECUTORS = {
    "drift": _run_drift,
    "entropy": _run_entropy,
    "tv": _run_tv,
    "dimension": _run_dimension,
    "sweep": _run_sweep,
    "report": _run_report,
}


def execute(cfg: RunConfig) -> int:
    """Run a validated config and write its artifacts, with plot.svg drawn
    from the records when the config sets ``plot``.  Returns 0."""
    records, extras = _EXECUTORS[cfg.subcommand](cfg)
    chart = _chart(records) if getattr(cfg, "plot", False) else None
    if chart is not None:
        extras["plot.svg"] = chart
    meta = None if cfg.subcommand == "report" else {
        "created": datetime.now(timezone.utc).isoformat(),
        "subcommand": cfg.subcommand,
        "seed": cfg.seed,
        "workers": cfg.workers,
        "package_version": __version__,
        "argv": sys.argv,
    }
    write_report(cfg.out, records, extras, meta)
    return 0


def _dispatch(subcommand: str, config: str | None, flags: dict) -> None:
    try:
        cfg = parse_config(subcommand, config, flags)
        execute(cfg)
    except (InputError, ValidationError, UnsupportedRegimeError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    except (BudgetError, TruncationError, MemoryError) as e:
        click.echo(f"compute budget exceeded: {e}", err=True)
        sys.exit(3)
    sys.exit(0)


@click.group()
@click.version_option(__version__)
def main():
    """Coupled random walks on free groups: drift, entropy, TV, dimension."""


def _make_command(name: str, help_text: str) -> None:
    """Add subcommand ``name``: ``--config`` plus the flags of its keys."""
    params = [click.Option(["--config"], type=click.Path(), help="JSON config file.")]
    params += [
        click.Option([f"--{key.replace('_', '-')}", key], default=None, **_FLAGS[key])
        for key in _FLAGS if key in _SUBCOMMANDS[name]
    ]
    main.add_command(click.Command(
        name, params=params, help=help_text,
        callback=lambda config, **flags: _dispatch(name, config, flags),
    ))


_make_command("drift", "Monte Carlo drift of the walk (coupled pair when rho given).")
_make_command("entropy", "Entropy rate: pointwise Monte Carlo or exact convolution.")
_make_command("tv", "Total variation: closed form, exact, and Monte Carlo lower bound.")
_make_command("dimension", "Boundary local dimension (singularity check with 2 rhos).")
_make_command("sweep", "Entropy and TV sweep over a rho grid, with one drift of mu.")
_make_command("report", "Rewrite table.csv from an existing results.json, and with "
              "--plot draw a summary chart of it.")


if __name__ == "__main__":
    main()
