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
truncation error.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import click

from . import __version__
from . import boundary as boundary_mod
from . import estimators, measures, oracle
from .errors import (
    BudgetError,
    InputError,
    TruncationError,
    UnsupportedRegimeError,
    ValidationError,
)

CSV_HEADER = "rho,n,trials,seed,method,value,std_error,ci_low,ci_high"


@dataclass
class RunConfig:
    """Validated description of one run."""

    subcommand: str
    measure: measures.FiniteMeasure | None
    rho: float | None
    rho_grid: tuple[float, ...] | None
    n: int
    trials: int
    seed: int | None
    cap: int
    workers: int
    out: Path
    plot: bool
    options: dict = field(default_factory=dict)


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


def _positive_ints(min_len: int, what: str):
    return _parser(
        lambda x: isinstance(x, (list, tuple)) and len(x) >= min_len
        and all(_is_int(e) and e >= 1 for e in x),
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
    return measures.uniform_measure(rank, inverse_free=parts[0] == "free_semigroup")


def _inline_measure(value) -> measures.FiniteMeasure | None:
    """The inline step measure, or None for "uniform" (the group's own)."""
    if value == "uniform":
        return None
    try:
        mu = measures.measure_from_json_dict(value)
    except (InputError, ValidationError) as e:
        raise ValidationError(f"bad inline measure: {e}") from None
    if mu.kind != "single":
        raise ValidationError("the step measure must be single kind; pairs are built internally")
    return mu


def _rho_grid(value) -> tuple[float, ...]:
    if isinstance(value, str) and value.lstrip().startswith("["):
        try:
            value = json.loads(value)
        except json.JSONDecodeError:
            raise ValidationError(f"bad rho grid list {value!r}") from None
    if isinstance(value, str):
        parts = value.split(":")
        if len(parts) != 3:
            raise ValidationError(f"rho grid string must be a:b:step, got {value!r}")
        try:
            a, b, step = (float(p) for p in parts)
        except ValueError:
            raise ValidationError(f"bad rho grid {value!r}") from None
        if step <= 0 or b < a:
            raise ValidationError(f"bad rho grid {value!r}")
        grid = []
        i = 0
        while True:
            x = a + i * step
            if x > b + 1e-9:
                break
            grid.append(min(x, 1.0) if x <= 1 + 1e-9 else x)
            i += 1
    elif all(_is_number(x) for x in value):
        grid = [float(x) for x in value]
    else:
        raise ValidationError(f"bad rho grid {value!r}")
    if not grid:
        raise ValidationError("rho grid is empty")
    for x in grid:
        if not 0 <= x <= 1:
            raise ValidationError(f"rho {x} outside [0, 1]")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError("rho grid must be strictly increasing")
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
    "tv_ns": _positive_ints(0, "a list of integers >= 1"),
    "margin": _parser(_is_number, "a number", float),
}

# Keys every run subcommand accepts, with their parsed defaults; None
# means unset.
_SHARED = {"group": None, "measure": None, "seed": None, "cap": measures.DEFAULT_CAP,
           "workers": 1, "out": Path("."), "plot": False}

# The keys each subcommand accepts, with their parsed defaults.
_SUBCOMMANDS = {
    "drift": {**_SHARED, "rho": None, "n": 1000, "trials": 400},
    "entropy": {**_SHARED, "rho": None, "n": 5000, "trials": 200,
                "method": "auto", "n_max": 5},
    "tv": {**_SHARED, "rho": None, "n": 50, "trials": 10_000, "n_exact": 6,
           "threshold_frac": 0.2},
    # dimension reads no n; 0 stands for it in the RunConfig
    "dimension": {**_SHARED, "rho": None, "n": 0, "trials": 20_000,
                  "rho_grid": None, "horizon": 200, "t_grid": None,
                  "centers": 300, "min_count": 5, "keep_depth": None,
                  "export_tree_depth": None},
    "sweep": {**_SHARED, "n": 4000, "trials": 150, "rho_grid": None,
              "tv_ns": (), "threshold_frac": 0.2, "margin": None, "n_max": 6},
    "report": {"out": Path("."), "plot": False},
}

# Keys kept in RunConfig fields; every other key goes to ``options``.
_RUN_FIELDS = {"group", "measure", "rho", "rho_grid", "n", "trials", "seed",
               "cap", "workers", "out", "plot"}


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
        except FileNotFoundError:
            raise ValidationError(f"config file not found: {config_path}") from None
        except json.JSONDecodeError as e:
            raise ValidationError(f"config is not valid JSON: {e}") from None
        if not isinstance(cfg, dict):
            raise ValidationError("config must be a JSON object")
        if "spec_version" not in cfg:
            raise ValidationError('config is missing "spec_version"')
        if cfg["spec_version"] != 1:
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
        return RunConfig(
            subcommand, None, None, None, 0, 0, None, 0, 1, v["out"], v["plot"]
        )
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
            v["t_grid"] = _PARSERS["t_grid"](
                list(range(1, min(21, v["horizon"] + 1))), "t_grid"
            )
        # 0 means the default; a rho_grid run ignores both keys
        keep, export = v["keep_depth"], v["export_tree_depth"]
        deepest = max(v["t_grid"])
        if rho_grid is None and keep and keep < deepest:
            raise ValidationError(
                f"keep_depth {keep} is below the deepest t_grid depth {deepest}"
            )
        if rho_grid is None and export and export > deepest:
            raise ValidationError(
                f"export_tree_depth {export} exceeds the deepest t_grid depth {deepest}"
            )

    return RunConfig(
        subcommand, mu, rho, rho_grid, v["n"], v["trials"], v["seed"], v["cap"],
        v["workers"], v["out"], v["plot"],
        {k: x for k, x in v.items() if k not in _RUN_FIELDS},
    )


# ---------------------------------------------------------------------------
# records and artifacts


def _result_record(r: estimators.EstimateResult, subcommand: str, rho) -> dict:
    return {
        "subcommand": subcommand,
        "rho": None if rho is None else float(rho),
        "n": r.n,
        "trials": r.trials,
        "seed": r.seed,
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
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
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
    out_dir: Path,
    records: list[dict],
    plot_spec: dict | None,
    extra_files: dict[str, str],
    meta: dict,
) -> None:
    """Write results.json, table.csv, meta.json, and optional extras.

    Everything except meta.json is a pure function of the records, so
    reruns with the same config are byte-identical.
    """
    if not records:
        raise ValidationError("no results to report")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "results.json").write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        )
        (out_dir / "table.csv").write_text(
            CSV_HEADER + "\n" + "".join(_csv_row_of(r) + "\n" for r in records)
        )
        (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        for name, content in extra_files.items():
            (out_dir / name).write_text(content)
        if plot_spec is not None:
            (out_dir / "plot.svg").write_text(_svg_line_chart(**plot_spec))
    except OSError as e:
        raise ValidationError(f"cannot write artifacts: {e}") from None


def _svg_line_chart(series, title, xlabel, ylabel) -> str:
    """Self-contained SVG polyline chart.

    ``series`` is a list of (label, [(x, y), ...]); coordinates are
    formatted with fixed precision so output is deterministic.
    """
    width, height = 640, 420
    ml, mr, mt, mb = 64, 16, 36, 48
    palette = ["#1f6fb2", "#d1495b", "#3a7d44", "#8e6c8a", "#c77d2e", "#3d3d3d"]
    pts = [p for _, data in series for p in data]
    if not pts:
        raise ValidationError("nothing to plot")
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
    records = [_result_record(r, "drift", cfg.rho)]
    for label in ("coord1", "coord2"):
        if label in r.details:
            coord = estimators.EstimateResult(
                **r.details[label], n=r.n, trials=r.trials, seed=r.seed,
                method=f"drift-mc-{label}",
            )
            records.append(_result_record(coord, "drift", cfg.rho))
    return records, None, {}


def _run_entropy(cfg: RunConfig):
    m = measures.uniform_letter_count(cfg.measure)
    method = cfg.options["method"]
    if method == "auto":
        method = "pointwise" if (m is not None and cfg.rho is not None) else "exact"
    records = []
    plot = None
    if method == "pointwise":
        if m is None:
            raise UnsupportedRegimeError(
                "pointwise entropy needs a uniform single-letter semigroup measure"
            )
        if cfg.rho is None:
            raise ValidationError("pointwise entropy needs rho")
        r = estimators.shannon_pointwise(m, cfg.rho, cfg.n, cfg.trials, cfg.seed)
        rec = _result_record(r, "entropy", cfg.rho)
        rec["details"]["closed_form"] = oracle.h_semigroup(m, cfg.rho)
        records.append(rec)
    else:
        step = cfg.measure
        if cfg.rho is not None:
            step = measures.build_pi_rho(cfg.measure, cfg.rho)
        n_max = cfg.options["n_max"]
        try:
            curve = estimators.entropy_exact_curve(step, n_max, cfg.cap, strict=True)
        except TruncationError as e:
            raise TruncationError(
                f"exact entropy needs a larger cap: {e}", e.level, e.lost_mass
            )
        for i, n in enumerate(curve.ns):
            r = estimators.exact_result(
                curve.values[i], n, cfg.seed, "entropy-exact",
                details={"upper_bound": curve.upper_bounds[i],
                         "truncated": curve.truncated[i]},
            )
            records.append(_result_record(r, "entropy", cfg.rho))
        upper, increment = estimators.entropy_rate_estimate(curve)
        r = estimators.exact_result(
            increment, curve.ns[-1], cfg.seed, "entropy-increment",
            details={"upper_rate": upper},
        )
        records.append(_result_record(r, "entropy", cfg.rho))
        if cfg.plot:
            plot = {
                "series": [
                    ("H(n)", [(n, v) for n, v in zip(curve.ns, curve.values)]),
                    ("n * increment", [(n, n * increment) for n in curve.ns]),
                ],
                "title": "Exact entropy growth",
                "xlabel": "n",
                "ylabel": "H (nats)",
            }
    return records, plot, {}


def _run_tv(cfg: RunConfig):
    records = []
    m = measures.uniform_letter_count(cfg.measure)
    if m is not None:
        for n in range(1, cfg.n + 1):
            r = estimators.exact_result(
                oracle.tv_semigroup(m, cfg.rho, n), n, cfg.seed, "tv-oracle"
            )
            records.append(_result_record(r, "tv", cfg.rho))
    values = estimators.tv_exact_curve(
        cfg.measure, cfg.rho, min(cfg.options["n_exact"], cfg.n), cap=cfg.cap
    )
    for n, v in enumerate(values, 1):
        r = estimators.exact_result(v, n, cfg.seed, "tv-exact")
        records.append(_result_record(r, "tv", cfg.rho))
    r = estimators.tv_lower_bound_mc(
        cfg.measure, cfg.rho, cfg.n, cfg.trials, cfg.seed,
        threshold_frac=cfg.options["threshold_frac"], workers=cfg.workers,
    )
    records.append(_result_record(r, "tv", cfg.rho))
    plot = None
    if cfg.plot:
        series = []
        oracle_pts = [
            (rec["n"], rec["value"]) for rec in records if rec["method"] == "tv-oracle"
        ]
        exact_pts = [
            (rec["n"], rec["value"]) for rec in records if rec["method"] == "tv-exact"
        ]
        if oracle_pts:
            series.append(("closed form", oracle_pts))
        if exact_pts:
            series.append(("exact", exact_pts))
        plot = {
            "series": series,
            "title": f"Total variation vs n (rho={cfg.rho})",
            "xlabel": "n",
            "ylabel": "TV",
        }
    return records, plot, {}


def _run_dimension(cfg: RunConfig):
    opts = cfg.options
    extras: dict[str, str] = {}
    records = []
    m = measures.uniform_letter_count(cfg.measure)
    if cfg.rho_grid is not None:
        rep = boundary_mod.dimension_singularity_check(
            cfg.measure, cfg.rho_grid[0], cfg.rho_grid[1],
            horizon=opts["horizon"], trials=cfg.trials, t_grid=opts["t_grid"],
            n_centers=opts["centers"], seed=cfg.seed, min_count=opts["min_count"],
            workers=cfg.workers,
        )
        for rho, r, closed in (
            (cfg.rho_grid[0], rep.dim_a, rep.closed_form_a),
            (cfg.rho_grid[1], rep.dim_b, rep.closed_form_b),
        ):
            rec = _result_record(r, "dimension", rho)
            if closed is not None:
                rec["details"]["closed_form"] = closed
            records.append(rec)
        gap_half = 1.96 * rep.gap_std_error
        gap = estimators.EstimateResult(
            rep.gap, rep.gap_std_error, rep.gap - gap_half, rep.gap + gap_half,
            opts["horizon"], cfg.trials, cfg.seed, "dimension-gap",
            {"conclusive": rep.conclusive},
        )
        records.append(_result_record(gap, "dimension", None))
        return records, None, extras
    keep = opts["keep_depth"] or max(opts["t_grid"])
    samples = boundary_mod.sample_boundary(
        cfg.measure, cfg.rho, opts["horizon"], cfg.trials, cfg.seed,
        keep_depth=keep, workers=cfg.workers,
    )
    tree = boundary_mod.build_tree(samples, max(opts["t_grid"]))
    r = boundary_mod.local_dimension(
        samples, tree, opts["t_grid"], opts["centers"], cfg.seed,
        min_count=opts["min_count"],
    )
    rec = _result_record(r, "dimension", cfg.rho)
    if m is not None:
        rec["details"]["closed_form"] = oracle.h_semigroup(m, cfg.rho)
    records.append(rec)
    if opts["export_tree_depth"]:
        extras["tree.txt"] = "".join(
            line + "\n" for line in tree.export_records(opts["export_tree_depth"])
        )
    return records, None, extras


def _run_sweep(cfg: RunConfig):
    opts = cfg.options
    table = estimators.rho_sweep(
        cfg.measure, cfg.rho_grid, n=cfg.n, trials=cfg.trials, seed=cfg.seed,
        tv_ns=opts["tv_ns"], threshold_frac=opts["threshold_frac"],
        entropy_exact_max=opts["n_max"], cap=cfg.cap, workers=cfg.workers,
    )
    records = []
    for row in table.rows:
        rec = _result_record(row.entropy, "sweep", row.rho)
        if row.closed_form_entropy is not None:
            rec["details"]["closed_form"] = row.closed_form_entropy
        records.append(rec)
        records.append(_result_record(row.drift, "sweep", row.rho))
        for tn, tr in row.tv_lower:
            records.append(_result_record(tr, "sweep", row.rho))
    star = estimators.rho_star_estimate(table, opts["margin"])
    r = estimators.exact_result(
        star.value, 0, cfg.seed, "rho-star", trials=0,
        details={"margin": star.margin, "warning": star.warning},
    )
    records.append(_result_record(r, "sweep", None))
    header = ["rho", "h_value", "h_std_error", "h_closed_form",
              "drift_value", "drift_std_error"]
    for tn in opts["tv_ns"]:
        header.append(f"tv{tn}_value")
    lines = [",".join(header)]
    for row in table.rows:
        cells = [
            repr(row.rho),
            repr(row.entropy.value),
            repr(row.entropy.std_error),
            "" if row.closed_form_entropy is None else repr(row.closed_form_entropy),
            repr(row.drift.value),
            repr(row.drift.std_error),
        ]
        for _, tr in row.tv_lower:
            cells.append(repr(tr.value))
        lines.append(",".join(cells))
    extras = {"sweep.csv": "".join(line + "\n" for line in lines)}
    plot = None
    if cfg.plot:
        series = [
            ("h estimate", [(row.rho, row.entropy.value) for row in table.rows])
        ]
        if table.uniform_letters is not None:
            series.append(
                ("closed form",
                 [(row.rho, row.closed_form_entropy) for row in table.rows])
            )
        plot = {
            "series": series,
            "title": "Entropy vs noise parameter",
            "xlabel": "rho",
            "ylabel": "h (nats)",
        }
    return records, plot, extras


def _run_report(cfg: RunConfig):
    path = cfg.out / "results.json"
    if not path.exists():
        raise ValidationError(f"no results.json in {cfg.out}")
    records = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValidationError(f"results.json line {number} is not JSON: {e}") from None
            if not isinstance(record, dict):
                raise ValidationError(f"results.json line {number} is not a JSON object")
            records.append(record)
    if not records:
        raise ValidationError("results.json is empty")
    plot = None
    if cfg.plot:
        by_rho = [
            (r["rho"], r["value"])
            for r in records
            if r.get("rho") is not None
            and r.get("method") in ("shannon-pointwise", "entropy-increment")
        ]
        tv_curve = [
            (r["n"], r["value"]) for r in records if r.get("method") == "tv-oracle"
        ]
        series = []
        if by_rho:
            series.append(("h estimate", sorted(by_rho)))
        if tv_curve:
            series.append(("tv closed form", sorted(tv_curve)))
        if series:
            plot = {
                "series": series,
                "title": "Report",
                "xlabel": "rho / n",
                "ylabel": "value",
            }
    return records, plot, {}


_EXECUTORS = {
    "drift": _run_drift,
    "entropy": _run_entropy,
    "tv": _run_tv,
    "dimension": _run_dimension,
    "sweep": _run_sweep,
    "report": _run_report,
}


def execute(cfg: RunConfig) -> int:
    """Run a validated config and write its artifacts.  Returns 0."""
    records, plot, extras = _EXECUTORS[cfg.subcommand](cfg)
    meta = {
        "created": datetime.now(timezone.utc).isoformat(),
        "subcommand": cfg.subcommand,
        "seed": cfg.seed,
        "workers": cfg.workers,
        "package_version": __version__,
        "argv": sys.argv,
    }
    write_report(cfg.out, records, plot if cfg.plot else None, extras, meta)
    return 0


def _dispatch(subcommand: str, config: str | None, flags: dict) -> None:
    try:
        cfg = parse_config(subcommand, config, flags)
        execute(cfg)
    except (InputError, ValidationError, UnsupportedRegimeError) as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(2)
    except (BudgetError, TruncationError) as e:
        click.echo(f"compute budget exceeded: {e}", err=True)
        sys.exit(3)
    sys.exit(0)


def _common_options(f):
    opts = [
        click.option("--config", type=click.Path(), default=None,
                     help="JSON config file."),
        click.option("--seed", type=int, default=None, help="RNG seed (mandatory)."),
        click.option("--trials", type=int, default=None),
        click.option("--rho", type=float, default=None),
        click.option("--rho-grid", "rho_grid", type=str, default=None,
                     help="Grid a:b:step."),
        click.option("--n", type=int, default=None),
        click.option("--group", type=str, default=None,
                     help="free_group:K or free_semigroup:M."),
        click.option("--out", type=click.Path(), default=None,
                     help="Output directory."),
        click.option("--workers", type=int, default=None),
        click.option("--plot", is_flag=True, default=None,
                     help="Also write plot.svg."),
    ]
    for opt in reversed(opts):
        f = opt(f)
    return f


@click.group()
@click.version_option(__version__)
def main():
    """Coupled random walks on free groups: drift, entropy, TV, dimension."""


def _make_command(name: str, extra_help: str):
    @main.command(name=name, help=extra_help)
    @_common_options
    def cmd(config, **flags):
        _dispatch(name, config, flags)

    return cmd


_make_command("drift", "Monte Carlo drift of the walk (coupled pair when rho given).")
_make_command("entropy", "Entropy rate: pointwise Monte Carlo or exact convolution.")
_make_command("tv", "Total variation: closed form, exact, and Monte Carlo lower bound.")
_make_command("dimension", "Boundary local dimension (singularity check with 2 rhos).")
_make_command("sweep", "Entropy/drift/TV sweep over a rho grid, with rho* estimate.")


@main.command(name="report")
@click.option("--config", type=click.Path(), default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--plot", is_flag=True, default=None)
def report_cmd(config, out, plot):
    """Regenerate table.csv (and plot) from an existing results.json."""
    _dispatch("report", config, {"out": out, "plot": plot})


if __name__ == "__main__":
    main()
