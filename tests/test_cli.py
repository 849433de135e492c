"""Config validation, artifact layout, exit codes, and determinism."""

import hashlib
import json
import math
import re
import resource
import subprocess
import sys
import tracemalloc

import pytest

from click.testing import CliRunner

from noisewalk import estimators, measures, walkers
from noisewalk.cli import _SUBCOMMANDS, CSV_HEADER, execute, main, parse_config
from noisewalk.errors import ValidationError
from noisewalk.oracle import h_semigroup, tv_semigroup


def run_cli(*args, cwd=None, preexec_fn=None):
    return subprocess.run(
        [sys.executable, "-m", "noisewalk.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
        preexec_fn=preexec_fn,
    )


# ---------------------------------------------------------------------------
# config parsing (in process)


def test_parse_config_defaults_and_flags(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "spec_version": 1,
        "group": "free_semigroup:2",
        "rho": 0.5,
        "seed": 4,
        "n": 100,
    }))
    cfg = parse_config("drift", str(cfgfile), {"trials": 77})
    assert cfg.seed == 4
    assert cfg.n == 100
    assert cfg.trials == 77  # flag overrides the drift default
    assert cfg.measure.inverse_free and cfg.measure.rank == 2
    assert cfg.workers == 1


def test_parse_config_flag_overrides_file(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "spec_version": 1, "group": "free_semigroup:2",
        "rho": 0.2, "seed": 4,
    }))
    cfg = parse_config("drift", str(cfgfile), {"rho": 0.9, "seed": 10})
    assert cfg.rho == 0.9
    assert cfg.seed == 10


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValidationError, match="unknown config keys"):
        parse_config("drift", None, {"group": "free_semigroup:2", "seed": 1,
                                     "bogus": 3})


def test_parse_config_requires_seed():
    with pytest.raises(ValidationError, match="seed is mandatory"):
        parse_config("drift", None, {"group": "free_semigroup:2"})


def test_parse_config_group_strings():
    cfg = parse_config("drift", None, {"group": "free_group:3", "seed": 1})
    assert cfg.measure.rank == 3 and not cfg.measure.inverse_free
    for bad in ("braid:2", "free_group", "free_group:x", "free_group:1"):
        with pytest.raises(ValidationError):
            parse_config("drift", None, {"group": bad, "seed": 1})


def test_parse_config_rho_grid_forms():
    cfg = parse_config("sweep", None, {"group": "free_semigroup:2", "seed": 1,
                                       "rho_grid": "0:1:0.5"})
    assert cfg.rho_grid == (0.0, 0.5, 1.0)
    cfg = parse_config("sweep", None, {"group": "free_semigroup:2", "seed": 1,
                                       "rho_grid": [0.1, 0.4]})
    assert cfg.rho_grid == (0.1, 0.4)
    # flag form may also carry a JSON list
    cfg = parse_config("sweep", None, {"group": "free_semigroup:2", "seed": 1,
                                       "rho_grid": "[0.2, 1.0]"})
    assert cfg.rho_grid == (0.2, 1.0)
    for bad in ("1:0:0.5", "0:1:0", [0.5, 0.2], [2.0], [], "[0.2,", '["a"]'):
        with pytest.raises(ValidationError):
            parse_config("sweep", None, {"group": "free_semigroup:2", "seed": 1,
                                         "rho_grid": bad})


def test_parse_config_inline_measure_and_conflicts():
    inline = {
        "rank": 2,
        "kind": "single",
        "atoms": [
            {"word": [1], "weight": "1/2"},
            {"word": [2], "weight": "1/2"},
        ],
    }
    cfg = parse_config("drift", None, {"measure": inline, "seed": 1, "rho": 0.5})
    assert cfg.measure.support_size == 2
    with pytest.raises(ValidationError, match="conflicts with group rank"):
        parse_config("drift", None, {"measure": inline, "seed": 1,
                                     "group": "free_semigroup:3"})
    withinv = dict(inline, atoms=[
        {"word": [1], "weight": "1/2"},
        {"word": [-1], "weight": "1/2"},
    ])
    with pytest.raises(ValidationError, match="inverse letters"):
        parse_config("drift", None, {"measure": withinv, "seed": 1,
                                     "group": "free_semigroup:2"})
    nan = dict(inline, atoms=[{"word": [1], "weight": "nan"}])
    with pytest.raises(ValidationError, match="not finite"):
        parse_config("drift", None, {"measure": nan, "seed": 1, "rho": 0.5})


@pytest.mark.parametrize(
    "subcommand, bad",
    [
        ("tv", {"rho": "abc"}),
        ("tv", {"rho": True}),
        ("tv", {"threshold_frac": "x"}),
        ("sweep", {"tv_ns": ["a"]}),
        ("sweep", {"tv_ns": [0]}),
        ("sweep", {"tv_ns": 3}),
        ("sweep", {"tv_ns": [5, 5]}),
        ("sweep", {"threshold_frac": [0.2]}),
        ("dimension", {"t_grid": [1.5, 2.7]}),
        ("dimension", {"export_tree_depth": "6"}),
        ("dimension", {"t_grid": [1, 10], "keep_depth": 5}),
        ("dimension", {"t_grid": [1, 10], "export_tree_depth": 40}),
    ],
    ids=["rho-str", "rho-bool", "threshold-str", "tv_ns-str", "tv_ns-zero",
         "tv_ns-scalar", "tv_ns-repeated", "threshold-list", "t_grid-float",
         "export-depth-str", "keep-depth-shallow", "export-depth-deep"],
)
def test_parse_config_rejects_malformed_values(subcommand, bad):
    base = {"group": "free_semigroup:2", "seed": 1}
    base.update({"tv": {"rho": 0.5}, "sweep": {"rho_grid": [0.2, 0.8]},
                 "dimension": {"rho": 0.5}}[subcommand])
    with pytest.raises(ValidationError):
        parse_config(subcommand, None, {**base, **bad})


def test_parse_config_dimension_depths_name_the_option():
    base = {"group": "free_semigroup:2", "seed": 1, "t_grid": [1, 10]}
    with pytest.raises(ValidationError, match="keep_depth 5 "):
        parse_config("dimension", None, {**base, "rho": 0.5, "keep_depth": 5})
    with pytest.raises(ValidationError, match="export_tree_depth 40 "):
        parse_config("dimension", None, {**base, "rho": 0.5, "export_tree_depth": 40})
    # 0 means the default for both keys
    parse_config("dimension", None,
                 {**base, "rho": 0.5, "keep_depth": 0, "export_tree_depth": 0})
    # a rho_grid run builds no tree, so it refuses both keys, even at 0
    for key in ("keep_depth", "export_tree_depth"):
        with pytest.raises(ValidationError, match=rf"does not read {key}$"):
            parse_config("dimension", None, {**base, "rho_grid": [0.2, 0.8], key: 0})


def test_cli_dimension_horizon_one_names_the_horizon(tmp_path):
    # the default t_grid is 1..min(20, horizon), one depth at horizon 1: the
    # refusal names the key that was set, not the t_grid that was not
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"spec_version": 1, "group": "free_semigroup:2", "rho": 0.5,
                               "horizon": 1, "seed": 1}))
    r = CliRunner().invoke(main, ["dimension", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert r.exit_code == 2, r.output
    assert "horizon 1 leaves the default t_grid one depth" in r.output
    assert "give a horizon >= 2, or a t_grid" in r.output
    # at horizon 2 the default t_grid is [1, 2], and an explicit one is read as given
    assert parse_config("dimension", str(cfg), {"horizon": 2}).t_grid == (1, 2)
    two_letters = {"rank": 2, "kind": "single", "atoms": [{"word": [1, 2], "weight": 1}]}
    given = parse_config("dimension", str(cfg), {"measure": two_letters, "t_grid": [1, 2]})
    assert given.t_grid == (1, 2) and given.horizon == 1


# ---------------------------------------------------------------------------
# exit codes (subprocess)


def test_cli_validation_errors_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "spec_version": 1, "group": "free_semigroup:2",
        "rho": 0.5, "seed": 1, "mystery": True,
    }))
    r = run_cli("drift", "--config", str(bad), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "unknown config keys" in r.stderr

    noseed = tmp_path / "noseed.json"
    noseed.write_text(json.dumps({
        "spec_version": 1, "group": "free_semigroup:2", "rho": 0.5,
    }))
    r = run_cli("drift", "--config", str(noseed), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "seed is mandatory" in r.stderr

    r = run_cli("drift", "--group", "free_semigroup:2", "--rho", "1.5",
                "--seed", "1", "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "rho" in r.stderr

    notnum = tmp_path / "notnum.json"
    notnum.write_text(json.dumps({
        "spec_version": 1, "group": "free_semigroup:2", "rho": "abc", "seed": 1,
    }))
    r = run_cli("tv", "--config", str(notnum), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "rho must be a number" in r.stderr


@pytest.mark.parametrize(
    "subcommand, bad, key",
    [
        ("drift", {"group": 5}, "group"),
        ("drift", {"out": 5}, "out"),
        ("tv", {"rho": 0.5, "plot": "no"}, "plot"),
        ("tv", {"rho": 0.5, "route": "pair"}, "route"),
        ("sweep", {"rho_grid": [0.2, 0.8], "rho": 0.5}, "rho"),
        ("sweep", {"rho_grid": [0.2, 0.8], "margin": 0.1}, "margin"),
        ("sweep", {"rho_grid": "0:1:1e-12"}, "rho_grid"),
        ("drift", {"group": "free_group:99999999999"}, "group"),
    ],
    ids=["group-int", "out-int", "plot-str", "tv-route", "sweep-rho", "sweep-margin",
         "rho_grid-huge", "group-huge"],
)
def test_cli_wrong_key_types_exit_two(tmp_path, subcommand, bad, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "spec_version": 1, "group": "free_semigroup:2", "seed": 1,
        "out": str(tmp_path / "o"), **bad,
    }))
    r = run_cli(subcommand, "--config", str(cfg))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert re.search(rf"\b{key}\b", r.stderr), r.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("form", ["file", "flag"])
@pytest.mark.parametrize("subcommand, key, value", [
    ("drift", "cap", 5), ("drift", "plot", True),
    ("dimension", "n", 5), ("dimension", "cap", 5), ("dimension", "plot", True),
], ids=["drift-cap", "drift-plot", "dimension-n", "dimension-cap", "dimension-plot"])
def test_cli_refuses_keys_the_subcommand_does_not_read(tmp_path, subcommand, key, value,
                                                       form):
    # neither drift nor dimension draws a chart or builds an exact law, and
    # dimension walks to its horizon, not to n
    given = {"spec_version": 1, "group": "free_semigroup:2", "rho": 0.5, "seed": 1}
    flag = ()
    if form == "file":
        given[key] = value
    else:
        flag = (f"--{key}",) if value is True else (f"--{key}", str(value))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(given))
    r = run_cli(subcommand, "--config", str(cfg), "--out", str(tmp_path / "o"), *flag)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert re.search(rf"\b{key}\b", r.stderr), r.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("subcommand, flags", [
    ("drift", "seed trials rho n group out workers"),
    ("entropy", "seed trials rho n group out workers plot"),
    ("tv", "seed trials rho n group out workers plot"),
    ("dimension", "seed trials rho rho-grid group out workers"),
    ("sweep", "seed trials rho-grid n group out workers plot"),
    ("report", "out plot"),
])
def test_cli_help_lists_the_flags_of_its_keys(subcommand, flags):
    r = CliRunner().invoke(main, [subcommand, "--help"])
    assert r.exit_code == 0, r.output
    assert re.findall(r"^  --([a-z-]+)", r.output, re.M) == ["config", *flags.split(), "help"]
    assert {f.replace("-", "_") for f in flags.split()} <= set(_SUBCOMMANDS[subcommand])


# a step whose longest atom has two letters
_TWO_LETTER_ATOM = {"rank": 2, "kind": "single", "atoms": [
    {"word": [1, 2], "weight": "1/2"}, {"word": [2], "weight": "1/2"}]}


@pytest.mark.parametrize(
    "subcommand, bad, key",
    [
        ("sweep", {"rho_grid": "0:1:1e-12"}, "rho_grid"),
        ("sweep", {"rho_grid": "0:1e300:1e-300"}, "rho_grid"),
        ("sweep", {"rho_grid": "0:0:1e-300"}, "rho_grid"),
        ("sweep", {"rho_grid": "0:0:1e-13"}, "rho_grid"),
        ("sweep", {"rho_grid": "0.5:0.5:1e-20"}, "rho_grid"),
        ("sweep", {"rho_grid": [i / 20_000 for i in range(10_001)]}, "rho_grid"),
        ("sweep", {"rho_grid": "0:1:nan"}, "rho_grid"),
        ("sweep", {"rho_grid": "0:inf:0.5"}, "rho_grid"),
        ("drift", {"group": "free_group:99999999999"}, "group"),
        ("drift", {"group": f"free_semigroup:{walkers._MAX_RANK_INT8 + 1}"}, "group"),
        # no sample has letters past horizon x longest atom
        ("dimension", {"rho": 0.5, "horizon": 50, "trials": 50, "t_grid": [1, 10**11]},
         "t_grid"),
        ("dimension", {"rho_grid": [0.2, 1.0], "horizon": 50, "t_grid": [1, 10**11]},
         "t_grid"),
        ("dimension", {"rho": 0.5, "horizon": 50, "t_grid": [1, 51]}, "t_grid"),
        ("dimension", {"rho": 0.5, "horizon": 50, "t_grid": [1, 10], "keep_depth": 10**11},
         "keep_depth"),
        ("dimension", {"measure": _TWO_LETTER_ATOM, "rho": 0.5, "horizon": 5,
                       "t_grid": [1, 11]}, "t_grid"),
        # an inline measure's word table has 2 x rank letters
        ("entropy", {"group": None, "rho": 0.5, "measure": {
            "rank": 10**9, "kind": "single", "atoms": [{"word": [1], "weight": "1"}]}},
         "measure"),
    ],
)
def test_oversized_configs_are_refused_before_any_work(subcommand, bad, key):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=rf"\b{key}\b"):
            parse_config(subcommand, None, {"group": "free_semigroup:2", "seed": 1, **bad})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_largest_rho_grid_and_rank_still_parse():
    ok = parse_config("sweep", None, {"group": "free_semigroup:2", "seed": 1,
                                      "rho_grid": "0:0.9999:1e-4"})
    assert len(ok.rho_grid) == 10_000
    top = parse_config("drift", None, {"group": f"free_group:{walkers._MAX_RANK_INT8}",
                                       "seed": 1})
    assert top.measure.rank == walkers._MAX_RANK_INT8
    inline = parse_config("drift", None, {"seed": 1, "measure": {
        "rank": walkers._MAX_RANK_INT8, "kind": "single",
        "atoms": [{"word": [1], "weight": "1"}]}})
    assert inline.measure.rank == walkers._MAX_RANK_INT8
    deepest = parse_config("dimension", None, {
        "group": "free_semigroup:2", "measure": _TWO_LETTER_ATOM, "seed": 1, "rho": 0.5,
        "horizon": 5, "t_grid": [1, 10], "keep_depth": 10,
    })
    assert deepest.t_grid[-1] == deepest.keep_depth == 10


def test_cli_missing_spec_version_exits_two(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"group": "free_semigroup:2", "seed": 1}))
    r = run_cli("drift", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "spec_version" in r.stderr


@pytest.mark.parametrize("version", [True, 1.0, "1", 2])
def test_cli_spec_version_other_than_the_integer_one_exits_two(tmp_path, version):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"spec_version": version, "group": "free_semigroup:2", "seed": 1}))
    r = run_cli("drift", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert f"unsupported spec_version {version!r}" in r.stderr
    assert "Traceback" not in r.stderr and not (tmp_path / "o").exists()


@pytest.mark.parametrize("fault", ["not-utf8", "directory"])
@pytest.mark.parametrize("name", ["c.json", "results.json"])
def test_cli_unreadable_files_exit_two(tmp_path, name, fault):
    path = tmp_path / name
    if fault == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"spec_version": 1, "seed": 1, "out": "\xff"}\n')
    if name == "c.json":
        r = run_cli("drift", "--config", str(path), "--group", "free_semigroup:2",
                    "--out", str(tmp_path / "o"))
    else:
        r = run_cli("report", "--out", str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert str(path) in r.stderr
    assert not (tmp_path / "o").exists() and not (tmp_path / "table.csv").exists()


def test_cli_tv_default_cap_holds_six_free_group_levels(tmp_path):
    # level 6 of free_group:2 at rho 0.5 has 1,194,649 pair atoms
    assert _SUBCOMMANDS["tv"]["cap"] == 2_000_000
    out = tmp_path / "run"
    r = run_cli("tv", "--group", "free_group:2", "--rho", "0.5", "--seed", "7",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    records = [json.loads(l) for l in (out / "results.json").read_text().splitlines()]
    assert [rec["n"] for rec in records if rec["method"] == "tv-exact"] == [1, 2, 3, 4, 5, 6]


def test_cli_budget_error_exits_three(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "spec_version": 1, "group": "free_group:2", "rho": 0.5, "seed": 1,
        "method": "exact", "n_max": 8, "cap": 1000,
    }))
    r = run_cli("entropy", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 3
    assert "cap" in r.stderr


def _three_gib_address_space():
    """Limit the calling process, a child about to run the command, to 3 GiB."""
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def test_cli_memory_error_exits_three_without_a_traceback(tmp_path):
    # the default cap cuts level 2 of free_group:20 to 2 * 10^6 atoms, and the
    # chunked step of level 3 then asks for all 3.2e9 products at once
    r = run_cli("sweep", "--group", "free_group:20", "--rho-grid", "[0.5]", "--n", "10",
                "--trials", "10", "--seed", "1", "--out", str(tmp_path / "o"),
                preexec_fn=_three_gib_address_space)
    assert r.returncode == 3, r.stderr
    assert r.stderr.startswith("compute budget exceeded: Unable to allocate")
    assert "Traceback" not in r.stderr


def test_cli_entropy_refuses_a_product_level_past_the_cap_before_making_it(tmp_path):
    # level 6 of free_group:2 at rho 0.5 has 1,194,649 pair atoms (9.6 MB of
    # float masses); its size is known before its step makes a product, so
    # a strict run stops there instead of making the level and cutting it
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "spec_version": 1, "group": "free_group:2", "rho": 0.5, "seed": 1,
        "method": "exact", "n_max": 6, "cap": 1_000_000,
    }))
    tracemalloc.start()
    try:
        r = CliRunner().invoke(
            main, ["entropy", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.exit_code == 3
    assert "support size 1194649 exceeds cap 1000000 at level 6" in r.output
    assert peak < 1_194_649 * 8


def test_cli_pointwise_on_group_exits_two(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "spec_version": 1, "group": "free_group:2", "rho": 0.5, "seed": 1,
        "method": "pointwise",
    }))
    r = run_cli("entropy", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "pointwise entropy" in r.stderr


@pytest.mark.parametrize("subcommand, keys, code", [
    ("entropy", {"group": "free_group:2", "rho": 0.5, "method": "exact"}, 2),
    ("entropy", {"group": "free_group:2", "rho": 0.5}, 2),  # auto: exact on a group
    ("entropy", {"group": "free_semigroup:2", "method": "exact"}, 2),
    ("sweep", {"group": "free_group:2", "rho_grid": "0:1:0.5"}, 2),
    ("sweep", {"group": "free_semigroup:1", "rho_grid": "0:1:0.5"}, 2),
    # pointwise: no exact level is read, so one is enough
    ("sweep", {"group": "free_semigroup:2", "rho_grid": "0:1:0.5"}, 0),
    ("entropy", {"group": "free_semigroup:2", "rho": 0.5}, 0),
])
def test_cli_one_exact_level_is_refused_before_any_work(tmp_path, monkeypatch, subcommand,
                                                         keys, code):
    # a rate is an increment of two levels; n_max = 1 used to compute every
    # level (and, in sweep, the drift of mu) before exiting 2
    ran = []
    for module, name in [(estimators, "drift_mc"), (estimators, "iter_convolution_levels"),
                         (measures, "iter_convolution_levels")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **kw:
                            ran.append(name) or real(*a, **kw))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"spec_version": 1, "n_max": 1, "n": 20, "trials": 10,
                               "seed": 1, **keys}))
    r = CliRunner().invoke(main, [subcommand, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert r.exit_code == code, r.output
    if code:
        assert "need at least two untruncated levels for a rate" in r.output
        assert ran == []
    else:
        assert "iter_convolution_levels" not in ran


# ---------------------------------------------------------------------------
# artifacts


def test_cli_drift_artifacts(tmp_path):
    out = tmp_path / "run"
    r = run_cli("drift", "--group", "free_semigroup:2", "--rho", "0.5",
                "--n", "100", "--trials", "60", "--seed", "3",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = (out / "table.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[:5] == ["0.5", "100", "60", "3", "drift-mc"]
    assert float(cells[5]) == 1.0
    records = [json.loads(l) for l in (out / "results.json").read_text().splitlines()]
    assert records[0]["method"] == "drift-mc"
    # every Monte Carlo row must be reproducible in isolation
    for rec in records:
        if rec.get("std_error") is not None:
            assert rec["seed"] is not None
            assert rec["trials"] is not None and rec["trials"] > 0
            assert rec["method"]
    meta = json.loads((out / "meta.json").read_text())
    assert meta["seed"] == 3 and meta["subcommand"] == "drift"


def test_cli_entropy_matches_closed_form(tmp_path):
    out = tmp_path / "run"
    r = run_cli("entropy", "--group", "free_semigroup:3", "--rho", "0.25",
                "--n", "2000", "--trials", "100", "--seed", "5",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    rec = [json.loads(l) for l in (out / "results.json").read_text().splitlines()][0]
    h = h_semigroup(3, 0.25)
    assert rec["details"]["closed_form"] == h
    assert abs(rec["value"] - h) / h < 0.02


def test_cli_entropy_exact_golden(tmp_path):
    # non-dyadic pair masses at rho = 0.3: any change in summation order
    # shows in the bytes; pinned before the level sort packed keys
    execute(parse_config("entropy", None, {
        "group": "free_group:2", "rho": 0.3, "method": "exact", "n_max": 6,
        "cap": 2_000_000, "seed": 1, "out": str(tmp_path),
    }))
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in ("results.json", "table.csv")}
    assert digests == {
        "results.json": "c65fde3f8a4f7e927297587e909f9d3e37f8177e1529427e2a5d58d26ffcaf7e",
        "table.csv": "a1613b1dd6bbe81fd44a31f6daecbb7bba6e8a698813b35954c67be6819a3e3f",
    }


def test_cli_sweep_keyed_levels_golden(tmp_path):
    # float weights: every sum depends on its order.  At rho = 0 the
    # diagonal levels are keys from level 1 and level 5 is cut by the cap;
    # at rho = 0.5 level 1 is a product, level 3 is cut, and the levels
    # after it take the chunked step.  Pinned before level 1 of a product
    # step was held as factors.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "spec_version": 1,
        "measure": {"rank": 2, "kind": "single", "atoms": [
            {"word": [1], "weight": "0.4"}, {"word": [-1], "weight": "0.1"},
            {"word": [2], "weight": "0.3"}, {"word": [-2], "weight": "0.2"},
        ]},
        "rho_grid": [0, 0.5], "n": 20, "trials": 10, "n_max": 5, "cap": 200, "seed": 11,
    }))
    execute(parse_config("sweep", str(cfg), {"out": str(tmp_path / "run")}))
    digests = {f: hashlib.sha256((tmp_path / "run" / f).read_bytes()).hexdigest()
               for f in ("results.json", "sweep.csv")}
    assert digests == {
        "results.json": "67289cc11952adc0f408877f9e9b2369b43c6647c146bc4d6940fccec00a2d7a",
        "sweep.csv": "fe0bf2ab39831ea8507018afa1e0faea5c5911702731c5f342cce983460fc16a",
    }


@pytest.mark.parametrize("keys,digests", [
    ({"group": "free_semigroup:2", "rho_grid": [0.2, 1.0], "trials": 4000, "seed": 7}, {
        "results.json": "0150b9b8147d23fc62653c610826b54b3f9ecd2b9ec01eda467bdb81c49233d1",
        "table.csv": "ecc5d7a4245ce976b890cc601d763cd896a28732d2eedd6a36e9d7440dc05a26",
    }),
    ({"group": "free_group:2", "rho_grid": [0.3, 0.9], "trials": 3000, "seed": 5}, {
        "results.json": "ec35356b4df35755d52bd17cd59f909a654b6f8c4cef5d1f612f166282dba951",
        "table.csv": "3a03d8fe7a19289fe753631a9163fa33f44a480d0aa0d4ce586b35506551561b",
    }),
])
def test_cli_dimension_two_point_golden(tmp_path, keys, digests):
    # both local-dimension records (with the closed forms on a uniform
    # semigroup step) and the dimension-gap record
    execute(parse_config("dimension", None, {**keys, "out": str(tmp_path)}))
    assert {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
            for f in digests} == digests
    recs = [json.loads(l) for l in (tmp_path / "results.json").read_text().splitlines()]
    semigroup = keys["group"] == "free_semigroup:2"
    assert [r["details"].get("closed_form") for r in recs] == [
        *(h_semigroup(2, rho) if semigroup else None for rho in keys["rho_grid"]), None]


@pytest.mark.parametrize("group", ["free_semigroup:2", "free_group:2"],
                         ids=["pointwise", "exact-increment"])
def test_cli_sweep_csv_rows_are_the_sweep_records(tmp_path, group):
    # each sweep.csv row is read off its grid point's results.json records:
    # the entropy record, then one TV lower bound per tv_ns entry
    tv_ns = [3, 5]
    execute(parse_config("sweep", None, {
        "group": group, "rho_grid": [0.0, 0.5, 1.0], "n": 30, "trials": 20, "n_max": 3,
        "tv_ns": tv_ns, "seed": 4, "out": str(tmp_path)}))
    recs = [json.loads(l) for l in (tmp_path / "results.json").read_text().splitlines()]
    header, *rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert header == "rho,h_value,h_std_error,h_closed_form,tv3_value,tv5_value"
    assert recs.pop(0)["method"] == "drift-mc" and len(recs) == 3 * len(rows) == 9
    for row, (ent, *tvs) in zip(rows, zip(*[iter(recs)] * 3)):
        closed = ent["details"].get("closed_form")
        assert (closed is not None) == (group == "free_semigroup:2")
        assert [(r["rho"], r["n"], r["method"]) for r in tvs] == [
            (ent["rho"], tn, "tv-lower-mc") for tn in tv_ns]
        assert row.split(",") == [
            repr(ent["rho"]), repr(ent["value"]), repr(ent["std_error"]),
            "" if closed is None else repr(closed), *(repr(r["value"]) for r in tvs)]


def test_cli_sweep_drift_record_is_the_drift_of_mu(tmp_path):
    # each coordinate of pi_rho is a mu-walk: the sweep's one drift-mc
    # record is the record drift writes without rho
    common = {"group": "free_group:2", "n": 60, "trials": 30, "seed": 3}
    execute(parse_config("sweep", None, {**common, "rho_grid": [0.0, 1.0], "n_max": 2,
                                         "out": str(tmp_path / "sweep")}))
    execute(parse_config("drift", None, {**common, "out": str(tmp_path / "drift")}))
    sweep, drift = ([json.loads(line) for line in (tmp_path / name / "results.json")
                     .read_text().splitlines()] for name in ("sweep", "drift"))
    assert [r["method"] for r in sweep].count("drift-mc") == 1
    assert len(drift) == 1 and sweep[0]["rho"] is None
    assert sweep[0].pop("subcommand") == "sweep" and drift[0].pop("subcommand") == "drift"
    assert sweep[0] == drift[0]


def test_cli_sweep_default_cap_holds_level_six_of_free_group_2(tmp_path):
    # level 6 of free_group:2 has 1,194,649 pair atoms; the default cap keeps
    # it whole, so the sweep reports the n = 6 increment at its default n_max
    execute(parse_config("sweep", None, {
        "group": "free_group:2", "rho_grid": [0.3, 0.5], "n": 20, "trials": 10, "seed": 1,
        "out": str(tmp_path)}))
    recs = [json.loads(l) for l in (tmp_path / "results.json").read_text().splitlines()]
    assert [(r["rho"], r["n"], r["value"]) for r in recs if r["method"] == "entropy-increment"] == [
        (0.3, 6, 1.2650935909367877), (0.5, 6, 1.355915545403132)]


def test_cli_refuses_a_bad_inline_measure_with_exit_two(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"spec_version": 1, "rho": 0.5, "seed": 1,
                               "measure": {"rank": 2, "kind": "single", "atoms": []}}))
    r = CliRunner().invoke(main, ["drift", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert r.exit_code == 2
    assert "bad inline measure: measure JSON needs a non-empty atom list" in r.output


def test_cli_tv_oracle_rows_golden(tmp_path):
    out = tmp_path / "run"
    r = run_cli("tv", "--group", "free_semigroup:2", "--rho", "0.3",
                "--n", "12", "--trials", "2000", "--seed", "6",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    records = [json.loads(l) for l in (out / "results.json").read_text().splitlines()]
    oracle_rows = [rec for rec in records if rec["method"] == "tv-oracle"]
    assert [rec["n"] for rec in oracle_rows] == list(range(1, 13))
    for rec in oracle_rows:
        assert rec["value"] == tv_semigroup(2, 0.3, rec["n"])
    exact_rows = [rec for rec in records if rec["method"] == "tv-exact"]
    for rec in exact_rows:
        assert abs(rec["value"] - tv_semigroup(2, 0.3, rec["n"])) < 1e-12
    assert records[-1]["method"] == "tv-lower-mc"


def test_cli_sweep_artifacts_and_plot(tmp_path):
    out = tmp_path / "run"
    r = run_cli("sweep", "--group", "free_semigroup:2", "--rho-grid",
                "0:1:0.5", "--n", "400", "--trials", "60", "--seed", "8",
                "--out", str(out), "--plot")
    assert r.returncode == 0, r.stderr
    sweep_lines = (out / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0].startswith("rho,h_value,h_std_error,h_closed_form")
    assert len(sweep_lines) == 4
    for line in sweep_lines[1:]:
        cells = line.split(",")
        assert float(cells[3]) == h_semigroup(2, float(cells[0]))
    svg = (out / "plot.svg").read_text()
    assert svg.startswith("<svg ")
    assert "<polyline" in svg and svg.rstrip().endswith("</svg>")


@pytest.mark.parametrize("subcommand, keys, labels", [
    ("entropy", {"group": "free_group:2", "rho": 0.5, "method": "exact", "n_max": 3},
     ["H(n)"]),
    ("entropy", {"group": "free_semigroup:2", "rho": 0.5, "n": 200, "trials": 20},
     ["h estimate", "closed form"]),
    ("tv", {"group": "free_semigroup:2", "rho": 0.3, "n": 6, "n_exact": 3, "trials": 100},
     ["closed form", "exact"]),
    ("tv", {"group": "free_group:2", "rho": 0.5, "n": 4, "n_exact": 3, "trials": 100},
     ["exact"]),
    ("sweep", {"group": "free_semigroup:2", "rho_grid": [0.0, 0.5, 1.0], "n": 50,
               "trials": 10}, ["h estimate", "closed form"]),
    ("sweep", {"group": "free_group:2", "rho_grid": [0.0, 1.0], "n": 20, "trials": 10,
               "n_max": 3}, ["h estimate"]),
], ids=["entropy-exact", "entropy-pointwise", "tv-semigroup", "tv-group", "sweep-semigroup",
        "sweep-group"])
def test_report_plot_redraws_the_run_chart(tmp_path, subcommand, keys, labels):
    execute(parse_config(subcommand, None,
                         {**keys, "seed": 7, "plot": True, "out": str(tmp_path)}))
    drawn = (tmp_path / "plot.svg").read_bytes()
    assert re.findall(rb'font-size="11" fill="#\w+">([^<]*)</text>', drawn) == [
        label.encode() for label in labels]
    (tmp_path / "plot.svg").unlink()
    execute(parse_config("report", None, {"out": str(tmp_path), "plot": True}))
    assert (tmp_path / "plot.svg").read_bytes() == drawn


def test_cli_dimension_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "spec_version": 1, "group": "free_semigroup:2", "rho": 1.0,
        "seed": 9, "trials": 4000, "horizon": 30,
        "t_grid": [1, 2, 3, 4, 5, 6, 7, 8], "centers": 80,
        "export_tree_depth": 1,
    }))
    r = run_cli("dimension", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 0, r.stderr
    rec = [json.loads(l) for l in (out / "results.json").read_text().splitlines()][0]
    assert rec["method"] == "local-dimension"
    expect = 2 * math.log(2)
    assert abs(rec["value"] - expect) / expect < 0.15
    tree_lines = (out / "tree.txt").read_text().splitlines()
    # depth-1 export of the independent coupling: all four letter pairs
    assert len(tree_lines) == 4
    assert sum(int(l.split()[2]) for l in tree_lines) == 4000


def test_cli_rerun_and_workers_byte_identical(tmp_path):
    args = ("sweep", "--group", "free_semigroup:2", "--rho-grid", "0:1:0.5",
            "--n", "300", "--trials", "50", "--seed", "12")
    outs = []
    for name, extra in (("a", ()), ("b", ()), ("c", ("--workers", "4"))):
        out = tmp_path / name
        r = run_cli(*args, "--out", str(out), *extra)
        assert r.returncode == 0, r.stderr
        outs.append(out)
    a, b, c = outs
    for fname in ("table.csv", "results.json", "sweep.csv"):
        ref = (a / fname).read_bytes()
        assert (b / fname).read_bytes() == ref
        assert (c / fname).read_bytes() == ref


def test_cli_report_roundtrip(tmp_path):
    out = tmp_path / "run"
    r = run_cli("tv", "--group", "free_semigroup:2", "--rho", "0.4",
                "--n", "8", "--trials", "500", "--seed", "2",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    original = (out / "table.csv").read_bytes()
    # report writes only the table and the plot: the run keeps its record
    kept = {f: (out / f).read_bytes() for f in ("meta.json", "results.json")}
    (out / "table.csv").unlink()
    r = run_cli("report", "--out", str(out), "--plot")
    assert r.returncode == 0, r.stderr
    assert (out / "table.csv").read_bytes() == original
    assert (out / "plot.svg").exists()
    assert {f: (out / f).read_bytes() for f in kept} == kept
    assert json.loads(kept["meta.json"])["subcommand"] == "tv"


@pytest.mark.parametrize("subcommand, flags", [
    ("drift", ("--rho", "0.5", "--n", "20", "--trials", "10")),
    ("entropy", ("--rho", "0.5")),
    ("tv", ("--rho", "0.5", "--n", "6", "--trials", "50")),
    ("sweep", ("--rho-grid", "0:1:0.5", "--n", "20", "--trials", "10")),
    ("dimension", ("--rho", "0.5", "--trials", "50")),
])
def test_cli_runs_on_one_letter(tmp_path, subcommand, flags):
    # one letter has no closed form (those need two letters or more): the
    # runs take the exact routes, where both coordinates walk the same ray
    out = tmp_path / "run"
    r = run_cli(subcommand, "--group", "free_semigroup:1", "--seed", "1",
                "--out", str(out), *flags)
    assert r.returncode == 0, r.stderr
    records = [json.loads(l) for l in (out / "results.json").read_text().splitlines()]
    for rec in records:
        if rec["method"] in ("entropy-exact", "entropy-increment", "tv-exact"):
            assert rec["value"] == 0.0
    exact = {rec["method"] for rec in records} & {"entropy-increment", "tv-exact"}
    assert exact == {"entropy": {"entropy-increment"}, "tv": {"tv-exact"},
                     "sweep": {"entropy-increment"}}.get(subcommand, set())


def test_cli_pointwise_entropy_on_one_letter_exits_two(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"spec_version": 1, "method": "pointwise"}))
    r = run_cli("entropy", "--config", str(cfg), "--group", "free_semigroup:1",
                "--rho", "0.5", "--seed", "1", "--out", str(tmp_path / "run"))
    assert r.returncode == 2
    assert "pointwise entropy needs a uniform step on two or more semigroup letters" in r.stderr


def test_cli_report_without_results_exits_two(tmp_path):
    r = run_cli("report", "--out", str(tmp_path / "nothing"))
    assert r.returncode == 2


@pytest.mark.parametrize("line, problem", [("{not json", "is not JSON"),
                                           ("[1, 2]", "is not a JSON object"),
                                           ("", "is not JSON")])
def test_cli_report_malformed_results_exits_two(tmp_path, line, problem):
    (tmp_path / "results.json").write_text('{"method": "x"}\n' + line + "\n")
    r = run_cli("report", "--out", str(tmp_path))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert f"results.json line 2 {problem}" in r.stderr


@pytest.mark.parametrize("record, key", [
    ({"method": "tv-oracle", "n": 1}, "n"),
    ({"method": "tv-oracle", "value": 0.5}, "n"),
    ({"method": "shannon-pointwise", "rho": "0.5", "value": 0.3}, "rho"),
    ({"method": "entropy-increment", "rho": 0.5, "value": None}, "rho"),
])
def test_cli_report_plot_without_numbers_exits_two(tmp_path, record, key):
    (tmp_path / "results.json").write_text('{"method": "x"}\n' + json.dumps(record) + "\n")
    r = run_cli("report", "--out", str(tmp_path), "--plot")
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert f"results.json line 2 has no numeric {key} and value" in r.stderr


def test_cli_import_leaves_out_single_use_modules():
    # mpmath serves only entropy certification and the process pool only
    # multi-worker runs; neither should cost every command its import time
    r = subprocess.run(
        [sys.executable, "-c", "import sys, noisewalk.cli; print(sorted("
         "{'mpmath', 'concurrent.futures.process'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=60,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
