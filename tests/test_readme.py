"""The README's Quick start commands and Python API example run as written."""

import json
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

import noisewalk
from noisewalk.cli import _SUBCOMMANDS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def block(heading, lang):
    text = README.read_text()
    section = text[text.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    text = block("## Quick start", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in text.splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert [c[:2] for c in commands] == [
        ["noisewalk", name] for name in ("drift", "entropy", "tv", "dimension", "sweep", "report")
    ]
    runner = CliRunner()
    for command in commands:
        if command[1] == "report":  # the run's chart, drawn again from its records
            drawn = Path("runs/sweep/plot.svg").read_bytes()
        r = runner.invoke(main, command[1:])
        assert r.exit_code == 0, (command, r.output)
    assert Path("runs/sweep/plot.svg").read_bytes() == drawn


def test_readme_z_contrast_runs_and_reads_as_stated(tmp_path, monkeypatch):
    # the config block is z.json; the figures in the prose are the runs' tv-exact
    # values, rounded as printed
    monkeypatch.chdir(tmp_path)
    heading = "### Z against F_2"
    Path("z.json").write_text(block(heading, "json"))
    commands = [shlex.split(line) for line in block(heading, "sh").splitlines() if line.strip()]
    assert [c[:2] for c in commands] == [["noisewalk", "tv"]] * 2
    tv = []
    for command in commands:
        r = CliRunner().invoke(main, command[1:])
        assert r.exit_code == 0, (command, r.output)
        out = Path(command[command.index("--out") + 1])
        records = [json.loads(line) for line in (out / "results.json").read_text().splitlines()]
        tv.append({rec["n"]: rec["value"] for rec in records if rec["method"] == "tv-exact"})
    z, f2 = tv
    assert sorted(z) == list(range(1, 201)) and sorted(f2) == list(range(1, 7))
    text = README.read_text()
    prose = " ".join(text[text.index(heading):text.index("## CLI reference")].split())
    for stated in (f"{z[1]:.2f} at n = 1", f"{z[200]:.3f} at n = 200",
                   f"{f2[1]:.3f} at n = 1", f"{f2[6]:.3f} at n = 6"):
        assert stated in prose, stated


def test_readme_python_api_block_runs(capsys):
    code = block("## Python API", "python")
    imported = re.search(r"from noisewalk import \((.*?)\)", code, re.S).group(1)
    names = [n.strip() for n in imported.split(",") if n.strip()]
    assert names and set(names) <= set(noisewalk.__all__)
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.splitlines() == ["0.7666001608995433", "997/2048"]


def test_readme_lists_the_config_keys():
    # the backticked names of each list, less subcommand names, are the
    # keys the subcommand reads: a key named in README but not read fails
    text = README.read_text()
    shared_text, extras = text.split("Keys shared by the run subcommands:")[1].split(
        "Extra keys per subcommand:"
    )

    def keys(prose):
        return set(re.findall(r"`([a-z_]+)`", prose)) - set(_SUBCOMMANDS)

    bullets = {name: keys(body) for name, body in re.findall(
        r"^\* `([a-z]+)`: (.*?)(?=^\* |\Z)", extras.strip().split("\n\n")[0], re.M | re.S)}
    assert set(bullets) == set(_SUBCOMMANDS)
    runs = [set(table) for name, table in _SUBCOMMANDS.items() if name != "report"]
    assert keys(shared_text) == set.intersection(*runs)
    for name, table in _SUBCOMMANDS.items():
        listed = bullets[name] if name == "report" else keys(shared_text) | bullets[name]
        assert listed == set(table), name
