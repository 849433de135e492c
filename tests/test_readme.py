"""The README's Python API example runs as written."""

import re
from pathlib import Path

import noisewalk

README = Path(__file__).resolve().parents[1] / "README.md"


def api_block():
    text = README.read_text()
    section = text[text.index("## Python API"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_python_api_block_runs(capsys):
    code = api_block()
    imported = re.search(r"from noisewalk import \((.*?)\)", code, re.S).group(1)
    names = [n.strip() for n in imported.split(",") if n.strip()]
    assert names and set(names) <= set(noisewalk.__all__)
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.splitlines() == ["0.7666001608995433", "997/2048"]
