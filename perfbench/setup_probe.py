"""Set-up a user pays on every command: import noisewalk, then parse the config.

    python3 perfbench/setup_probe.py <subcommand> <config.json>

run.py times this script in fresh interpreters for the ``setup_s`` metric.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from noisewalk import cli  # noqa: E402

cli.parse_config(sys.argv[1], sys.argv[2], {})
