"""Run a script in a fresh interpreter on this checkout's ``src``.

Import-layout checks need a process that has imported nothing yet:
the test process has long since loaded the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_fresh(script: str, *args: str) -> dict:
    """The JSON record ``script`` prints as its last line."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script, *args], cwd=str(REPO_ROOT),
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])
