"""Cold start: a CLI run loads only the third-party code it uses.

Every ``python -m repro`` invocation pays for what ``import repro``
loads before the first pipeline stage starts.  ``scipy.stats`` (about
half of the import time) and ``networkx`` serve no pipeline stage, so a
full ``analyze`` run must finish without either in ``sys.modules``.
The check is structural rather than a timing, so host noise cannot
flake it, and it runs in a fresh interpreter, because the test
process has long since imported both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules that no CLI command may load (with their submodules).
FORBIDDEN = ("scipy.stats", "networkx")

PROBE = """
import contextlib, io, json, sys
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(["analyze", "sdram", "--workloads", "2", "--cycles",
                   "40", "--explain-sample", "1", "--no-store"])
print(json.dumps({"status": status, "modules": sorted(sys.modules)}))
"""


def test_analyze_loads_neither_scipy_stats_nor_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=str(REPO_ROOT), env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    assert record["status"] == 0
    loaded = [
        name for name in record["modules"]
        if any(name == prefix or name.startswith(prefix + ".")
               for prefix in FORBIDDEN)
    ]
    assert loaded == []
