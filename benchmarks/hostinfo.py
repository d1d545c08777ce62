"""Host metadata for benchmark artifacts.

The committed BENCH_*.json numbers are only comparable when the host
shape is known — a 1-core container reports very different parallel
speedups than a workstation — so every benchmark payload embeds the
same ``host`` block: logical CPU count, the scheduler affinity mask
actually granted to this process (the honest core count on cgroup-
limited CI runners), platform, Python version, the BLAS library and
the threads it ran with, and the best-of-N measurement discipline
used.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Prints, as JSON, what ``import repro`` leaves BLAS at in a fresh
#: interpreter.
_BLAS_PROBE = """
import json, os, numpy, repro
from repro.utils.parallel import BLAS_THREAD_ENV, blas_threads
config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "name": config.get("name"),
    "threads": {os.path.basename(path): threads
                for path, threads in blas_threads().items()},
    "env": {name: os.environ[name]
            for name in BLAS_THREAD_ENV if name in os.environ},
}))
"""


def _blas() -> dict:
    """numpy's BLAS, the threads each mapped OpenBLAS runs with after
    ``import repro`` (empty for MKL or Accelerate), and any thread
    variable set, which overrides repro's one-thread budget.

    Probed in a child interpreter with this environment: the pipeline
    benchmark's ``run.py`` runs ``repro`` only in child processes, and
    a host block must not fail the run it describes.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [path for path in [env.get("PYTHONPATH")] if path]
    )
    probe = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                           capture_output=True, text=True)
    if probe.returncode != 0:
        lines = probe.stderr.strip().splitlines()
        return {"error": lines[-1] if lines else "probe failed"}
    return json.loads(probe.stdout)


def host_metadata(best_of: int) -> dict:
    """The ``host`` block embedded in every BENCH_*.json payload."""
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux hosts
        usable_cpus = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": usable_cpus,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "blas": _blas(),
        "measurement": f"best of {best_of} interleaved rounds",
    }
