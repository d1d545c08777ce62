"""The BLAS thread budget: ``import repro`` sizes OpenBLAS to one thread.

Each case runs in a fresh interpreter, because the budget acts once, at
import, on the OpenBLAS libraries mapped by then.  The scripts find
OpenBLAS on their own (``/proc/self/maps`` and ``ctypes``), so they can
size it before ``repro`` is imported and read it back with a probe that
does not share the package's code.  When ``repro`` itself loads numpy,
OpenBLAS starts with one thread, so the process never runs a second
OS thread.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.utils.parallel import BLAS_THREAD_ENV, blas_threads

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(
    not blas_threads(), reason="no OpenBLAS is mapped into this process"
)

#: ``openblas(verb, *args)`` calling ``{verb}_num_threads`` on every
#: mapped OpenBLAS, returning ``{path: result}``.
_OPENBLAS = r'''
import ctypes, json, os, sys

def openblas(verb, *args):
    results = {}
    with open("/proc/self/maps") as maps:
        paths = {fields[5].strip() for fields in
                 (line.split(None, 5) for line in maps)
                 if len(fields) == 6
                 and "blas" in os.path.basename(fields[5]).lower()
                 and "openblas" in fields[5].lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for symbol in ("scipy_openblas_{}_num_threads64_",
                       "scipy_openblas_{}_num_threads",
                       "openblas_{}_num_threads64_",
                       "openblas_{}_num_threads"):
            function = getattr(library, symbol.format(verb), None)
            if function is not None:
                function.argtypes = [ctypes.c_int] * len(args)
                function.restype = ctypes.c_int
                results[path] = function(*args)
                break
    return results
'''

#: Prelude of every script that loads numpy (and with it OpenBLAS)
#: before ``repro``.
_PROBE = _OPENBLAS + "import numpy\n"

_IMPORT_FIRST = _OPENBLAS + r'''
import repro
print(json.dumps({"tasks": len(os.listdir("/proc/self/task")),
                  "openblas": openblas("get"),
                  "env": "OPENBLAS_NUM_THREADS" in os.environ}))
'''

_WORKER = _PROBE + r'''
import repro
from repro.utils.parallel import blas_threads
from repro.utils.workerpool import PoolPolicy, run_supervised

[unit] = run_supervised(lambda _: openblas("get"), [0], PoolPolicy(jobs=2))
print(json.dumps({"parent": openblas("get"), "worker": unit.value,
                  "package": blas_threads()}))
'''

_USER_SET = _PROBE + r'''
before = openblas("get")
import repro
print(json.dumps({"before": before, "after": openblas("get")}))
'''

# The grid-cold benchmark's design and campaign, with shorter training.
# Nodes 291 and 970 are two whose explanations differed between one
# and two BLAS threads before the budget.
_FINGERPRINTS = _PROBE + r'''
openblas("set", int(sys.argv[1]))
import hashlib
from repro import AnalyzerConfig, FaultCriticalityAnalyzer
from repro.circuits.grid import build_fsm_grid
from repro.models import make_classifier
from repro.nn.training import TrainingConfig

def digest(arrays):
    return hashlib.sha256(b"".join(
        numpy.ascontiguousarray(array).tobytes() for array in arrays
    )).hexdigest()

analyzer = FaultCriticalityAnalyzer(build_fsm_grid(3, 4), AnalyzerConfig(
    n_workloads=2, workload_cycles=100,
    training=TrainingConfig(epochs=100),
    regressor_training=TrainingConfig(lr=0.005, epochs=100),
))
data, split = analyzer.data, analyzer.split
mlp = make_classifier("MLP")
mlp.fit(data.x[split.train_mask], data.y_class[split.train_mask])
explanations = analyzer.explainer.explain_many([291, 970])
print(json.dumps({
    "classifier": digest(p.value for p in
                         analyzer.classifier.model.parameters()),
    "regressor": digest(p.value for p in
                        analyzer.regressor.model.parameters()),
    "mlp": digest([mlp.predict_proba(data.x)]),
    "explanations": [
        digest([e.feature_scores,
                numpy.array([w for _, _, w in e.edge_importance])])
        for e in explanations
    ],
}))
'''


def _start(script: str, *args: str, **env_overrides: str):
    env = {name: value for name, value in os.environ.items()
           if name not in BLAS_THREAD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [path for path in [env.get("PYTHONPATH")] if path]
    )
    env.update(env_overrides)
    return subprocess.Popen(
        [sys.executable, "-c", script, *args], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _result(process: subprocess.Popen, timeout: float = 240.0) -> dict:
    stdout, stderr = process.communicate(timeout=timeout)
    assert process.returncode == 0, stderr
    return json.loads(stdout.splitlines()[-1])


def test_import_sets_one_thread_in_parent_and_workers():
    result = _result(_start(_WORKER))
    assert result["parent"], "no OpenBLAS found by the probe"
    assert set(result["parent"].values()) == {1}
    assert result["worker"] == result["parent"]
    assert result["package"] == result["parent"]


def test_import_first_starts_no_blas_thread():
    result = _result(_start(_IMPORT_FIRST))
    assert result["openblas"], "no OpenBLAS found by the probe"
    assert set(result["openblas"].values()) == {1}
    assert result["tasks"] == 1
    assert not result["env"]


def test_user_thread_setting_is_left_alone():
    result = _result(_start(_USER_SET, OPENBLAS_NUM_THREADS="2"))
    assert result["before"], "no OpenBLAS found by the probe"
    assert result["after"] == result["before"]
    if len(os.sched_getaffinity(0)) >= 2:  # OpenBLAS caps at the cores
        assert set(result["after"].values()) == {2}


def test_results_do_not_depend_on_preset_threads():
    """Trained weights, MLP probabilities and explanations carried the
    preset thread count in their last bits before the budget."""
    one, two = [_start(_FINGERPRINTS, str(threads)) for threads in (1, 2)]
    assert _result(one) == _result(two)
