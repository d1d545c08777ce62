"""Cold start: a CLI run loads only the code it uses.

Every ``python -m repro`` invocation pays for what it imports before
the first pipeline stage starts, and a warm run (every stage read from
the artifact store) pays little else.  So:

* no command loads ``scipy.stats`` or ``networkx``, which serve no
  pipeline stage;
* ``import repro`` loads only the package ``__init__``s, the lazy
  re-export helper and the BLAS thread budget, and no scipy;
* ``--help`` loads no ``scipy.sparse``;
* a cold ``analyze`` loads one scipy module, the compiled kernels
  ``scipy.sparse._sparsetools`` that every sparse product runs
  (``repro.graph.adjacency.sparse_kernels`` loads that extension
  alone), and so neither the ``numpy.f2py`` nor the ``numpy.testing``
  that the ``scipy.sparse`` package pulls in;
* a warm ``analyze`` loads none of the engines whose results it reads
  back (campaign runner, bit-parallel simulator, training engine,
  explainer, baselines), nor the ECO code (``repro.fi.eco``,
  ``repro.netlist.diff``), nor designs and tools it does not use;
* a warm ``analyze`` and an ``analyze --eco`` against a filled store
  load the same one scipy module as a cold run, for the report's GCN
  forward passes, and no ``numpy.f2py``, ``numpy.testing`` or
  ``numpy.ma``: their dedupes sort and compare instead of calling
  ``np.unique``, which imports ``numpy.ma``.

The checks are structural rather than timings, so host noise cannot
flake them, and each runs in a fresh interpreter, because the test
process has long since imported everything.
"""

import json

import pytest

from repro.circuits import build_design
from repro.netlist import to_verilog
from repro.store import ArtifactStore
from tests._fresh import run_fresh
from tests.test_eco import _cell_swap

#: Modules that no CLI command may load (with their submodules).
FORBIDDEN = ("scipy.stats", "networkx")

#: The ``repro`` modules ``import repro`` may load besides package
#: ``__init__``s: the lazy re-export helper and the BLAS budget.
IMPORT_ALLOWED = ("repro._lazy", "repro.utils.parallel",
                  "repro.utils.errors")

#: Modules a warm ``analyze`` of ``sdram`` must not load.
WARM_FORBIDDEN = (
    "repro.fi.runner", "repro.sim.bitparallel", "repro.nn.engine",
    "repro.nn.gridsearch", "repro.explain.gnn_explainer",
    "repro.models.mlp", "repro.models.logistic",
    "repro.models.random_forest", "repro.models.svm", "repro.models.ebm",
    "repro.models.sgc",
    "repro.circuits.or1200_if", "repro.circuits.or1200_icfsm",
    "repro.circuits.uart", "repro.circuits.grid",
    "repro.circuits.random_circuits",
    "repro.netlist.optimize", "repro.netlist.equivalence",
    "repro.sim.xsim", "repro.sim.vcd",
    "repro.fi.eco", "repro.netlist.diff",
)

#: The one scipy module an ``analyze``, cold, warm or ECO, may load.
COLD_SCIPY = ["scipy.sparse._sparsetools"]

#: What importing the ``scipy.sparse`` package would bring along.
SCIPY_SPARSE_BAGGAGE = ("numpy.f2py", "numpy.testing")

#: numpy modules neither a warm nor an ECO ``analyze`` may load.
INFERENCE_FORBIDDEN = SCIPY_SPARSE_BAGGAGE + ("numpy.ma",)

#: Runs ``main(argv)`` quietly; prints the exit status, every loaded
#: module and which of them are packages.
PROBE = """
import contextlib, io, json, sys
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        status = main(json.loads(sys.argv[1]))
    except SystemExit as exit:
        status = exit.code
print(json.dumps({
    "status": status, "modules": sorted(sys.modules),
    "packages": sorted(name for name, module in list(sys.modules.items())
                       if hasattr(module, "__path__")),
}))
"""

IMPORT_PROBE = """
import json, sys
import repro
print(json.dumps({
    "modules": sorted(sys.modules),
    "packages": sorted(name for name, module in list(sys.modules.items())
                       if hasattr(module, "__path__")),
}))
"""

ANALYZE = ["analyze", "sdram", "--workloads", "2", "--cycles", "40",
           "--explain-sample", "1"]


def _run_cli(argv) -> dict:
    record = run_fresh(PROBE, json.dumps(argv))
    assert record["status"] == 0
    return record


def _loaded(record: dict, prefixes) -> list:
    return [
        name for name in record["modules"]
        if any(name == prefix or name.startswith(prefix + ".")
               for prefix in prefixes)
    ]


@pytest.fixture(scope="module")
def cold_record():
    """What a cold ``analyze`` without a store loads."""
    return _run_cli(ANALYZE + ["--no-store"])


def test_analyze_loads_neither_scipy_stats_nor_networkx(cold_record):
    assert _loaded(cold_record, FORBIDDEN) == []


def test_cold_analyze_loads_the_sparse_kernels_alone(cold_record):
    assert _loaded(cold_record, ["scipy"]) == COLD_SCIPY
    assert _loaded(cold_record, SCIPY_SPARSE_BAGGAGE) == []


def test_import_repro_loads_no_submodule_engine_or_scipy():
    record = run_fresh(IMPORT_PROBE)
    extra = [name for name in _loaded(record, ["repro"])
             if name not in record["packages"]
             and name not in IMPORT_ALLOWED]
    assert extra == []
    assert _loaded(record, ["scipy.sparse", "numpy.f2py"]) == []


def test_help_loads_no_scipy_sparse():
    record = _run_cli(["--help"])
    assert _loaded(record, ["scipy.sparse"]) == []


@pytest.fixture(scope="module")
def filled_store(tmp_path_factory):
    """A store filled by a cold ``analyze``, with its argv."""
    store = tmp_path_factory.mktemp("cold-start") / "store"
    argv = ANALYZE + ["--store", str(store)]
    _run_cli(argv)
    return store, argv


def test_warm_analyze_loads_no_engine(filled_store):
    store, argv = filled_store
    misses = ArtifactStore(store).stats()["misses"]
    record = _run_cli(argv)
    assert ArtifactStore(store).stats()["misses"] == misses  # all hits
    assert _loaded(record, WARM_FORBIDDEN) == []
    assert _loaded(record, FORBIDDEN) == []
    assert _loaded(record, ["scipy"]) == COLD_SCIPY
    assert _loaded(record, INFERENCE_FORBIDDEN) == []


def test_eco_analyze_loads_the_sparse_kernels_alone(filled_store,
                                                    tmp_path):
    store, argv = filled_store
    edited = tmp_path / "edited.v"
    edited.write_text(_cell_swap(to_verilog(build_design("sdram")),
                                 occurrence=3), encoding="utf-8")
    record = _run_cli(argv + ["--eco", str(edited)])
    assert "repro.fi.eco" in record["modules"]  # the edit ran
    assert _loaded(record, ["scipy"]) == COLD_SCIPY
    assert _loaded(record, INFERENCE_FORBIDDEN) == []
    assert _loaded(record, FORBIDDEN) == []
