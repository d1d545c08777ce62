"""The public API survives lazy re-exports.

Every package ``__init__`` resolves its public names on first access
(``repro._lazy``), so a name whose table entry points at the wrong
module, or at a module that needs an optional extra, would otherwise
only fail at a user's first attribute access.  Each check runs in a
fresh interpreter, where nothing but the package itself is loaded yet.
"""

import json

import pytest

from tests._fresh import run_fresh

PACKAGES = (
    "repro", "repro.circuits", "repro.core", "repro.explain",
    "repro.features", "repro.fi", "repro.graph", "repro.metrics",
    "repro.models", "repro.netlist", "repro.nn", "repro.reporting",
    "repro.sim", "repro.store", "repro.utils",
)


RESOLVE = """
import importlib, json, sys, types
package = importlib.import_module(sys.argv[1])
listed = dir(package)
print(json.dumps({
    "all": list(package.__all__),
    "unresolved": [name for name in package.__all__
                   if isinstance(getattr(package, name, None),
                                 (types.ModuleType, type(None)))],
    "unlisted": [name for name in package.__all__ if name not in listed],
}))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    record = run_fresh(RESOLVE, package)
    assert record["all"]
    assert record["unresolved"] == []
    assert record["unlisted"] == []


STAR = """
import json
namespace = {}
exec("from repro import *", namespace)
import repro
try:
    repro.no_such_name
except AttributeError as error:
    message = str(error)
else:
    message = None
print(json.dumps({"star": sorted(set(namespace) - {"__builtins__"}),
                  "all": sorted(repro.__all__), "error": message}))
"""

SUBPACKAGES = """
import json, sys
import repro
print(json.dumps({
    "eco": repro.fi.run_eco_campaign.__module__,
    "resolved": [getattr(repro, name.split(".")[1]).__name__
                 for name in json.loads(sys.argv[1])],
}))
"""


def test_subpackages_resolve_after_import_repro():
    record = run_fresh(SUBPACKAGES, json.dumps(PACKAGES[1:]))
    assert record["eco"] == "repro.fi.eco"
    assert record["resolved"] == list(PACKAGES[1:])


def test_star_import_and_unknown_name():
    record = run_fresh(STAR)
    assert record["star"] == record["all"]
    assert record["error"] is not None
    assert "'repro'" in record["error"]
    assert "no_such_name" in record["error"]


REGISTRY = """
import json
from repro.models.base import (
    BASELINE_NAMES, make_classifier, registered_classifiers,
)
print(json.dumps({
    "built": {name: type(make_classifier(name)).name
              for name in BASELINE_NAMES},
    "registered": sorted(registered_classifiers()),
}))
"""


def test_registry_builds_every_baseline_from_base_alone():
    record = run_fresh(REGISTRY)
    names = ["MLP", "LoR", "RFC", "SVM", "EBM"]
    assert record["built"] == {name: name for name in names}
    assert set(names) <= set(record["registered"])
