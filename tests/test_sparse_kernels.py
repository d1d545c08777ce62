"""scipy's compiled sparse kernels without the ``scipy.sparse`` package.

``repro.graph.adjacency.sparse_kernels`` loads the extension
``scipy.sparse._sparsetools`` from scipy's installed ``sparse/``
directory under its own name, and imports it through the package only
where that file is missing.  It is the binary scipy's ``@`` runs, so a
later ``import scipy.sparse`` must keep the same module and every
product its bits, and a fit on the fallback's kernels must equal one on
the direct load bit for bit.  Each check runs in a fresh interpreter,
because the test process has long since imported ``scipy.sparse``.
"""

from tests._fresh import run_fresh

#: Products through the loaded kernels, then the same products through
#: ``scipy.sparse`` once it is imported.
KERNELS_THEN_PACKAGE = """
import json, sys
import numpy as np
from repro.circuits import build_design
from repro.graph.adjacency import normalized_adjacency, sparse_kernels
from repro.graph.build import netlist_edges

kernels = sparse_kernels()
scipy_modules = sorted(name for name in sys.modules
                       if name.split(".")[0] == "scipy")
netlist = build_design("or1200_if")
a = normalized_adjacency(netlist_edges(netlist), netlist.n_gates)
x = np.random.default_rng(3).standard_normal((netlist.n_gates, 5))
product, transposed = np.zeros_like(x), np.zeros_like(x)
kernels.csr_matvecs(a.shape[0], a.shape[1], 5, a.indptr, a.indices,
                    a.data, x.ravel(), product.ravel())
kernels.csc_matvecs(a.shape[1], a.shape[0], 5, a.indptr, a.indices,
                    a.data, x.ravel(), transposed.ravel())

import scipy.sparse
from scipy.sparse import _sparsetools

matrix = a.tocsr()
print(json.dumps({
    "scipy_modules": scipy_modules,
    "cached": sparse_kernels() is kernels,
    "same_module": (_sparsetools is kernels
                    and sys.modules["scipy.sparse._sparsetools"] is kernels),
    "product": (matrix @ x).tobytes() == product.tobytes(),
    "transposed": (matrix.T @ x).tobytes() == transposed.tobytes(),
}))
"""

#: A Table 1 classifier fit (shortened) on the kernels the loader
#: returns: loaded directly (``direct``) or, pointed at a directory
#: without the binary, imported through the package (``fallback``).
FIT = """
import hashlib, json, sys, tempfile
import numpy as np
from repro.graph import adjacency

if sys.argv[1] == "fallback":
    with tempfile.TemporaryDirectory() as empty:
        kernels = adjacency._load_kernels([empty])
else:
    kernels = adjacency.sparse_kernels()
package = "scipy.sparse" in sys.modules

from repro.circuits import build_or1200_if
from repro.features.extract import extract_features
from repro.graph.build import netlist_edges
from repro.models.gcn import build_gcn_stack
from repro.nn import TrainingConfig, train_classifier

netlist = build_or1200_if()
x = extract_features(netlist, probability_source="cop").standardized().matrix
a_norm = adjacency.normalized_adjacency(netlist_edges(netlist),
                                        netlist.n_gates)
rng = np.random.default_rng(7)
y = (rng.random(netlist.n_gates) < 0.25).astype(np.int64)
train_mask = rng.random(netlist.n_gates) < 0.7
model = build_gcn_stack(x.shape[1], 2, a_norm)
history = train_classifier(model, x, y, train_mask, ~train_mask,
                           TrainingConfig(epochs=60))
digest = hashlib.sha256(b"".join(
    [np.asarray(history.train_loss).tobytes(),
     np.asarray(history.val_metric).tobytes()]
    + [parameter.value.tobytes() for parameter in model.parameters()]
)).hexdigest()
print(json.dumps({"package": package,
                  "engine_kernels": adjacency.sparse_kernels() is kernels,
                  "digest": digest}))
"""


def test_kernels_load_alone_and_scipy_sparse_keeps_them():
    record = run_fresh(KERNELS_THEN_PACKAGE)
    assert record["scipy_modules"] == ["scipy.sparse._sparsetools"]
    assert record["cached"]
    assert record["same_module"]
    assert record["product"]
    assert record["transposed"]


def test_fallback_import_trains_the_same_bits():
    direct = run_fresh(FIT, "direct")
    fallback = run_fresh(FIT, "fallback")
    assert not direct["package"]
    assert fallback["package"]
    assert direct["engine_kernels"] and fallback["engine_kernels"]
    assert fallback["digest"] == direct["digest"]
