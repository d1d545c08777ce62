"""Frozen scipy construction of the propagation matrix.

``ref_adjacency.py`` is a faithful snapshot of
``src/repro/graph/adjacency.py`` as of commit ``5e3947d`` — the last
commit that built ``A*`` with ``scipy.sparse`` (``coo + coo.T``,
``diags @ A [@ diags]``) and returned a ``scipy.sparse.csr_matrix``.
It exists solely as the ground truth for
``tests/test_adjacency_reference.py``: the numpy construction must
reproduce its ``data``, ``indices`` and ``indptr`` byte for byte,
dtypes included, and the numpy products must equal scipy's on them bit
for bit.  Do not modernize or "fix" this code; divergence from the
snapshot defeats its purpose.
"""
