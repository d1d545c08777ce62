"""Frozen copy of the GNNExplainer before its optimizer moved onto
``repro.nn.optim.Adam``.

``ref_gnn_explainer.py`` is ``src/repro/explain/gnn_explainer.py`` as
of commit ``251542c``, unchanged.  It exists only as the bitwise ground
truth for ``tests/test_explain_reference.py``: masks and explanations
must match it exactly for every batch size and ``jobs`` setting.  Do
not modernize or "fix" this code; divergence from the snapshot defeats
its purpose.
"""
