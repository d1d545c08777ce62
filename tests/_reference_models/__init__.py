"""Frozen pre-rewrite copy of the SVM baseline.

``ref_svm.py`` is a faithful snapshot of ``src/repro/models/svm.py`` as
of commit ``679f33b`` — the last commit whose kernelized Pegasos built
the full n × n Gram matrix — with only the ``@register_classifier``
decorator removed, so that importing it does not replace the real
``"SVM"`` entry of the baseline registry.  It exists solely as the
ground truth for ``tests/test_svm_blocked.py``: the blocked fit must
reproduce its dual coefficients and predictions exactly.  Do not
modernize or "fix" this code; divergence from the snapshot defeats its
purpose.
"""
