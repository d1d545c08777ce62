"""Frozen pre-rewrite copy of the bit-parallel fault engine.

``ref_bitparallel.py`` is a faithful snapshot of
``src/repro/sim/bitparallel.py`` as of commit ``af1b75f`` — the last
commit with three separate fault passes (``run_fault_pass``,
``run_packed_fault_trace``, ``run_transient_pass``) before they were
folded into the single ``run_pass`` kernel.  It exists solely as the
bitwise ground truth for ``tests/test_kernel_bitwise.py``: the kernel
must reproduce these passes' error cycles, detection cycles, latent
flags and mismatch traces exactly.  Do not modernize or "fix" this
code; divergence from the snapshot defeats its purpose.
"""
