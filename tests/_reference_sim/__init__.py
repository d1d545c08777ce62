"""Frozen pre-rewrite copy of the bit-parallel fault engine.

``ref_bitparallel.py`` is a snapshot of ``src/repro/sim/bitparallel.py``
as of commit ``af1b75f`` — the last commit with separate fault passes
before they were folded into the single ``run_pass`` kernel — kept for
the per-workload stuck-at pass (``run_fault_pass``), the transient
(SEU) pass (``run_transient_pass``) and the golden runs.  The packed
multi-workload trace pass it also carried (``run_packed_fault_trace``,
``PassTrace`` and the stuck-at pass's optional ``trace`` argument) was
deleted once no test compared against it; nothing else changed.  It
exists solely as the bitwise ground truth for
``tests/test_kernel_bitwise.py``: the kernel must reproduce these
passes' error cycles, detection cycles, latent flags and golden
statistics exactly.  Do not modernize or "fix" this code; divergence
from the snapshot defeats its purpose.
"""
