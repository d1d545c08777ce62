"""Frozen copies of the artifact writers and readers before the archive
codec.

``ref_io.py`` is ``src/repro/io.py`` and ``ref_memo.py`` holds the
gridsearch and baselines JSON writers and readers of
``src/repro/store/memo.py``, both as of commit ``251542c``, the last
commit before every format moved onto one writer, one validating
reader and one atomic publish.
They exist only as ground truth for ``tests/test_io_codec.py``: the
codec must write the same bytes and read the same files to equal
objects, and raise the same exception class for every kind of damage.
Do not modernize or "fix" this code; divergence from the snapshot
defeats its purpose.
"""
