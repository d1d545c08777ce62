"""Array helpers that keep numpy's optional submodules unloaded."""

from __future__ import annotations

import numpy as np


def sorted_unique(values) -> np.ndarray:
    """``np.unique(values)``: the sorted distinct values, same dtype.

    numpy 2.4's plain ``np.unique`` first asks ``np.ma.is_masked``,
    which imports ``numpy.ma`` (~8 ms, +1.3 MiB) into a warm or ECO
    run that uses nothing else of it.  This is the sort and neighbour
    comparison ``np.unique`` itself falls back to; like its default
    ``equal_nan=True``, every NaN collapses into one.
    """
    ordered = np.sort(values, axis=None)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    if (ordered.dtype.kind in "cfmM" and len(ordered)
            and np.isnan(ordered[-1])):
        keep[np.isnan(ordered).argmax() + 1:] = False  # NaNs sort last
    return ordered[keep]
