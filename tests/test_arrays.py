"""``repro.utils.arrays.sorted_unique`` against ``np.unique``.

The warm and ECO paths dedupe with it because numpy's plain
``np.unique`` imports ``numpy.ma``; its result must be ``np.unique``'s,
values, dtype and bytes: for signed, unsigned and boolean integers and
for floats with NaNs, infinities and signed zeros, in any shape.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.arrays import sorted_unique

DTYPES = [np.int64, np.int32, np.int8, np.uint16, np.bool_, np.float64,
          np.float32]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(dtype=st.sampled_from(DTYPES),
                  shape=hnp.array_shapes(min_dims=0, max_dims=2,
                                         min_side=0, max_side=24)))
def test_sorted_unique_equals_np_unique(values):
    ours, theirs = sorted_unique(values), np.unique(values)
    assert ours.dtype == theirs.dtype
    assert ours.shape == theirs.shape
    assert ours.tobytes() == theirs.tobytes()


def test_sorted_unique_keeps_one_nan_and_reads_lists():
    values = [3.0, np.nan, -1.0, np.nan, 3.0]
    assert np.array_equal(sorted_unique(values), np.unique(values),
                          equal_nan=True)
    assert sorted_unique([2, 2, 1]).tolist() == [1, 2]
