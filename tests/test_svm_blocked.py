"""The blocked Pegasos SVM against the frozen Gram-matrix one.

Ground truth is ``tests/_reference_models`` — a frozen copy of the SVM
that built the full n × n Gram matrix.  The bar:

* identical dual coefficients ``α`` and step count, always;
* decision values within 1e-12, relative to their size before terms of
  opposite sign cancel (``Σ_j α_j |K(x, x_j)| / (λ t)``, what the
  rounding error of the sum scales with).  They are not bitwise equal:
  a kernel column computed alone need not round like the same column of
  one large matrix product, and the blocked decision function sums over
  support vectors only;
* identical predictions wherever the Platt fit is stable (see
  :func:`platt_is_stable`) — on every design split, and on the random
  inputs that satisfy it.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import build_fsm_grid
from repro.core import AnalyzerConfig, FaultCriticalityAnalyzer
from repro.models import svm
from repro.models.svm import SVMClassifier
from tests._reference_models.ref_svm import SVMClassifier as ReferenceSVM

DECISION_RTOL = 1e-12

VARIANTS = [
    {"kernel": kernel, "balanced": balanced}
    for kernel in ("rbf", "linear") for balanced in (True, False)
]


def _variant_id(options):
    balance = "balanced" if options["balanced"] else "plain"
    return f"{options['kernel']}-{balance}"


def platt_is_stable(decisions: np.ndarray) -> bool:
    """Whether Platt scaling's 200 gradient steps of size 0.1 are
    non-expansive on these training decision values: the logistic
    loss's curvature is at most ``0.25 * mean(d² + 1)``, and a step
    below ``2 / curvature`` cannot amplify a difference.  Beyond that
    the reference itself turns a one-ulp change of its decision values
    into a different fit, so its predictions are no bar."""
    return 0.1 * 0.25 * float((decisions ** 2 + 1.0).mean()) <= 2.0


def check_against_reference(x, y, queries, **options) -> bool:
    """Fit both SVMs and assert the bar; returns whether predictions
    were compared (the Platt fit is stable)."""
    reference = ReferenceSVM(**options).fit(x, y)
    blocked = SVMClassifier(**options).fit(x, y)
    assert np.array_equal(blocked._alpha, reference._alpha)
    assert blocked._steps == reference._steps
    for rows in (x, queries):
        magnitude = np.abs(reference._kernel(rows, reference._x)) @ (
            reference._alpha
        ) / (reference.regularization * reference._steps)
        np.testing.assert_allclose(
            blocked.decision_function(rows),
            reference.decision_function(rows),
            rtol=0.0, atol=DECISION_RTOL * magnitude.max(),
        )
    stable = platt_is_stable(reference.decision_function(x))
    if stable:
        for rows in (x, queries):
            assert np.array_equal(blocked.predict(rows),
                                  reference.predict(rows))
    return stable


def _block_budget(n_rows: int, block: int) -> int:
    """The ``BLOCK_BYTES`` that gives ``block`` kernel columns per
    block on ``n_rows`` training rows."""
    return 2 * 8 * n_rows * block


@pytest.fixture(scope="module")
def split_of(request):
    """``split_of(name)``: (train features, train labels, validation
    features) on the analyzer's default 80/20 split, computed once per
    module.  The grid uses ``grid-cold``'s 2 × 100 workloads."""
    splits = {}

    def get(name):
        if name not in splits:
            if name == "grid_3x4":
                netlist = build_fsm_grid(3, 4)
                config = AnalyzerConfig(n_workloads=2, workload_cycles=100)
            else:
                netlist = request.getfixturevalue(name)
                config = AnalyzerConfig()
            analyzer = FaultCriticalityAnalyzer(netlist, config)
            data, split = analyzer.data, analyzer.split
            splits[name] = (data.x[split.train_mask],
                            data.y_class[split.train_mask],
                            data.x[split.val_mask])
        return splits[name]

    return get


@pytest.mark.parametrize("options", VARIANTS, ids=_variant_id)
@pytest.mark.parametrize("design",
                         ["sdram", "or1200_if", "icfsm", "uart", "grid_3x4"])
def test_matches_reference_on_designs(split_of, design, options):
    assert check_against_reference(*split_of(design), **options)


@pytest.mark.parametrize("options", VARIANTS, ids=_variant_id)
@pytest.mark.parametrize("blocks", ["one", "uneven", "whole"])
def test_block_size_does_not_change_the_fit(split_of, blocks, options):
    """B = 1, a B that does not divide the schedule, and B at least the
    schedule length all reproduce the reference."""
    x, y, queries = split_of("icfsm")
    schedule = ReferenceSVM(epochs=1, **options).fit(x, y)._steps
    block = {
        "one": 1,
        "uneven": next(b for b in range(7, schedule) if schedule % b),
        "whole": schedule + 5,
    }[blocks]
    with mock.patch.object(svm, "BLOCK_BYTES", _block_budget(len(y), block)):
        assert svm._block_rows(len(y)) == block
        assert check_against_reference(x, y, queries, **options)


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(2, 60),
    n_features=st.integers(1, 6),
    positive=st.floats(0.05, 0.95),
    seed=st.integers(0, 2 ** 32 - 1),
    options=st.sampled_from(VARIANTS),
    epochs=st.sampled_from((1, 2, 5, 20)),
    gamma=st.sampled_from((0.05, 0.5, 2.0)),
    block=st.integers(1, 130),
)
def test_matches_reference_on_random_data(n_rows, n_features, positive,
                                          seed, options, epochs, gamma,
                                          block):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_rows, n_features))
    y = (rng.random(n_rows) < positive).astype(np.int64)
    y[:2] = (0, 1)  # both classes present
    queries = rng.normal(size=(9, n_features))
    with mock.patch.object(svm, "BLOCK_BYTES",
                           _block_budget(n_rows, block)):
        check_against_reference(x, y, queries, epochs=epochs,
                                gamma=gamma, **options)


def test_fit_and_predict_hold_no_gram_matrix():
    """3,000 rows: the n × n Gram alone would be 69 MiB."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3000, 5))
    y = (x[:, 0] + 0.5 * rng.normal(size=3000) > 0.3).astype(np.int64)
    tracemalloc.start()
    try:
        model = SVMClassifier(epochs=2).fit(x, y)
        model.predict(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
