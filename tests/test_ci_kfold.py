"""Tests for criticality confidence intervals and k-fold splits."""

import numpy as np
import pytest

from repro.fi import CriticalityDataset, dataset_from_campaign
from repro.graph import kfold_splits
from repro.utils.errors import ModelError, SimulationError


class TestConfidenceIntervals:
    def test_intervals_contain_scores(self, icfsm_analyzer):
        dataset = icfsm_analyzer.dataset
        low, high = dataset.confidence_intervals()
        assert (low <= dataset.scores + 1e-12).all()
        assert (high >= dataset.scores - 1e-12).all()
        assert (low >= 0.0).all() and (high <= 1.0).all()

    def test_wilson_known_value(self):
        """Hand-checked Wilson interval: 7/10 at 95%."""
        dataset = CriticalityDataset(
            design="d", node_names=["n"],
            scores=np.array([0.7]), labels=np.array([1]),
            threshold=0.5, n_workloads=5, trials=np.array([10]),
        )
        low, high = dataset.confidence_intervals(0.95)
        assert low[0] == pytest.approx(0.3968, abs=1e-3)
        assert high[0] == pytest.approx(0.8922, abs=1e-3)

    @pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99,
                                       0.999])
    def test_wilson_z_matches_scipy_normal_quantile(self, level):
        """Intervals built on the stdlib normal quantile match the same
        formula built on scipy's ``norm.ppf``."""
        from scipy.stats import norm

        scores = np.array([0.0, 0.05, 0.5, 0.7, 1.0])
        trials = np.array([1, 20, 40, 10, 200])
        dataset = CriticalityDataset(
            design="d", node_names=list("abcde"), scores=scores,
            labels=(scores >= 0.5).astype(int), threshold=0.5,
            n_workloads=1, trials=trials,
        )
        low, high = dataset.confidence_intervals(level)
        z = norm.ppf(0.5 + level / 2.0)
        n = trials.astype(np.float64)
        denominator = 1.0 + z**2 / n
        center = (scores + z**2 / (2 * n)) / denominator
        margin = (z / denominator) * np.sqrt(
            scores * (1 - scores) / n + z**2 / (4 * n**2)
        )
        np.testing.assert_allclose(
            low, np.clip(center - margin, 0.0, 1.0), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            high, np.clip(center + margin, 0.0, 1.0), rtol=0, atol=1e-12
        )

    def test_more_trials_narrow_intervals(self):
        def width(trials):
            dataset = CriticalityDataset(
                design="d", node_names=["n"],
                scores=np.array([0.5]), labels=np.array([1]),
                threshold=0.5, n_workloads=1,
                trials=np.array([trials]),
            )
            low, high = dataset.confidence_intervals()
            return float(high[0] - low[0])

        assert width(200) < width(50) < width(10)

    def test_missing_trials_rejected(self):
        dataset = CriticalityDataset(
            design="d", node_names=["n"],
            scores=np.array([0.5]), labels=np.array([1]),
            threshold=0.5, n_workloads=1,
        )
        with pytest.raises(SimulationError):
            dataset.confidence_intervals()

    def test_campaign_trials_populated(self, icfsm_analyzer):
        dataset = icfsm_analyzer.dataset
        assert dataset.trials is not None
        # two stuck-at faults per node x workload count
        expected = 2 * icfsm_analyzer.campaign.n_workloads
        assert (dataset.trials == expected).all()


class TestKFold:
    def test_folds_partition(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 60)
        folds = list(kfold_splits(labels, k=5, seed=1))
        assert len(folds) == 5
        coverage = np.zeros(60, dtype=int)
        for split in folds:
            coverage += split.val_mask
            assert not (split.train_mask & split.val_mask).any()
            assert (split.train_mask | split.val_mask).all()
        assert (coverage == 1).all()  # each node validated exactly once

    def test_stratification(self):
        labels = np.array([0] * 40 + [1] * 20)
        for split in kfold_splits(labels, k=4, seed=0):
            positives = labels[split.val_mask].sum()
            assert positives == 5  # 20 positives / 4 folds

    def test_deterministic(self):
        labels = np.random.default_rng(1).integers(0, 2, 30)
        a = [s.val_mask for s in kfold_splits(labels, k=3, seed=7)]
        b = [s.val_mask for s in kfold_splits(labels, k=3, seed=7)]
        for mask_a, mask_b in zip(a, b):
            assert np.array_equal(mask_a, mask_b)

    def test_validation(self):
        with pytest.raises(ModelError):
            list(kfold_splits(np.array([]), k=2))
        with pytest.raises(ModelError):
            list(kfold_splits(np.array([0, 1, 0]), k=1))
        with pytest.raises(ModelError):
            list(kfold_splits(np.array([0, 1]), k=5))
