"""End-to-end fault-criticality analysis (Figure 2 of the paper).

:class:`FaultCriticalityAnalyzer` chains the full flow for one design:

    netlist -> graph + node features
            -> fault-injection campaign over diverse workloads
            -> criticality dataset (Algorithm 1)
            -> GCN classifier (Table 1) + baselines on an 80/20 split
            -> GCN regressor for continuous criticality scores
            -> GNNExplainer interpretations

Each stage is lazily computed and cached, so callers can run only what
they need (e.g. ``analyzer.classifier`` without ever explaining).

The model stages consume one graph independently: the two GCN heads,
the five baselines and the explainer's batches.  With more than one
worker (the default on a multi-core host) each runs its units on the
supervised fork worker pool (:mod:`repro.utils.workerpool`); every
value returned, stored or printed is bitwise identical to ``jobs=1``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import AnalyzerConfig
from repro.explain.aggregate import GlobalImportance, aggregate_importance
from repro.explain.explanation import Explanation
from repro.features.extract import NodeFeatures, extract_features
from repro.features.incremental import patch_features
from repro.fi.campaign import CampaignResult, run_campaign
from repro.fi.dataset import CriticalityDataset, dataset_from_campaign
from repro.graph.data import GraphData, build_graph_data
from repro.graph.split import Split, stratified_split
from repro.metrics.classification import ConfusionMatrix
from repro.metrics.regression import classification_conformity, pearson
from repro.metrics.roc import RocCurve, roc_curve
from repro.models.base import BASELINE_NAMES, make_classifier
from repro.models.gcn import GCNClassifier, GCNRegressor
from repro.netlist.netlist import Netlist
from repro.sim.waveform import Workload
from repro.utils.errors import ModelError
from repro.utils.rng import derive_rng
from repro.utils.workerpool import map_supervised, worker_count

if TYPE_CHECKING:
    from repro.explain.gnn_explainer import GNNExplainer
    from repro.fi.eco import EcoResult

logger = logging.getLogger("repro.core")

#: The GCN heads an analyzer trains, by attribute name.
_HEADS = ("classifier", "regressor")


def run_eco_campaign(*args, **kwargs) -> "EcoResult":
    """:func:`repro.fi.eco.run_eco_campaign`, imported when called, so
    that a run which edits no netlist never loads the ECO code."""
    from repro.fi.eco import run_eco_campaign as run

    return run(*args, **kwargs)


@dataclass
class NodeReport:
    """One row of the paper's Table 2."""

    design: str
    node_name: str
    classification: str            # "Critical" / "Non-critical"
    feature_scores: Dict[str, float]
    criticality_score: float
    ground_truth_score: float

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "design": self.design,
            "node": self.node_name,
            "classification": self.classification,
        }
        for name, value in self.feature_scores.items():
            row[name] = round(value, 2)
        row["criticality score"] = round(self.criticality_score, 2)
        return row


@dataclass
class EcoAnalysis:
    """Everything :meth:`FaultCriticalityAnalyzer.eco_update` produces
    for an edited design.

    The campaign rows, features, dataset, and graph are bitwise
    identical to a from-scratch analysis of ``netlist`` with the same
    workloads; the models are the *baseline's* trained weights rebound
    to the edited graph (no retraining), which is what makes the
    incremental pass fast — see ``docs/fault_injection_guide.md``.
    """

    netlist: Netlist
    eco: EcoResult
    features: NodeFeatures
    dataset: CriticalityDataset
    data: GraphData
    classifier: GCNClassifier
    regressor: GCNRegressor

    @property
    def campaign(self) -> CampaignResult:
        """The merged (cached + re-simulated) campaign result."""
        return self.eco.result

    def predictions(self) -> np.ndarray:
        """Hard critical/non-critical labels from the rebound GCN."""
        return self.classifier.predict()

    def scores(self) -> np.ndarray:
        """Continuous criticality scores from the rebound regressor."""
        return self.regressor.predict()

    def as_analyzer(
        self, config: Optional[AnalyzerConfig] = None,
        workloads: Optional[Sequence[Workload]] = None,
    ) -> "FaultCriticalityAnalyzer":
        """A fresh analyzer for the edited design with the expensive
        stages (campaign, features, dataset, graph) pre-seeded from
        this incremental result.  Models stay lazy — accessing
        ``.classifier`` on the returned analyzer *retrains* on the
        edited graph; use :attr:`classifier` here for the transferred
        (no-retrain) weights.
        """
        analyzer = FaultCriticalityAnalyzer(
            self.netlist, config=config, workloads=workloads
        )
        analyzer._campaign = self.eco.result
        analyzer._features = self.features
        analyzer._dataset = self.dataset
        analyzer._data = self.data
        return analyzer

    def summary(self) -> Dict[str, object]:
        """One-line-per-fact overview of the incremental update."""
        predictions = self.predictions()
        return {
            "design": self.netlist.name,
            "edits": self.eco.diff.n_edits,
            "dirty_nodes": self.eco.region.n_dirty,
            "dirty_fraction": round(self.eco.region.dirty_fraction, 4),
            "faults_resimulated": self.eco.n_dirty,
            "faults_reused": self.eco.n_reused,
            "reuse_fraction": round(self.eco.reuse_fraction, 4),
            "fi_seconds": round(self.eco.dirty_seconds, 2),
            "base_fi_seconds": round(self.eco.base_seconds, 2),
            "critical_fraction": round(float(predictions.mean()), 4),
        }


class FaultCriticalityAnalyzer:
    """The framework's main entry point for one design.

    ``jobs`` is the worker-process count (``0`` = all cores), clamped
    by :func:`~repro.utils.workerpool.worker_count` (one process where
    a pool cannot run or one CPU is usable).  Left ``None``, the model
    stages use every usable CPU while the campaign, the ECO
    re-simulation and the grid search stay in-process: their units at
    these sizes cost less than a pool's fork.  A given ``jobs``
    applies to every stage.  Results never depend on it.
    """

    def __init__(self, netlist: Netlist,
                 config: Optional[AnalyzerConfig] = None,
                 workloads: Optional[Sequence[Workload]] = None,
                 store=None, jobs: Optional[int] = None):
        self.netlist = netlist
        self.config = config or AnalyzerConfig()
        self.store = store
        #: Worker processes for the GCN heads, baselines and explainer.
        self.jobs = worker_count(0 if jobs is None else jobs)
        #: Worker processes for the campaign, the ECO re-simulation
        #: and the grid search.
        self.fi_jobs = 1 if jobs is None else self.jobs
        self._memo = None
        self._workloads: Optional[List[Workload]] = (
            list(workloads) if workloads is not None else None
        )
        self.workloads_provided = workloads is not None
        self._campaign: Optional[CampaignResult] = None
        self._dataset: Optional[CriticalityDataset] = None
        self._features: Optional[NodeFeatures] = None
        self._data: Optional[GraphData] = None
        self._split: Optional[Split] = None
        self._classifier: Optional[GCNClassifier] = None
        self._regressor: Optional[GCNRegressor] = None
        self._explainer: Optional[GNNExplainer] = None

    @property
    def memo(self):
        """Store-backed memoization glue (``None`` without a store)."""
        if self._memo is None and self.store is not None:
            from repro.store.memo import AnalysisMemo

            self._memo = AnalysisMemo(self.store, self)
        return self._memo

    def _memoized(self, stage: str, compute):
        """Route one stage through the artifact store when attached."""
        memo = self.memo
        if memo is None:
            return compute()
        return getattr(memo, stage)(compute)

    # ------------------------------------------------------------------
    # pipeline stages (lazy, cached)
    # ------------------------------------------------------------------
    @property
    def workloads(self) -> List[Workload]:
        """The diverse workload suite (generated on first use)."""
        if self._workloads is None:
            def generate() -> List[Workload]:
                from repro.sim.workloads import design_workloads

                return design_workloads(
                    self.netlist.name, self.netlist,
                    count=self.config.n_workloads,
                    cycles=self.config.workload_cycles,
                    seed=self.config.seed,
                )

            self._workloads = list(self._memoized("workloads", generate))
        return self._workloads

    @property
    def campaign(self) -> CampaignResult:
        """The fault-injection campaign result."""
        if self._campaign is None:
            self._campaign = self._memoized(
                "campaign",
                lambda: run_campaign(
                    self.netlist, self.workloads,
                    severity=self.config.severity, jobs=self.fi_jobs,
                ),
            )
        return self._campaign

    @property
    def dataset(self) -> CriticalityDataset:
        """Algorithm 1's node scores and labels."""
        if self._dataset is None:
            self._dataset = self._memoized(
                "dataset",
                lambda: dataset_from_campaign(
                    self.campaign,
                    threshold=self.config.criticality_threshold,
                ),
            )
        return self._dataset

    @property
    def features(self) -> NodeFeatures:
        """The §3.1 node feature matrix."""
        if self._features is None:
            self._features = self._memoized(
                "features",
                lambda: extract_features(
                    self.netlist,
                    workloads=self.workloads
                    if self.config.probability_source == "simulation"
                    else None,
                    probability_source=self.config.probability_source,
                    extended=self.config.extended_features,
                ),
            )
        return self._features

    @property
    def data(self) -> GraphData:
        """Graph + features + labels, ready for models."""
        if self._data is None:
            self._data = self._memoized(
                "data",
                lambda: build_graph_data(
                    self.netlist, self.features, self.dataset
                ),
            )
        return self._data

    @property
    def split(self) -> Split:
        """The stratified 80/20 node split."""
        if self._split is None:
            self._split = stratified_split(
                self.data.y_class, self.config.val_fraction,
                seed=(self.config.seed, "split"),
            )
        return self._split

    @property
    def classifier(self) -> GCNClassifier:
        """The trained Table 1 GCN classifier."""
        if self._classifier is None:
            self._fit_heads("classifier")
        return self._classifier

    @property
    def regressor(self) -> GCNRegressor:
        """The trained criticality-score regressor (§3.4)."""
        if self._regressor is None:
            self._fit_heads("regressor")
        return self._regressor

    def _new_head(self, head: str):
        """The untrained GCN head ``head`` this configuration fits."""
        config = self.config
        architecture = dict(
            hidden_dims=config.hidden_dims, dropout=config.dropout,
            adjacency_mode=config.adjacency_mode,
            self_loops=config.self_loops,
        )
        if head == "classifier":
            return GCNClassifier(**architecture,
                                 seed=(config.seed, "gcn"),
                                 config=config.training)
        return GCNRegressor(**architecture,
                            seed=(config.seed, "gcn-regressor"),
                            config=config.regressor_training)

    def _fit_heads(self, requested: str) -> None:
        """Read ``requested`` from the store, or train it.

        On a miss with more than one job, the other head trains beside
        it when this analyzer does not hold it yet and it misses the
        store too, one pool unit per head: ``analyze``, ``explain``,
        ``node_report`` and ``eco_update`` use both, and the pair
        takes about the longer head's time instead of the sum.  A
        caller that uses one head pays for the other (CPU, and wall
        time when the other is the longer; ``docs/performance.md``);
        ``jobs=1`` trains only what is asked for.  The worker returns
        weights and history, and the parent restores the model as the
        store's reader does.  Only the requested head's failure
        raises; the other head's is logged and leaves it untrained, so
        a request for it trains it again.  A run whose heads all hit
        the store forks nothing.
        """
        memo = self.memo
        others = [head for head in _HEADS
                  if self.jobs > 1 and head != requested
                  and getattr(self, f"_{head}") is None]
        missing = {}
        for head in [requested] + others:
            model = self._new_head(head)
            stored = (memo.head(head, model) if memo is not None
                      else None)
            if stored is None:
                missing[head] = model
                continue
            setattr(self, f"_{head}", stored)
            if head == requested:
                return

        data, split = self.data, self.split
        # Forked workers inherit the propagation matrix and the
        # training engine's code instead of each building its own.
        data.a_norm(self.config.adjacency_mode, self.config.self_loops)
        from repro.nn import engine  # noqa: F401

        def train(head: str):
            model = missing[head].fit(data, split)
            return ([parameter.value
                     for parameter in model.model.parameters()],
                    model.history)

        trained = map_supervised(train, list(missing), self.jobs,
                                 lambda head: f"GCN {head} training",
                                 return_errors=True)
        failure = None
        for (head, model), outcome in zip(missing.items(), trained):
            if isinstance(outcome, Exception):
                if head == requested:
                    failure = outcome
                else:
                    logger.warning("GCN %s trained beside the %s is not "
                                   "kept, and trains again when "
                                   "requested: %s", head, requested,
                                   outcome)
                continue
            weights, history = outcome
            if model.model is None:  # trained in a pool worker
                model.restore(data, weights)
                model.history = history
            if memo is not None:
                memo.put_head(head, model)
            setattr(self, f"_{head}", model)
        if failure is not None:
            raise failure

    def grid_search(
        self,
        hidden_dim_options: Optional[Sequence[Sequence[int]]] = None,
        dropout_options: Optional[Sequence[float]] = None,
        lr_options: Optional[Sequence[float]] = None,
        epochs: int = 200,
        fast_math: bool = False,
    ):
        """§3.3.2 hyperparameter sweep on this design's graph.

        Trains one Table 1-style GCN stack per grid point on the
        design's features/labels/split and ranks by validation
        accuracy.  Candidates run on :attr:`fi_jobs` workers: serial
        unless the analyzer was given ``jobs`` (the ranking is bitwise
        identical either way).  ``fast_math`` opts candidate trainings
        into the engine's reordered kernels and the design's shared
        first-layer propagation cache (faster, not bitwise).  Option
        sequences default to the paper's grid.
        """
        from repro.models.gcn import build_gcn_stack
        from repro.nn.gridsearch import grid_search as _grid_search

        data, split = self.data, self.split
        a_norm = data.a_norm(
            self.config.adjacency_mode, self.config.self_loops
        )

        def builder(hidden_dims, dropout, seed):
            return build_gcn_stack(
                data.n_features, 2, a_norm,
                hidden_dims=hidden_dims, dropout=dropout,
                log_softmax=True, seed=seed,
            )

        options = {}
        if hidden_dim_options is not None:
            options["hidden_dim_options"] = hidden_dim_options
        if dropout_options is not None:
            options["dropout_options"] = dropout_options
        if lr_options is not None:
            options["lr_options"] = lr_options

        def compute():
            return _grid_search(
                builder, data.x, data.y_class,
                split.train_mask, split.val_mask,
                epochs=epochs, seed=self.config.seed,
                jobs=self.fi_jobs, fast_math=fast_math,
                cache=data.propagation_cache(),
                **options,
            )

        memo = self.memo
        if memo is None:
            return compute()
        # Key on the *resolved* grid (explicit options, else the
        # sweep's documented defaults), never on jobs — the ranking is
        # bitwise identical for any fan-out.
        import inspect

        defaults = inspect.signature(_grid_search).parameters
        return memo.gridsearch(
            hidden_dim_options=(
                hidden_dim_options
                if hidden_dim_options is not None
                else defaults["hidden_dim_options"].default
            ),
            dropout_options=(
                dropout_options if dropout_options is not None
                else defaults["dropout_options"].default
            ),
            lr_options=(
                lr_options if lr_options is not None
                else defaults["lr_options"].default
            ),
            epochs=epochs, fast_math=fast_math, compute=compute,
        )

    @property
    def explainer(self) -> GNNExplainer:
        """GNNExplainer bound to the trained classifier."""
        if self._explainer is None:
            from repro.explain.gnn_explainer import GNNExplainer

            self._explainer = GNNExplainer(
                self.classifier, self.data,
                seed=(self.config.seed, "explainer"),
            )
        return self._explainer

    # ------------------------------------------------------------------
    # evaluation views
    # ------------------------------------------------------------------
    def validation_accuracy(self) -> float:
        """GCN accuracy on the held-out nodes (the headline metric)."""
        return self.classifier.accuracy(self.split.val_mask)

    def validation_roc(self) -> RocCurve:
        """ROC of the GCN's critical-class probability on held-out
        nodes (Figure 4)."""
        probabilities = self.classifier.predict_proba()[:, 1]
        mask = self.split.val_mask
        return roc_curve(self.data.y_class[mask], probabilities[mask])

    def validation_confusion(self) -> ConfusionMatrix:
        """Confusion counts on the held-out nodes."""
        mask = self.split.val_mask
        return ConfusionMatrix.from_predictions(
            self.data.y_class[mask], self.classifier.predict()[mask]
        )

    def baseline_accuracies(
        self, names: Sequence[str] = BASELINE_NAMES
    ) -> Dict[str, float]:
        """Validation accuracy of each baseline classifier."""
        def compute() -> Dict[str, float]:
            return self._fit_baselines(
                names, lambda model, x, y: model.score(x, y)
            )

        memo = self.memo
        if memo is None:
            return compute()
        return memo.baselines(list(names), compute)

    def baseline_rocs(
        self, names: Sequence[str] = BASELINE_NAMES
    ) -> Dict[str, RocCurve]:
        """Validation ROC curves of each baseline (Figure 4)."""
        return self._fit_baselines(
            names,
            lambda model, x, y: roc_curve(y, model.predict_proba(x)[:, 1]),
        )

    def _fit_baselines(self, names: Sequence[str], measure) -> Dict:
        """``measure(model, x_val, y_val)`` of each baseline fitted on
        the training fold, one pool unit per baseline."""
        data, split = self.data, self.split
        # Built here, so forked workers share the baselines' code.
        models = {name: make_classifier(name) for name in names}

        def fit(name: str):
            model = models[name]
            model.fit(data.x[split.train_mask],
                      data.y_class[split.train_mask])
            return measure(model, data.x[split.val_mask],
                           data.y_class[split.val_mask])

        names = list(models)
        return dict(zip(names, map_supervised(
            fit, names, self.jobs, lambda name: f"baseline {name}")))

    def regression_quality(self) -> Dict[str, float]:
        """Score-prediction metrics on held-out nodes, including the
        >85 % classifier/regressor conformity claim of §5."""
        mask = self.split.val_mask
        predicted = self.regressor.predict()
        return {
            "pearson": pearson(predicted[mask], self.data.y_score[mask]),
            "conformity_with_classifier": classification_conformity(
                predicted[mask],
                self.classifier.predict()[mask],
                threshold=self.config.criticality_threshold,
            ),
            "conformity_with_labels": classification_conformity(
                predicted[mask],
                self.data.y_class[mask],
                threshold=self.config.criticality_threshold,
            ),
        }

    def explain_nodes(self, nodes: Sequence["str | int"],
                      batch_size: Optional[int] = None,
                      ) -> List[Explanation]:
        """Per-node GNNExplainer interpretations.

        The explainer's block-diagonal batches run on the analyzer's
        :attr:`jobs` workers; ``batch_size`` caps nodes per batch.
        Results are identical for every combination, so neither
        participates in the artifact-store key.
        """
        def compute() -> List[Explanation]:
            return self.explainer.explain_many(
                nodes, jobs=self.jobs, batch_size=batch_size,
            )

        memo = self.memo
        if memo is None:
            return compute()
        indices = [
            self.data.node_index(node) if isinstance(node, str)
            else int(node)
            for node in nodes
        ]
        return memo.explanations(indices, compute)

    def sample_explain_nodes(self, per_class: int = 3) -> List[int]:
        """A deterministic held-out node sample covering both predicted
        classes — what ``repro explain`` runs when no nodes are named.

        Up to ``per_class`` Critical and ``per_class`` Non-critical
        validation nodes, drawn from a seed-derived stream so the
        sample is stable across runs of the same configuration.
        """
        predictions = self.classifier.predict()
        candidates = np.flatnonzero(self.split.val_mask)
        rng = derive_rng(self.config.seed, "explain-sample")
        chosen: List[int] = []
        for label in (1, 0):
            pool = candidates[predictions[candidates] == label]
            if len(pool) > per_class:
                pool = np.sort(rng.choice(pool, per_class,
                                          replace=False))
            chosen.extend(int(node) for node in pool)
        return chosen

    def global_importance(self, sample: int = 40) -> GlobalImportance:
        """Aggregated feature importance over ``sample`` held-out nodes
        (Eq. 3 / Figure 5b)."""
        candidates = np.flatnonzero(self.split.val_mask)
        rng = np.random.default_rng(self.config.seed)
        if len(candidates) > sample:
            candidates = rng.choice(candidates, sample, replace=False)
        explanations = self.explain_nodes([int(c) for c in candidates])
        return aggregate_importance(explanations)

    def node_report(self, nodes: Sequence["str | int"]
                    ) -> List[NodeReport]:
        """Table 2 rows: classification, feature importances, predicted
        criticality score — for the named nodes."""
        data = self.data
        predictions = self.classifier.predict()
        scores = self.regressor.predict()
        explanations = self.explain_nodes(nodes)
        reports: List[NodeReport] = []
        for node, explanation in zip(nodes, explanations):
            index = (
                data.node_index(node) if isinstance(node, str) else int(node)
            )
            reports.append(NodeReport(
                design=data.design,
                node_name=data.node_names[index],
                classification=(
                    "Critical" if predictions[index] == 1
                    else "Non-critical"
                ),
                feature_scores=dict(zip(
                    explanation.feature_names,
                    (float(v) for v in explanation.feature_scores),
                )),
                criticality_score=float(scores[index]),
                ground_truth_score=float(data.y_score[index]),
            ))
        return reports

    def summary(self) -> Dict[str, object]:
        """One-line-per-fact overview of the full analysis."""
        try:
            auc = round(self.validation_roc().auc, 4)
        except ModelError:
            auc = None  # single-class validation fold
        return {
            "design": self.netlist.name,
            "nodes": self.data.n_nodes,
            "critical_fraction": round(float(self.data.y_class.mean()), 4),
            "workloads": len(self.workloads),
            "gcn_accuracy": round(self.validation_accuracy(), 4),
            "gcn_auc": auc,
            "fi_seconds": round(self.campaign.simulation_seconds, 2),
        }

    # ------------------------------------------------------------------
    # incremental re-analysis (ECO mode)
    # ------------------------------------------------------------------
    def eco_update(
        self, new_netlist: Netlist, *,
        base_checkpoint_dir: "Optional[str]" = None,
    ) -> EcoAnalysis:
        """Re-analyze an edited version of this design incrementally.

        Diffs ``new_netlist`` against the baseline, re-simulates only
        the faults inside the edit's dirty region
        (:func:`repro.fi.run_eco_campaign`), merges the rest from the
        cached baseline campaign, patches the feature matrix
        (:func:`repro.features.patch_features`), and rebinds the
        already-trained GCN classifier/regressor to the edited graph
        via ``transfer_to`` — no retraining.  The merged campaign,
        features, dataset, and graph are bitwise identical to a full
        from-scratch run on ``new_netlist``.

        By default the in-memory :attr:`campaign` is the baseline
        (computed now if not cached); pass ``base_checkpoint_dir`` to
        reuse a PR 1/3-style on-disk checkpoint store instead, in which
        case the baseline campaign is never simulated here.  Raises
        :class:`~repro.utils.errors.EcoError` when the baseline cannot
        be soundly reused.  The re-simulation runs on the analyzer's
        campaign ``jobs``.
        """
        from repro.fi.eco import _remap_workloads

        eco = run_eco_campaign(
            self.netlist, new_netlist, self.workloads,
            base=self.campaign if base_checkpoint_dir is None else None,
            base_checkpoint_dir=base_checkpoint_dir,
            severity=self.config.severity, jobs=self.fi_jobs,
        )
        remapped = _remap_workloads(new_netlist, self.workloads)
        features = patch_features(
            self.features, new_netlist, eco.region.dirty_nodes,
            workloads=remapped
            if self.config.probability_source == "simulation" else None,
            probability_source=self.config.probability_source,
        )
        dataset = dataset_from_campaign(
            eco.result, threshold=self.config.criticality_threshold
        )
        data = build_graph_data(new_netlist, features, dataset)
        return EcoAnalysis(
            netlist=new_netlist,
            eco=eco,
            features=features,
            dataset=dataset,
            data=data,
            classifier=self.classifier.transfer_to(data),
            regressor=self.regressor.transfer_to(data),
        )
