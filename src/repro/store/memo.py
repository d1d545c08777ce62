"""Memoization glue between the analyzer pipeline and the store.

:class:`AnalysisMemo` owns one analyzer's stage keys (computed lazily,
cached — the key chain itself hashes workload vectors, so it is built
once per run) and wraps each expensive stage in get-or-compute-put.
Warm results are bitwise identical to cold ones: every artifact format
round-trips floats exactly (JSON shortest-repr, float64 ``.npz``), the
campaign's recorded ``simulation_seconds`` rides inside its artifact,
and all store diagnostics go through ``logging`` (stderr), never
stdout.

The campaign stage has one extra trick — the *ECO near-miss*: when the
exact campaign key misses, the store is probed for a campaign of a
*different* netlist run under the same stimulus suite and policy.  If
one is found and its design is diff-compatible with ours
(:func:`repro.fi.run_eco_campaign` accepts the pair), only the edit's
dirty region is re-simulated and the rest of the rows are merged from
the cached baseline — the persistent composition of ECO mode's
incremental win.  The merged rows are bitwise identical to a cold
campaign; only the recorded wall-clock differs, so near-miss results
are returned but *also* cached under their exact key for next time.
"""

from __future__ import annotations

import logging
from dataclasses import asdict
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.store import keys as K
from repro.store.store import ArtifactStore
from repro.utils.errors import EcoError, ReproError, SerializationError

logger = logging.getLogger("repro.store")


def _write_json(payload: dict) -> Callable:
    import json

    def writer(path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)

    return writer


def _read_json(path) -> dict:
    import json

    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise SerializationError(
            f"store JSON artifact {path}: top level must be an object"
        )
    return payload


def _resolve_policy(netlist, severity) -> tuple:
    """Settle ``"auto"`` severity/observation exactly as the campaign
    runner does, so keys are spelling-independent."""
    from repro.fi.campaign import DEFAULT_SEVERITY
    from repro.fi.checkpoint import observation_key
    from repro.fi.observation import observation_for, severity_for

    resolved = (
        severity_for(netlist, DEFAULT_SEVERITY)
        if severity == "auto" else float(severity)
    )
    return resolved, observation_key(observation_for(netlist))


def ensure_netlist_cached(store: ArtifactStore, netlist) -> str:
    """Persist a design's Verilog under its structural key (the ECO
    near-miss probe's baseline source); returns the key."""
    from repro.netlist import to_verilog

    key = K.netlist_key(netlist)
    if not store.contains(key, "netlist"):
        text = to_verilog(netlist)

        def writer(path) -> None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)

        store.put(key, "netlist", writer,
                  meta={"design": netlist.name})
    return key


def _near_miss_campaign(store: ArtifactStore, netlist, workloads, *,
                        severity, collapse: bool,
                        netlist_key: str, workloads_key: str,
                        resolved_severity: float, observation: str):
    """Recover a campaign from a diff-compatible cached baseline.

    Probes campaigns with the same workload suite and policy but a
    different netlist; for each (most recently used first), loads its
    stored Verilog, and asks ECO mode to re-simulate only the dirty
    region and merge the rest.  Any refusal — missing baseline
    netlist, incompatible diff, ECO soundness check — falls through to
    the next candidate, then to a cold run.  Merged rows are bitwise
    identical to a cold campaign; the recorded wall-clock is the
    merge's own, so the result is *also* cached under its exact key.
    """
    from repro.fi import run_eco_campaign
    from repro.io import load_campaign
    from repro.netlist import from_verilog

    candidates = store.find(
        "campaign", workloads=workloads_key,
        severity=resolved_severity, collapse=bool(collapse),
        observation=observation,
    )
    for key, meta in candidates:
        if meta.get("netlist") in (None, netlist_key):
            continue
        base_netlist = store.get(
            meta["netlist"], "netlist",
            lambda path: from_verilog(
                Path(path).read_text(encoding="utf-8")
            ),
        )
        if base_netlist is None:
            continue
        base = store.get(key, "campaign", load_campaign)
        if base is None:
            continue
        try:
            eco = run_eco_campaign(
                base_netlist, netlist, workloads, base=base,
                severity=severity, collapse=collapse,
            )
        except (EcoError, ReproError) as error:
            logger.info(
                "store near-miss: baseline %s not reusable (%s)",
                key[:12], error,
            )
            continue
        logger.info(
            "store near-miss: recovered campaign from baseline %s "
            "(%d/%d rows merged, %d re-simulated)",
            key[:12], eco.n_reused, eco.n_faults, eco.n_dirty,
        )
        return eco.result
    return None


def memoized_campaign(store: ArtifactStore, netlist, workloads, *,
                      severity="auto", collapse: bool = False,
                      compute: Callable,
                      netlist_key: Optional[str] = None,
                      workloads_key: Optional[str] = None):
    """Get-or-compute-put for one full-universe FI campaign.

    The shared engine behind :meth:`AnalysisMemo.campaign` and the
    ``repro campaign --store`` path: exact-key hit, then ECO
    near-miss recovery, then cold compute.  Partial campaigns (a
    non-empty failure ledger) are returned but never cached.
    """
    from repro.io import load_campaign, save_campaign

    resolved_severity, observation = _resolve_policy(netlist, severity)
    nk = netlist_key or K.netlist_key(netlist)
    wk = workloads_key or K.workloads_key(workloads)
    key = K.campaign_key(nk, wk, severity=resolved_severity,
                         collapse=bool(collapse),
                         observation=observation)
    hit = store.get(key, "campaign", load_campaign)
    if hit is not None:
        logger.info("store hit: campaign %s", key[:12])
        return hit
    # The exact key may address the suite by its generation recipe
    # (cheap on warm runs); the near-miss probe and the stored meta
    # always use the *content* identity of the vectors, which is what
    # decides ECO compatibility across netlists.
    content_wk = (
        wk if workloads_key is None else K.workloads_key(workloads)
    )
    result = _near_miss_campaign(
        store, netlist, workloads, severity=severity,
        collapse=collapse, netlist_key=nk, workloads_key=content_wk,
        resolved_severity=resolved_severity, observation=observation,
    )
    if result is None:
        result = compute()
    if result.failures:
        # A partial campaign must never be served as ground truth.
        logger.info("store skip: campaign %s has %d failed "
                    "workload(s) — not cached", key[:12],
                    len(result.failures))
        return result
    ensure_netlist_cached(store, netlist)
    store.put(
        key, "campaign",
        lambda path: save_campaign(result, path),
        meta={
            "design": netlist.name,
            "netlist": nk,
            "workloads": content_wk,
            "severity": resolved_severity,
            "collapse": bool(collapse),
            "observation": observation,
        },
    )
    return result


class AnalysisMemo:
    """Get-or-compute-put for every stage of one analyzer run."""

    def __init__(self, store: ArtifactStore, analyzer) -> None:
        self.store = store
        self.analyzer = analyzer
        self._key_cache: dict = {}

    # -- resolved policy ----------------------------------------------
    def _resolved_severity(self) -> float:
        from repro.fi.campaign import DEFAULT_SEVERITY
        from repro.fi.observation import severity_for

        severity = self.analyzer.config.severity
        if severity == "auto":
            return severity_for(self.analyzer.netlist, DEFAULT_SEVERITY)
        return float(severity)

    def _resolved_observation(self) -> str:
        from repro.fi.checkpoint import observation_key
        from repro.fi.observation import observation_for

        return observation_key(observation_for(self.analyzer.netlist))

    # -- stage keys (lazy; hashing workload bytes happens once) -------
    def _key(self, name: str, build: Callable[[], str]) -> str:
        if name not in self._key_cache:
            self._key_cache[name] = build()
        return self._key_cache[name]

    def netlist_key(self) -> str:
        return self._key(
            "netlist", lambda: K.netlist_key(self.analyzer.netlist)
        )

    def workloads_key(self) -> str:
        def build() -> str:
            analyzer = self.analyzer
            if analyzer.workloads_provided:
                # Caller-supplied suite: only its vectors identify it.
                return K.workloads_key(analyzer.workloads)
            # Generated suite: the recipe identifies the vectors
            # without generating them (closed-loop generation runs a
            # driver simulation — the single warm-path hotspot).
            return K.workload_suite_key(
                self.netlist_key(), design=analyzer.netlist.name,
                count=analyzer.config.n_workloads,
                cycles=analyzer.config.workload_cycles,
                seed=analyzer.config.seed,
            )

        return self._key("workloads", build)

    def campaign_key(self) -> str:
        return self._key("campaign", lambda: K.campaign_key(
            self.netlist_key(), self.workloads_key(),
            severity=self._resolved_severity(), collapse=False,
            observation=self._resolved_observation(),
        ))

    def features_key(self) -> str:
        config = self.analyzer.config
        return self._key("features", lambda: K.features_key(
            self.netlist_key(),
            self.workloads_key()
            if config.probability_source == "simulation" else None,
            probability_source=config.probability_source,
            extended=config.extended_features,
        ))

    def dataset_key(self) -> str:
        return self._key("dataset", lambda: K.dataset_key(
            self.campaign_key(),
            threshold=self.analyzer.config.criticality_threshold,
        ))

    def graph_key(self) -> str:
        return self._key("graph", lambda: K.graph_key(
            self.netlist_key(), self.features_key(),
            self.dataset_key(),
        ))

    def classifier_key(self) -> str:
        config = self.analyzer.config
        return self._key("classifier", lambda: K.classifier_key(
            self.graph_key(),
            hidden_dims=config.hidden_dims, dropout=config.dropout,
            adjacency_mode=config.adjacency_mode,
            self_loops=config.self_loops, seed=config.seed,
            val_fraction=config.val_fraction,
            training=asdict(config.training),
        ))

    def regressor_key(self) -> str:
        config = self.analyzer.config
        return self._key("regressor", lambda: K.regressor_key(
            self.graph_key(),
            hidden_dims=config.hidden_dims, dropout=config.dropout,
            adjacency_mode=config.adjacency_mode,
            self_loops=config.self_loops, seed=config.seed,
            val_fraction=config.val_fraction,
            training=asdict(config.regressor_training),
        ))

    # -- stages --------------------------------------------------------
    def workloads(self, compute: Callable):
        from repro.io import load_workloads, save_workloads

        if self.analyzer.workloads_provided:
            return compute()
        return self._stage(
            self.workloads_key(), "workloads", compute,
            reader=load_workloads,
            make_writer=lambda value: (
                lambda path: save_workloads(value, path)
            ),
        )

    def campaign(self, compute: Callable):
        from repro.io import load_campaign

        # Exact-hit fast path before touching ``analyzer.workloads``:
        # a warm rerun must not pay for stimulus generation.
        hit = self.store.get(self.campaign_key(), "campaign",
                             load_campaign)
        if hit is not None:
            logger.info("store hit: campaign %s",
                        self.campaign_key()[:12])
            return hit
        return memoized_campaign(
            self.store, self.analyzer.netlist,
            self.analyzer.workloads,
            severity=self.analyzer.config.severity,
            collapse=False, compute=compute,
            netlist_key=self.netlist_key(),
            workloads_key=self.workloads_key(),
        )

    def features(self, compute: Callable):
        from repro.io import load_features, save_features

        return self._stage(
            self.features_key(), "features", compute,
            reader=load_features,
            make_writer=lambda value: (
                lambda path: save_features(value, path)
            ),
        )

    def dataset(self, compute: Callable):
        from repro.io import load_dataset
        from repro.io import save_dataset as _save

        def writer_for(value):
            def writer(path) -> None:
                _save(value, path)

            return writer

        return self._stage(self.dataset_key(), "dataset", compute,
                           reader=load_dataset,
                           make_writer=writer_for)

    def data(self, compute: Callable):
        from repro.io import load_graph_data, save_graph_data

        return self._stage(
            self.graph_key(), "graph", compute,
            reader=load_graph_data,
            make_writer=lambda value: (
                lambda path: save_graph_data(value, path)
            ),
        )

    def classifier(self, compute: Callable):
        return self._model(self.classifier_key(), "classifier",
                           compute, seed_stream="gcn",
                           training=self.analyzer.config.training)

    def regressor(self, compute: Callable):
        return self._model(
            self.regressor_key(), "regressor", compute,
            seed_stream="gcn-regressor",
            training=self.analyzer.config.regressor_training,
        )

    def _model(self, key: str, kind: str, compute: Callable, *,
               seed_stream: str, training):
        from repro.io import load_gcn, save_gcn

        def reader(path):
            model = load_gcn(path, self.analyzer.data)
            # load_gcn restores architecture + weights; rebind the
            # run's seed/config so later transfer_to clones match a
            # cold-trained model exactly.
            model.seed = (self.analyzer.config.seed, seed_stream)
            model.config = training
            return model

        return self._stage(
            key, kind, compute, reader=reader,
            make_writer=lambda value: (
                lambda path: save_gcn(value, path)
            ),
        )

    def explanations(self, nodes: Sequence[int], compute: Callable):
        from repro.explain.gnn_explainer import ExplainerConfig
        from repro.io import load_explanations, save_explanations

        key = K.explanations_key(
            self.classifier_key(), self.graph_key(),
            nodes=nodes, seed=self.analyzer.config.seed,
            explainer=asdict(ExplainerConfig()),
        )
        return self._stage(
            key, "explanations", compute,
            reader=load_explanations,
            make_writer=lambda value: (
                lambda path: save_explanations(value, path)
            ),
        )

    def gridsearch(self, *, hidden_dim_options, dropout_options,
                   lr_options, epochs: int, fast_math: bool,
                   compute: Callable):
        from repro.nn.gridsearch import GridPoint, GridSearchResult

        key = K.gridsearch_key(
            self.graph_key(),
            hidden_dim_options=hidden_dim_options,
            dropout_options=dropout_options, lr_options=lr_options,
            epochs=epochs, seed=self.analyzer.config.seed,
            val_fraction=self.analyzer.config.val_fraction,
            fast_math=fast_math,
        )

        def reader(path) -> GridSearchResult:
            payload = _read_json(path)
            return GridSearchResult(points=[
                GridPoint(
                    hidden_dims=tuple(
                        int(d) for d in point["hidden_dims"]
                    ),
                    dropout=float(point["dropout"]),
                    lr=float(point["lr"]),
                    val_accuracy=float(point["val_accuracy"]),
                    best_epoch=int(point["best_epoch"]),
                )
                for point in payload["points"]
            ])

        def make_writer(value: GridSearchResult):
            return _write_json({"points": [
                {"hidden_dims": list(point.hidden_dims),
                 "dropout": point.dropout, "lr": point.lr,
                 "val_accuracy": point.val_accuracy,
                 "best_epoch": point.best_epoch}
                for point in value.points
            ]})

        return self._stage(key, "gridsearch", compute, reader=reader,
                           make_writer=make_writer)

    def baselines(self, names: Sequence[str], compute: Callable):
        key = K.baselines_key(
            self.graph_key(), names=names,
            seed=self.analyzer.config.seed,
            val_fraction=self.analyzer.config.val_fraction,
        )

        def reader(path) -> dict:
            payload = _read_json(path)
            accuracies = payload["accuracies"]
            if set(accuracies) != set(names):
                raise SerializationError(
                    "baseline artifact names drifted from request"
                )
            # Rebuild in request order (canonical JSON sorts keys).
            return {name: float(accuracies[name]) for name in names}

        def make_writer(value: dict):
            return _write_json({"accuracies": dict(value)})

        return self._stage(key, "baselines", compute, reader=reader,
                           make_writer=make_writer)

    # -- shared get-or-compute-put ------------------------------------
    def _stage(self, key: str, kind: str, compute: Callable, *,
               reader: Callable, make_writer: Callable):
        hit = self.store.get(key, kind, reader)
        if hit is not None:
            logger.info("store hit: %s %s", kind, key[:12])
            return hit
        value = compute()
        self.store.put(key, kind, make_writer(value),
                       meta={"design": self.analyzer.netlist.name})
        return value
