"""Incremental node-feature re-extraction for ECO mode.

Every §3.1 feature column's per-node value depends only on structure
and golden traces inside the node's own neighbourhood cones:
connection counts and inverting tags on the gate's pins, probability
features on the gate's golden trace (forward cone of edits), logic
levels / SCOAP CC on the fanin side, output distance / SCOAP CO on the
fanout side plus downstream side-input CCs.  All of those change only
for nodes inside the ECO dirty region (see :mod:`repro.fi.eco`'s
soundness argument), so an edited design's feature matrix can be
assembled by *patching*: dirty rows are computed fresh on the edited
design, clean rows are copied verbatim from the cached baseline — a
matrix bitwise identical to full re-extraction, stable for clean nodes
even across library drift in the recomputed path.

(Patching re-extracts the whole edited design, so it costs one full
extraction.  That is cheap: the golden simulation behind the
probability features packs one lane per workload into one pass per
cycle count.  The point of patching is artifact stability and
validating the dirty region, not wall-clock.)
"""

from __future__ import annotations

from typing import AbstractSet, Optional, Sequence

import numpy as np

from repro.features.extract import NodeFeatures, extract_features
from repro.netlist.netlist import Netlist
from repro.sim.waveform import Workload
from repro.utils.errors import EcoError


def patch_features(
    base: NodeFeatures,
    netlist: Netlist,
    dirty_nodes: AbstractSet[str],
    workloads: Optional[Sequence[Workload]] = None,
    probability_source: str = "simulation",
) -> NodeFeatures:
    """Feature matrix for the edited ``netlist``, reusing clean rows.

    ``base`` is the pre-edit design's cached :class:`NodeFeatures`;
    ``dirty_nodes`` the ECO dirty region
    (:attr:`repro.fi.eco.DirtyRegion.dirty_nodes`).  The extended
    column set is inferred from ``base.feature_names``.

    Raises :class:`~repro.utils.errors.EcoError` when a clean node has
    no row in the baseline — that means ``dirty_nodes`` does not
    belong to this edit and patching would merge unrelated designs.
    """
    from repro.features.extract import FEATURE_NAMES

    extended = list(base.feature_names) != list(FEATURE_NAMES)
    fresh = extract_features(
        netlist,
        workloads=workloads,
        probability_source=probability_source,
        extended=extended,
    )
    if fresh.feature_names != base.feature_names:
        raise EcoError(
            "baseline feature set does not match this extraction "
            f"({base.feature_names} vs {fresh.feature_names})"
        )

    base_rows = {name: i for i, name in enumerate(base.node_names)}
    matrix = fresh.matrix.copy()
    for row, name in enumerate(fresh.node_names):
        if name in dirty_nodes:
            continue
        source = base_rows.get(name)
        if source is None:
            raise EcoError(
                f"node {name!r} is clean but missing from the feature "
                "baseline — the dirty region does not match this edit"
            )
        matrix[row] = base.matrix[source]

    return NodeFeatures(
        design=netlist.name,
        node_names=list(fresh.node_names),
        feature_names=list(fresh.feature_names),
        matrix=matrix,
    )
