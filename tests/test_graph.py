"""Tests for graph construction, adjacency normalization, and splits."""

import sys

import numpy as np
import pytest
import scipy.sparse as sp

from repro.features import extract_features
from repro.fi import dataset_from_campaign, run_campaign
from repro.graph import (
    GraphData,
    adjacency_matrix,
    build_graph_data,
    netlist_edges,
    netlist_to_networkx,
    normalized_adjacency,
    stratified_split,
    undirected_edges,
)
from repro.sim import design_workloads
from repro.utils.errors import ModelError


def test_netlist_edges_tiny(tiny_netlist):
    edges = netlist_edges(tiny_netlist)
    # Only AN2 -> IV.
    assert edges.shape == (2, 1)
    assert edges[0, 0] == 0 and edges[1, 0] == 1


def test_netlist_edges_deduplicate():
    from repro.netlist import Netlist

    netlist = Netlist("dup")
    a = netlist.add_input("a")
    inv = netlist.add_gate("IV", [a])
    both = netlist.add_gate("AN2", [inv, inv])
    netlist.add_output(both, "y")
    edges = netlist_edges(netlist)
    assert edges.shape == (2, 1)  # double connection = one edge


def test_undirected_edges():
    edges = np.array([[0, 1], [1, 2]])
    sym = undirected_edges(edges)
    pairs = set(zip(sym[0], sym[1]))
    assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1)}


def test_networkx_export(tiny_netlist):
    pytest.importorskip("networkx")
    graph = netlist_to_networkx(tiny_netlist)
    assert graph.number_of_nodes() == 2
    assert graph.number_of_edges() == 1
    assert graph.nodes[0]["cell"] == "AN2"
    assert graph.nodes[1]["name"] == "IV_U2"


def test_networkx_export_without_networkx_names_the_extra(
    tiny_netlist, monkeypatch
):
    monkeypatch.setitem(sys.modules, "networkx", None)
    with pytest.raises(ImportError, match=r"pip install repro\[graph\]"):
        netlist_to_networkx(tiny_netlist)


def test_adjacency_matrix_binary():
    edges = np.array([[0, 0], [1, 1]])  # duplicate edge
    adjacency = adjacency_matrix(edges, 3)
    dense = adjacency.toarray()
    assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0
    assert dense.sum() == 2.0


def test_adjacency_bad_edges():
    with pytest.raises(ModelError):
        adjacency_matrix(np.array([[0], [5]]), 3)
    with pytest.raises(ModelError):
        adjacency_matrix(np.zeros((3, 2)), 3)


def test_symmetric_normalization_properties():
    edges = np.array([[0, 1, 2], [1, 2, 3]])
    a_norm = normalized_adjacency(edges, 4, mode="symmetric")
    dense = a_norm.toarray()
    assert np.allclose(dense, dense.T)
    eigenvalues = np.linalg.eigvalsh(dense)
    assert eigenvalues.max() <= 1.0 + 1e-9  # spectral radius <= 1


def test_row_normalization_rows_sum_to_one():
    edges = np.array([[0, 1, 2], [1, 2, 3]])
    a_norm = normalized_adjacency(edges, 4, mode="row")
    sums = a_norm.toarray().sum(axis=1)
    assert np.allclose(sums, 1.0)


def test_no_self_loops_mode():
    edges = np.array([[0], [1]])
    a_norm = normalized_adjacency(edges, 3, self_loops=False)
    dense = a_norm.toarray()
    assert dense[2, 2] == 0.0  # isolated node w/o self loop stays zero


def test_unknown_normalization():
    with pytest.raises(ModelError):
        normalized_adjacency(np.array([[0], [1]]), 2, mode="spectral")


@pytest.fixture(scope="module")
def icfsm_data(icfsm):
    workloads = design_workloads(icfsm.name, icfsm, count=6, cycles=100,
                                 seed=0)
    campaign = run_campaign(icfsm, workloads)
    dataset = dataset_from_campaign(campaign)
    features = extract_features(icfsm, workloads=workloads)
    return build_graph_data(icfsm, features, dataset)


def test_graph_data_alignment(icfsm, icfsm_data):
    data = icfsm_data
    assert data.n_nodes == icfsm.n_gates
    assert data.x.shape == (icfsm.n_gates, 5)
    assert data.y_class.shape == (icfsm.n_gates,)
    assert data.node_names == icfsm.node_names()
    assert data.node_index(data.node_names[5]) == 5
    with pytest.raises(ModelError):
        data.node_index("nope")


def test_graph_data_a_norm_cached(icfsm_data):
    first = icfsm_data.a_norm()
    second = icfsm_data.a_norm()
    assert first is second
    row = icfsm_data.a_norm(mode="row")
    assert row is not first


def test_graph_data_subset_features(icfsm_data):
    subset = icfsm_data.subset_features(["Number of connections"])
    assert subset.x.shape[1] == 1
    assert subset.feature_names == ["Number of connections"]
    with pytest.raises(ModelError):
        icfsm_data.subset_features(["nope"])


def test_stratified_split_fractions():
    labels = np.array([0] * 80 + [1] * 20)
    split = stratified_split(labels, val_fraction=0.25, seed=1)
    assert split.val_mask.sum() == 25
    assert labels[split.val_mask].sum() == 5  # 25% of each class
    assert not (split.train_mask & split.val_mask).any()
    assert (split.train_mask | split.val_mask).all()


def test_stratified_split_small_classes():
    labels = np.array([0, 0, 0, 1, 1])
    split = stratified_split(labels, val_fraction=0.2, seed=0)
    # Each class keeps at least one member on both sides.
    assert 0 < labels[split.val_mask].sum() < 2
    assert labels[split.train_mask].sum() >= 1


def test_stratified_split_validation():
    with pytest.raises(ModelError):
        stratified_split(np.array([]), 0.2)
    with pytest.raises(ModelError):
        stratified_split(np.array([0, 1]), 1.5)


def test_split_deterministic():
    labels = np.random.default_rng(0).integers(0, 2, 50)
    a = stratified_split(labels, seed=3)
    b = stratified_split(labels, seed=3)
    assert np.array_equal(a.val_mask, b.val_mask)
    c = stratified_split(labels, seed=4)
    assert not np.array_equal(a.val_mask, c.val_mask)
