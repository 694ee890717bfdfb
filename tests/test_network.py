"""Tensor network model: ids, bonds, loops, sizes, JSON round trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnplan.circuits import circuit_from_dict, circuit_to_network
from tnplan.costs import dims_product
from tnplan.execute import execute_plan
from tnplan.network import OPEN, NetworkError, TensorNetwork
from tnplan.partition import initial_partition
from tnplan.plan import build_plan, serial_plan

from oracles import (connected_components, edge_walk_neighbors, is_connected, open_edges,
                     random_bond_network, random_network, statevector)


def chain_net():
    net = TensorNetwork()
    net.add_tensor([2, 4])
    net.add_tensor([4, 8])
    net.add_tensor([8, 3])
    net.bond(0, 1, 1, 0)
    net.bond(1, 1, 2, 0)
    return net


def test_vertex_ids_are_dense():
    net = TensorNetwork()
    assert [net.add_tensor([2]) for _ in range(4)] == [0, 1, 2, 3]
    assert net.num_vertices == 4
    assert list(net.vertices()) == [0, 1, 2, 3]


def test_new_tensor_axes_start_open():
    net = TensorNetwork()
    v = net.add_tensor([2, 3, 4])
    assert net.dims_of(v) == (2, 3, 4)
    assert all(net.edge(e).is_open for e in net.axis_edges(v))
    assert len(open_edges(net)) == 3


def test_bond_replaces_two_open_edges_with_one():
    net = TensorNetwork()
    net.add_tensor([2, 3])
    net.add_tensor([3])
    before = set(open_edges(net))
    e = net.bond(0, 1, 1, 0)
    assert e not in before
    assert net.edge(e).ends == ((0, 1), (1, 0))
    assert len(open_edges(net)) == 1
    assert net.bound_edges() == {e}


def test_edge_ids_never_reused():
    net = TensorNetwork()
    net.add_tensor([2, 2])
    net.add_tensor([2, 2])
    seen = set(net.axis_edges(0)) | set(net.axis_edges(1))
    e1 = net.bond(0, 0, 1, 0)
    e2 = net.bond(0, 1, 1, 1)
    assert e1 not in seen and e2 not in seen | {e1}


def test_bond_validation():
    net = TensorNetwork()
    net.add_tensor([2, 3])
    net.add_tensor([3, 5])
    with pytest.raises(NetworkError):
        net.bond(0, 0, 1, 1)  # dim mismatch 2 vs 5
    with pytest.raises(NetworkError):
        net.bond(0, 0, 0, 0)  # same axis twice
    net.bond(0, 1, 1, 0)
    with pytest.raises(NetworkError):
        net.bond(0, 1, 1, 0)  # already bound
    with pytest.raises(NetworkError):
        net.bond(0, 5, 1, 0)  # no such axis


def test_self_loop_is_admitted_and_counted_per_axis():
    net = TensorNetwork()
    v = net.add_tensor([3, 3, 2])
    e = net.bond(v, 0, v, 1)
    assert net.edge(e).is_loop()
    first, second, third = net.axis_edges(v)
    assert first == second == e != third
    # loop dim enters the size once per incident axis
    assert math.prod(net.dims_of(v)) == 3 * 3 * 2


def test_leg_tables_follow_a_bond_made_after_a_read():
    net = TensorNetwork()
    u = net.add_tensor([2, 5])
    v = net.add_tensor([5, 3])
    open_u, open_v = net.axis_edges(u)[1], net.axis_edges(v)[0]
    assert net.leaf_legs(u) == set(net.axis_edges(u))
    assert dims_product(net, net.leaf_legs(u)) == 10.0
    assert net.vertex_row(u) == (10, {}) and net.vertex_row(v) == (15, {})
    assert not net.neighbors(u)
    e = net.bond(u, 1, v, 0)
    assert net.neighbors(u) == {v} and net.neighbors(v) == {u}
    assert net.leaf_legs(u) == {net.axis_edges(u)[0], e}
    assert net.leaf_legs(v) == {e, net.axis_edges(v)[1]}
    assert net.vertex_row(u) == (10, {v: 5}) and net.vertex_row(v) == (15, {u: 5})
    for gone in (open_u, open_v):
        with pytest.raises(KeyError):
            net.edge_dim(gone)
    assert net.edge_dim(e) == 5
    assert dims_product(net, net.leaf_legs(u) | net.leaf_legs(v)) == 30.0


def test_self_loop_bonded_after_a_read_leaves_the_leaf_legs():
    net = TensorNetwork()
    v = net.add_tensor([3, 3, 2])
    keep = net.axis_edges(v)[2]
    assert net.leaf_legs(v) == set(net.axis_edges(v))
    net.bond(v, 0, v, 1)
    assert net.leaf_legs(v) == {keep}
    assert dims_product(net, net.leaf_legs(v)) == 2.0


def test_open_edge_constant_marks_dangling_end():
    net = TensorNetwork()
    v = net.add_tensor([7])
    (e,) = net.axis_edges(v)
    assert OPEN in [w for w, _ in net.edge(e).ends]


def test_neighbors_and_connectivity():
    net = chain_net()
    assert net.neighbors(1) == {0, 2}
    assert is_connected(net)
    lone = TensorNetwork()
    lone.add_tensor([2, 2])
    lone.add_tensor([2, 2])
    assert not is_connected(lone)
    assert len(connected_components(lone)) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_neighbors_match_the_edge_walk(seed):
    # The networks draw self-loops, parallel and dimension-1 bonds, and open axes.
    net = random_bond_network(np.random.default_rng(seed), loops=True)
    for v in net.vertices():
        assert net.neighbors(v) == edge_walk_neighbors(net, v)


def test_json_round_trip_preserves_structure_and_data():
    net = chain_net()
    rng = np.random.default_rng(0)
    net2 = TensorNetwork()
    for v in net.vertices():
        dims = net.dims_of(v)
        net2.add_tensor(dims, rng.normal(size=dims) + 1j * rng.normal(size=dims))
    net2.bond(0, 1, 1, 0)
    net2.bond(1, 1, 2, 0)
    doc = net2.to_json()
    back = TensorNetwork.from_json(doc)
    assert back.num_vertices == net2.num_vertices
    assert [back.dims_of(v) for v in back.vertices()] == [net2.dims_of(v) for v in net2.vertices()]
    for v in back.vertices():
        np.testing.assert_array_equal(back.payload(v), net2.payload(v))
    same_bonds = {frozenset(net2.edge(e).ends) for e in net2.bound_edges()}
    assert {frozenset(back.edge(e).ends) for e in back.bound_edges()} == same_bonds


def test_json_accepts_text_and_dict():
    net = chain_net()
    text = net.to_json(include_data=False)
    assert isinstance(text, str)
    assert TensorNetwork.from_json(text).num_vertices == 3
    assert not TensorNetwork.from_json(json.loads(text)).has_payloads()


def test_from_json_rejects_bad_documents():
    with pytest.raises(NetworkError):
        TensorNetwork.from_json({"tensors": [], "bonds": []})
    doc = {
        "tensors": [{"id": 0, "dims": [2], "data": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]}],
        "bonds": [],
    }
    with pytest.raises(NetworkError):
        TensorNetwork.from_json(doc)  # wrong data length
    doc = {"tensors": [{"id": 1, "dims": [2], "data": None}], "bonds": []}
    with pytest.raises(NetworkError):
        TensorNetwork.from_json(doc)  # ids must be dense from 0


@pytest.mark.parametrize(
    "dim", [2.5, "2", True, 0, -1, None, pytest.param(10**400, id="past-float-range")]
)
def test_from_json_rejects_dims_that_are_not_positive_ints(dim):
    doc = {"tensors": [{"id": 0, "dims": [2, dim], "data": None}], "bonds": []}
    with pytest.raises(NetworkError, match="dims"):
        TensorNetwork.from_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"tensors": 5},
        {"tensors": [5]},
        {"tensors": None},
        [{"id": 0, "dims": [2]}],
        {"tensors": [{"id": "0", "dims": [2]}]},
        {"tensors": [{"id": 0, "dims": [2], "data": 4}]},
        {"tensors": [{"id": 0, "dims": [1], "data": ["1", "0"]}]},
        {"tensors": [{"id": 0, "dims": [1], "data": [[1.0], 0.0]}]},
        {"tensors": [{"id": 0, "dims": [1], "data": [True, 0.0]}]},
        {"tensors": [{"id": 0, "dims": [1], "data": [10**400, 0.0]}]},
        {"tensors": [{"id": 0, "dims": [1], "data": [float("nan"), 0.0]}]},
        {"tensors": [{"id": 0, "dims": [2, 2]}], "bonds": 3},
        {"tensors": [{"id": 0, "dims": [2, 2]}], "bonds": [{"u": 0, "a": 0, "v": 0}]},
        {"tensors": [{"id": 0, "dims": [2, 2]}], "bonds": [{"u": 0, "a": 0.0, "v": 0, "b": 1}]},
    ],
)
def test_from_json_rejects_malformed_documents_with_network_error(doc):
    with pytest.raises(NetworkError):
        TensorNetwork.from_json(doc)


@pytest.mark.parametrize("bits", ["000", "110"])
def test_idle_qubit_network_round_trips_plans_and_executes(bits):
    # Qubit 2 shares no gate, so its two tensors form a component of their own.
    circuit = circuit_from_dict(
        {"qubits": 3, "gates": [{"name": "H", "targets": [0]}, {"name": "CX", "targets": [0, 1]}]}
    )
    net = TensorNetwork.from_json(circuit_to_network(circuit, bits=bits).to_json())
    assert len(connected_components(net)) == 2
    expected = statevector(circuit)[tuple(int(b) for b in bits)]
    for k in (1, 2, 3):
        plan = serial_plan(net) if k == 1 else build_plan(net, initial_partition(net, k, seed=0))
        assert len(plan.partitioning.blocks) == k
        trace = execute_plan(net, plan.tree)
        assert trace.scalar() == pytest.approx(expected, abs=1e-9)
        assert trace.mult_count == plan.report.con_serial


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_axis_coverage_and_dim_symmetry(seed):
    """Every axis is covered by exactly one incident edge endpoint, and a
    bound edge reports the same dim from both endpoints."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, payloads=False)
    for v in net.vertices():
        slots = [a for e in set(net.axis_edges(v)) for (w, a) in net.edge(e).ends if w == v]
        assert sorted(slots) == list(range(len(net.dims_of(v))))
    for e in net.bound_edges():
        (u, a), (v, b) = net.edge(e).ends
        assert net.dims_of(u)[a] == net.dims_of(v)[b] == net.edge_dim(e)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_random_network_json_round_trip(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, payloads=False)
    back = TensorNetwork.from_json(net.to_json())
    assert back.num_vertices == net.num_vertices
    assert [back.dims_of(v) for v in back.vertices()] == [net.dims_of(v) for v in net.vertices()]
    assert len(back.bound_edges()) == len(net.bound_edges())
