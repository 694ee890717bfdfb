"""Dense execution: the kernel, op counting, memory accounting, emulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnplan import execute
from tnplan.costs import CostConfig, con_serial, mem_cost
from tnplan.execute import (
    DEFAULT_MAX_ENTRIES,
    ExecutionError,
    MemoryBudgetError,
    contract_pair,
    execute_distributed_emulation,
    execute_plan,
)
from tnplan.network import TensorNetwork
from tnplan.partition import initial_partition
from tnplan.pathfind import greedy_tree
from tnplan.plan import build_plan, serial_plan
from tnplan.tree import ContractionTree

from oracles import contract_loops, einsum_value, random_nested, random_network, sorted_open_result


def matrix_net(rng=None):
    rng = rng or np.random.default_rng(0)
    net = TensorNetwork()
    net.add_tensor([2, 3], rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))
    net.add_tensor([3, 4], rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4)))
    net.bond(0, 1, 1, 0)
    return net


def test_contract_pair_matches_matmul():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    b = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    for out in (contract_pair(a, b, [(1, 0)]), contract_loops(a, b, [(1, 0)])):
        np.testing.assert_allclose(out, a @ b, atol=1e-12)
    with pytest.raises(ExecutionError):
        contract_pair(a, b, [(0, 0)])  # dim mismatch 2 vs 3


def test_contract_pair_axis_order_is_free_axes_of_each_operand():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 5, 3))
    b = rng.normal(size=(3, 7))
    out = contract_pair(a, b, [(2, 0)])
    assert out.shape == (2, 5, 7)
    np.testing.assert_allclose(out, np.tensordot(a, b, axes=(2, 0)), atol=1e-12)


def test_matrix_product_trace_and_peak():
    net = matrix_net()
    tree = ContractionTree.from_nested(net, [0, 1])
    trace = execute_plan(net, tree)
    np.testing.assert_allclose(
        sorted_open_result(trace, net), einsum_value(net), atol=1e-12
    )
    assert trace.mult_count == 24
    assert trace.peak_entries == 26  # result 8 + operands 6 and 12
    assert trace.mult_count == int(con_serial(tree))


def test_memory_guard_refuses_oversized_plans():
    net = matrix_net()
    tree = ContractionTree.from_nested(net, [0, 1])
    with pytest.raises(MemoryBudgetError):
        execute_plan(net, tree, max_entries=25)
    execute_plan(net, tree, max_entries=26)


def test_execute_requires_payloads():
    net = TensorNetwork()
    net.add_tensor([2, 2])
    net.add_tensor([2, 2])
    net.bond(0, 0, 1, 0)
    tree = ContractionTree.from_nested(net, [0, 1])
    with pytest.raises(ExecutionError):
        execute_plan(net, tree)


def test_self_loop_leaf_is_traced():
    net = TensorNetwork()
    arr = np.arange(12, dtype=complex).reshape(3, 2, 2)
    v = net.add_tensor([3, 2, 2], arr)
    net.bond(v, 1, v, 2)
    tree = ContractionTree.from_pairs(net, [], leaves=[v])
    trace = execute_plan(net, tree)
    np.testing.assert_allclose(
        sorted_open_result(trace, net), einsum_value(net), atol=1e-12
    )
    assert trace.mult_count == 0  # a trace only adds


def test_scalar_accessor_rejects_tensors():
    net = matrix_net()
    tree = ContractionTree.from_nested(net, [0, 1])
    trace = execute_plan(net, tree)
    with pytest.raises(ExecutionError):
        trace.scalar()


def test_same_tree_is_bit_deterministic():
    rng = np.random.default_rng(7)
    net = random_network(rng, n_min=6, n_max=8)
    tree = greedy_tree(net)
    a = execute_plan(net, tree)
    b = execute_plan(net, tree)
    np.testing.assert_array_equal(a.result, b.result)
    assert a.mult_count == b.mult_count


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_executor_matches_whole_network_einsum(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_max=8, max_dim=3)
    tree = ContractionTree.from_nested(net, random_nested(rng, list(net.vertices())))
    trace = execute_plan(net, tree)
    expected = einsum_value(net)
    got = sorted_open_result(trace, net)
    np.testing.assert_allclose(got, expected, atol=1e-9 * max(1.0, np.abs(expected).max()))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_kernels_agree_on_values_and_mult_count(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_max=6, max_dim=3)
    tree = ContractionTree.from_nested(net, random_nested(rng, list(net.vertices())))
    fast = execute_plan(net, tree)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(execute, "contract_pair", contract_loops)
        slow = execute_plan(net, tree)
    np.testing.assert_allclose(fast.result, slow.result, atol=1e-10)
    assert fast.mult_count == slow.mult_count


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_results_are_order_independent_across_trees(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_max=7, max_dim=3)
    t1 = ContractionTree.from_nested(net, random_nested(rng, list(net.vertices())))
    t2 = greedy_tree(net)
    r1 = sorted_open_result(execute_plan(net, t1), net)
    r2 = sorted_open_result(execute_plan(net, t2), net)
    scale = max(1.0, float(np.abs(r1).max()))
    np.testing.assert_allclose(r1, r2, atol=1e-10 * scale)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_mult_count_equals_serial_cost(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_max=9)
    tree = ContractionTree.from_nested(net, random_nested(rng, list(net.vertices())))
    trace = execute_plan(net, tree)
    assert trace.mult_count == int(con_serial(tree))


def test_peak_and_resident_accounting_on_chain():
    rng = np.random.default_rng(3)
    net = TensorNetwork()
    net.add_tensor([2, 4], rng.normal(size=(2, 4)))
    net.add_tensor([4, 8], rng.normal(size=(4, 8)))
    net.add_tensor([8, 3], rng.normal(size=(8, 3)))
    net.bond(0, 1, 1, 0)
    net.bond(1, 1, 2, 0)
    tree = ContractionTree.from_nested(net, [[0, 1], 2])
    trace = execute_plan(net, tree)
    assert trace.peak_entries == int(mem_cost(tree))
    assert trace.resident_peak >= trace.peak_entries - 6  # last contraction frees T0
    assert len(trace.records) == 2


def test_emulation_reproduces_serial_result():
    rng = np.random.default_rng(11)
    net = random_network(rng, n_min=8, n_max=10, max_dim=3, p_open=0.0)
    part = initial_partition(net, 3, seed=1)
    plan = build_plan(net, part)
    emu = execute_distributed_emulation(net, plan)
    direct = execute_plan(net, plan.tree)
    assert emu.scalar() == direct.scalar()
    assert emu.mult_count == direct.mult_count == plan.report.con_serial
    records = emu.trace.records
    assert emu.serial_seconds == sum(r.seconds for r in records)
    assert len(emu.partition_seconds) == 3
    paths = zip(emu.partition_seconds, emu.fanin_seconds)
    assert emu.emulated_seconds == max(local + fanin for local, fanin in paths)
    assert emu.emulated_seconds <= emu.serial_seconds + 1e-12
    # Each contraction is charged to the one block that holds all its leaves, if any.
    for block, seconds in zip(plan.partitioning.blocks, emu.partition_seconds):
        held = [r.seconds for r in records if plan.tree.subtree_leaf_tensors(r.node) <= block]
        assert seconds == pytest.approx(sum(held), rel=1e-12, abs=0)
