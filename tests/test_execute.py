"""Dense execution: the kernel, op counting, memory accounting, emulation."""

import math
import tracemalloc

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

from oracles import (
    contract_loops, einsum_value, from_nested, random_nested, random_network, sorted_open_result,
)


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


@st.composite
def contractions(draw, above, swap):
    """Two operands of dims 1-3 and their axis pairs.  The operand built
    first has more or fewer entries than the blocking threshold (``above``)
    and its shared axes are scattered, leading or trailing; it is the
    second operand when ``swap``, and either may be the larger."""
    dims = draw(st.lists(st.integers(1, 3), max_size=10))
    if above:
        while math.prod(dims) <= execute.BLOCK_THRESHOLD:
            dims.insert(draw(st.integers(0, len(dims))), draw(st.integers(2, 3)))
    else:
        while math.prod(dims) > execute.BLOCK_THRESHOLD:
            dims.pop()
    n = len(dims)
    m = draw(st.integers(0, min(4, n)))
    layout = draw(st.sampled_from(("scattered", "leading", "trailing")))
    if layout == "scattered":
        shared = sorted(draw(st.permutations(range(n)))[:m])
    else:
        shared = list(range(m)) if layout == "leading" else list(range(n - m, n))
    free = draw(st.lists(st.integers(1, 3), max_size=6))
    while free and math.prod(dims) // math.prod(dims[a] for a in shared) * math.prod(free) > 2 ** 18:
        free.pop()
    order = draw(st.permutations(range(m + len(free))))  # axis j of the other operand
    other_dims = [dims[shared[i]] if i < m else free[i - m] for i in order]
    pairs = [(shared[i], j) for j, i in enumerate(order) if i < m]
    pairs = draw(st.permutations(pairs))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a, b = (rng.normal(size=d) + 1j * rng.normal(size=d) for d in (dims, other_dims))
    if swap:
        return b, a, [(y, x) for x, y in pairs]
    return a, b, pairs


@pytest.mark.parametrize("swap", [False, True], ids=["built-first", "built-second"])
@pytest.mark.parametrize("above", [False, True], ids=["below", "above"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_contract_pair_matches_tensordot(above, swap, data):
    s, t, pairs = data.draw(contractions(above, swap))
    out = contract_pair(s, t, pairs)
    expected = np.tensordot(s, t, axes=([a for a, _ in pairs], [b for _, b in pairs]))
    assert out.shape == expected.shape
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)


def test_matrix_product_trace_and_peak():
    net = matrix_net()
    tree = from_nested(net, [0, 1])
    trace = execute_plan(net, tree)
    np.testing.assert_allclose(
        sorted_open_result(trace, net), einsum_value(net), atol=1e-12
    )
    assert trace.mult_count == 24
    assert trace.peak_entries == 26  # result 8 + operands 6 and 12
    assert trace.mult_count == int(con_serial(tree))


def test_memory_guard_refuses_oversized_plans():
    net = matrix_net()
    tree = from_nested(net, [0, 1])
    with pytest.raises(MemoryBudgetError):
        execute_plan(net, tree, max_entries=25)
    execute_plan(net, tree, max_entries=26)


def test_execute_requires_payloads():
    net = TensorNetwork()
    net.add_tensor([2, 2])
    net.add_tensor([2, 2])
    net.bond(0, 0, 1, 0)
    tree = from_nested(net, [0, 1])
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
    tree = from_nested(net, [0, 1])
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
    tree = from_nested(net, random_nested(rng, list(net.vertices())))
    trace = execute_plan(net, tree)
    expected = einsum_value(net)
    got = sorted_open_result(trace, net)
    np.testing.assert_allclose(got, expected, atol=1e-9 * max(1.0, np.abs(expected).max()))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_kernels_agree_on_values_and_mult_count(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_max=6, max_dim=3)
    tree = from_nested(net, random_nested(rng, list(net.vertices())))
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
    t1 = from_nested(net, random_nested(rng, list(net.vertices())))
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
    tree = from_nested(net, random_nested(rng, list(net.vertices())))
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
    tree = from_nested(net, [[0, 1], 2])
    trace = execute_plan(net, tree)
    assert trace.peak_entries == int(mem_cost(tree))
    assert trace.resident_peak >= trace.peak_entries - 6  # last contraction frees T0
    assert len(trace.records) == 2


def test_traced_peak_is_bounded_by_the_reported_one():
    # A and B (2^9 entries each) make a 2^18-entry outer product whose axes
    # 2, 7 and 13 are then contracted with D: scattered, so the larger
    # operand is contracted block by block instead of copied whole.
    rng = np.random.default_rng(5)
    net = TensorNetwork()
    for dims in ([2] * 9, [2] * 9, [2] * 3):
        net.add_tensor(dims, rng.normal(size=dims) + 1j * rng.normal(size=dims))
    net.bond(0, 2, 2, 0)
    net.bond(0, 7, 2, 1)
    net.bond(1, 4, 2, 2)
    tree = ContractionTree.from_pairs(net, [(0, 1), (3, 2)])
    execute_plan(net, tree)
    tracemalloc.start()
    try:
        trace = execute_plan(net, tree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = max(execute.BLOCK_ENTRIES, execute.MIN_BLOCK_ROWS * 8)
    assert peak <= 16 * (trace.resident_peak + 8 + block) + 2 ** 20
    np.testing.assert_allclose(sorted_open_result(trace, net), einsum_value(net), atol=1e-9)


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
