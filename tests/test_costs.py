"""Cost metrics: frozen examples, oracle equivalence, recovery properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnplan.costs import (
    CostConfig,
    con_dist,
    con_par,
    con_serial,
    dims_product,
    distributed_breakdown,
    mem_cost,
    node_ops,
)
from tnplan.network import TensorNetwork
from tnplan.partition import Partitioning
from tnplan.pathfind import greedy_tree
from tnplan.plan import assemble_plan
from tnplan.tree import ContractionTree

from oracles import (
    blocks_nested,
    from_nested,
    leaf_walk_con_par,
    oracle_dist,
    oracle_mem,
    oracle_par,
    oracle_serial,
    random_blocks,
    random_nested,
    random_pairs,
    sequential_dims_product,
    swapped,
    random_network,
    vertex_congestion,
)


def matrix_pair():
    net = TensorNetwork()
    net.add_tensor([2, 3])
    net.add_tensor([3, 4])
    net.bond(0, 1, 1, 0)
    return net


def chain_net():
    net = TensorNetwork()
    net.add_tensor([2, 4])
    net.add_tensor([4, 8])
    net.add_tensor([8, 3])
    net.bond(0, 1, 1, 0)
    net.bond(1, 1, 2, 0)
    return net


def four_chain():
    net = TensorNetwork()
    for dims in ([2, 3], [3, 4], [4, 5], [5, 6]):
        net.add_tensor(dims)
    net.bond(0, 1, 1, 0)
    net.bond(1, 1, 2, 0)
    net.bond(2, 1, 3, 0)
    return net


def path4_dims2():
    net = TensorNetwork()
    for _ in range(4):
        net.add_tensor([2, 2])
    net.bond(0, 1, 1, 0)
    net.bond(1, 1, 2, 0)
    net.bond(2, 1, 3, 0)
    return net


def one_block_plan(net, nested):
    """The one-partition plan whose tree is ``nested``."""
    return assemble_plan(net, Partitioning([net.vertices()]), [from_nested(net, nested)])


def test_single_matrix_product_costs():
    net = matrix_pair()
    tree = from_nested(net, [0, 1])
    assert con_serial(tree) == 24.0
    assert mem_cost(tree) == 26.0  # 8 result + 6 + 12 operands
    assert con_par(tree) == 24.0
    assert node_ops(tree, tree.root) == 24.0
    assert vertex_congestion(tree, tree.root) == pytest.approx(math.log2(24.0))


def test_chain_order_changes_serial_cost():
    net = chain_net()
    left_first = from_nested(net, [[0, 1], 2])
    right_first = from_nested(net, [0, [1, 2]])
    assert con_serial(left_first) == 112.0
    assert con_serial(right_first) == 120.0
    assert mem_cost(left_first) == 56.0
    assert mem_cost(right_first) == 68.0


def test_balanced_tree_parallel_cost_takes_heavier_branch():
    net = four_chain()
    tree = from_nested(net, [[0, 1], [2, 3]])
    assert con_serial(tree) == 192.0
    assert con_par(tree) == 168.0  # 48 root + max(24, 120)
    assert mem_cost(tree) == 74.0


def test_distributed_cost_on_split_path():
    net = path4_dims2()
    tree = from_nested(net, [[0, 1], [2, 3]])
    blocks = [frozenset({0, 1}), frozenset({2, 3})]
    assert con_serial(tree) == 24.0
    assert con_par(tree) == 16.0
    assert con_dist(tree, blocks) == 16.0
    beta = CostConfig(comm_beta=1.0)
    assert con_dist(tree, blocks, beta) == 20.0  # + min-child transfer of 4


def test_distributed_rejects_unrealized_partitioning():
    net = path4_dims2()
    tree = from_nested(net, [[0, 1], [2, 3]])
    with pytest.raises(ValueError):
        con_dist(tree, [frozenset({0, 2}), frozenset({1, 3})])


def test_single_leaf_costs():
    net = TensorNetwork()
    net.add_tensor([3, 5])
    tree = ContractionTree.from_pairs(net, [], leaves=[0])
    assert con_serial(tree) == 0.0
    assert con_par(tree) == 0.0
    assert mem_cost(tree) == 15.0
    with pytest.raises(ValueError):
        node_ops(tree, 0)


def test_cost_report_fields_consistent():
    net = four_chain()
    blocks = [frozenset({0, 1}), frozenset({2, 3})]
    trees = [from_nested(net, [0, 1]), from_nested(net, [2, 3])]
    rep = assemble_plan(net, Partitioning(blocks), trees).report  # composed: [[0, 1], [2, 3]]
    assert rep.con_serial == 192.0
    assert rep.con_dist == oracle_dist(net, [[0, 1], [2, 3]], blocks)
    assert rep.con_serial_log2 == pytest.approx(math.log2(192.0))
    assert len(rep.per_partition) == 2
    assert not rep.saturated
    d = rep.to_dict()
    assert d["con_serial"] == 192.0 and d["mem"] == 74.0


def test_saturation_flags_huge_networks():
    net = TensorNetwork()
    d = 2 ** 70
    net.add_tensor([d] * 4)
    net.add_tensor([d] * 4)
    for a in range(3):
        net.bond(0, a, 1, a)
    # five edges of dim 2^70 meet at the contraction: 2^350 ops, clamped
    rep = one_block_plan(net, [0, 1]).report
    assert rep.saturated
    assert rep.con_serial == 2.0 ** 300


@pytest.mark.parametrize("n_tensors", [1, 2])
@pytest.mark.parametrize("dims, saturated", [([2 ** 150 + 1, 2 ** 150], True), ([2 ** 150] * 2, False)])
def test_saturated_exactly_when_a_count_passes_2_to_the_300(n_tensors, dims, saturated):
    # (2**150 + 1) * 2**150 rounds to 2.0**300, and so does the sum of the
    # two dimensions' float log2s: only the exact product is past the clamp.
    # Two tensors bond both axes (one contraction); one tensor is a one-leaf tree.
    net = TensorNetwork()
    for _ in range(n_tensors):
        net.add_tensor(dims)
    if n_tensors == 2:
        net.bond(0, 0, 1, 0)
        net.bond(0, 1, 1, 1)
    rep = one_block_plan(net, [0, 1] if n_tensors == 2 else 0).report
    assert (rep.con_serial if n_tensors == 2 else rep.mem) == 2.0 ** 300
    assert rep.saturated is saturated


@pytest.mark.parametrize("field", ["comm_alpha", "comm_beta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -5.0, -1e-300])
def test_cost_config_rejects_non_finite_or_negative_comm(field, value):
    with pytest.raises(ValueError, match=field):
        CostConfig(**{field: value})
    assert getattr(CostConfig(**{field: 0.0}), field) == 0.0


def test_one_partition_report_is_serial():
    rep = one_block_plan(four_chain(), [[0, 1], [2, 3]]).report
    assert rep.con_dist == rep.con_serial == 192.0


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_serial_par_mem_match_oracles(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, payloads=False)
    nested = random_nested(rng, list(net.vertices()))
    tree = from_nested(net, nested)
    assert con_serial(tree) == oracle_serial(net, nested)
    assert con_par(tree) == oracle_par(net, nested)
    assert mem_cost(tree) == oracle_mem(net, nested)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from((4, 100, 1000)))
def test_con_par_matches_leaf_walk_on_every_subtree(seed, max_dim):
    # Dimensions up to 1000 push node products past 2**53, where sums round.
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_max=24, max_dim=max_dim, payloads=False)
    tree = from_nested(net, random_nested(rng, list(net.vertices())))
    for t in tree.order:
        assert con_par(tree, t) == leaf_walk_con_par(tree, t)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_dist_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_min=4, payloads=False)
    k = int(rng.integers(2, min(5, net.num_vertices) + 1))
    blocks = random_blocks(rng, net.vertices(), k)
    nested = blocks_nested(rng, net, blocks)
    tree = from_nested(net, nested)
    alpha = float(rng.choice([0.0, 1.0, 10.0]))
    beta = float(rng.choice([0.0, 0.5, 2.0]))
    for intra in ("serial", "par"):
        cfg = CostConfig(comm_alpha=alpha, comm_beta=beta, intra_node=intra)
        assert con_dist(tree, blocks, cfg) == oracle_dist(
            net, nested, blocks, alpha=alpha, beta=beta, intra=intra
        )


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), alpha=st.floats(0, 1e6), beta=st.floats(0, 1e6),
       intra=st.sampled_from(("serial", "par")))
def test_con_dist_is_the_slowest_partition_of_the_breakdown(seed, alpha, beta, intra):
    """``con_dist`` of the composed tree of a random fan-in tree equals the
    largest local plus fan-in total of ``distributed_breakdown``, and the
    plan of those trees, costed on its fan-in tree, has the same figures,
    bit for bit."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_min=4, payloads=False)
    k = int(rng.integers(1, min(6, net.num_vertices) + 1))
    blocks = random_blocks(rng, net.vertices(), k)
    trees = [greedy_tree(net, b) for b in blocks]
    cfg = CostConfig(comm_alpha=alpha, comm_beta=beta, intra_node=intra)
    plan = assemble_plan(net, Partitioning(blocks), trees, random_pairs(rng, list(range(k))), cfg)
    parts = distributed_breakdown(plan.tree, blocks, cfg)
    slowest = 0.0
    for p in parts:
        slowest = max(slowest, p.local + p.fanin)
    assert con_dist(plan.tree, blocks, cfg) == slowest == plan.cost
    assert [p.local for p in parts] == list(plan.local_costs)
    assert [p.fanin for p in parts] == list(plan.fanin_costs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_recovery_from_distributed_metric(seed):
    """One partition gives the serial cost; singleton partitions with free
    communication give the parallel cost. Exact equality."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, payloads=False)
    nested = random_nested(rng, list(net.vertices()))
    tree = from_nested(net, nested)
    whole = [frozenset(net.vertices())]
    assert con_dist(tree, whole) == con_serial(tree)
    singles = [frozenset({v}) for v in net.vertices()]
    assert con_dist(tree, singles) == con_par(tree)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_metrics_invariant_under_child_swaps(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_min=3, payloads=False)
    nested = random_nested(rng, list(net.vertices()))
    tree = from_nested(net, nested)
    k = int(rng.integers(1, min(4, net.num_vertices) + 1))
    blocks = random_blocks(rng, net.vertices(), k)
    accepted = from_nested(net, blocks_nested(rng, net, blocks))
    before = (
        con_serial(tree),
        con_par(tree),
        mem_cost(tree),
        con_dist(accepted, blocks),
    )
    tree = swapped(tree, {t for t in tree.internal_order if rng.random() < 0.6})
    accepted = swapped(accepted, {t for t in accepted.internal_order if rng.random() < 0.6})
    after = (
        con_serial(tree),
        con_par(tree),
        mem_cost(tree),
        con_dist(accepted, blocks),
    )
    assert after == before


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_dist_monotone_in_transfer_cost(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_min=4, payloads=False)
    k = int(rng.integers(2, min(4, net.num_vertices) + 1))
    blocks = random_blocks(rng, net.vertices(), k)
    tree = from_nested(net, blocks_nested(rng, net, blocks))
    betas = [0.0, 0.5, 1.0, 4.0]
    costs = [con_dist(tree, blocks, CostConfig(comm_beta=b)) for b in betas]
    assert costs == sorted(costs)


def open_legs(dims):
    """A one-tensor network with the given open axes, and its leg set."""
    net = TensorNetwork()
    v = net.add_tensor(dims)
    return net, frozenset(net.axis_edges(v))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 10**6), max_size=60))
def test_dims_product_is_the_exact_product_rounded_once(dims):
    net, legs = open_legs(dims)
    exact = math.prod(dims)
    expected = 2.0 ** 300 if exact > 2 ** 300 else float(exact)
    assert dims_product(net, legs) == expected


def test_dims_product_of_no_legs_is_one():
    net, legs = open_legs([])
    assert dims_product(net, legs) == 1.0


@pytest.mark.parametrize("dims", [[2] * 301, [10**6] * 51, [3] * 190 + [10**6] * 2])
def test_dims_product_clamps_past_2_to_the_300(dims):
    net, legs = open_legs(dims)
    assert dims_product(net, legs) == 2.0 ** 300


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=40))
def test_dims_product_matches_sequential_product_on_powers_of_two(exponents):
    net, legs = open_legs([2**x for x in exponents])
    assert dims_product(net, legs) == sequential_dims_product(net, legs)
