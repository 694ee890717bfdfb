"""Greedy and noisy-greedy tree construction, and reduction paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnplan.circuits import circuit_to_network
from tnplan.corpus import ghz_circuit
from tnplan.costs import con_par, con_serial, legs_size, mem_cost, node_ops
from tnplan.network import TensorNetwork
from tnplan.partition import Partitioning, initial_partition
from tnplan.pathfind import (
    GreedyConfig, _greedy_pass, greedy_tree, leg_tables, random_greedy_tree, reduction_network,
    reduction_path,
)
from tnplan.plan import build_plan, serial_plan
from tnplan.tree import ContractionTree, leaf_legs

from oracles import (
    random_blocks, random_bond_network, random_network, reference_greedy_pass, to_nested,
)


def chain_net():
    net = TensorNetwork()
    net.add_tensor([2, 4])
    net.add_tensor([4, 8])
    net.add_tensor([8, 3])
    net.bond(0, 1, 1, 0)
    net.bond(1, 1, 2, 0)
    return net


def path4():
    net = TensorNetwork()
    for _ in range(4):
        net.add_tensor([2, 2])
    net.bond(0, 1, 1, 0)
    net.bond(1, 1, 2, 0)
    net.bond(2, 1, 3, 0)
    return net


def test_greedy_picks_largest_memory_reduction_first():
    # pair scores: (0,1) -> 8+32-16 = 24, (1,2) -> 32+24-12 = 44
    net = chain_net()
    tree = greedy_tree(net)
    assert to_nested(tree) == [0, [1, 2]]
    assert con_serial(tree) == 120.0


def test_greedy_handles_disconnected_views_with_outer_products():
    net = path4()
    tree = greedy_tree(net, view={0, 3})
    assert sorted(tree.leaves()) == [0, 3]
    assert tree.legs(tree.root) == net.edges_of(0) | net.edges_of(3)


def test_greedy_covers_view_exactly():
    net = path4()
    tree = greedy_tree(net, view={1, 2, 3})
    assert tree.leaves() == [1, 2, 3]


def test_config_validation():
    with pytest.raises(ValueError):
        GreedyConfig(samples=0)
    with pytest.raises(ValueError):
        GreedyConfig(noise_scale=-1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_greedy_is_deterministic(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, payloads=False)
    assert to_nested(greedy_tree(net)) == to_nested(greedy_tree(net))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_greedy_tree_is_a_full_valid_tree(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, payloads=False)
    tree = greedy_tree(net)
    assert tree.leaves() == list(net.vertices())
    assert tree.legs(tree.root) == net.open_edges()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_random_greedy_cost_non_increasing_in_samples(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_min=5, payloads=False)
    costs = []
    for s in (1, 4, 16):
        tree = random_greedy_tree(net, cfg=GreedyConfig(samples=s, rng_seed=seed))
        costs.append(con_serial(tree))
    assert costs[0] >= costs[1] >= costs[2]
    assert con_serial(greedy_tree(net)) >= costs[0]


def test_noisy_serial_search_keeps_a_better_deterministic_pass():
    # On ghz-8 the best of the 32 default noisy passes costs 210, the deterministic one 202.
    net = circuit_to_network(ghz_circuit(8))
    assert con_serial(greedy_tree(net)) == 202.0
    assert con_serial(random_greedy_tree(net, cfg=GreedyConfig())) == 202.0
    assert serial_plan(net, cfg=GreedyConfig()).report.con_serial == 202.0


def test_random_greedy_without_noise_equals_plain_greedy():
    net = chain_net()
    tree = random_greedy_tree(net, cfg=GreedyConfig(samples=4, noise_scale=0.0, rng_seed=9))
    assert to_nested(tree) == to_nested(greedy_tree(net))


def test_greedy_tree_builds_deep_trees_without_recursion():
    net = circuit_to_network(ghz_circuit(1100))
    tree = greedy_tree(net)
    assert len(tree.leaves()) == net.num_vertices
    assert tree.subtree_roots([set(net.vertices())]) == [tree.root]
    assert tree.legs(tree.root) == net.open_edges()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**6), source=st.sampled_from(("view", "fanin")), noisy=st.booleans())
def test_greedy_pass_matches_the_leg_set_reference(seed, source, noisy):
    rng = np.random.default_rng(seed)
    if source == "view":
        # Random views of networks with dimension-1 and parallel bonds,
        # often disconnected, some past the 2**300 clamp.
        net = random_bond_network(rng, scale=2**100 if rng.random() < 0.2 else 1)
        view = [v for v in net.vertices() if rng.random() < 0.7] or [0]
    else:
        base = random_network(rng, n_min=6, payloads=False)
        k = int(rng.integers(2, min(6, base.num_vertices) + 1))
        blocks = random_blocks(rng, base.vertices(), k)
        trees = [greedy_tree(base, set(b)) for b in blocks]
        net = reduction_network(base, [t.legs(t.root) for t in trees])
        view = net.vertices()
    pieces = [(v, leaf_legs(net, v)) for v in view]
    draws = [np.random.default_rng(seed) if noisy else None for _ in range(2)]
    tables = leg_tables(net, [legs for _, legs in pieces])
    got = _greedy_pass(net, list(view), *tables, draws[0], 0.3)
    assert (got.pairs(), got.total_ops()) == reference_greedy_pass(net, pieces, draws[1], 0.3)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), source=st.sampled_from(("view", "fanin")), noisy=st.booleans())
def test_greedy_tree_equals_the_checked_tree_of_its_pairs(seed, source, noisy):
    """A greedy tree leaves its pass unchecked and sized by the pass; the
    tree ``from_pairs`` checks and sizes from leg sets is the same, bit for bit."""
    rng = np.random.default_rng(seed)
    if source == "view":
        # Dimension-1 and parallel bonds, often disconnected, some past the
        # 2**300 clamp; some views hold one vertex.
        net = random_bond_network(rng, scale=2**100 if rng.random() < 0.2 else 1)
        view = [v for v in net.vertices() if rng.random() < 0.7] or [0]
        if rng.random() < 0.1:
            view = view[:1]
    else:
        base = random_network(rng, n_min=6, payloads=False)
        k = int(rng.integers(2, min(6, base.num_vertices) + 1))
        blocks = random_blocks(rng, base.vertices(), k)
        trees = [greedy_tree(base, set(b)) for b in blocks]
        net = reduction_network(base, [t.legs(t.root) for t in trees])
        view = None
    tree = greedy_tree(net, view, GreedyConfig(samples=3, rng_seed=seed) if noisy else None)
    checked = ContractionTree.from_pairs(net, tree.pairs(), tree.leaves())
    nodes = checked.postorder()
    internal = checked.internal_nodes()
    assert tree.root == checked.root
    assert sorted(tree.op_counts) == sorted(internal)
    assert sorted(tree.entry_counts) == sorted(nodes)
    for t in nodes:
        assert tree.children(t) == checked.children(t)
        assert tree.parent(t) == checked.parent(t)
        assert tree.legs(t) == checked.legs(t)
        assert legs_size(tree, t) == legs_size(checked, t)
    for t in internal:
        assert node_ops(tree, t) == node_ops(checked, t)
    for metric in (con_serial, con_par, mem_cost):
        assert metric(tree) == metric(checked)


def test_reduction_network_rejects_an_edge_in_three_partitions():
    net = path4()
    legs = net.leaf_legs(1)
    with pytest.raises(ValueError, match="appears in 3 partitions"):
        reduction_network(net, [legs, legs, legs])


def test_reduction_path_short_circuits_small_cases():
    net = path4()
    t_all = greedy_tree(net)
    one = reduction_path(reduction_network(net, [t_all.legs(t_all.root)]))
    assert one.leaves() == [0] and one.root == 0
    left = greedy_tree(net, view={0, 1})
    right = greedy_tree(net, view={2, 3})
    two = reduction_path(reduction_network(net, [left.legs(left.root), right.legs(right.root)]))
    assert sorted(two.leaves()) == [0, 1]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_reduction_path_covers_every_partition_once(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_min=6, payloads=False)
    k = int(rng.integers(2, min(5, net.num_vertices) + 1))
    blocks = random_blocks(rng, net.vertices(), k)
    trees = [greedy_tree(net, view=set(b)) for b in blocks]
    red = reduction_path(reduction_network(net, [t.legs(t.root) for t in trees]))
    assert sorted(red.leaves()) == list(range(k))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_built_plan_tree_accepts_its_partitioning(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_min=6, payloads=False)
    k = int(rng.integers(2, min(5, net.num_vertices) + 1))
    part = initial_partition(net, k, seed=seed)
    plan = build_plan(net, part)
    assert plan.tree.accepts_partitioning(part.blocks)
    assert plan.tree.legs(plan.tree.root) == net.open_edges()
