"""Contraction trees: construction, legs, caching, partition acceptance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnplan.network import TensorNetwork
from tnplan.tree import ContractionTree, TreeError, compose_plan_tree, leaf_legs

from oracles import random_blocks, random_nested, random_network, random_pairs, blocks_nested


def chain_net():
    net = TensorNetwork()
    net.add_tensor([2, 4])
    net.add_tensor([4, 8])
    net.add_tensor([8, 3])
    net.bond(0, 1, 1, 0)
    net.bond(1, 1, 2, 0)
    return net


def test_from_pairs_builds_expected_structure():
    net = chain_net()
    tree = ContractionTree.from_pairs(net, [(0, 1), (3, 2)])
    assert tree.root == 4
    assert tree.children(3) == (0, 1)
    assert tree.children(4) == (3, 2)
    assert tree.parent(0) == 3 and tree.parent(3) == 4
    assert tree.parent(tree.root) is None
    assert tree.leaves() == [0, 1, 2]
    assert sorted(tree.internal_nodes()) == [3, 4]


def test_from_pairs_rejects_bad_sequences():
    net = chain_net()
    with pytest.raises(TreeError):
        ContractionTree.from_pairs(net, [(0, 0)])
    with pytest.raises(TreeError):
        ContractionTree.from_pairs(net, [(0, 7)])
    with pytest.raises(TreeError):
        ContractionTree.from_pairs(net, [(0, 1)])  # node 2 left over
    with pytest.raises(TreeError):
        ContractionTree.from_pairs(net, [(0, 1), (3, 2), (4, 2)])  # 2 reused


def test_nested_round_trip():
    net = chain_net()
    tree = ContractionTree.from_nested(net, [0, [1, 2]])
    assert tree.to_nested() == [0, [1, 2]]
    with pytest.raises(TreeError):
        ContractionTree.from_nested(net, [0, [0, 2]])  # repeated leaf
    # trees over a subset of vertices are fine (partition-local trees)
    sub = ContractionTree.from_nested(net, [0, 1])
    assert sub.leaves() == [0, 1]


def test_leaf_legs_excludes_self_loops():
    net = TensorNetwork()
    v = net.add_tensor([3, 3, 2])
    net.bond(v, 0, v, 1)
    (open_edge,) = net.open_edges()
    assert leaf_legs(net, v) == frozenset({open_edge})


def test_legs_of_internal_nodes_on_chain():
    net = chain_net()
    tree = ContractionTree.from_pairs(net, [(0, 1), (3, 2)])
    e_open0 = net.axis_edges(0)[0]
    e_open2 = net.axis_edges(2)[1]
    e_mid = net.axis_edges(1)[1]
    assert tree.legs(3) == frozenset({e_open0, e_mid})
    assert tree.legs(tree.root) == frozenset({e_open0, e_open2})
    assert tree.legs(tree.root) == net.open_edges()


def test_single_leaf_tree():
    net = TensorNetwork()
    net.add_tensor([5])
    tree = ContractionTree.single_leaf(net, 0)
    assert tree.root == 0
    assert tree.is_leaf(0)
    assert tree.num_leaves() == 1
    assert tree.legs(0) == net.open_edges()


def test_postorder_visits_children_first():
    net = chain_net()
    tree = ContractionTree.from_pairs(net, [(1, 2), (0, 3)])
    order = tree.postorder()
    pos = {t: i for i, t in enumerate(order)}
    for t in tree.nodes():
        if not tree.is_leaf(t):
            l, r = tree.children(t)
            assert pos[l] < pos[t] and pos[r] < pos[t]
    assert len(order) == 5
    assert order[-1] == tree.root


def test_ancestors_walk_parent_first():
    net = chain_net()
    tree = ContractionTree.from_pairs(net, [(1, 2), (0, 3)])
    assert tree.ancestors(1) == [3, 4]
    assert tree.ancestors(tree.root) == []


def test_shortest_path_endpoints_and_adjacency():
    net = chain_net()
    tree = ContractionTree.from_pairs(net, [(1, 2), (0, 3)])
    path = tree.shortest_path(1, 0)
    assert path[0] == 1 and path[-1] == 0
    for a, b in zip(path, path[1:]):
        assert tree.parent(a) == b or tree.parent(b) == a


def test_subtree_roots_and_acceptance():
    net = chain_net()
    tree = ContractionTree.from_pairs(net, [(0, 1), (3, 2)])
    blocks = [frozenset({0, 1}), frozenset({2})]
    roots = tree.subtree_roots(blocks)
    assert roots == [3, 2]
    assert tree.accepts_partitioning(blocks)
    assert not tree.accepts_partitioning([frozenset({0, 2}), frozenset({1})])


def test_swap_children_preserves_semantics():
    net = chain_net()
    tree = ContractionTree.from_pairs(net, [(0, 1), (3, 2)])
    legs_before = {t: tree.legs(t) for t in tree.nodes()}
    tree.swap_children(3)
    assert tree.children(3) == (1, 0)
    for t, expected in legs_before.items():
        assert tree.legs(t) == expected
    assert tree.accepts_partitioning([frozenset({0, 1}), frozenset({2})])


def test_compose_plan_tree_places_partitions_under_skeleton():
    net = chain_net()
    t01 = ContractionTree.from_nested(net, [0, 1])
    t2 = ContractionTree.single_leaf(net, 2)
    composed = compose_plan_tree(net, [t01, t2], [0, 1])
    assert sorted(composed.leaves()) == [0, 1, 2]
    assert composed.accepts_partitioning([frozenset({0, 1}), frozenset({2})])
    assert composed.legs(composed.root) == net.open_edges()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_root_legs_equal_open_edges_for_any_tree(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, payloads=False)
    tree = ContractionTree.from_pairs(net, random_pairs(rng, list(net.vertices())))
    assert tree.legs(tree.root) == net.open_edges()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_legs_cache_matches_fresh_computation(seed):
    """Cached legs equal a from-scratch rebuild of the same shape, even
    after cache-warming traversals and child swaps."""
    rng = np.random.default_rng(seed)
    net = random_network(rng, payloads=False)
    nested = random_nested(rng, list(net.vertices()))
    tree = ContractionTree.from_nested(net, nested)
    for t in tree.postorder():
        tree.legs(t)  # warm the cache
    swap = [t for t in tree.internal_nodes()]
    for t in swap[:: max(1, len(swap) // 3)]:
        tree.swap_children(t)
    fresh = ContractionTree.from_nested(net, tree.to_nested())
    match = {}
    for t in tree.postorder():
        key = frozenset(tree.subtree_leaf_tensors(t))
        match[key] = tree.legs(t)
    for t in fresh.postorder():
        key = frozenset(fresh.subtree_leaf_tensors(t))
        assert fresh.legs(t) == match[key]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_acceptance_invariant_under_child_swaps(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_min=4, payloads=False)
    k = int(rng.integers(2, min(4, net.num_vertices) + 1))
    blocks = random_blocks(rng, net.vertices(), k)
    nested = blocks_nested(rng, net, blocks)
    tree = ContractionTree.from_nested(net, nested)
    assert tree.accepts_partitioning(blocks)
    for t in list(tree.internal_nodes()):
        if rng.random() < 0.5:
            tree.swap_children(t)
    assert tree.accepts_partitioning(blocks)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_clone_is_independent(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, payloads=False)
    tree = ContractionTree.from_nested(net, random_nested(rng, list(net.vertices())))
    twin = tree.clone()
    assert twin.to_nested() == tree.to_nested()
    internal = list(twin.internal_nodes())
    if internal:
        twin.swap_children(internal[0])
        l, r = tree.children(internal[0])
        assert twin.children(internal[0]) == (r, l)


def _masks_match_leaves(tree):
    for t in tree.postorder():
        expected = 0
        for n in tree.postorder(t):
            if tree.is_leaf(n):
                expected |= 1 << tree.leaf_vertex(n)
        assert tree.leaf_mask(t) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_leaf_mask_is_the_or_of_the_subtree_leaves(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_min=3, payloads=False)
    vertices = list(net.vertices())
    _masks_match_leaves(ContractionTree.from_pairs(net, random_pairs(rng, vertices)))
    nested_tree = ContractionTree.from_nested(net, random_nested(rng, vertices))
    _masks_match_leaves(nested_tree)
    k = int(rng.integers(1, min(3, net.num_vertices) + 1))
    blocks = random_blocks(rng, net.vertices(), k)
    parts = [ContractionTree.from_nested(net, random_nested(rng, sorted(b))) for b in blocks]
    composed = compose_plan_tree(net, parts, random_nested(rng, list(range(k))))
    _masks_match_leaves(composed)
    twin = composed.clone()
    for t in twin.internal_nodes():
        if rng.random() < 0.5:
            twin.swap_children(t)
    _masks_match_leaves(twin)
