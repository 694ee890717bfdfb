"""Contraction trees: construction, legs, caching, partition acceptance."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnplan.network import NetworkError, TensorNetwork
from tnplan.tree import ContractionTree, TreeError, compose_plan_tree, leaf_legs

from oracles import (blocks_nested, fanin_tree, from_nested, random_blocks, random_nested,
                     random_network, random_pairs, subtree_roots_by_leaf_sets, swapped, to_nested)


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
    with pytest.raises(TreeError, match="appears twice"):
        ContractionTree.from_pairs(net, [(0, 1), (3, 0)], leaves=[0, 1, 0])
    with pytest.raises(NetworkError, match="no vertex 5"):
        ContractionTree.from_pairs(net, [(0, 5)], leaves=[0, 5])


def test_nested_round_trip():
    net = chain_net()
    tree = from_nested(net, [0, [1, 2]])
    assert to_nested(tree) == [0, [1, 2]]
    with pytest.raises(TreeError):
        from_nested(net, [0, [0, 2]])  # repeated leaf
    # trees over a subset of vertices are fine (partition-local trees)
    sub = from_nested(net, [0, 1])
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
    tree = ContractionTree.from_pairs(net, [], leaves=[0])
    assert tree.root == 0
    assert tree.is_leaf(0)
    assert tree.leaves() == [0] and tree.pairs() == []
    assert tree.legs(0) == net.open_edges()


def test_postorder_visits_children_first():
    net = chain_net()
    tree = ContractionTree.from_pairs(net, [(1, 2), (0, 3)])
    order = tree.postorder()
    pos = {t: i for i, t in enumerate(order)}
    for t in order:
        if not tree.is_leaf(t):
            l, r = tree.children(t)
            assert pos[l] < pos[t] and pos[r] < pos[t]
    assert len(order) == 5
    assert order[-1] == tree.root


def test_subtree_roots_and_acceptance():
    net = chain_net()
    tree = ContractionTree.from_pairs(net, [(0, 1), (3, 2)])
    blocks = [frozenset({0, 1}), frozenset({2})]
    roots = tree.subtree_roots(blocks)
    assert roots == [3, 2]
    assert tree.accepts_partitioning(blocks)
    assert not tree.accepts_partitioning([frozenset({0, 2}), frozenset({1})])


def test_compose_plan_tree_places_partitions_under_skeleton():
    net = chain_net()
    t01 = from_nested(net, [0, 1])
    t2 = ContractionTree.from_pairs(net, [], leaves=[2])
    composed = compose_plan_tree(net, [t01, t2], fanin_tree(net, [t01, t2], [0, 1]))
    assert to_nested(composed) == [[0, 1], 2]
    assert sorted(composed.leaves()) == [0, 1, 2]
    assert composed.accepts_partitioning([frozenset({0, 1}), frozenset({2})])
    assert composed.legs(composed.root) == net.open_edges()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_compose_grafts_partition_trees_at_the_fanin_leaves(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_min=3, payloads=False)
    k = int(rng.integers(1, min(4, net.num_vertices) + 1))
    blocks = random_blocks(rng, net.vertices(), k)
    parts = [from_nested(net, random_nested(rng, sorted(b))) for b in blocks]
    shape = random_nested(rng, list(range(k)))
    composed = compose_plan_tree(net, parts, fanin_tree(net, parts, shape))

    def graft(spec):
        if isinstance(spec, int):
            return to_nested(parts[spec])
        return [graft(spec[0]), graft(spec[1])]

    assert to_nested(composed) == graft(shape)
    rebuilt = ContractionTree.from_pairs(net, composed.pairs(), composed.leaves())
    assert rebuilt.pairs() == composed.pairs() and rebuilt.root == composed.root


def test_from_nested_is_not_limited_by_the_recursion_limit():
    net = TensorNetwork()
    n = 3 * sys.getrecursionlimit()
    for _ in range(n):
        net.add_tensor([2])
    nested = 0
    for v in range(1, n):
        nested = [nested, v]
    tree = from_nested(net, nested)
    assert tree.pairs()[-1] == (2 * n - 3, n - 1)
    assert len(tree.postorder()) == 2 * n - 1


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
    tree = from_nested(net, nested)
    for t in tree.postorder():
        tree.legs(t)  # warm the cache
    swap = [t for t in tree.internal_nodes()]
    tree = swapped(tree, set(swap[:: max(1, len(swap) // 3)]))
    fresh = from_nested(net, to_nested(tree))
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
    tree = from_nested(net, nested)
    assert tree.accepts_partitioning(blocks)
    tree = swapped(tree, {t for t in tree.internal_nodes() if rng.random() < 0.5})
    assert tree.accepts_partitioning(blocks)


def _roots_as_oracle(tree, blocks):
    roots = tree.subtree_roots(blocks)
    assert roots == subtree_roots_by_leaf_sets(tree, blocks)
    assert tree.accepts_partitioning(blocks) == (roots is not None)
    return roots


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_subtree_roots_match_the_leaf_set_oracle(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_min=3, payloads=False)
    vertices = list(net.vertices())
    k = int(rng.integers(1, min(3, net.num_vertices) + 1))
    blocks = random_blocks(rng, vertices, k)
    parts = [from_nested(net, random_nested(rng, sorted(b))) for b in blocks]
    composed = compose_plan_tree(net, parts, fanin_tree(net, parts, random_nested(rng, list(range(k)))))
    roots = _roots_as_oracle(composed, blocks)
    assert roots is not None
    flipped = swapped(composed, {t for t in composed.internal_nodes() if rng.random() < 0.5})
    assert _roots_as_oracle(flipped, blocks) == roots
    pair_tree = ContractionTree.from_pairs(net, random_pairs(rng, vertices))
    _roots_as_oracle(pair_tree, blocks)
    assert _roots_as_oracle(pair_tree, [frozenset(vertices)]) == [pair_tree.root]

    # Partitionings the composed tree does not realize.
    assert _roots_as_oracle(composed, blocks + [frozenset()]) is None
    assert _roots_as_oracle(composed, [blocks[0] | {net.num_vertices}] + blocks[1:]) is None
    if k >= 2:
        assert _roots_as_oracle(parts[0], [blocks[0] | blocks[1]]) is None
    big = [i for i, b in enumerate(blocks) if len(b) >= 2]
    if k >= 2 and big:
        # A leaf moved out of its block joins a block none of its ancestors covers.
        i = big[0]
        j = (i + 1) % k
        v = min(blocks[i])
        moved = list(blocks)
        moved[i] = blocks[i] - {v}
        moved[j] = blocks[j] | {v}
        assert _roots_as_oracle(composed, moved) is None
        assert _roots_as_oracle(flipped, moved) is None
    if big:
        # Splitting a block in two is realized only by its root's two children.
        i = big[0]
        half = set(rng.choice(sorted(blocks[i]), size=len(blocks[i]) // 2, replace=False).tolist())
        split = blocks[:i] + [frozenset(half), blocks[i] - half] + blocks[i + 1:]
        _roots_as_oracle(composed, split)
