"""Proposals costed on the fan-in tree agree with the composed tree.

The annealer costs a candidate from its partition trees and its k-leaf
fan-in tree, and the fan-in search runs over a pseudo-network with one
grouped edge per partition pair.  These tests check both shortcuts
against the full computations they replace.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tnplan.anneal import AnnealConfig, do_steps, state_from_plan
from tnplan.costs import CostConfig, con_dist, dims_product
from tnplan.network import TensorNetwork
from tnplan.partition import initial_partition
from tnplan.pathfind import greedy_tree, reduction_network, reduction_path
from tnplan.plan import build_plan
from tnplan.tree import ContractionTree, compose_plan_tree, leaf_legs

# Dimensions up to 3 on at most 12 tensors keep every product exact, so
# the costs must agree bit for bit.
ALPHAS = (0.5, 1.0, 3.0)
BETAS = (0.25, 0.5, 2.0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    alpha=st.sampled_from(ALPHAS),
    beta=st.sampled_from(BETAS),
    mode=st.sampled_from(("naive", "directed")),
    intra=st.sampled_from(("serial", "par")),
)
def test_do_steps_states_cost_their_composed_tree(seed, alpha, beta, mode, intra):
    rng = np.random.default_rng(seed)
    net = oracles.random_network(rng, n_min=6, n_max=12, max_dim=3, payloads=False)
    k = int(rng.integers(2, min(5, net.num_vertices) + 1))
    cost = CostConfig(comm_alpha=alpha, comm_beta=beta, intra_node=intra)
    cfg = AnnealConfig(
        workers=1, max_iters=1, mode=mode, cost=cost, seed=seed, check_invariants=True
    )
    plan = build_plan(net, initial_partition(net, k, seed=seed), cost_cfg=cost)
    state = state_from_plan(plan, cfg)
    walk = np.random.default_rng(seed + 1)
    for _ in range(4):
        state = do_steps(net, 3, state, 1.0, cfg, walk)
        blocks = state.partitioning.blocks
        assert state.cost == con_dist(state.tree, blocks, cost)
        expected = oracles.oracle_dist(
            net, oracles.to_nested(state.tree), blocks, alpha, beta, intra
        )
        assert state.cost == pytest.approx(expected, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_grouped_fanin_search_matches_ungrouped_reference(seed):
    rng = np.random.default_rng(seed)
    net = oracles.random_network(rng, n_min=6, n_max=14, payloads=False)
    k = int(rng.integers(1, min(7, net.num_vertices) + 1))
    blocks = oracles.random_blocks(rng, net.vertices(), k)
    legs = [t.legs(t.root) for t in (greedy_tree(net, view=set(b)) for b in blocks)]
    got = oracles.to_nested(reduction_path(net, legs))
    assert got == oracles.reference_reduction_nested(net, legs)
    # Every set of partition results has the same entry count over the
    # grouped fan-in legs as over the original edges.
    fanin = reduction_network(net, legs)
    for subset in range(1, 1 << k):
        grouped = original = frozenset()
        for i in range(k):
            if subset >> i & 1:
                grouped ^= fanin.leaf_legs(i)
                original ^= legs[i]
        assert dims_product(fanin, grouped) == dims_product(net, original)


def test_grouped_dimensions_past_float_range_saturate():
    # Tensors 0 and 1 share 1100 bonds of dimension 2: 2**1100 entries as
    # one grouped edge, more than a float holds.
    net = TensorNetwork()
    wide = 1100
    a = net.add_tensor([2] * (wide + 1))
    b = net.add_tensor([2] * (wide + 1))
    c = net.add_tensor([2, 2])
    for i in range(wide):
        net.bond(a, i, b, i)
    net.bond(a, wide, c, 0)
    net.bond(b, wide, c, 1)
    legs = [leaf_legs(net, v) for v in (a, b, c)]
    reduction = reduction_path(net, legs)
    assert oracles.to_nested(reduction) == oracles.reference_reduction_nested(net, legs)
    cost = CostConfig(comm_beta=1.0)
    fanin = con_dist(reduction, None, cost, subtree_roots=range(3), local_costs=[0.0] * 3)
    parts = [ContractionTree.from_pairs(net, [], leaves=[v]) for v in (a, b, c)]
    composed = compose_plan_tree(net, parts, reduction)
    blocks = [frozenset({v}) for v in (a, b, c)]
    assert fanin == con_dist(composed, blocks, cost) == 2.0 ** 301


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    beta=st.sampled_from((0.0, 1.0)),
    mode=st.sampled_from(("naive", "directed")),
)
def test_costs_stay_exact_on_dimensions_up_to_1000(seed, beta, mode):
    # Products of such dimensions pass 2**53, where rounding after every
    # multiply made the grouped fan-in cost differ from the composed tree's.
    rng = np.random.default_rng(seed)
    net = oracles.random_network(rng, n_min=6, n_max=12, max_dim=1000, payloads=False)
    k = int(rng.integers(2, min(5, net.num_vertices) + 1))
    cost = CostConfig(comm_beta=beta)
    cfg = AnnealConfig(
        workers=1, max_iters=1, mode=mode, cost=cost, seed=seed, check_invariants=True
    )
    plan = build_plan(net, initial_partition(net, k, seed=seed), cost_cfg=cost)
    state = state_from_plan(plan, cfg)
    assert state.cost == plan.report.con_dist
    walk = np.random.default_rng(seed + 1)
    for _ in range(3):
        state = do_steps(net, 4, state, 1.0, cfg, walk)
        assert state.cost == con_dist(state.tree, state.partitioning.blocks, cost)


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(3, 999), min_size=9, max_size=9))
def test_three_bonds_per_pair_fan_in_matches_the_composed_tree(dims):
    # Tensors 0, 1, 2 share three bonds per pair, so every grouped edge of
    # the fan-in network is a product of three dimensions.
    groups = {(0, 1): dims[0:3], (0, 2): dims[3:6], (1, 2): dims[6:9]}
    net = TensorNetwork()
    for v in range(3):
        net.add_tensor([d for pair, ds in groups.items() if v in pair for d in ds])
    next_axis = [0, 0, 0]
    for (u, v), ds in groups.items():
        for _ in ds:
            net.bond(u, next_axis[u], v, next_axis[v])
            next_axis[u] += 1
            next_axis[v] += 1
    legs = [leaf_legs(net, v) for v in range(3)]
    reduction = reduction_path(net, legs)
    cost = CostConfig(comm_beta=1.0)
    fanin = con_dist(reduction, None, cost, subtree_roots=range(3), local_costs=[0.0] * 3)
    parts = [ContractionTree.from_pairs(net, [], leaves=[v]) for v in range(3)]
    composed = compose_plan_tree(net, parts, reduction)
    assert fanin == con_dist(composed, [frozenset({v}) for v in range(3)], cost)
