"""Proposals costed on the fan-in tree agree with the composed tree.

The annealer costs a candidate from its partition trees and its k-leaf
fan-in tree, and the fan-in search runs over the exact tables of the
partition results rather than a network of pseudo-tensors.  These tests
check both shortcuts against the full computations they replace.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from tnplan.anneal import AnnealConfig, NoMoveError, Step, do_steps, select_neighbor
from tnplan.costs import CostConfig, con_dist, distributed_breakdown
from tnplan.network import TensorNetwork
from tnplan.partition import Partitioning, initial_partition
from tnplan.pathfind import greedy_tree, reduction_network, reduction_path
from tnplan.plan import build_plan, plan_from_dict, plan_to_dict
from tnplan.tree import ContractionTree, compose_plan_tree

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
    cfg = AnnealConfig(workers=1, max_iters=1, mode=mode, cost=cost, seed=seed)
    state = build_plan(net, initial_partition(net, k, seed=seed), cost_cfg=cost)
    walk = np.random.default_rng(seed + 1)
    with oracles.checked_proposals():
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
def test_fanin_search_matches_the_pseudo_tensor_reference(seed):
    rng = np.random.default_rng(seed)
    net = oracles.random_network(rng, n_min=6, n_max=14, payloads=False)
    k = int(rng.integers(1, min(7, net.num_vertices) + 1))
    blocks = oracles.random_blocks(rng, net.vertices(), k)
    legs = [t.legs(t.root) for t in (greedy_tree(net, view=set(b)) for b in blocks)]
    got = oracles.to_nested(reduction_path(reduction_network(net, legs)))
    assert got == oracles.reference_reduction_nested(net, legs)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), source=st.sampled_from(("built", "annealed", "reloaded")))
def test_fanin_legs_are_the_composed_trees_legs(seed, source):
    # Dimension-1 and parallel bonds, often disconnected.
    rng = np.random.default_rng(seed)
    net = oracles.random_bond_network(rng)
    assume(net.num_vertices >= 2)
    k = int(rng.integers(2, net.num_vertices + 1))
    plan = build_plan(net, Partitioning(oracles.random_blocks(rng, net.vertices(), k)))
    if source != "built":
        cfg = AnnealConfig(workers=1, max_iters=1, mode="directed", cost=CostConfig(comm_beta=1.0))
        plan = do_steps(net, 5, plan, 1.0, cfg, rng)
    if source == "reloaded":
        plan = plan_from_dict(net, plan_to_dict(plan))
    # compose_plan_tree's numbering: the fan-in merges follow the partitions'.
    shift = net.num_vertices + sum(len(t.pairs()) for t in plan.partition_trees) - k
    reduction, tree = plan.reduction, plan.tree
    for x in reduction.order:
        assert reduction.legs(x) == tree.legs(plan.part_roots[x] if x < k else x + shift)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    source=st.sampled_from(("built", "proposed", "reloaded")),
    intra=st.sampled_from(("serial", "par")),
    k=st.integers(1, 4),
)
def test_report_splits_the_cost_as_the_composed_tree_does(seed, source, intra, k):
    # The report's per-partition split comes from the fan-in tree; costing
    # the composed tree per partition must give the same figures.
    rng = np.random.default_rng(seed)
    net = oracles.random_bond_network(rng)
    assume(net.num_vertices >= k)
    cost = CostConfig(comm_alpha=0.5, comm_beta=1.0, intra_node=intra)
    plan = build_plan(net, Partitioning(oracles.random_blocks(rng, net.vertices(), k)), cost_cfg=cost)
    if source != "built":
        cfg = AnnealConfig(workers=1, max_iters=1, mode="directed", cost=cost)
        try:
            plan = select_neighbor(net, plan, Step(cfg, math.inf), rng)
        except NoMoveError:  # every block a single tensor, or k = 1
            pass
    if source == "reloaded":
        plan = plan_from_dict(net, plan_to_dict(plan), cost)
    blocks = plan.partitioning.blocks
    report = plan.report
    assert report.per_partition == distributed_breakdown(plan.tree, blocks, cost)
    assert report.con_dist == plan.cost == con_dist(plan.tree, blocks, cost)


def test_grouped_dimensions_past_float_range_saturate():
    # Tensors 0 and 1 share 1100 bonds of dimension 2: 2**1100 entries
    # between them, more than a float holds.
    net = TensorNetwork()
    wide = 1100
    a = net.add_tensor([2] * (wide + 1))
    b = net.add_tensor([2] * (wide + 1))
    c = net.add_tensor([2, 2])
    for i in range(wide):
        net.bond(a, i, b, i)
    net.bond(a, wide, c, 0)
    net.bond(b, wide, c, 1)
    legs = [net.leaf_legs(v) for v in (a, b, c)]
    reduction = reduction_path(reduction_network(net, legs))
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
    # multiply made the fan-in cost differ from the composed tree's.
    rng = np.random.default_rng(seed)
    net = oracles.random_network(rng, n_min=6, n_max=12, max_dim=1000, payloads=False)
    k = int(rng.integers(2, min(5, net.num_vertices) + 1))
    cost = CostConfig(comm_beta=beta)
    cfg = AnnealConfig(workers=1, max_iters=1, mode=mode, cost=cost, seed=seed)
    state = build_plan(net, initial_partition(net, k, seed=seed), cost_cfg=cost)
    assert state.cost == state.report.con_dist
    walk = np.random.default_rng(seed + 1)
    with oracles.checked_proposals():
        for _ in range(3):
            state = do_steps(net, 4, state, 1.0, cfg, walk)
            assert state.cost == con_dist(state.tree, state.partitioning.blocks, cost)


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(3, 999), min_size=9, max_size=9))
def test_three_bonds_per_pair_fan_in_matches_the_composed_tree(dims):
    # Tensors 0, 1, 2 share three bonds per pair, so every shared product
    # of the fan-in tables is a product of three dimensions.
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
    legs = [net.leaf_legs(v) for v in range(3)]
    reduction = reduction_path(reduction_network(net, legs))
    cost = CostConfig(comm_beta=1.0)
    fanin = con_dist(reduction, None, cost, subtree_roots=range(3), local_costs=[0.0] * 3)
    parts = [ContractionTree.from_pairs(net, [], leaves=[v]) for v in range(3)]
    composed = compose_plan_tree(net, parts, reduction)
    assert fanin == con_dist(composed, [frozenset({v}) for v in range(3)], cost)
