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
from tnplan.anneal import (
    _REJECT_MARGIN, AnnealConfig, NoMoveError, Step, acceptance_probability, do_steps, select_neighbor,
)
from tnplan.costs import CostConfig, FaninSums, con_dist, distributed_breakdown, intra_metric, slowest
from tnplan.network import TensorNetwork
from tnplan.partition import Partitioning, initial_partition
from tnplan.pathfind import greedy_tree, reduction_network, reduction_path
from tnplan.plan import assemble_plan, build_plan, owner_map, plan_from_dict, plan_to_dict
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
    got = oracles.to_nested(reduction_path(reduction_network(net, owner_map(net, blocks), blocks)))
    assert got == oracles.reference_reduction_nested(net, legs)


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
    cost = CostConfig(comm_beta=1.0)
    parts = [ContractionTree.from_pairs(net, [], leaves=[v]) for v in (a, b, c)]
    blocks = [frozenset({v}) for v in (a, b, c)]
    plan = assemble_plan(net, Partitioning(blocks), parts, cost_cfg=cost)
    assert oracles.to_nested(plan.reduction) == oracles.reference_reduction_nested(net, legs)
    assert plan.cost == con_dist(plan.tree, blocks, cost) == 2.0 ** 301


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
    cost = CostConfig(comm_beta=1.0)
    parts = [ContractionTree.from_pairs(net, [], leaves=[v]) for v in range(3)]
    blocks = [frozenset({v}) for v in range(3)]
    plan = assemble_plan(net, Partitioning(blocks), parts, cost_cfg=cost)
    assert plan.cost == con_dist(plan.tree, blocks, cost)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    alpha=st.sampled_from((0.0, 0.5, 1.0)),
    beta=st.sampled_from((0.0, 0.5, 1.0)),
    intra=st.sampled_from(("serial", "par")),
)
def test_fanin_sums_cost_the_pass_as_the_finished_tree(seed, alpha, beta, intra):
    # The running sums of a hooked fan-in pass, or of a replay of the pass
    # its network kept, are distributed_breakdown's fan-in of the composed
    # tree it makes, and a pass or replay stopped by the Metropolis test on
    # the running bound is one whose finished tree fails that test too.
    rng = np.random.default_rng(seed)
    net = oracles.random_network(rng, n_min=6, n_max=14, payloads=False)
    k = int(rng.integers(1, min(7, net.num_vertices) + 1))
    blocks = oracles.random_blocks(rng, net.vertices(), k)
    trees = [greedy_tree(net, view=set(b)) for b in blocks]
    owner = owner_map(net, blocks)
    cost = CostConfig(comm_alpha=alpha, comm_beta=beta, intra_node=intra)
    local = [intra_metric(cost)(t) for t in trees]
    for i in rng.choice(k, size=min(2, k), replace=False):  # a proposal's two changed partitions
        local[i] = 0.0
    plain = reduction_path(reduction_network(net, owner, blocks))
    composed = compose_plan_tree(net, trees, plain)
    breakdown = [p.fanin for p in distributed_breakdown(composed, blocks, cost)]
    bound = slowest(zip(local, breakdown))
    fanin = reduction_network(net, owner, blocks)
    for run in ("pass", "replay"):
        sums = FaninSums(cost, local, lambda b: False)
        assert oracles.same_tree(reduction_path(fanin, sums), plain), run
        assert fanin.pass_result is not None
        assert (sums.fanin, sums.bound) == (breakdown, bound), run

    current = float(rng.uniform(0.1, 1.5)) * max(bound, 1.0)
    temperature = float(rng.choice([0.01, 0.1, 1.0]))
    u = float(rng.random())

    def rejected(b):
        return b > current and acceptance_probability(current, b, temperature) < u * _REJECT_MARGIN

    for network in (reduction_network(net, owner, blocks), fanin):  # a pass, then a replay
        stopping = FaninSums(cost, local, rejected)
        stopped = reduction_path(network, stopping)
        assert stopped is None or oracles.same_tree(stopped, plain)
        assert (stopped is None) == rejected(bound)
        assert stopping.bound <= bound


@pytest.mark.parametrize("fanin_pairs", [None, [(1, 2), (0, 3)]], ids=["greedy", "given"])
def test_a_move_that_keeps_both_rows_shares_the_parent_tables(fanin_pairs):
    # A path 0-1-...-5 of dimension-2 bonds in blocks {0, 1}, {2, 3} and
    # {4, 5}: moving 1, 2, 3 or 4 into the neighbouring block keeps one
    # dimension-2 leg on each result, so no fan-in table changes and the
    # proposal shares its parent's.  Its fan-in tree is still a fresh
    # pass's (check_move), also from a start whose given fan-in tree is not.
    net = TensorNetwork()
    for dims in ([2], [2, 2], [2, 2], [2, 2], [2, 2], [2]):
        net.add_tensor(dims)
    for v in range(5):
        net.bond(v, 0 if v == 0 else 1, v + 1, 0)
    cost = CostConfig(comm_alpha=1.0, comm_beta=1.0)
    part = Partitioning([{0, 1}, {2, 3}, {4, 5}])
    state = assemble_plan(net, part, [greedy_tree(net, b) for b in part.blocks], fanin_pairs, cost)
    cfg = AnnealConfig(workers=1, max_iters=1, cost=cost)
    kept = 0
    for seed in range(30):
        candidate = select_neighbor(net, state, Step(cfg, math.inf), np.random.default_rng(seed))
        oracles.check_move(net, state, candidate)
        fanin, parent = candidate.reduction.network, state.reduction.network
        if (fanin.entries, fanin.shared) == (parent.entries, parent.shared):
            kept += 1
            assert fanin.shared is parent.shared and fanin.seeds is parent.seeds
            if fanin_pairs is None:
                assert candidate.fanin_costs == state.fanin_costs
        else:
            assert fanin.shared is not parent.shared
    assert kept
