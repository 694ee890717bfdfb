"""Balanced partitioning: validity, ring bisection, refinement, determinism."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnplan.network import TensorNetwork
from tnplan.partition import (
    Partitioning,
    balance_limit,
    cut_weight,
    initial_partition,
    refine_partition,
    validate,
)

from oracles import edge_cut_weight, random_blocks, random_bond_network, random_network


def ring(n, dim=2):
    net = TensorNetwork()
    for _ in range(n):
        net.add_tensor([dim, dim])
    for v in range(n):
        net.bond(v, 1, (v + 1) % n, 0)
    return net


def test_validate_diagnoses_each_defect():
    net = ring(4)
    ok, problems = validate(Partitioning([{0, 1}, {2, 3}]), net)
    assert ok and problems == []
    ok, problems = validate(Partitioning([{0, 1, 2, 3}, set()]), net)
    assert not ok and any("empty" in p for p in problems)
    ok, problems = validate(Partitioning([{0, 1, 2}, {2, 3}]), net)
    assert not ok and any("2" in p for p in problems)
    ok, problems = validate(Partitioning([{0, 1}, {3}]), net)
    assert not ok
    ok, problems = validate(Partitioning([{0, 1}, {2, 9}]), net)
    assert not ok


def test_cut_weight_counts_crossing_bonds_in_log2():
    net = ring(8)
    part = Partitioning([frozenset(range(4)), frozenset(range(4, 8))])
    assert cut_weight(part, net) == 2.0  # two dim-2 bonds cross
    net3 = ring(6, dim=3)
    part3 = Partitioning([frozenset(range(3)), frozenset(range(3, 6))])
    assert cut_weight(part3, net3) == pytest.approx(2 * math.log2(3))
    with pytest.raises(ValueError):
        cut_weight(Partitioning([{0}, {5}]), net)


def test_eight_ring_bisection_is_optimal():
    """The 2-bond cut is the brute-force optimum over balanced bisections,
    and the partitioner finds a cut of that weight."""
    net = ring(8)
    best = math.inf
    for half in itertools.combinations(range(8), 4):
        part = Partitioning([frozenset(half), frozenset(range(8)) - frozenset(half)])
        best = min(best, cut_weight(part, net))
    assert best == 2.0
    found = initial_partition(net, 2, seed=0)
    assert cut_weight(found, net) == 2.0
    sizes = sorted(len(b) for b in found.blocks)
    assert sizes == [4, 4]


def test_partition_count_bounds():
    net = ring(4)
    with pytest.raises(ValueError):
        initial_partition(net, 0)
    with pytest.raises(ValueError):
        initial_partition(net, 5)
    one = initial_partition(net, 1)
    assert one.blocks == [frozenset({0, 1, 2, 3})]
    full = initial_partition(net, 4)
    assert sorted(len(b) for b in full.blocks) == [1, 1, 1, 1]


@pytest.mark.parametrize("k", [1, 2])
def test_negative_imbalance_rejected(k):
    part = initial_partition(ring(4), k, epsilon=0.0)
    assert len(part.blocks) == k
    for eps in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon"):
            initial_partition(ring(4), k, epsilon=eps)
        with pytest.raises(ValueError, match="epsilon"):
            refine_partition(part, ring(4), eps)


def test_balance_limit_formula():
    assert balance_limit(8, 2, 0.0) == 4
    assert balance_limit(8, 2, 0.25) == 5
    assert balance_limit(10, 3, 0.03) == 4  # ceil(10/3)=4, floor(4.12)=4


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_initial_partition_is_valid_and_balanced(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_min=4, payloads=False)
    k = int(rng.integers(1, net.num_vertices + 1))
    eps = float(rng.choice([0.0, 0.03, 0.2]))
    part = initial_partition(net, k, epsilon=eps, seed=seed)
    ok, problems = validate(part, net)
    assert ok, problems
    assert len(part.blocks) == k
    limit = balance_limit(net.num_vertices, k, eps)
    assert max(len(b) for b in part.blocks) <= limit


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_initial_partition_is_deterministic(seed):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_min=4, payloads=False)
    k = int(rng.integers(2, net.num_vertices + 1))
    a = initial_partition(net, k, seed=seed)
    b = initial_partition(net, k, seed=seed)
    assert a.blocks == b.blocks


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([0.0, 0.03, 0.2, 1.0]))
def test_refinement_never_increases_cut_weight(seed, eps):
    rng = np.random.default_rng(seed)
    net = random_network(rng, n_min=5, payloads=False)
    k = int(rng.integers(2, min(5, net.num_vertices) + 1))
    part = initial_partition(net, k, epsilon=eps, seed=seed)
    refined, history = refine_partition(part, net, eps)
    assert history == sorted(history, reverse=True)
    assert cut_weight(refined, net) == history[-1]
    limit = balance_limit(net.num_vertices, k, eps)
    assert max(len(b) for b in refined.blocks) <= limit
    ok, problems = validate(refined, net)
    assert ok, problems


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_cut_weight_from_rows_is_the_edge_by_edge_sum(seed, parallel):
    """Summing log2 of each neighbour pair's shared product gives the
    edge-by-edge sum: exactly when every bound dimension is a power of two
    (all terms are integers), and to rounding otherwise."""
    rng = np.random.default_rng(seed)
    if parallel:  # parallel, dimension-1 and self-loop bonds
        net = random_bond_network(rng, loops=True)
    else:
        net = random_network(rng, payloads=False)
    k = int(rng.integers(1, net.num_vertices + 1))
    part = Partitioning(random_blocks(rng, net.vertices(), k))
    got, want = cut_weight(part, net), edge_cut_weight(part, net)
    dims = [net.edge_dim(e) for e in net.bound_edges()]
    if all(d & (d - 1) == 0 for d in dims):
        assert got == want
    else:
        assert got == pytest.approx(want, abs=1e-9)
