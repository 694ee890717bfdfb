"""Greedy contraction-order search, and the fan-in tree over partitions.

``greedy_tree`` is the one search.  A pass repeatedly contracts the pair
of intermediates that maximizes the memory-reduction objective
|A| + |B| - |A.B|.  Only pairs sharing at least one bound edge are
candidates; pairs with nothing in common (outer products) are considered
only once no adjacent pair is left, which happens exactly when the view
being contracted is disconnected.  A pass works on exact integer sizes,
not leg sets (``_Forest``), rounded as ``costs.rounded_count`` does.  It
records each merge as a (left, right) pair of tree node ids, and the tree
and its sizes leave the pass together: ``ContractionTree.from_valid_pairs``
builds the tree from the pairs without re-checking them, and the pass
fills the tree's ``node_ops`` and ``legs_size`` memos from its exact
integers, so costing a greedy tree derives no size from leg sets.

A pass starts from exact tables, not from legs: each tensor's entry
count and, for every tensor it shares edges with, the product of the
shared dimensions.  ``leg_tables`` reads them off leg sets once.

With a ``GreedyConfig`` the deterministic pass is followed by ``samples``
passes with each pair score multiplied by log-normal noise, and the pass
with the smallest serial cost is kept; only ``serial_plan`` asks for
that.  The fan-in tree of ``reduction_path`` is one deterministic pass
seeded straight from the tables of a ``FanInNetwork``: ``reduction_network``
makes them from the partitions' result legs, and the annealer carries them
from one state to the next, updating only the partitions a move changed.
Either way a plan's fan-in, and the annealer's cost of a state, depend on
its partition trees alone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

# dims_product is unused here but stays importable: perfbench's tracer wraps it.
from .costs import dims_product, rounded_count  # noqa: F401
from .tree import ContractionTree, leaf_legs


@dataclass
class GreedyConfig:
    """Settings for the randomized greedy search.

    ``noise_scale`` is the log-standard-deviation of the multiplicative
    score noise; 0 makes every sample identical to the deterministic pass.
    """

    samples: int = 32
    noise_scale: float = 0.3
    rng_seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")


def _sample_rng(seed, index):
    entropy = seed & ((1 << 128) - 1)
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(index,)))


class _Forest:
    """Mutable piece set for one greedy pass, on exact integer sizes.

    Pieces are immutable once created: a merge retires both operands and
    appends a fresh piece, so a heap entry stays valid exactly while both
    of its pieces are alive.  A merge appends its operands' piece indices
    to ``merges`` and its multiplication count to ``ops``, and the new
    piece takes the node id its tree gives it.

    Piece ``p`` keeps ``entries[p]``, the exact integer entry count E of
    its tensor, and ``shared[p]``, which maps every piece sharing an edge
    with it to X, the exact product of the dimensions they share (the
    tables of ``leg_tables``; the forest owns and edits them).  The legs
    of a merge are the symmetric difference of its operands' legs and the
    multiplications run over their union, so

        E(A u B) = E(A) * E(B) / X(A, B)**2,   ops(A, B) = E(A) * E(B) / X(A, B),

    both exact.  Two pieces are adjacent when one is a key of the other's
    table, so bonds of dimension 1 and parallel bonds count as any other.
    ``tree`` hands the finished pass over as a tree whose ``node_ops`` and
    ``legs_size`` memos hold these figures, rounded as ``costs`` rounds
    them.
    """

    def __init__(self, net, nodes, entries, shared):
        self.net = net
        self.first_node = net.num_vertices
        self.entries = entries
        self.shared = shared
        self.node = list(nodes)
        self.rep = list(nodes)
        self.size = [rounded_count(e) for e in entries]
        self.alive = [True] * len(entries)
        self.merges = []
        self.ops = []

    def score(self, i, j):
        x = self.shared[i].get(j, 1)
        result = rounded_count(self.entries[i] * self.entries[j] // (x * x))
        return self.size[i] + self.size[j] - result

    def merge(self, i, j):
        """Contract pieces ``i`` and ``j``, ``i`` holding the smaller leaf
        vertex, so it becomes the left child; returns the new piece index."""
        shared = self.shared
        si, sj = shared[i], shared[j]
        x = si.get(j, 1)
        table = dict(si)
        for nb, d in sj.items():
            table[nb] = table.get(nb, 1) * d
        table.pop(i, None)
        table.pop(j, None)
        product = self.entries[i] * self.entries[j]
        entries = product // (x * x)
        self.merges.append((i, j))
        self.ops.append(rounded_count(product // x))
        idx = len(self.entries)
        self.entries.append(entries)
        shared.append(table)
        self.node.append(self.first_node + len(self.merges) - 1)
        self.rep.append(self.rep[i])
        self.size.append(rounded_count(entries))
        self.alive.append(True)
        self.alive[i] = self.alive[j] = False
        for nb, d in table.items():
            other = shared[nb]
            other.pop(i, None)
            other.pop(j, None)
            other[idx] = d
        return idx

    def pairs(self):
        """The merges as (left, right) tree node ids, in merge order."""
        node = self.node
        return [(node[i], node[j]) for i, j in self.merges]

    def total_ops(self):
        """Multiplications of the merges, summed in merge order."""
        total = 0.0
        for ops in self.ops:
            total += ops
        return total

    def tree(self):
        """The pass's tree, its leaves in piece order, with its size memos filled."""
        node, pairs = self.node, self.pairs()
        tree = ContractionTree.from_valid_pairs(self.net, pairs, node[: len(node) - len(pairs)])
        tree.op_counts = dict(zip(range(self.first_node, self.first_node + len(pairs)), self.ops))
        tree.entry_counts = dict(zip(node, self.size))
        return tree


def leg_tables(net, leg_sets):
    """The exact tables of tensors with the given leg sets, as lists.

    ``entries[p]`` is the product of ``net.edge_dims`` over leg set ``p``,
    and ``shared[p]`` maps every ``q`` whose leg set meets it to the
    product of the dimensions of the edges they share, dimension-1 edges
    included.  An edge in three or more leg sets is a ``ValueError``.
    """
    dims = net.edge_dims
    entries = []
    shared = []
    holder = {}  # edge -> the leg set seen holding it, -1 once two have
    for p, legs in enumerate(leg_sets):
        table = {}
        n = 1
        for e in legs:
            d = dims[e]
            n *= d
            q = holder.setdefault(e, p)
            if q != p:
                if q < 0:
                    count = sum(e in other for other in leg_sets)
                    raise ValueError(f"edge {e} appears in {count} partitions")
                table[q] = shared[q][p] = table.get(q, 1) * d
                holder[e] = -1
        entries.append(n)
        shared.append(table)
    return entries, shared


def _greedy_pass(net, nodes, entries, shared, rng=None, noise_scale=0.0):
    """One full greedy pass over the tensors with node ids ``nodes`` and the
    tables ``entries`` and ``shared`` of ``leg_tables``, which it edits.

    Returns the finished forest, whose ``pairs()``, ``total_ops()`` and
    ``tree()`` are the pass's merges, multiplications and tree.  Heap
    entries are unique, so the pop order does not depend on the order of
    pushes; a noisy pass still scores pairs in sorted order, which fixes
    the pair each noise draw perturbs.
    """
    if not nodes:
        raise ValueError("nothing to contract")
    forest = _Forest(net, nodes, entries, shared)
    entries, shared, size, rep, alive = (
        forest.entries, forest.shared, forest.size, forest.rep, forest.alive,
    )
    noisy = rng is not None and noise_scale > 0.0

    seeds = [(a, b) for a, table in enumerate(shared) for b in table if a < b]
    if noisy:
        seeds.sort()
    heap = []
    for a, b in seeds:
        s = forest.score(a, b)
        if noisy:
            s *= math.exp(noise_scale * rng.standard_normal())
        if rep[a] > rep[b]:
            a, b = b, a
        heap.append((-s, rep[a], rep[b], a, b))
    heapq.heapify(heap)

    heappop, heappush = heapq.heappop, heapq.heappush
    n_alive = len(nodes)
    while heap and n_alive > 1:
        _, _, _, i, j = heappop(heap)
        if not (alive[i] and alive[j]):
            continue
        idx = forest.merge(i, j)
        n_alive -= 1
        r, e, sz = rep[idx], entries[idx], size[idx]
        table = shared[idx]
        for nb in sorted(table) if noisy else table:
            x = table[nb]
            s = sz + size[nb] - rounded_count(e * entries[nb] // (x * x))
            if noisy:
                s *= math.exp(noise_scale * rng.standard_normal())
            if r < rep[nb]:
                heappush(heap, (-s, r, rep[nb], idx, nb))
            else:
                heappush(heap, (-s, rep[nb], r, nb, idx))

    # Disconnected view: the survivors share no edges, contract by outer
    # products under the same objective.
    while n_alive > 1:
        live = sorted((i for i, a in enumerate(alive) if a), key=rep.__getitem__)
        best = None
        for x in range(len(live)):
            for y in range(x + 1, len(live)):
                i, j = live[x], live[y]
                s = forest.score(i, j)
                if noisy:
                    s *= math.exp(noise_scale * rng.standard_normal())
                key = (-s, rep[i], rep[j])
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, i, j = best
        forest.merge(i, j)
        n_alive -= 1

    return forest


def greedy_tree(net, view=None, cfg=None):
    """Greedy contraction tree over a network or vertex subset.

    Edges leaving the view behave as open legs.  Ties on the objective are
    broken toward the pair with the smallest leaf vertex ids.  Without
    ``cfg`` one deterministic pass runs; with it, that pass competes with
    ``cfg.samples`` noisy passes and the one of least serial cost wins,
    ties going to the earlier pass, so the search is never worse than the
    deterministic pass.  Sample seeds derive from ``cfg.rng_seed`` and the
    sample index alone, so the sequence of candidate paths is a fixed
    function of the seed and the best-so-far cost is non-increasing in the
    sample count.  A view of at most two pieces has one possible tree and
    always gets a single pass.  The tree leaves the pass built and sized:
    its pairs are not re-checked and its ``node_ops`` and ``legs_size``
    are the pass's own figures.
    """
    nodes = sorted(net.vertices() if view is None else view)
    entries, shared = leg_tables(net, [leaf_legs(net, v) for v in nodes])
    if cfg is None or len(nodes) <= 2:
        return _greedy_pass(net, nodes, entries, shared).tree()
    best = _greedy_pass(net, nodes, list(entries), [dict(t) for t in shared])
    best_ops = best.total_ops()
    for s in range(cfg.samples):
        rng = _sample_rng(cfg.rng_seed, s)
        forest = _greedy_pass(
            net, nodes, list(entries), [dict(t) for t in shared], rng, cfg.noise_scale
        )
        ops = forest.total_ops()
        if ops < best_ops:
            best, best_ops = forest, ops
    return best.tree()


def random_greedy_tree(net, view=None, cfg=None):
    """``greedy_tree`` with ``cfg`` defaulting to ``GreedyConfig()``."""
    return greedy_tree(net, view, cfg or GreedyConfig())


class FanInNetwork:
    """The network of a fan-in tree, built from the exact tables of the
    partition result tensors.

    Vertex ``i`` is partition ``i``: ``entries[i]`` is the exact entry
    count of its result tensor and ``shared[i]`` maps every partition
    sharing edges with it to the exact product of the dimensions they
    share, as ``leg_tables`` gives them.  The legs are integer group ids.
    The edges two partitions share form one group, a leg of both; the
    open legs of ``i`` form one group, a leg of ``i`` alone, unless their
    product is 1; ``edge_dims[g]`` is group ``g``'s size.  Groups are
    numbered by partition, then by partner, so equal tables give equal
    legs.  Every size is an exact integer product, so every greedy score
    and cost is bit for bit the one over the original edges.  The network
    has what ``tree.py`` asks of one, and ``reduction_path`` seeds its pass
    from the tables, which it does not edit.
    """

    def __init__(self, entries, shared):
        self.num_vertices = len(entries)
        self.entries = entries
        self.shared = shared
        legs = [[] for _ in entries]
        dims = []
        for i, table in enumerate(shared):
            mine = legs[i]
            for j in sorted(table):
                if j > i:
                    g = len(dims)
                    mine.append(g)
                    legs[j].append(g)
                    dims.append(table[j])
            rest = entries[i] // math.prod(table.values())
            if rest != 1:
                mine.append(len(dims))
                dims.append(rest)
        self.edge_dims = dims
        self._legs = [frozenset(l) for l in legs]

    def vertices(self):
        return range(self.num_vertices)

    def leaf_legs(self, v):
        return self._legs[v]


def reduction_network(net, partition_legs):
    """The ``FanInNetwork`` over partition result tensors with the given legs:
    their ``leg_tables``.  An edge held by three or more partitions is a
    ``ValueError``."""
    return FanInNetwork(*leg_tables(net, partition_legs))


def reduction_path(fanin):
    """Fan-in contraction tree over the partitions of a ``FanInNetwork``.

    One deterministic greedy pass, seeded from copies of the network's
    tables; the tree's leaf ids are partition indices.  With one
    partition this is the trivial single-node tree.
    """
    nodes = range(fanin.num_vertices)
    shared = [dict(t) for t in fanin.shared]
    return _greedy_pass(fanin, nodes, list(fanin.entries), shared).tree()
