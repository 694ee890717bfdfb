"""Greedy contraction-order search, and the fan-in tree over partitions.

``greedy_tree`` is the one search.  A pass repeatedly contracts the pair
of intermediates that maximizes the memory-reduction objective
|A| + |B| - |A.B|.  Only pairs sharing at least one bound edge are
candidates; pairs with nothing in common (outer products) are considered
only once no adjacent pair is left, which happens exactly when the view
being contracted is disconnected.  The pass records each merge, and
``ContractionTree.from_pairs`` builds the tree from them, as (left, right)
pairs of tree node ids in merge order.  A pass works on exact integer
sizes, not leg sets (``_Forest``), rounded as ``costs.rounded_count`` does.

With a ``GreedyConfig`` the deterministic pass is followed by ``samples``
passes with each pair score multiplied by log-normal noise, and the pass
with the smallest serial cost is kept; only ``serial_plan`` asks for
that, and only there are a pass's merges costed.  The fan-in tree of
``reduction_path`` is one deterministic pass over ``reduction_network``,
so a plan's fan-in, and the annealer's cost of a state, depend on its
partition trees alone.
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
    to ``merges``, and the new piece takes the node id ``from_pairs``
    gives it.

    Piece ``p`` keeps ``entries[p]``, the exact integer entry count E of
    its tensor, and ``shared[p]``, which maps every piece sharing an edge
    with it to X, the exact product of the dimensions they share; an edge
    is held by at most two pieces.  The legs of a merge are the symmetric
    difference of its operands' legs and the multiplications run over
    their union, so

        E(A u B) = E(A) * E(B) / X(A, B)**2,   ops(A, B) = E(A) * E(B) / X(A, B),

    both exact.  Two pieces are adjacent when one is a key of the other's
    table, so bonds of dimension 1 and parallel bonds count as any other.
    """

    def __init__(self, net, pieces):
        self.first_node = net.num_vertices
        self.entries = []
        self.shared = []
        self.node = []
        self.rep = []
        self.size = []
        self.alive = []
        self.merges = []
        holder = {}  # edge -> the piece seen holding it
        for p, (key, legs) in enumerate(pieces):
            table = {}
            entries = 1
            for e in legs:
                d = net.edge_dims[e]
                entries *= d
                q = holder.setdefault(e, p)
                if q != p:
                    table[q] = table.get(q, 1) * d
                    self.shared[q][p] = table[q]
            self._append(entries, table, key, key)

    def _append(self, entries, table, node, rep):
        self.entries.append(entries)
        self.shared.append(table)
        self.node.append(node)
        self.rep.append(rep)
        self.size.append(rounded_count(entries))
        self.alive.append(True)
        return len(self.entries) - 1

    def score(self, i, j):
        x = self.shared[i].get(j, 1)
        result = rounded_count(self.entries[i] * self.entries[j] // (x * x))
        return self.size[i] + self.size[j] - result

    def merge(self, i, j):
        """Contract pieces ``i`` and ``j``, ``i`` holding the smaller leaf
        vertex, so it becomes the left child; returns the new piece index."""
        si, sj = self.shared[i], self.shared[j]
        x = si.get(j, 1)
        table = dict(si)
        for nb, d in sj.items():
            table[nb] = table.get(nb, 1) * d
        table.pop(i, None)
        table.pop(j, None)
        self.merges.append((i, j))
        node = self.first_node + len(self.merges) - 1
        idx = self._append(self.entries[i] * self.entries[j] // (x * x), table, node, self.rep[i])
        self.alive[i] = False
        self.alive[j] = False
        for nb, d in table.items():
            other = self.shared[nb]
            other.pop(i, None)
            other.pop(j, None)
            other[idx] = d
        return idx

    def pairs(self):
        """The merges as (left, right) tree node ids, in merge order."""
        return [(self.node[i], self.node[j]) for i, j in self.merges]

    def total_ops(self):
        """Multiplications of the merges, summed in merge order.  A retired
        piece's table is never edited again, so it still holds X."""
        total = 0.0
        for i, j in self.merges:
            total += rounded_count(self.entries[i] * self.entries[j] // self.shared[i].get(j, 1))
        return total


def _greedy_pass(net, pieces, rng=None, noise_scale=0.0):
    """One full greedy pass over ``pieces`` (a list of (key, legs)).

    Returns the finished forest, whose ``pairs()`` and ``total_ops()`` are
    the pass's merges and multiplications.
    """
    if not pieces:
        raise ValueError("nothing to contract")
    forest = _Forest(net, pieces)

    noisy = rng is not None and noise_scale > 0.0

    def perturbed(score):
        if noisy:
            return score * math.exp(noise_scale * rng.standard_normal())
        return score

    heap = []

    def push(i, j):
        if forest.rep[i] > forest.rep[j]:
            i, j = j, i
        s = perturbed(forest.score(i, j))
        heapq.heappush(heap, (-s, forest.rep[i], forest.rep[j], i, j))

    for a, b in sorted((a, b) for a, table in enumerate(forest.shared) for b in table if a < b):
        push(a, b)

    n_alive = len(pieces)
    while heap and n_alive > 1:
        _, _, _, i, j = heapq.heappop(heap)
        if not (forest.alive[i] and forest.alive[j]):
            continue
        idx = forest.merge(i, j)
        n_alive -= 1
        for nb in sorted(forest.shared[idx]):
            push(idx, nb)

    # Disconnected view: the survivors share no edges, contract by outer
    # products under the same objective.
    while n_alive > 1:
        live = sorted((i for i, a in enumerate(forest.alive) if a), key=lambda i: forest.rep[i])
        best = None
        for x in range(len(live)):
            for y in range(x + 1, len(live)):
                i, j = live[x], live[y]
                s = perturbed(forest.score(i, j))
                key = (-s, forest.rep[i], forest.rep[j])
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
    always gets a single pass.
    """
    if view is None:
        view = net.vertices()
    pieces = [(v, leaf_legs(net, v)) for v in sorted(view)]
    best = _greedy_pass(net, pieces)
    if cfg is not None and len(pieces) > 2:
        best_ops = best.total_ops()
        for s in range(cfg.samples):
            rng = _sample_rng(cfg.rng_seed, s)
            forest = _greedy_pass(net, pieces, rng, cfg.noise_scale)
            ops = forest.total_ops()
            if ops < best_ops:
                best, best_ops = forest, ops
    return ContractionTree.from_pairs(net, best.pairs(), leaves=[v for v, _ in pieces])


def random_greedy_tree(net, view=None, cfg=None):
    """``greedy_tree`` with ``cfg`` defaulting to ``GreedyConfig()``."""
    return greedy_tree(net, view, cfg or GreedyConfig())


class FanInNetwork:
    """The network of a fan-in tree: vertex ``i`` is partition ``i``, its
    legs are integer group ids, and ``edge_dims[g]`` is group ``g``'s exact
    integer size.  It has only what ``tree.py`` asks of a network."""

    def __init__(self, legs, edge_dims):
        self.num_vertices = len(legs)
        self.edge_dims = edge_dims
        self._legs = legs

    def vertices(self):
        return range(self.num_vertices)

    def leaf_legs(self, v):
        return self._legs[v]


def reduction_network(net, partition_legs):
    """The ``FanInNetwork`` over the partition result tensors.

    The edges shared by partitions ``i`` and ``j`` form one group, a leg of
    both, and the open legs of ``i`` one group, a leg of ``i`` alone; a
    group's size is the product of its edges' dimensions.  A group's
    edges are always legs of the same pieces and every size is an exact
    integer product, so every greedy score and cost is bit for bit the
    one over the original edges.  An edge held by three or more partitions
    is a ``ValueError``.
    """
    holders = {}
    for i, legs in enumerate(partition_legs):
        for e in legs:
            holders[e] = holders.get(e, ()) + (i,)
    groups = {}  # (i,) for the open legs of i, (i, j) with i < j for a bond -> size
    for e, ends in holders.items():
        if len(ends) > 2:
            raise ValueError(f"edge {e} appears in {len(ends)} partitions")
        groups[ends] = groups.get(ends, 1) * net.edge_dims[e]
    legs = [set() for _ in partition_legs]
    for g, ends in enumerate(groups):
        for i in ends:
            legs[i].add(g)
    return FanInNetwork([frozenset(l) for l in legs], list(groups.values()))


def reduction_path(net, partition_legs):
    """Fan-in contraction tree over partition result tensors.

    One deterministic greedy pass over the fan-in network of
    ``reduction_network``; the tree's leaf ids are partition indices.
    With one partition this is the trivial single-node tree.
    """
    return greedy_tree(reduction_network(net, partition_legs))
