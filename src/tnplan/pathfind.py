"""Greedy contraction-order search, and the fan-in tree over partitions.

``greedy_tree`` is the one search.  A pass repeatedly contracts the pair
of intermediates that maximizes the memory-reduction objective
|A| + |B| - |A.B|.  Only pairs sharing at least one bound edge are
candidates; pairs with nothing in common (outer products) are considered
only once no adjacent pair is left, which happens exactly when the view
being contracted is disconnected.  The pass records each merge, and
``ContractionTree.from_pairs`` builds the tree from them, as (left, right)
pairs of tree node ids in merge order.

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

from .costs import dims_product
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
    """Mutable piece set for one greedy pass.

    Pieces are immutable once created: a merge retires both operands and
    appends a fresh piece, so a heap entry stays valid exactly while both
    of its pieces are alive.  A merge appends its operands' piece indices
    to ``merges``, and the new piece takes the node id ``from_pairs``
    gives it.

    A piece's legs are the symmetric difference of its leaves' legs, so
    its entry count depends only on the bitmask of leaves it covers.
    ``sizes`` caches entry counts by that mask; the passes of one search
    share it, so a pair scored once is never re-sized.
    """

    def __init__(self, net, pieces, sizes):
        self.net = net
        self.sizes = sizes
        self.legs = []
        self.mask = []
        self.node = []
        self.rep = []
        self.size = []
        self.alive = []
        self.merges = []
        self.holders = {}
        for pos, (key, legs) in enumerate(pieces):
            idx = self._append(legs, 1 << pos, key, key)
            for e in legs:
                self.holders.setdefault(e, set()).add(idx)

    def _size(self, mask, legs):
        size = self.sizes.get(mask)
        if size is None:
            size = self.sizes[mask] = dims_product(self.net, legs)
        return size

    def _append(self, legs, mask, node, rep):
        idx = len(self.legs)
        self.legs.append(legs)
        self.mask.append(mask)
        self.node.append(node)
        self.rep.append(rep)
        self.size.append(self._size(mask, legs))
        self.alive.append(True)
        return idx

    def score(self, i, j):
        mask = self.mask[i] | self.mask[j]
        result = self.sizes.get(mask)
        if result is None:
            result = self.sizes[mask] = dims_product(self.net, self.legs[i] ^ self.legs[j])
        return self.size[i] + self.size[j] - result

    def merge(self, i, j):
        """Contract pieces ``i`` and ``j``, ``i`` holding the smaller leaf
        vertex, so it becomes the left child; returns the new piece index."""
        li, lj = self.legs[i], self.legs[j]
        self.merges.append((i, j))
        node = self.net.num_vertices + len(self.merges) - 1
        idx = self._append(li ^ lj, self.mask[i] | self.mask[j], node, self.rep[i])
        self.alive[i] = False
        self.alive[j] = False
        for e in li | lj:
            hs = self.holders[e]
            hs.discard(i)
            hs.discard(j)
        for e in self.legs[idx]:
            self.holders.setdefault(e, set()).add(idx)
        return idx

    def pairs(self):
        """The merges as (left, right) tree node ids, in merge order."""
        return [(self.node[i], self.node[j]) for i, j in self.merges]

    def total_ops(self):
        """Multiplications of the merges, summed in merge order."""
        total = 0.0
        for i, j in self.merges:
            total += dims_product(self.net, self.legs[i] | self.legs[j])
        return total

    def neighbors(self, idx):
        out = set()
        for e in self.legs[idx]:
            for h in self.holders.get(e, ()):
                if h != idx:
                    out.add(h)
        return sorted(out)


def _greedy_pass(net, pieces, sizes, rng=None, noise_scale=0.0):
    """One full greedy pass over ``pieces`` (a list of (key, legs)).

    ``sizes`` is the entry-count cache of ``_Forest``; pass the same dict
    to every pass over the same pieces.  Returns the finished forest,
    whose ``pairs()`` and ``total_ops()`` are the pass's merges and
    multiplications.
    """
    if not pieces:
        raise ValueError("nothing to contract")
    forest = _Forest(net, pieces, sizes)

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

    seeds = set()
    for e in sorted(forest.holders):
        hs = forest.holders[e]
        if len(hs) == 2:
            a, b = sorted(hs)
            seeds.add((a, b))
    for a, b in sorted(seeds):
        push(a, b)

    n_alive = len(pieces)
    while heap and n_alive > 1:
        _, _, _, i, j = heapq.heappop(heap)
        if not (forest.alive[i] and forest.alive[j]):
            continue
        idx = forest.merge(i, j)
        n_alive -= 1
        for nb in forest.neighbors(idx):
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
    sizes = {}
    best = _greedy_pass(net, pieces, sizes)
    if cfg is not None and len(pieces) > 2:
        best_ops = best.total_ops()
        for s in range(cfg.samples):
            rng = _sample_rng(cfg.rng_seed, s)
            forest = _greedy_pass(net, pieces, sizes, rng, cfg.noise_scale)
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
    edges are always legs of the same pieces and ``dims_product``
    multiplies exactly, so every greedy score and cost is bit for bit the
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
