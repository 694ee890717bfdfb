"""Greedy contraction-order search, and the fan-in tree over partitions.

``greedy_tree`` is the one search.  A pass repeatedly contracts the pair
of intermediates that maximizes the memory-reduction objective
|A| + |B| - |A.B|.  Only pairs sharing at least one bound edge are
candidates; pairs with nothing in common (outer products) are considered
only once no adjacent pair is left, which happens exactly when the view
being contracted is disconnected.  The pass records each merge, and
``ContractionTree.from_pairs`` builds the tree from them, as (left, right)
pairs of tree node ids in merge order.

With a ``GreedyConfig`` the pass runs ``samples`` times with each pair
score multiplied by log-normal noise, and the sample with the smallest
serial cost is kept; only ``serial_plan`` asks for that, and only there
are a pass's merges costed.  The fan-in tree of ``reduction_path`` is one
deterministic pass, so a plan's fan-in, and the annealer's cost of a
state, depend on its partition trees alone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .costs import LOG2_SATURATION, dims_product
from .network import TensorNetwork
from .tree import ContractionTree, leaf_legs


# Clamp for grouped edge dimensions in ``reduction_network``.
_FAT_DIM_CAP = 2 ** (int(LOG2_SATURATION) + 1)


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
    ``cfg`` one deterministic pass runs; with it, the best of
    ``cfg.samples`` noisy passes by serial cost.  Sample seeds derive from
    ``cfg.rng_seed`` and the sample index alone, so the sequence of
    candidate paths is a fixed function of the seed and the best-so-far
    cost is non-increasing in the sample count.  A view of at most two
    pieces has one possible tree and always gets a single pass.
    """
    if view is None:
        view = net.vertices()
    pieces = [(v, leaf_legs(net, v)) for v in sorted(view)]
    sizes = {}
    if cfg is None or len(pieces) <= 2:
        best = _greedy_pass(net, pieces, sizes)
    else:
        best = None
        for s in range(cfg.samples):
            rng = _sample_rng(cfg.rng_seed, s)
            forest = _greedy_pass(net, pieces, sizes, rng, cfg.noise_scale)
            ops = forest.total_ops()
            if best is None or ops < best_ops:
                best, best_ops = forest, ops
    return ContractionTree.from_pairs(net, best.pairs(), leaves=[v for v, _ in pieces])


def random_greedy_tree(net, view=None, cfg=None):
    """``greedy_tree`` with ``cfg`` defaulting to ``GreedyConfig()``."""
    return greedy_tree(net, view, cfg or GreedyConfig())


def reduction_network(net, partition_legs):
    """A network of one pseudo-tensor per partition, wired by grouped edges.

    The original edges shared by partitions ``i`` and ``j`` become one
    bond between pseudo-vertices ``i`` and ``j``, and the open legs of
    partition ``i`` one open axis of ``i``.  A group's dimension is the
    exact product of its edges' dimensions, read from ``net.edge_dims``
    and clamped at 2**301: past the 2**300 cost saturation, so any product
    over it still saturates, while the integers stay small.  The edges of
    a group are always legs of the same pieces, and ``dims_product``
    multiplies exactly, so every leg product, and hence every greedy score
    and cost, is bit for bit the one over the original edges.
    Pseudo-vertex ``i`` has one axis per group it belongs to, in sorted
    group order.
    """
    holders = {}
    for i, legs in enumerate(partition_legs):
        for e in legs:
            holders.setdefault(e, []).append(i)
    dims = net.edge_dims
    groups = {}  # (i,) for open legs of i, (i, j) with i < j for a bond
    for e in sorted(holders):
        ends = tuple(holders[e])
        if len(ends) > 2:
            raise ValueError(f"edge {e} appears in {len(ends)} partitions")
        groups[ends] = min(groups.get(ends, 1) * dims[e], _FAT_DIM_CAP)
    axes = [[] for _ in partition_legs]
    for ends in sorted(groups):
        for i in ends:
            axes[i].append(ends)
    pseudo = TensorNetwork()
    for keys in axes:
        pseudo.add_tensor([groups[ends] for ends in keys])
    for ends in sorted(groups):
        if len(ends) == 2:
            i, j = ends
            pseudo.bond(i, axes[i].index(ends), j, axes[j].index(ends))
    return pseudo


def reduction_path(net, partition_legs):
    """Fan-in contraction tree over partition result tensors.

    One deterministic greedy pass over the pseudo-network of
    ``reduction_network``; the tree's leaf ids are partition indices.
    With one partition this is the trivial single-node tree.
    """
    return greedy_tree(reduction_network(net, partition_legs))
