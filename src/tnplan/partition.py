"""Vertex partitionings: validity checks, balanced seeding, boundary refinement.

The initial partitioning grows blocks by multi-source BFS from seeds spread
out with a farthest-point pass over the neighbour graph, then runs a few
rounds of first-improvement single-vertex moves to shrink the cut weight
while respecting the balance bound size <= (1 + epsilon) * ceil(|V| / k).
The bound is a setting of this partitioner alone: a ``Partitioning`` is
only its blocks, and the annealer moves tensors without regard to block
sizes.

Adjacency comes from the network's vertex rows (``vertex_row``): the cut
weight is the sum of log2(X) over pairs of neighbours in different blocks,
X being the product of the dimensions of all bonds joining them.
``owner_map`` is the one vertex -> block map, shared with ``Plan.owner``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_IMBALANCE = 0.03


@dataclass
class Partitioning:
    """An ordered list of vertex blocks, each a frozenset of vertex ids."""

    blocks: list = field(default_factory=list)

    def __post_init__(self):
        self.blocks = [frozenset(b) for b in self.blocks]

    def to_lists(self):
        return [sorted(b) for b in self.blocks]


def validate(part, net):
    """Check cover, disjointness and non-emptiness of the blocks.

    Returns (ok, diagnostics); diagnostics is a list of human-readable
    strings describing every violation found.
    """
    problems = []
    seen = {}
    for i, block in enumerate(part.blocks):
        if not block:
            problems.append(f"block {i} is empty")
        for v in sorted(block):
            if v in seen:
                problems.append(f"vertex {v} appears in blocks {seen[v]} and {i}")
            else:
                seen[v] = i
            if not 0 <= v < net.num_vertices:
                problems.append(f"vertex {v} in block {i} is not in the network")
    missing = [v for v in net.vertices() if v not in seen]
    if missing:
        problems.append(f"vertices not covered by any block: {missing}")
    return (not problems, problems)


def check_imbalance(epsilon, name="imbalance epsilon"):
    """Raise ``ValueError``, naming the setting ``name``, unless ``epsilon``
    is finite and >= 0."""
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {epsilon!r}")


def balance_limit(n, k, epsilon):
    """Largest allowed block size: floor of (1 + epsilon) * ceil(n / k)."""
    return int((1.0 + epsilon) * math.ceil(n / k) + 1e-9)


def owner_map(net, blocks):
    """The block index of each vertex, one entry per vertex (``Plan.owner``)."""
    owner = [None] * net.num_vertices
    for i, block in enumerate(blocks):
        for v in block:
            owner[v] = i
    return owner


def cut_weight(part, net):
    """Total log2 of the dimension products shared across block boundaries."""
    ok, problems = validate(part, net)
    if not ok:
        raise ValueError("invalid partitioning: " + "; ".join(problems))
    return _cut_weight(net, owner_map(net, part.blocks))


def _cut_weight(net, where):  # where: the vertex -> block list
    total = 0.0
    for v in net.vertices():
        for u, x in net.vertex_row(v)[1].items():
            if u > v and where[u] != where[v]:
                total += math.log2(x)
    return total


REFINE_PASSES = 10


def refine_partition(part, net, epsilon=DEFAULT_IMBALANCE):
    """First-improvement boundary refinement under the balance bound
    ``balance_limit(|V|, k, epsilon)``.

    Scans vertices in id order; the first strictly cut-reducing move of a
    vertex to a neighboring block that neither empties its source nor
    overfills its target is applied immediately.  Stops after a pass with
    no move, or after ``REFINE_PASSES`` passes.  Returns the refined
    partitioning and the cut-weight history (one entry before refinement
    plus one per completed pass).
    """
    check_imbalance(epsilon)
    blocks = [set(b) for b in part.blocks]
    where = owner_map(net, blocks)
    cap = balance_limit(net.num_vertices, len(blocks), epsilon)
    refined = part
    history = [cut_weight(part, net)]
    for _ in range(REFINE_PASSES):
        moved = False
        for v in net.vertices():
            b = where[v]
            if len(blocks[b]) <= 1:
                continue
            terms = [(where[u], math.log2(x)) for u, x in net.vertex_row(v)[1].items()]
            if not terms:
                continue
            current = sum(w for blk, w in terms if blk != b)
            targets = sorted({blk for blk, _ in terms if blk != b})
            for t in targets:
                if len(blocks[t]) + 1 > cap:
                    continue
                after = sum(w for blk, w in terms if blk != t)
                if after < current - 1e-9:
                    blocks[b].discard(v)
                    blocks[t].add(v)
                    where[v] = t
                    moved = True
                    break
        refined = Partitioning(blocks)
        history.append(_cut_weight(net, where))
        if not moved:
            break
    return refined, history


def _bfs_distances(net, sources):
    dist = dict.fromkeys(sources, 0)
    frontier = list(sources)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in net.neighbors(v):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def initial_partition(net, k, epsilon=DEFAULT_IMBALANCE, seed=0):
    """Balanced k-way partitioning by seeded BFS growth plus refinement.

    Deterministic for a given seed.  Raises on k < 1, k > |V| or an
    ``epsilon`` that is negative or not finite.
    """
    n = net.num_vertices
    check_imbalance(epsilon)
    if k < 1:
        raise ValueError(f"need at least one block, got k={k}")
    if k > n:
        raise ValueError(f"cannot split {n} vertices into {k} non-empty blocks")
    if k == 1:
        return Partitioning([net.vertices()])

    rng = np.random.default_rng(seed & ((1 << 128) - 1))
    seeds = [int(rng.integers(n))]
    while len(seeds) < k:
        # The farthest vertex (first by id on ties); seeds, at distance 0,
        # lose to any other vertex, and one is left since k <= |V|.
        dist = _bfs_distances(net, seeds)
        seeds.append(max(net.vertices(), key=lambda v: dist.get(v, math.inf)))

    cap = balance_limit(n, k, epsilon)
    where = {}
    blocks = [set() for _ in range(k)]
    frontiers = []
    for i, s in enumerate(seeds):
        where[s] = i
        blocks[i].add(s)
        frontiers.append([s])
    while any(frontiers):
        for b in range(k):
            nxt = []
            for v in frontiers[b]:
                for w in sorted(net.neighbors(v)):
                    if w not in where and len(blocks[b]) < cap:
                        where[w] = b
                        blocks[b].add(w)
                        nxt.append(w)
            frontiers[b] = nxt
    for v in net.vertices():
        if v not in where:
            blocks[min(range(k), key=lambda i: (len(blocks[i]), i))].add(v)

    refined, _ = refine_partition(Partitioning(blocks), net, epsilon)
    return refined
