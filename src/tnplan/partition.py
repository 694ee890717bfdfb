"""Vertex partitionings: validity checks, balanced seeding, boundary refinement.

The initial partitioning grows blocks by multi-source BFS from seeds spread
out with a farthest-point pass over the bound-edge graph, then runs a few
rounds of first-improvement single-vertex moves to shrink the total
log2-weight of cut edges while respecting the balance bound
size <= (1 + epsilon) * ceil(|V| / k).  The bound is a setting of this
partitioner alone: a ``Partitioning`` is only its blocks, and the annealer
moves tensors without regard to block sizes.
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


def cut_weight(part, net):
    """Total log2 edge dimension over bound edges crossing block boundaries."""
    ok, problems = validate(part, net)
    if not ok:
        raise ValueError("invalid partitioning: " + "; ".join(problems))
    where = {}
    for i, block in enumerate(part.blocks):
        for v in block:
            where[v] = i
    total = 0.0
    for e in sorted(net.bound_edges()):
        ed = net.edge(e)
        (u, _), (v, _) = ed.ends
        if where[u] != where[v]:
            total += math.log2(ed.dim)
    return total


def _vertex_cut_terms(net, v, where):
    """log2 cut contribution of v's edges, by currently assigned neighbor block."""
    terms = []
    for e in sorted(net.edges_of(v)):
        ed = net.edge(e)
        if ed.is_open() or ed.is_loop():
            continue
        w = ed.other_end(v)[0]
        terms.append((where[w], math.log2(ed.dim)))
    return terms


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
    where = {}
    for i, b in enumerate(blocks):
        for v in b:
            where[v] = i
    cap = balance_limit(net.num_vertices, len(blocks), epsilon)
    refined = part
    history = [cut_weight(part, net)]
    for _ in range(REFINE_PASSES):
        moved = False
        for v in sorted(where):
            b = where[v]
            if len(blocks[b]) <= 1:
                continue
            terms = _vertex_cut_terms(net, v, where)
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
        history.append(cut_weight(refined, net))
        if not moved:
            break
    return refined, history


def _bfs_distances(net, sources):
    dist = {s: 0 for s in sources}
    frontier = sorted(sources)
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in sorted(net.neighbors(v)):
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
        dist = _bfs_distances(net, seeds)
        best = None
        for v in net.vertices():
            if v in seeds:
                continue
            d = dist.get(v, math.inf)
            if best is None or d > best[0]:
                best = (d, v)
        seeds.append(best[1])

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
    leftovers = sorted(v for v in net.vertices() if v not in where)
    for v in leftovers:
        b = min(range(k), key=lambda i: (len(blocks[i]), i))
        blocks[b].add(v)
        where[v] = b

    refined, _ = refine_partition(Partitioning(blocks), net, epsilon)
    return refined
