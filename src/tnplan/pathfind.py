"""Greedy contraction-order search, the fan-in network, and their tables.

``greedy_tree`` is the one search.  A pass (``_greedy_pass``) repeatedly
contracts the pair of intermediates that maximizes the memory-reduction
objective |A| + |B| - |A.B|.  Only pairs sharing a bound edge are
candidates; outer products go through the same heap, and only once no
adjacent pair is left, which happens exactly when the view is
disconnected.  The pass records its merges as (left, right) tree node
ids, and ``_pass_tree`` builds the tree from them unchecked, its count
memos the pass's figures.

A pass runs on exact integer tables, not leg sets: ``entries[p]`` is
tensor ``p``'s entry count E, and ``shared[p]`` maps every tensor sharing
an edge with ``p`` to X, the exact product of the shared dimensions
(dimension-1 and parallel edges included).  Sizes are these integers
rounded once by ``costs.rounded_count``.  ``greedy_tree`` reads the
tables with ``tree.view_rows``, which takes each vertex's row from the
network's ``vertex_row`` cache and drops the neighbours outside its view,
as ``ContractionTree.from_pairs`` does, so a search reads no leg set.

With a ``GreedyConfig`` the deterministic pass competes with ``samples``
passes whose pair scores carry log-normal noise; only ``serial_plan`` asks
for that.  The fan-in tree of ``reduction_path`` is one deterministic
pass over a ``FanInNetwork`` of the partitions' results, seeded from its
tables and the heap keys of its adjacent pairs, which it carries; no one
edits them once built.  Each of its rows is a vertex set's row
(``vertex_set_row``, read off the vertices' rows): ``reduction_network``
reads one per partition.  An annealing move reads the moved set's row
once: ``select_target_directed`` scores the directed move with it, and
``FanInNetwork.after_move`` multiplies it into the destination's row,
reads the source remainder's row afresh, and rescores only the heap keys
of pairs with one of the two.  Either way the fan-in tables, and so a
greedy fan-in tree, depend on the partitioning alone.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

# dims_product is unused here but stays importable: perfbench's tracer wraps it.
from .costs import _SATURATION_INT, _SATURATION_VALUE, dims_product, rounded_count  # noqa: F401
from .tree import ContractionTree, view_rows


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
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale!r}")


def _sample_rng(seed, index):
    entropy = seed & ((1 << 128) - 1)
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(index,)))


def _greedy_pass(net, nodes, entries, shared, rng=None, noise_scale=0.0, seeds=None, on_merge=None):
    """One full greedy pass over the tensors with node ids ``nodes`` and the
    exact tables ``entries`` and ``shared`` (rows keyed by position in
    ``nodes``), which it edits.

    Pieces are immutable once created: a merge retires both operands and
    appends a fresh piece with the next node id, so a heap entry stays
    valid exactly while both of its pieces are alive; the new piece takes
    over its left operand's ``shared`` row.  The legs of a merge are the
    symmetric difference of its operands' legs and the multiplications run
    over their union, so with X = X(A, B), or 1,

        E(A u B) = E(A) * E(B) / X**2,   ops(A, B) = E(A) * E(B) / X,

    both exact.  Returns (pairs, ops, sizes): the merges as (left, right)
    node ids in merge order, each merge's multiplication count, and the
    entry count of every piece, leaves first in ``nodes`` order, the last
    two rounded as ``costs.rounded_count`` rounds them.  Heap entries are
    unique, so the pop order does not depend on the order of pushes; a
    noisy pass still scores pairs in sorted order, which fixes the pair
    each noise draw perturbs.  ``seeds``, a list the pass heapifies and
    consumes, may stand in for the keys of the adjacent pairs of a
    noiseless pass (a ``FanInNetwork`` carries them).  A true answer of
    ``on_merge(i, j, ops, size[i], size[j])`` after a merge makes it return None.

    Once the heap is empty no two pieces share an edge (the view is
    disconnected), and the pass contracts the survivors by outer products
    under the same objective, pushing every live pair through ``outer_key``
    in order of the pieces' leaf vertices.  After each merge a noiseless
    pass pushes only the new piece's pairs: with no shared edge a pair's
    score depends on its two pieces alone.  A noisy pass clears the heap,
    so the next merge rescores every live pair with fresh draws.
    """
    if not nodes:
        raise ValueError("nothing to contract")
    first = net.num_vertices
    node = list(nodes)
    rep = list(nodes)
    cap, cap_float = _SATURATION_INT, _SATURATION_VALUE  # rounded_count, inline
    size = [float(e) if e <= cap else cap_float for e in entries]
    alive = [True] * len(entries)
    pairs = []
    ops = []
    noisy = rng is not None and noise_scale > 0.0

    def outer_key(i, j):  # the heap key of live pieces i and j, which share no edge
        s = size[i] + size[j] - rounded_count(entries[i] * entries[j])
        if noisy:
            s *= math.exp(noise_scale * rng.standard_normal())
        return (-s, rep[i], rep[j], i, j) if rep[i] < rep[j] else (-s, rep[j], rep[i], j, i)

    heap = seeds
    if heap is None:
        heap = []
        for a, table in enumerate(shared):  # every adjacent pair once, in sorted order
            ra, ea, sa = rep[a], entries[a], size[a]
            for b in sorted(table) if noisy else table:
                if b < a:
                    continue
                x = table[b]
                n = ea * entries[b] // (x * x)
                s = sa + size[b] - (float(n) if n <= cap else cap_float)
                if noisy:
                    s *= math.exp(noise_scale * rng.standard_normal())
                rb = rep[b]
                heap.append((-s, ra, rb, a, b) if ra < rb else (-s, rb, ra, b, a))
    heapq.heapify(heap)

    heappop, heappush = heapq.heappop, heapq.heappush
    n_alive = len(nodes)
    live = None  # the live pieces, once the pass is down to outer products
    while n_alive > 1:
        if not heap:
            live = sorted((i for i, a in enumerate(alive) if a), key=rep.__getitem__)
            heap.extend(outer_key(i, j) for x, i in enumerate(live) for j in live[x + 1:])
            heapq.heapify(heap)
        _, _, _, i, j = heappop(heap)
        if not (alive[i] and alive[j]):
            continue
        # Contract i and j; i holds the smaller leaf vertex, so it is the left child.
        table = shared[i]
        x = table.pop(j, 1)
        for nb, d in shared[j].items():
            if nb != i:
                table[nb] = table.get(nb, 1) * d
        product = entries[i] * entries[j]
        e = product // (x * x)
        n = product // x
        r = rep[i]
        idx = len(entries)
        pairs.append((node[i], node[j]))
        ops.append(float(n) if n <= cap else cap_float)
        sz = float(e) if e <= cap else cap_float
        entries.append(e)
        shared.append(table)
        node.append(first + len(pairs) - 1)
        rep.append(r)
        size.append(sz)
        alive.append(True)
        alive[i] = alive[j] = False
        n_alive -= 1
        if on_merge is not None and on_merge(i, j, ops[-1], size[i], size[j]):
            return None
        if live is not None:
            if noisy:  # the next merge rescores every live pair with fresh draws
                heap.clear()
                continue
            live.remove(i)
            live.remove(j)
            for nb in live:
                heappush(heap, outer_key(idx, nb))
            live.append(idx)
            continue
        # Re-point the neighbours at the new piece and score it with each.
        for nb in sorted(table) if noisy else table:
            d = table[nb]
            other = shared[nb]
            other.pop(i, None)
            other.pop(j, None)
            other[idx] = d
            n = e * entries[nb] // (d * d)
            s = sz + size[nb] - (float(n) if n <= cap else cap_float)
            if noisy:
                s *= math.exp(noise_scale * rng.standard_normal())
            if r < rep[nb]:
                heappush(heap, (-s, r, rep[nb], idx, nb))
            else:
                heappush(heap, (-s, rep[nb], r, nb, idx))

    return pairs, ops, size


def _seed_keys(i, row, entries):
    """(pair, heap key) of partition ``i`` with each neighbour ``j`` of its
    row ``{j: X}``, as a noiseless ``_greedy_pass`` keys pieces that are their
    own leaf vertices (a fan-in network's): the pair is ``(min, max)`` of
    ``i`` and ``j``, and the key ``(-s, *pair, *pair)``."""
    cap, cap_float = _SATURATION_INT, _SATURATION_VALUE  # rounded_count, inline
    ei = entries[i]
    si = float(ei) if ei <= cap else cap_float
    for j, x in row.items():
        ej = entries[j]
        n = ei * ej // (x * x)
        s = si + (float(ej) if ej <= cap else cap_float) - (float(n) if n <= cap else cap_float)
        yield ((i, j), (-s, i, j, i, j)) if i < j else ((j, i), (-s, j, i, j, i))


def _pass_tree(net, nodes, result):
    """The tree of a ``_greedy_pass`` over ``nodes``, built unchecked, its
    ``op_counts`` and ``entry_counts`` the pass's figures."""
    pairs, ops, sizes = result
    internal = range(net.num_vertices, net.num_vertices + len(pairs))
    return ContractionTree(net, nodes, pairs, dict(zip(internal, ops)), dict(zip([*nodes, *internal], sizes)))


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
    always gets a single pass.  Only the winning pass becomes a tree.
    """
    nodes = sorted(net.vertices() if view is None else view)
    entries, shared = view_rows(net, nodes)
    if cfg is None or len(nodes) <= 2:
        return _pass_tree(net, nodes, _greedy_pass(net, nodes, entries, shared))
    best = best_ops = None
    for s in range(-1, cfg.samples):  # -1: the deterministic pass
        rng = _sample_rng(cfg.rng_seed, s) if s >= 0 else None
        result = _greedy_pass(
            net, nodes, list(entries), [dict(t) for t in shared], rng, cfg.noise_scale
        )
        ops = 0.0
        for n in result[1]:  # in merge order
            ops += n
        if best is None or ops < best_ops:
            best, best_ops = result, ops
    return _pass_tree(net, nodes, best)


def random_greedy_tree(net, view=None, cfg=None):
    """``greedy_tree`` with ``cfg`` defaulting to ``GreedyConfig()``."""
    return greedy_tree(net, view, cfg or GreedyConfig())


class FanInNetwork:
    """The network of a fan-in tree over the results of the partitions of a network.

    Vertex ``i`` is partition ``i``.  ``entries`` and ``shared`` are the
    exact tables of the partition results, row ``i`` being partition
    ``i``'s ``vertex_set_row``, and ``vertex_row(i)`` reads it; the network
    has no legs.  ``seeds`` maps each adjacent pair ``(i, j)``, ``i < j``,
    to its heap key in the deterministic greedy pass; ``reduction_path``
    seeds that pass from copies of all three and keeps its result in
    ``pass_result``.  No one edits them once built; ``after_move`` carries
    what a move leaves unchanged into the next network.
    """

    def __init__(self, entries, shared, seeds=None, pass_result=None):
        self.num_vertices = len(entries)
        self.entries = entries
        self.shared = shared
        if seeds is None:
            seeds = dict(key for i, row in enumerate(shared) for key in _seed_keys(i, row, entries))
        self.seeds = seeds
        self.pass_result = pass_result

    def vertices(self):
        return range(self.num_vertices)

    def vertex_row(self, v):
        return self.entries[v], self.shared[v]

    def after_move(self, net, owner, blocks, src, dst, moved_row):
        """The fan-in network over the partitions ``blocks`` of ``net``,
        after a vertex set moved from partition ``src`` to ``dst``.

        ``moved_row`` is the set's ``vertex_set_row`` under the partitions
        before the move, and ``owner`` the vertex -> partition list after it
        (as ``plan.Plan.owner``).  The source remainder's row is read by
        ``vertex_set_row``: dividing the set out of the source's row cannot
        tell a vanished edge from a dimension-1 one.  The destination's row
        is its old row times the moved row, with E = E_dst * E_M / X**2 for
        X = X(dst, M), and its entry for the source is the source row's for
        it.  Every other row changes only in its entries for the two, and
        only the heap keys of pairs with one of them are scored again.  Rows
        and keys are copied before they are patched, and shared with the pass
        result when neither row changes: this network keeps its tables.
        """
        entries = list(self.entries)
        old_src, old_dst = self.shared[src], self.shared[dst]
        moved_entries, moved_shared = moved_row
        entries[src], src_row = vertex_set_row(net, owner, blocks[src])
        x = moved_shared.get(dst, 1)
        entries[dst] = entries[dst] * moved_entries // (x * x)
        dst_row = {j: y for j, y in old_dst.items() if j != src}
        for j, y in moved_shared.items():
            if j != src and j != dst:
                dst_row[j] = dst_row.get(j, 1) * y
        if dst in src_row:
            dst_row[src] = src_row[dst]
        if entries == self.entries and (src_row, dst_row) == (old_src, old_dst):
            return FanInNetwork(self.entries, self.shared, self.seeds, self.pass_result)
        shared = list(self.shared)
        shared[src], shared[dst] = src_row, dst_row
        seeds = dict(self.seeds)
        for i, old, new in ((src, old_src, src_row), (dst, old_dst, dst_row)):
            seeds.update(_seed_keys(i, new, entries))
            for j in old:
                if j not in new:
                    seeds.pop((i, j) if i < j else (j, i), None)
        # The new rows' neighbours are among the old ones' (the set came from ``src``).
        for j in {*old_src, *old_dst}.difference((src, dst)):
            row = shared[j] = dict(shared[j])
            for i, new in ((src, src_row), (dst, dst_row)):
                x = new.get(j)
                if x is None:
                    row.pop(i, None)
                else:
                    row[i] = x
        return FanInNetwork(entries, shared, seeds)


def reduction_network(net, owner, blocks):
    """The ``FanInNetwork`` over the result tensors of the partitions ``blocks``
    of ``net``, each row its block's ``vertex_set_row`` under ``owner``."""
    rows = [vertex_set_row(net, owner, block) for block in blocks]
    return FanInNetwork([e for e, _ in rows], [row for _, row in rows])


def reduction_path(fanin, on_merge=None):
    """Fan-in contraction tree over the partitions of a ``FanInNetwork``.

    One deterministic greedy pass, seeded from copies of the network's
    tables and heap keys, or a replay of its kept ``pass_result`` through
    the hook; the tree's leaf ids are partition indices.  With one
    partition this is the trivial single-node tree; None when the hook
    ``on_merge`` stops the pass.
    """
    nodes = range(fanin.num_vertices)
    result = fanin.pass_result
    if result is None:
        result = _greedy_pass(fanin, nodes, list(fanin.entries), [dict(t) for t in fanin.shared],
                              seeds=list(fanin.seeds.values()), on_merge=on_merge)
        if result is None:
            return None
        fanin.pass_result = result
    elif on_merge is not None:
        pairs, ops, sizes = result
        for (i, j), n in zip(pairs, ops):  # a fan-in network's node ids are its positions
            if on_merge(i, j, n, sizes[i], sizes[j]):
                return None
    return _pass_tree(fanin, nodes, result)


def vertex_set_row(net, owner, vertices):
    """The exact row (E, {j: X}) of the tensor over the set ``vertices``, whose
    legs are the non-loop edges with one end in the set.

    E is the product of the legs' dimensions and X, for each partition
    ``j`` of ``owner`` (as ``plan.Plan.owner``), the product over the legs
    whose other end lies in ``j``; open ends count for no partition.  Both
    come from the vertices' ``vertex_row``s: an edge inside the set divides
    out of E once per end.  For a partition this is its result tensor's
    row; for a proper subset, its own partition may appear among the ``j``.
    """
    vertex_row = net.vertex_row
    entries = 1
    inner = 1
    row = {}
    for v in vertices:
        e, table = vertex_row(v)
        entries *= e
        for u, x in table.items():
            if u in vertices:
                inner *= x
            else:
                j = owner[u]
                row[j] = row.get(j, 1) * x
    return entries // inner, row


def select_target_directed(fanin, k_src, moved_row):
    """Partition whose result tensor pairs best with a vertex set moving out
    of partition ``k_src``, given the set's ``vertex_set_row``, ``moved_row``.

    Maximizes the pass's objective |moved| + |target| - |moved . target|
    over the partitions of ``fanin`` other than ``k_src``; ties go to the
    lowest partition index.  Sizes come from exact entry counts, each
    rounded once as ``dims_product`` rounds it: ``fanin.entries[t]`` for
    target ``t``, E_moved for the moved tensor, and E_moved * E_t / X**2
    for their product, where X is the moved row's product for ``t``, or 1.
    """
    moved_entries, moved_shared = moved_row
    moved_size = rounded_count(moved_entries)
    best_k = None
    best_obj = -math.inf
    for k, dest in enumerate(fanin.entries):
        if k == k_src:
            continue
        x = moved_shared.get(k, 1)
        result = rounded_count(moved_entries * dest // (x * x))
        obj = moved_size + rounded_count(dest) - result
        if obj > best_obj:
            best_obj = obj
            best_k = k
    return best_k
