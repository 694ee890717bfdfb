"""Cost metrics for contraction trees: memory, serial, parallel, distributed.

All metrics derive from one quantity per internal tree node: the number of
scalar multiplications of that pairwise contraction, which equals the
product of the dimensions over the union of the children's legs.  Every
tree carries these counts and its nodes' entry counts in its memos: exact
integers of its network's vertex rows merged pair by pair (see ``tree``),
each rounded once to a 64-bit float by ``rounded_count``, so no count
depends on an order of edges; anything past 2**300 is clamped and flagged
rather than allowed to overflow.  ``dims_product`` is the same count over
a leg set, their reference; ``is_saturated`` takes an exact product over
legs again only of a count at the clamp value.  Sums over nodes are
accumulated in linear floats.  A plan's cost and its per-partition split
come from its fan-in tree merge by merge (``FaninSums``); ``con_dist``
and ``distributed_breakdown`` of the composed tree are their reference.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

LOG2_SATURATION = 300.0
_SATURATION_VALUE = 2.0 ** LOG2_SATURATION
_SATURATION_INT = 2 ** int(LOG2_SATURATION)


@dataclass
class CostConfig:
    """Knobs for the distributed metric.

    ``comm_alpha`` and ``comm_beta`` give the per-message latency and the
    per-entry transfer cost of shipping an intermediate between nodes; both
    are finite and >= 0, and both default to 0, which ignores
    communication.  ``intra_node`` picks the metric used inside one
    partition: "serial" or "par".
    """

    comm_alpha: float = 0.0
    comm_beta: float = 0.0
    intra_node: str = "serial"

    def __post_init__(self):
        for name in ("comm_alpha", "comm_beta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if self.intra_node not in ("serial", "par"):
            raise ValueError(f"intra_node must be 'serial' or 'par', got {self.intra_node!r}")


@dataclass
class PartitionCost:
    index: int
    local: float
    fanin: float


@dataclass
class CostReport:
    """Whole-tree metrics, ``con_dist`` and its split; each ``*_log2`` derives from its linear field."""

    mem: float
    con_serial: float
    con_par: float
    con_dist: float
    mem_log2: float = field(init=False)
    con_serial_log2: float = field(init=False)
    con_par_log2: float = field(init=False)
    con_dist_log2: float = field(init=False)
    per_partition: list = field(default_factory=list)
    saturated: bool = False

    def __post_init__(self):
        for name in ("mem", "con_serial", "con_par", "con_dist"):
            x = getattr(self, name)
            setattr(self, name + "_log2", math.log2(x) if x > 0 else float("-inf"))

    def to_dict(self):
        """The report as a JSON-ready dict; non-finite floats become None."""
        return asdict(self, dict_factory=lambda items: {k: _finite_or_none(v) for k, v in items})


def _finite_or_none(x):
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _exact_product(net, legs):
    """The exact integer product of the edge dimensions (``net.edge_dim``) over ``legs``."""
    return math.prod(map(net.edge_dim, legs))


def rounded_count(value):
    """An exact integer count as a float: clamped at 2**300, else rounded once."""
    return _SATURATION_VALUE if value > _SATURATION_INT else float(value)


def dims_product(net, legs):
    """Entry count over a leg set: the exact product, clamped at 2**300 and rounded once."""
    return rounded_count(_exact_product(net, legs))


def _contracted_legs(tree, t):
    """The union of the children's legs at internal node ``t``."""
    a, b = tree.children(t)
    return tree.legs(a) | tree.legs(b)


def legs_size(tree, t):
    """Entry count of the intermediate tensor at node ``t``, from ``tree.entry_counts``."""
    return tree.entry_counts[t]


def node_ops(tree, t):
    """Multiplication count of the contraction at internal node ``t``, from
    ``tree.op_counts``: E(A) * E(B) / X(A, B) on exact integers, the
    product over the union of the children's legs (not via 2**vc, which
    would round for non-power-of-two dimensions)."""
    ops = tree.op_counts.get(t)
    if ops is None:
        raise ValueError(f"node {t} is not a contraction; only contractions have a multiplication count")
    return ops


def con_serial(tree, root=None):
    """Total multiplications when the subtree under ``root`` runs serially."""
    total = 0.0
    for t in tree.internal_order if root is None else tree.internal_nodes(root):
        total += node_ops(tree, t)
    return total


def con_par(tree, root=None):
    """Critical-path multiplications with unlimited pairwise parallelism.

    The maximum over leaves of the summed contraction costs along the
    leaf-to-root path, the leaf itself excluded.  One post-order pass
    keeps each node's heaviest path from below; the sums run bottom-up as
    a per-leaf walk would add them, and rounding is monotone, so taking
    the maximum at every node gives the same float as taking it at the
    root.
    """
    crit = {}
    for t in tree.order if root is None else tree.postorder(root):
        ch = tree.children(t)
        crit[t] = 0.0 if ch is None else node_ops(tree, t) + max(crit[ch[0]], crit[ch[1]])
    return crit[t]  # post-order ends at the root


def mem_cost(tree):
    """Peak buffer entries: the worst (result + both operands) over contractions.

    A single-leaf tree costs its leaf tensor's entry count.
    """
    if tree.children(tree.root) is None:
        return legs_size(tree, tree.root)
    peak = 0.0
    for t in tree.internal_order:
        ch = tree.children(t)
        total = legs_size(tree, t) + legs_size(tree, ch[0]) + legs_size(tree, ch[1])
        if total > peak:
            peak = total
    return peak


def comm_cost(tree, t, cfg):
    """Cost of shipping the intermediate at ``t`` to another node."""
    return cfg.comm_alpha + cfg.comm_beta * legs_size(tree, t)


def intra_metric(cfg):
    """The metric ``cfg.intra_node`` names for the work inside one partition."""
    return con_par if cfg.intra_node == "par" else con_serial


def distributed_breakdown(tree, blocks, cfg=None):
    """Per-partition local and fan-in costs for a tree that accepts ``blocks``.

    Each partition pays its own subtree (serial or critical-path, per
    ``cfg.intra_node``) and then every contraction on the path from its
    subtree root to the tree root, each with the cheaper child's transfer
    cost added.  A plan's fan-in tree, costed by ``FaninSums``, gives the
    same figures as its composed tree here, summed in the same order.
    """
    parts = _partition_costs(tree, blocks, cfg)
    return [PartitionCost(idx, local, fanin) for idx, (local, fanin) in enumerate(parts)]


def con_dist(tree, blocks, cfg=None):
    """Distributed-execution cost: the slowest partition's local plus fan-in
    work, from the same walk as ``distributed_breakdown`` (0 for no partition)."""
    return slowest(_partition_costs(tree, blocks, cfg))


def slowest(parts):
    """The largest local + fan-in over (local, fan-in) pairs, 0 for none."""
    best = 0.0
    for local, fanin in parts:
        total = local + fanin
        if total > best:
            best = total
    return best


class FaninSums:
    """A fan-in pass's ``on_merge`` hook: each merge adds ``ops + min(alpha +
    beta*|A|, alpha + beta*|B|)`` to the ``fanin`` of every partition under
    it, bottom-up, so bit for bit as ``distributed_breakdown`` of the
    composed tree.  ``bound``, the running ``slowest`` of ``local_costs``
    and ``fanin``, ends as the plan's ``con_dist``; a true ``stop(bound)``
    as it grows stops the pass."""

    def __init__(self, cfg, local_costs, stop):
        self.local_costs = local_costs
        self.fanin = [0.0] * len(local_costs)
        self.bound = slowest(zip(local_costs, self.fanin))
        self._under = [[p] for p in range(len(local_costs))]  # partitions under each piece
        self._comm = cfg.comm_alpha, cfg.comm_beta
        self._stop = stop

    def __call__(self, i, j, ops, size_i, size_j):
        alpha, beta = self._comm
        step = ops + min(alpha + beta * size_i, alpha + beta * size_j)
        parts = self._under[i] + self._under[j]
        self._under.append(parts)
        local, fanin, best = self.local_costs, self.fanin, self.bound
        for p in parts:
            fanin[p] += step
            if local[p] + fanin[p] > best:
                best = local[p] + fanin[p]
        grew, self.bound = best > self.bound, best
        return grew and self._stop(best)


def _partition_costs(tree, blocks, cfg):
    """(local, fan-in) per partition, as ``distributed_breakdown`` defines them:
    one walk up from each subtree root, each ancestor's step computed once."""
    cfg = cfg or CostConfig()
    subtree_roots = tree.subtree_roots(blocks)
    if subtree_roots is None:
        raise ValueError("tree does not accept the partitioning")
    intra = intra_metric(cfg)
    parent = tree.parent
    steps = {}  # ancestor -> its ops plus the cheaper child's transfer
    for r in subtree_roots:
        local = intra(tree, r)
        fanin = 0.0
        a = parent(r)
        while a is not None:
            step = steps.get(a)
            if step is None:
                ch = tree.children(a)
                send = min(comm_cost(tree, ch[0], cfg), comm_cost(tree, ch[1], cfg))
                step = steps[a] = node_ops(tree, a) + send
            fanin += step
            a = parent(a)
        yield local, fanin


def is_saturated(tree):
    """True when a contraction's exact multiplication count, or a one-leaf
    tree's tensor size, is past 2**300; no tensor is larger than the
    contraction that consumes or produces it.  Only a memoized ``node_ops``
    (``legs_size`` of a one-leaf tree) at the clamp value can hide a larger
    exact product, so only its product is taken again.
    """
    net = tree.network
    nodes = tree.internal_order
    if not nodes:
        root = tree.root
        return (legs_size(tree, root) == _SATURATION_VALUE
                and _exact_product(net, tree.legs(root)) > _SATURATION_INT)
    return any(node_ops(tree, t) == _SATURATION_VALUE
               and _exact_product(net, _contracted_legs(tree, t)) > _SATURATION_INT for t in nodes)
