"""Distributed contraction plans: one costed type for a partitioning and its trees.

A ``Plan`` holds the vertex partitioning, one contraction tree per
partition, the fan-in (reduction) tree joining the partition results, its
``con_dist`` cost under a ``CostConfig``, and the exact tables of the
partition results that the annealer updates move by move.  The composed
tree over all tensors and its cost report are built on first read.
``assemble_plan`` makes every plan but the annealer's proposals;
``build_plan`` makes every tree by one deterministic greedy pass; only
``serial_plan`` takes a noisy multi-sample search.

A plan document stores each partition tree and the reduction tree as
``{"leaves": [...], "pairs": [[x, y], ...]}``, the ids ``from_pairs``
uses: a leaf is a vertex id (a partition index in the reduction tree)
and merge ``j`` is node ``num_vertices + j`` (``k + j`` over ``k``
partitions).  Loading rebuilds the plan from these parts; older documents
with nested-list trees still load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .costs import CostConfig, con_dist, cost_report, intra_metric
from .network import OPEN, _is_number
from .partition import Partitioning, validate
from .pathfind import FanInNetwork, greedy_tree, leg_tables, reduction_network, reduction_path
from .tree import ContractionTree, compose_plan_tree, nested_to_pairs


class PlanError(ValueError):
    """Inconsistent plan document or plan construction failure."""


@dataclass(frozen=True, eq=False)
class Plan:
    """A partitioning with its trees, costed under ``cost_cfg``.

    ``reduction`` is the fan-in tree whose leaf ``i`` stands for partition
    ``i``.  ``local_costs[i]`` is partition ``i``'s own cost (per
    ``cost_cfg.intra_node``) and ``cost`` is ``con_dist`` of the plan.

    ``entries`` and ``shared`` are the ``leg_tables`` of the partition
    trees' root legs: ``entries[i]`` is the exact entry count of partition
    ``i``'s result and ``shared[i]`` maps every partition sharing edges with
    it to the exact product of the shared dimensions.  ``owner[v]`` is the
    partition of vertex ``v``; its last entry, ``owner[OPEN]``, is ``OPEN``,
    so the open end of a leg belongs to no partition.  Plans share these
    lists and dicts and never edit them.
    """

    network: object
    partitioning: Partitioning
    partition_trees: tuple
    reduction: ContractionTree
    cost_cfg: CostConfig
    local_costs: tuple
    cost: float
    entries: list
    shared: list
    owner: list

    @cached_property
    def tree(self):
        return compose_plan_tree(self.network, self.partition_trees, self.reduction)

    @cached_property
    def part_roots(self):
        return self.tree.subtree_roots(self.partitioning.blocks)

    @cached_property
    def report(self):
        return cost_report(self.tree, self.partitioning.blocks, self.cost_cfg, subtree_roots=self.part_roots)


def owner_map(net, blocks):
    """The ``Plan.owner`` list of a partitioning."""
    owner = [OPEN] * (net.num_vertices + 1)
    for i, block in enumerate(blocks):
        for v in block:
            owner[v] = i
    return owner


def assemble_plan(net, partitioning, partition_trees, reduction=None, cost_cfg=None):
    """The plan of a partitioning and its trees, costed under ``cost_cfg``.

    Tree ``i`` must cover exactly block ``i``.  Without a ``reduction``
    (leaf ``i`` standing for block ``i``), the fan-in tree is the
    deterministic greedy pass over the partition results.
    """
    blocks = partitioning.blocks
    k = len(blocks)
    if len(partition_trees) != k:
        raise PlanError(f"{k} blocks but {len(partition_trees)} partition trees")
    for i, t in enumerate(partition_trees):
        if blocks[i] != set(t.leaves()):
            raise PlanError(f"partition tree {i} does not cover exactly block {i}")
    cost_cfg = cost_cfg or CostConfig()
    entries, shared = leg_tables(net, [t.legs(t.root) for t in partition_trees])
    if reduction is None:
        reduction = reduction_path(FanInNetwork(entries, shared))
    local_costs = tuple(map(intra_metric(cost_cfg), partition_trees))
    cost = con_dist(reduction, None, cost_cfg, subtree_roots=range(k), local_costs=local_costs)
    return Plan(net, partitioning, tuple(partition_trees), reduction, cost_cfg, local_costs, cost,
                entries, shared, owner_map(net, blocks))


def build_plan(net, partitioning, cost_cfg=None):
    """Initial plan for a partitioning: greedy trees inside each partition
    and the greedy fan-in tree over the partition results, all deterministic."""
    ok, problems = validate(partitioning, net)
    if not ok:
        raise PlanError("invalid partitioning: " + "; ".join(problems))
    trees = [greedy_tree(net, block) for block in partitioning.blocks]
    return assemble_plan(net, partitioning, trees, cost_cfg=cost_cfg)


def serial_plan(net, cost_cfg=None, tree=None, cfg=None):
    """One-partition baseline: a single greedy tree over the whole network.

    A prebuilt ``tree`` is used as-is; otherwise ``greedy_tree`` searches
    with ``cfg`` (the deterministic pass without one).
    """
    if tree is None:
        tree = greedy_tree(net, cfg=cfg)
    return assemble_plan(net, Partitioning([net.vertices()]), [tree], cost_cfg=cost_cfg)


def _tree_doc(tree):
    return {"leaves": tree.leaves(), "pairs": [list(p) for p in tree.pairs()]}


def plan_to_dict(plan):
    return {
        "blocks": plan.partitioning.to_lists(),
        "partition_trees": [_tree_doc(t) for t in plan.partition_trees],
        "reduction_tree": _tree_doc(plan.reduction),
        "cost": plan.report.to_dict(),
    }


def plan_to_json(plan):
    return json.dumps(plan_to_dict(plan), sort_keys=True, indent=2)


def _read_tree(net, spec, leaf_set, leaves_error):
    """One document tree over exactly ``leaf_set``: an object of leaves and merge
    pairs, or the older nested form; both pass the same checks before ``from_pairs``."""
    if isinstance(spec, dict):
        leaves, pairs = spec.get("leaves"), spec.get("pairs")
        if not isinstance(leaves, list) or not isinstance(pairs, list):
            raise PlanError(f"a tree object needs 'leaves' and 'pairs' lists, got {sorted(spec)}")
    else:
        leaves, pairs = nested_to_pairs(spec, net.num_vertices)
    if any(type(v) is not int for v in leaves) or sorted(leaves) != leaf_set:
        raise PlanError(leaves_error)
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or any(type(x) is not int for x in pair):
            raise PlanError(f"a merge pair must be two integer node ids, got {pair!r}")
    return ContractionTree.from_pairs(net, pairs, leaves)


def plan_from_dict(net, doc, cost_cfg=None):
    """Rebuild a plan against ``net`` from its JSON document.

    The blocks must partition the network's vertices, partition tree
    ``i`` must cover exactly block ``i``, and the reduction tree's leaves
    must be exactly the block indices.  The plan is assembled from the
    stored parts and costed afresh, so a loaded plan is always internally
    consistent.
    """
    if not isinstance(doc, dict):
        raise PlanError(f"a plan document is a JSON object, got {type(doc).__name__}")
    try:
        blocks = doc["blocks"]
        tree_specs = doc["partition_trees"]
        reduction_spec = doc["reduction_tree"]
    except KeyError as exc:
        raise PlanError(f"plan document missing field {exc}") from exc
    if not isinstance(blocks, list) or not all(
        isinstance(b, list) and all(type(v) is int for v in b) and len(set(b)) == len(b)
        for b in blocks
    ):
        raise PlanError("blocks must be a list of lists of distinct integer vertex ids")
    # Older documents store the partitioner's balance bound: checked, then dropped.
    epsilon = doc.get("epsilon", 0)
    if not _is_number(epsilon) or epsilon < 0:
        raise PlanError(f"epsilon must be a finite number >= 0, got {epsilon!r}")
    part = Partitioning(blocks)
    ok, problems = validate(part, net)
    if not ok:
        raise PlanError("invalid partitioning: " + "; ".join(problems))
    k = len(part.blocks)
    if not isinstance(tree_specs, list):
        raise PlanError("partition_trees must be a list")
    if len(tree_specs) != k:
        raise PlanError(f"{k} blocks but {len(tree_specs)} partition trees")
    trees = [
        _read_tree(net, spec, sorted(part.blocks[i]),
                   f"partition tree {i} does not cover exactly block {i}")
        for i, spec in enumerate(tree_specs)
    ]
    reduction = _read_tree(
        reduction_network(net, [t.legs(t.root) for t in trees]), reduction_spec,
        list(range(k)), f"reduction tree leaves must be exactly the block indices 0..{k - 1}",
    )
    return assemble_plan(net, part, trees, reduction, cost_cfg)


def plan_from_json(net, text, cost_cfg=None):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"invalid JSON: {exc}") from exc
    return plan_from_dict(net, doc, cost_cfg)
