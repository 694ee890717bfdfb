"""Distributed contraction plans: one costed type for a partitioning and its trees.

A ``Plan`` holds the vertex partitioning, one contraction tree per
partition, the fan-in (reduction) tree joining the partition results, and
its ``con_dist`` cost under a ``CostConfig``.  The fan-in tree's network,
a ``pathfind.FanInNetwork``, holds the exact tables of the partition
results, read off the blocks' vertex rows (see ``pathfind``), and
``Plan.owner``, the vertex -> partition map, lets ``pathfind`` update them
move by move.  A plan is costed once, its fan-in tree's merges replayed
through ``costs.FaninSums`` as a proposal's fan-in pass is, and its report
reuses that costing per partition.  The composed tree over all tensors
and the report are built on first read.
``assemble_plan`` makes every plan but the annealer's proposals, with a
fan-in tree from given merge pairs or the deterministic greedy pass, and
``state_to_plan`` recosts a plan's trees.  ``build_plan`` makes every tree
by one deterministic greedy pass; only ``serial_plan`` takes a noisy
multi-sample search.

A plan document stores each partition tree and the reduction tree as
``{"leaves": [...], "pairs": [[x, y], ...]}``, the ids ``from_pairs``
uses: a leaf is a vertex id (a partition index in the reduction tree)
and merge ``j`` is node ``num_vertices + j`` (``k + j`` over ``k``
partitions).  Loading rebuilds the plan from these parts; older documents
with nested-list trees still load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property

from .costs import (
    CostConfig, CostReport, FaninSums, PartitionCost, con_par, con_serial, intra_metric, is_saturated,
    legs_size, mem_cost, node_ops,
)
from .network import _is_number
from .partition import Partitioning, owner_map, validate
from .pathfind import greedy_tree, reduction_network, reduction_path
from .tree import ContractionTree, compose_plan_tree, nested_to_pairs


class PlanError(ValueError):
    """Inconsistent plan document or plan construction failure."""


@dataclass(frozen=True, eq=False)
class Plan:
    """A partitioning with its trees, costed under ``cost_cfg``.

    ``reduction`` is the fan-in tree whose leaf ``i`` stands for partition
    ``i``; its network is the ``FanInNetwork`` of the blocks' exact rows.
    ``local_costs[i]`` is partition ``i``'s own cost (per ``cost_cfg.intra_node``),
    ``fanin_costs[i]`` its fan-in on ``reduction``, and ``cost`` is ``con_dist``
    of the plan, the slowest partition's sum of the two.

    ``owner[v]`` is the partition of vertex ``v``, one entry per vertex.
    Plans share these lists and tables and never edit them.
    """

    network: object
    partitioning: Partitioning
    partition_trees: tuple
    reduction: ContractionTree
    cost_cfg: CostConfig
    local_costs: tuple
    fanin_costs: tuple
    cost: float
    owner: list

    @cached_property
    def tree(self):
        return compose_plan_tree(self.network, self.partition_trees, self.reduction)

    @cached_property
    def part_roots(self):
        return self.tree.subtree_roots(self.partitioning.blocks)

    @cached_property
    def report(self):
        """Whole-tree metrics of the composed tree, and the per-partition
        split of the fan-in costing that ``cost`` came from."""
        tree = self.tree
        parts = [PartitionCost(i, *p) for i, p in enumerate(zip(self.local_costs, self.fanin_costs))]
        return CostReport(mem=mem_cost(tree), con_serial=con_serial(tree), con_par=con_par(tree),
                          con_dist=self.cost, per_partition=parts, saturated=is_saturated(tree))


def _costed(trees, reduction, cost_cfg):
    """The local and fan-in costs of ``trees`` and the plan's ``con_dist``: the
    fan-in tree's merges replayed, with their memoized figures, through a
    ``FaninSums`` that never stops."""
    local_costs = tuple(map(intra_metric(cost_cfg), trees))
    sums = FaninSums(cost_cfg, local_costs, lambda bound: False)
    for node, (i, j) in enumerate(reduction.pairs(), len(trees)):  # fan-in merge ids follow the k leaves
        sums(i, j, node_ops(reduction, node), legs_size(reduction, i), legs_size(reduction, j))
    return local_costs, tuple(sums.fanin), sums.bound


def assemble_plan(net, partitioning, partition_trees, reduction_pairs=None, cost_cfg=None):
    """The plan of a partitioning and its trees, costed under ``cost_cfg``.

    Tree ``i`` must cover exactly block ``i``.  The fan-in tree is built over
    the ``FanInNetwork`` of the blocks' rows: from ``reduction_pairs``,
    merge pairs over leaves ``0..k-1`` numbered from ``k``, or else by the
    deterministic greedy pass over the partition results.
    """
    blocks = partitioning.blocks
    k = len(blocks)
    if len(partition_trees) != k:
        raise PlanError(f"{k} blocks but {len(partition_trees)} partition trees")
    for i, t in enumerate(partition_trees):
        if blocks[i] != set(t.leaf_order):
            raise PlanError(f"partition tree {i} does not cover exactly block {i}")
    cost_cfg = cost_cfg or CostConfig()
    owner = owner_map(net, blocks)
    fanin = reduction_network(net, owner, blocks)
    if reduction_pairs is None:
        reduction = reduction_path(fanin)
    else:
        reduction = ContractionTree.from_pairs(fanin, reduction_pairs, list(range(k)))
    return Plan(net, partitioning, tuple(partition_trees), reduction, cost_cfg,
                *_costed(partition_trees, reduction, cost_cfg), owner)


def state_to_plan(net, plan, cost_cfg=None):
    """``plan`` costed under ``cost_cfg`` from its own trees; the plan itself when it already is."""
    cost_cfg = cost_cfg or CostConfig()
    if plan.cost_cfg == cost_cfg:
        return plan
    local_costs, fanin_costs, cost = _costed(plan.partition_trees, plan.reduction, cost_cfg)
    return replace(plan, cost_cfg=cost_cfg, local_costs=local_costs, fanin_costs=fanin_costs, cost=cost)


def build_plan(net, partitioning, cost_cfg=None):
    """Initial plan for a partitioning: greedy trees inside each partition
    and the greedy fan-in tree over the partition results, all deterministic."""
    ok, problems = validate(partitioning, net)
    if not ok:
        raise PlanError("invalid partitioning: " + "; ".join(problems))
    trees = [greedy_tree(net, block) for block in partitioning.blocks]
    return assemble_plan(net, partitioning, trees, cost_cfg=cost_cfg)


def serial_plan(net, cost_cfg=None, cfg=None):
    """One-partition baseline: a single greedy tree over the whole network,
    searched with ``cfg`` (the deterministic pass without one)."""
    tree = greedy_tree(net, cfg=cfg)
    return assemble_plan(net, Partitioning([net.vertices()]), [tree], cost_cfg=cost_cfg)


def _tree_doc(tree):
    return {"leaves": list(tree.leaf_order), "pairs": [list(p) for p in tree.pairs()]}


def plan_to_dict(plan):
    return {
        "blocks": plan.partitioning.to_lists(),
        "partition_trees": [_tree_doc(t) for t in plan.partition_trees],
        "reduction_tree": _tree_doc(plan.reduction),
        "cost": plan.report.to_dict(),
    }


def plan_to_json(plan):
    return json.dumps(plan_to_dict(plan), sort_keys=True, indent=2)


def _read_tree(spec, leaf_set, first_id, leaves_error):
    """The leaves and merge pairs of one document tree over exactly ``leaf_set``:
    an object of both, or the older nested form with merges numbered from
    ``first_id``; both pass the same checks."""
    if isinstance(spec, dict):
        leaves, pairs = spec.get("leaves"), spec.get("pairs")
        if not isinstance(leaves, list) or not isinstance(pairs, list):
            raise PlanError(f"a tree object needs 'leaves' and 'pairs' lists, got {sorted(spec)}")
    else:
        leaves, pairs = nested_to_pairs(spec, first_id)
    if any(type(v) is not int for v in leaves) or sorted(leaves) != leaf_set:
        raise PlanError(leaves_error)
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or any(type(x) is not int for x in pair):
            raise PlanError(f"a merge pair must be two integer node ids, got {pair!r}")
    return leaves, pairs


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
    trees = []
    for i, spec in enumerate(tree_specs):
        leaves, pairs = _read_tree(spec, sorted(part.blocks[i]), net.num_vertices,
                                   f"partition tree {i} does not cover exactly block {i}")
        trees.append(ContractionTree.from_pairs(net, pairs, leaves))
    _, pairs = _read_tree(reduction_spec, list(range(k)), k,
                          f"reduction tree leaves must be exactly the block indices 0..{k - 1}")
    return assemble_plan(net, part, trees, pairs, cost_cfg)


def plan_from_json(net, text, cost_cfg=None):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"invalid JSON: {exc}") from exc
    return plan_from_dict(net, doc, cost_cfg)
