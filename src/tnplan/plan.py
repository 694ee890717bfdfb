"""Distributed contraction plans: a partitioning plus all of its trees.

A plan holds the vertex partitioning, one contraction tree per partition,
the fan-in (reduction) tree joining the partition results, the composed
overall tree, and the cost report for the composed tree under the
partitioning.  ``build_plan`` makes every tree by one deterministic greedy
pass; only ``serial_plan`` takes a noisy multi-sample search.

A plan document stores each partition tree and the reduction tree as
``{"leaves": [...], "pairs": [[x, y], ...]}``, the ids ``from_pairs``
uses: a leaf is a vertex id (a partition index in the reduction tree)
and merge ``j`` is node ``num_vertices + j`` (``k + j`` over ``k``
partitions).  Loading rebuilds the composed tree; older documents with
nested-list trees still load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .costs import cost_report
from .network import _is_number
from .partition import Partitioning, validate
from .pathfind import greedy_tree, reduction_network, reduction_path
from .tree import ContractionTree, compose_plan_tree, nested_to_pairs


class PlanError(ValueError):
    """Inconsistent plan document or plan construction failure."""


@dataclass
class Plan:
    network: object
    partitioning: Partitioning
    partition_trees: list
    reduction: ContractionTree
    tree: ContractionTree
    part_roots: list
    report: object

    @property
    def cost(self):
        return self.report.con_dist


def assemble_plan(net, partitioning, partition_trees, reduction, cost_cfg=None):
    """Compose the full tree from parts and attach a cost report."""
    tree = compose_plan_tree(net, partition_trees, reduction)
    roots = tree.subtree_roots(partitioning.blocks)
    if roots is None:
        raise PlanError("composed tree does not realize every partition as a subtree")
    report = cost_report(tree, partitioning.blocks, cost_cfg, subtree_roots=roots)
    return Plan(net, partitioning, list(partition_trees), reduction, tree, roots, report)


def build_plan(net, partitioning, cost_cfg=None):
    """Initial plan for a partitioning: greedy trees inside each partition
    and the greedy fan-in tree over the partition results, all deterministic."""
    ok, problems = validate(partitioning, net)
    if not ok:
        raise PlanError("invalid partitioning: " + "; ".join(problems))
    trees = [greedy_tree(net, block) for block in partitioning.blocks]
    reduction = reduction_path(reduction_network(net, [t.legs(t.root) for t in trees]))
    return assemble_plan(net, partitioning, trees, reduction, cost_cfg)


def serial_plan(net, cost_cfg=None, tree=None, cfg=None):
    """One-partition baseline: a single greedy tree over the whole network.

    A prebuilt ``tree`` is used as-is; otherwise ``greedy_tree`` searches
    with ``cfg`` (the deterministic pass without one).
    """
    part = Partitioning([net.vertices()])
    if tree is None:
        tree = greedy_tree(net, cfg=cfg)
    reduction = reduction_path(reduction_network(net, [tree.legs(tree.root)]))
    return assemble_plan(net, part, [tree], reduction, cost_cfg)


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
    must be exactly the block indices.  The composed tree is rebuilt from
    the stored parts and the cost report is recomputed, so a loaded plan
    is always internally consistent.
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
