"""Distributed contraction plans: a partitioning plus all of its trees.

A plan holds the vertex partitioning, one contraction tree per partition,
the fan-in (reduction) structure joining the partition results, the
composed overall tree, and the cost report for the composed tree under
the partitioning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .costs import cost_report
from .partition import Partitioning, validate
from .pathfind import GreedyConfig, greedy_tree, random_greedy_tree, reduction_path
from .tree import ContractionTree, compose_plan_tree


class PlanError(ValueError):
    """Inconsistent plan document or plan construction failure."""


@dataclass
class Plan:
    network: object
    partitioning: Partitioning
    partition_trees: list
    reduction_nested: object
    tree: ContractionTree
    part_roots: list
    report: object

    @property
    def cost(self):
        return self.report.con_dist


def assemble_plan(net, partitioning, partition_trees, reduction_nested, cost_cfg=None):
    """Compose the full tree from parts and attach a cost report."""
    tree = compose_plan_tree(net, partition_trees, reduction_nested)
    roots = tree.subtree_roots(partitioning.blocks)
    if roots is None:
        raise PlanError("composed tree does not realize every partition as a subtree")
    report = cost_report(tree, partitioning.blocks, cost_cfg, subtree_roots=roots)
    return Plan(net, partitioning, list(partition_trees), reduction_nested, tree, roots, report)


def build_plan(net, partitioning, reduction_cfg=None, cost_cfg=None):
    """Initial plan for a partitioning: greedy trees inside each partition,
    a noisy-greedy fan-in path over the partition results."""
    ok, problems = validate(partitioning, net)
    if not ok:
        raise PlanError("invalid partitioning: " + "; ".join(problems))
    trees = [greedy_tree(net, block) for block in partitioning.blocks]
    legs = [t.legs(t.root) for t in trees]
    reduction = reduction_path(net, legs, cfg=reduction_cfg or GreedyConfig())
    return assemble_plan(net, partitioning, trees, reduction.to_nested(), cost_cfg)


def serial_plan(net, cost_cfg=None, tree=None, cfg=None):
    """One-partition baseline: a single greedy tree over the whole network.

    A prebuilt ``tree`` is used as-is.  Otherwise a ``cfg`` selects the
    best-of-samples noisy greedy search, and without one the deterministic
    greedy pass runs.
    """
    part = Partitioning([frozenset(net.vertices())], epsilon=0.0)
    if tree is None:
        tree = greedy_tree(net) if cfg is None else random_greedy_tree(net, cfg=cfg)
    return assemble_plan(net, part, [tree], 0, cost_cfg)


def plan_to_dict(plan):
    return {
        "blocks": plan.partitioning.to_lists(),
        "epsilon": plan.partitioning.epsilon,
        "partition_trees": [t.to_nested() for t in plan.partition_trees],
        "reduction_tree": plan.reduction_nested,
        "tree": plan.tree.to_nested(),
        "cost": plan.report.to_dict(),
    }


def plan_to_json(plan):
    return json.dumps(plan_to_dict(plan), sort_keys=True, indent=2)


def _nested_leaves(spec):
    if isinstance(spec, (list, tuple)):
        return [v for child in spec for v in _nested_leaves(child)]
    return [spec]


def plan_from_dict(net, doc, cost_cfg=None):
    """Rebuild a plan against ``net`` from its JSON document.

    The blocks must partition the network's vertices and the reduction
    tree's leaves must be exactly the block indices.  The composed tree is
    rebuilt from the stored parts and the cost report is recomputed, so a
    loaded plan is always internally consistent.
    """
    try:
        blocks = doc["blocks"]
        nested_trees = doc["partition_trees"]
        reduction = doc["reduction_tree"]
    except KeyError as exc:
        raise PlanError(f"plan document missing field {exc}") from exc
    part = Partitioning(blocks, float(doc.get("epsilon", 0.03)))
    ok, problems = validate(part, net)
    if not ok:
        raise PlanError("invalid partitioning: " + "; ".join(problems))
    k = len(part.blocks)
    if len(nested_trees) != k:
        raise PlanError(f"{k} blocks but {len(nested_trees)} partition trees")
    leaves = _nested_leaves(reduction)
    if not all(type(v) is int for v in leaves) or sorted(leaves) != list(range(k)):
        raise PlanError(f"reduction tree leaves must be exactly the block indices 0..{k - 1}")
    trees = []
    for i, nested in enumerate(nested_trees):
        t = ContractionTree.from_nested(net, nested)
        if set(t.leaves()) != set(part.blocks[i]):
            raise PlanError(f"partition tree {i} does not cover exactly block {i}")
        trees.append(t)
    return assemble_plan(net, part, trees, reduction, cost_cfg)


def plan_from_json(net, text, cost_cfg=None):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"invalid JSON: {exc}") from exc
    return plan_from_dict(net, doc, cost_cfg)
