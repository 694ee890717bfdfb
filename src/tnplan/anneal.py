"""Simulated-annealing refinement of partitioned contraction plans.

The neighborhood move picks a random subtree of a random partition's
contraction tree and migrates its leaf tensors to another partition,
chosen either uniformly (naive) or by the pair objective between the
moved tensor and each candidate partition's result tensor (directed).
Both affected partitions get fresh greedy trees, the fan-in tree is
rebuilt by one deterministic greedy pass over tables the plan carries,
and the candidate is re-costed.  A candidate's cost is therefore a
function of its partition trees, and so, once every tree is a greedy one,
of its partitioning alone.

The search runs over ``plan.Plan``s, the one costed-plan type.  A plan
carries the exact integers of its partition results
(``pathfind.leg_tables``): each result's entry count and, per pair of
partitions, the product of the dimensions they share.  A move changes two
partitions, so a proposal recomputes only their two rows, from the root
legs of their new trees and a vertex -> partition map, and seeds the
fan-in pass with the tables through ``pathfind.FanInNetwork``, with no
scan of the other partitions' legs.  The directed target is sized from
the same tables.

A proposal is costed under ``con_dist`` on the k-leaf fan-in tree: each
partition's local cost comes from its own tree, and its fan-in from the
reduction tree's contractions and transfers, which are those of the
composed tree.  A proposal therefore never builds the full tree over all
tensors; a plan composes it on first read of ``tree`` or ``report``,
which in a run only the invariant checks and the reader of the returned
plan do.  ``anneal`` first recosts its input under ``cfg.cost`` with
``state_to_plan``, which returns a plan already costed so unchanged.

Acceptance uses the cost ratio rather than the difference, so the
schedule is insensitive to the absolute scale of the cost metric:
P(accept) = exp(-log(c_new / c_current) / T), with values above 1
meaning certain acceptance.  The temperature decays exponentially from
t0 to tf over the configured budget, which may be wall-clock seconds or
a fixed iteration count; only the latter is bit-reproducible, since the
iteration tally of a timed run depends on machine speed.

Each iteration runs the same starting state through ``workers`` replicas
in turn, with seeds derived from (seed, iteration, worker); the best
replica result wins, with ties going to the lowest worker index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Unused by name but kept: perfbench's tracer wraps dims_product and
# compose_plan_tree, and _intra looks con_par and con_serial up in globals().
from .costs import (  # noqa: F401
    CostConfig, con_par, con_serial, con_dist, dims_product, intra_metric, rounded_count,
)
from .network import OPEN
from .partition import Partitioning, validate
from .pathfind import FanInNetwork, greedy_tree, leg_tables, reduction_path
from .plan import Plan, assemble_plan, owner_map
from .tree import compose_plan_tree  # noqa: F401


class NoMoveError(RuntimeError):
    """No partition has a movable proper subtree."""


@dataclass
class AnnealConfig:
    """Annealing settings.

    The temperatures are finite with 0 < tf <= t0.  ``time_limit`` is
    finite, and positive unless ``max_iters`` sets the budget.
    ``threads`` is kept for compatibility and has no effect: the replicas
    run one after another in the calling thread.
    """

    t0: float = 1.0
    tf: float = 0.001
    steps: int = 64
    workers: int = 4
    time_limit: float = 10.0
    max_iters: int = 0
    restart_threshold: int = 20
    mode: str = "naive"
    seed: int = 0
    cost: CostConfig = field(default_factory=CostConfig)
    threads: int = 1
    check_invariants: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.tf) and 0 < self.tf <= self.t0):
            raise ValueError(
                f"temperatures must be finite with 0 < tf <= t0, got t0={self.t0!r}, tf={self.tf!r}"
            )
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mode not in ("naive", "directed"):
            raise ValueError(f"mode must be 'naive' or 'directed', got {self.mode!r}")
        if not math.isfinite(self.time_limit):
            raise ValueError(f"time_limit must be finite, got {self.time_limit!r}")
        if self.max_iters <= 0 and self.time_limit <= 0:
            raise ValueError("either max_iters or a positive time_limit is required")
        if self.restart_threshold < 1:
            raise ValueError("restart_threshold must be >= 1")


def acceptance_probability(current, candidate, temperature):
    """Scale-free Metropolis rule on the cost ratio.

    Returns exp(-log(candidate / current) / temperature); anything >= 1
    means the move is always taken.  Costs and temperature must be
    positive.
    """
    if current <= 0 or candidate <= 0:
        raise ValueError(f"costs must be positive, got {current} -> {candidate}")
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    # Log difference rather than log of the quotient: the quotient can
    # under- or overflow for extreme cost ratios.
    exponent = (math.log(current) - math.log(candidate)) / temperature
    if exponent > 700.0:
        return math.inf
    return math.exp(exponent)


def temperature_at(progress, cfg):
    """Exponential schedule from t0 to tf as progress runs from 0 to 1."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must lie in [0, 1], got {progress}")
    return cfg.t0 * (cfg.tf / cfg.t0) ** progress


def _intra(cfg):
    """``intra_metric``'s choice, resolved through this module's names so a
    wrapper bound here (the benchmark's tracer wraps ``con_serial``) sees
    every partition costing."""
    return globals()[intra_metric(cfg.cost).__name__]


def state_to_plan(net, plan, cost_cfg=None):
    """``plan`` costed under ``cost_cfg``: the plan itself when it already is,
    else a plan assembled afresh from its parts."""
    cost_cfg = cost_cfg or CostConfig()
    if plan.cost_cfg == cost_cfg:
        return plan
    return assemble_plan(net, plan.partitioning, plan.partition_trees, plan.reduction, cost_cfg)


def select_target_naive(n_blocks, k_src, rng):
    """Uniform choice among the other partitions."""
    others = [k for k in range(n_blocks) if k != k_src]
    return others[int(rng.integers(len(others)))]


def result_row(net, owner, own, legs):
    """The exact entry count and shared products of a tensor over vertices of
    partition ``own`` with legs ``legs``.

    Returns (E, {j: X}): E is the product of the legs' dimensions and X,
    for each partition ``j``, the product over the legs whose far end lies
    in ``j``.  A leg's far end is its end outside ``own``, or in ``own`` when
    both ends are; open ends count for no partition.  For a partition's
    root legs this is its ``leg_tables`` row; for a subtree's legs ``own``
    itself may appear.
    """
    dims = net.edge_dims
    entries = 1
    row = {}
    for e in legs:
        d = dims[e]
        entries *= d
        (u, _), (v, _) = net.edge(e).ends
        j = owner[u]
        if j == own:
            j = owner[v]
        if j != OPEN:
            row[j] = row.get(j, 1) * d
    return entries, row


def select_target_directed(entries, k_src, moved_entries, moved_shared):
    """Partition whose result tensor pairs best with the moved tensor.

    Maximizes |moved| + |target| - |moved . target| over targets; ties go
    to the lowest partition index.  Sizes come from exact entry counts,
    each rounded once as ``dims_product`` rounds it: ``entries[t]`` for
    target ``t``, ``moved_entries`` for the moved tensor, and
    E_moved * E_t / X**2 for their product, where X is ``moved_shared``'s
    product for ``t`` (see ``result_row``), or 1.
    """
    moved_size = rounded_count(moved_entries)
    best_k = None
    best_obj = -math.inf
    for k, dest in enumerate(entries):
        if k == k_src:
            continue
        x = moved_shared.get(k, 1)
        result = rounded_count(moved_entries * dest // (x * x))
        obj = moved_size + rounded_count(dest) - result
        if obj > best_obj:
            best_obj = obj
            best_k = k
    return best_k


def _movable_blocks(blocks):
    return [i for i, b in enumerate(blocks) if len(b) >= 2]


def select_neighbor(net, state, cfg, rng):
    """One rebalancing move: migrate a random subtree's tensors, rebuild, re-cost."""
    blocks = state.partitioning.blocks
    eligible = _movable_blocks(blocks)
    if len(blocks) < 2 or not eligible:
        raise NoMoveError("no partition exposes a movable proper subtree")
    k_src = eligible[int(rng.integers(len(eligible)))]
    src_tree = state.partition_trees[k_src]
    # Listed by tree shape alone, so the move does not depend on node ids.
    candidates = src_tree.leaves() + src_tree.internal_nodes()[:-1]
    node = candidates[int(rng.integers(len(candidates)))]
    moved = frozenset(src_tree.subtree_leaf_tensors(node))

    if cfg.mode == "directed":
        moved_entries, moved_shared = result_row(net, state.owner, k_src, src_tree.legs(node))
        k_dst = select_target_directed(state.entries, k_src, moved_entries, moved_shared)
    else:
        k_dst = select_target_naive(len(blocks), k_src, rng)

    new_blocks = list(blocks)
    new_blocks[k_src] = blocks[k_src] - moved
    new_blocks[k_dst] = blocks[k_dst] | moved
    partitioning = Partitioning(new_blocks)
    owner = list(state.owner)
    for v in moved:
        owner[v] = k_dst

    trees = list(state.partition_trees)
    intra = _intra(cfg)
    local_costs = list(state.local_costs)
    entries = list(state.entries)
    shared = list(state.shared)
    pair = (k_src, k_dst)
    stale = set(shared[k_src]).union(shared[k_dst])
    for i in pair:
        t = trees[i] = greedy_tree(net, new_blocks[i])
        local_costs[i] = intra(t)
        entries[i], shared[i] = result_row(net, owner, i, t.legs(t.root))
        stale.update(shared[i])
    # Every other row changes only in its entries for the moved pair.
    for j in stale.difference(pair):
        row = shared[j] = dict(shared[j])
        for i in pair:
            x = shared[i].get(j)
            if x is None:
                row.pop(i, None)
            else:
                row[i] = x
    reduction = reduction_path(FanInNetwork(entries, shared))
    cost = con_dist(reduction, None, cfg.cost, subtree_roots=range(len(trees)), local_costs=local_costs)
    candidate = Plan(net, partitioning, tuple(trees), reduction, cfg.cost, tuple(local_costs), cost,
                     entries, shared, owner)

    if cfg.check_invariants:
        ok, problems = validate(partitioning, net)
        assert ok, f"move produced an invalid partitioning: {problems}"
        assert candidate.tree.accepts_partitioning(new_blocks)
        for i, t in enumerate(trees):
            assert set(t.leaves()) == set(new_blocks[i])
        assert moved and moved != blocks[k_src]
        assert owner == owner_map(net, new_blocks)
        assert [entries, shared] == list(leg_tables(net, [t.legs(t.root) for t in trees]))
        fresh = con_dist(candidate.tree, new_blocks, cfg.cost)
        assert candidate.cost == fresh, f"cached cost {candidate.cost} but the tree costs {fresh}"

    return candidate


def do_steps(net, n, state, temperature, cfg, rng):
    """Run ``n`` sequential proposals at a fixed temperature; returns the end state."""
    current = state
    for _ in range(n):
        try:
            candidate = select_neighbor(net, current, cfg, rng)
        except NoMoveError:
            break
        if acceptance_probability(current.cost, candidate.cost, temperature) >= rng.random():
            current = candidate
    return current


def _worker_rng(seed, iteration, worker):
    entropy = seed & ((1 << 128) - 1)
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(iteration, worker)))


@dataclass
class AnnealResult:
    best: Plan
    trace: list
    iterations: int


def anneal(net, plan, cfg=None):
    """Refine a plan; returns the best plan ever visited plus a trace.

    Every iteration restarts ``workers`` seeded replicas from the current
    state, each running ceil(steps / workers) proposals at the current
    temperature, and adopts the cheapest outcome.  When the adopted state
    has not improved on the best for ``restart_threshold`` iterations,
    the search resumes from the best state.  The trace logs one record
    per iteration.
    """
    cfg = cfg or AnnealConfig()
    best = current = state_to_plan(net, plan, cfg.cost)
    if len(best.partitioning.blocks) < 2 or not _movable_blocks(best.partitioning.blocks):
        return AnnealResult(best, [], 0)

    n_per = math.ceil(cfg.steps / cfg.workers)
    trace = []
    i = -1
    i_best = -1
    started = perf_counter()
    while True:
        if cfg.max_iters > 0:
            if i + 1 >= cfg.max_iters:
                break
            progress = (i + 1) / cfg.max_iters
        else:
            elapsed = perf_counter() - started
            if elapsed >= cfg.time_limit:
                break
            progress = elapsed / cfg.time_limit
        i += 1
        temperature = temperature_at(progress, cfg)
        replicas = [
            do_steps(net, n_per, current, temperature, cfg, _worker_rng(cfg.seed, i, w))
            for w in range(cfg.workers)
        ]
        current = min(replicas, key=lambda s: s.cost)  # ties: lowest worker

        improved = restarted = False
        if current.cost < best.cost:
            best = current
            i_best = i
            improved = True
        elif i - i_best >= cfg.restart_threshold:
            current = best
            i_best = i
            restarted = True
        trace.append(
            {
                "iteration": i,
                "temperature": temperature,
                "cost": current.cost,
                "best": best.cost,
                "improved": improved,
                "restarted": restarted,
            }
        )
    return AnnealResult(best, trace, i + 1)


def refine_plan(net, plan, cfg=None):
    """Anneal a plan and return (refined plan, trace)."""
    result = anneal(net, plan, cfg)
    return result.best, result.trace
