"""Simulated-annealing refinement of partitioned contraction plans.

The neighborhood move picks a random subtree of a random partition's
contraction tree and migrates its leaf tensors to another partition,
chosen either uniformly (naive) or by the pair objective between the
moved tensor and each candidate partition's result tensor (directed).
Both affected partitions get fresh greedy trees, the fan-in tree is
rebuilt by one deterministic greedy pass, and the candidate is
re-costed.  A candidate's cost is therefore a function of its partition
trees, and so, once every tree is a greedy one, of its partitioning
alone.

The search runs over ``plan.Plan``s, the one costed-plan type.  A plan's
fan-in network carries the exact tables of its partition results and the
heap keys of its fan-in pass; a move asks ``pathfind`` for the directed
target and for the candidate's fan-in network (``FanInNetwork.after_move``),
and never reads the tables itself.

A proposal reads the tree structure of its source partition (its memoized
orders, and the moved subtree's leaves), the network's cached vertex rows
(``vertex_row``: each tensor's exact entry count and its products shared
with each neighbour) and the figures its greedy passes memoize; it builds
no leg set.  In both modes it computes the moved set's row
(``vertex_set_row``) once, and the directed target and the destination's
new fan-in row both read it.  Its trees derive legs only when something
reads them, such as the executor.

A proposal is costed under ``con_dist`` on the k-leaf fan-in tree: each
partition's local cost comes from its own tree, and its fan-in from the
reduction tree's contractions and transfers, which are those of the
composed tree.  A proposal therefore never builds the full tree over all
tensors; a plan composes it on first read of ``tree`` or ``report``,
which in a run only the reader of the returned plan does.  The fan-in
tree reads no partition tree, so a proposal builds it first, costing it
merge by merge (``costs.FaninSums``) with the two changed partitions'
local costs at 0: a lower bound on the candidate's cost.  A move that
changes no fan-in table replays its parent's fan-in pass instead.
``anneal`` first recosts its input under ``cfg.cost`` with
``plan.state_to_plan``, which keeps the plan's trees and only recosts
them.

Acceptance uses the cost ratio rather than the difference, so the
schedule is insensitive to the absolute scale of the cost metric:
P(accept) = exp(-log(c_new / c_current) / T), with values above 1
meaning certain acceptance.  ``select_neighbor`` takes its settings and
temperature in a ``Step`` and makes the test itself, with one uniform
draw right after the move's draws.  A lower bound that fails the test,
during the fan-in pass or after the source partition's pass, rejects the
proposal there; since the draw and the decision are those of the full
candidate, a fixed seed and budget give the same walk either way.  The
temperature decays exponentially from t0 to tf over the configured
budget, which may be wall-clock seconds or a fixed iteration count; only
the latter is bit-reproducible, since the iteration tally of a timed run
depends on machine speed.

Each iteration runs the same starting state through ``workers`` replicas
in turn, with seeds derived from (seed, iteration, worker); the best
replica result wins, with ties going to the lowest worker index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Unused by name but kept: perfbench's tracer wraps con_dist, dims_product
# and compose_plan_tree, and _intra looks con_par and con_serial up in globals().
from .costs import (  # noqa: F401
    CostConfig, FaninSums, con_par, con_serial, con_dist, dims_product, intra_metric, slowest,
)
from .partition import Partitioning
from .pathfind import greedy_tree, reduction_path, select_target_directed, vertex_set_row
from .plan import Plan, state_to_plan
from .tree import compose_plan_tree  # noqa: F401


class NoMoveError(RuntimeError):
    """No partition has a movable proper subtree."""


@dataclass
class AnnealConfig:
    """Annealing settings.

    The temperatures are finite with 0 < tf <= t0.  ``max_iters`` is
    >= 0; 0 anneals by ``time_limit``, which is finite, and positive
    unless ``max_iters`` sets the budget.
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
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters!r}")
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
    if not (current > 0 and candidate > 0):  # NaN fails too
        raise ValueError(f"costs must be positive, got {current} -> {candidate}")
    if not temperature > 0:
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


def select_target_naive(n_blocks, k_src, rng):
    """Uniform choice among the other partitions."""
    others = [k for k in range(n_blocks) if k != k_src]
    return others[int(rng.integers(len(others)))]


def _movable_blocks(blocks):
    return [i for i, b in enumerate(blocks) if len(b) >= 2]


@dataclass(frozen=True)
class Step:
    """``select_neighbor``'s settings at one temperature; an infinite
    temperature makes its Metropolis test accept every candidate."""

    cfg: AnnealConfig
    temperature: float


# Early rejection needs the bound's acceptance probability under the draw by
# this relative margin, which covers the rounding of log and exp.
_REJECT_MARGIN = 1.0 - 2.0 ** -40


def select_neighbor(net, state, step, rng):
    """One rebalancing move: migrate a random subtree's tensors, rebuild, re-cost.

    Draws the Metropolis ``u`` right after the move's draws and returns
    the candidate if the test at ``step.temperature`` accepts it, else
    None.  It rejects outright as soon as a lower bound on the candidate's
    cost, its fan-in with the unbuilt partitions' local costs at 0, fails
    the test: during the fan-in pass or between the partition passes.
    Either way the generator ends where it would after the full proposal
    and its draw.
    """
    cfg = step.cfg
    blocks = state.partitioning.blocks
    eligible = _movable_blocks(blocks)
    if len(blocks) < 2 or not eligible:
        raise NoMoveError("no partition exposes a movable proper subtree")
    k_src = eligible[int(rng.integers(len(eligible)))]
    src_tree = state.partition_trees[k_src]
    # The sorted leaves, then the internal nodes in postorder without the
    # root: listed by tree shape alone, so the move does not depend on node ids.
    leaves, internal = src_tree.leaf_order, src_tree.internal_order
    c = int(rng.integers(len(leaves) + len(internal) - 1))
    node = leaves[c] if c < len(leaves) else internal[c - len(leaves)]
    moved = src_tree.subtree_leaf_tensors(node)
    moved_row = vertex_set_row(net, state.owner, moved)
    fanin = state.reduction.network

    if cfg.mode == "directed":
        k_dst = select_target_directed(fanin, k_src, moved_row)
    else:
        k_dst = select_target_naive(len(blocks), k_src, rng)
    u = rng.random()

    new_blocks = list(blocks)
    new_blocks[k_src] = blocks[k_src] - moved
    new_blocks[k_dst] = blocks[k_dst] | moved
    owner = list(state.owner)
    for v in moved:
        owner[v] = k_dst

    def rejected(bound):  # a lower bound on the cost already fails the test
        return bound > state.cost and (
            acceptance_probability(state.cost, bound, step.temperature) < u * _REJECT_MARGIN)

    # The fan-in network reads the partition trees' legs only when asked,
    # so the two changed trees can be filled in after its tree is built.
    trees = list(state.partition_trees)
    local_costs = list(state.local_costs)
    local_costs[k_src] = local_costs[k_dst] = 0.0
    sums = FaninSums(cfg.cost, local_costs, rejected)
    reduction = reduction_path(fanin.after_move(net, owner, new_blocks, trees, k_src, k_dst, moved_row), sums)
    if reduction is None:
        return None
    intra = _intra(cfg)
    for i in (k_src, k_dst):  # the bound, i's local cost still 0, is tested before each pass
        if rejected(slowest(zip(local_costs, sums.fanin))):
            return None
        t = trees[i] = greedy_tree(net, new_blocks[i])
        local_costs[i] = intra(t)
    cost = slowest(zip(local_costs, sums.fanin))
    if acceptance_probability(state.cost, cost, step.temperature) < u:
        return None
    return Plan(net, Partitioning(new_blocks), tuple(trees), reduction, cfg.cost, tuple(local_costs),
                tuple(sums.fanin), cost, owner)


def do_steps(net, n, state, temperature, cfg, rng):
    """Run ``n`` sequential proposals at a fixed temperature; returns the end state.

    Each proposal is one ``select_neighbor`` call with a ``Step`` of
    ``cfg`` at ``temperature``, which makes the Metropolis test itself;
    the walk moves to every candidate it returns.
    """
    step = Step(cfg, temperature)
    current = state
    for _ in range(n):
        try:
            candidate = select_neighbor(net, current, step, rng)
        except NoMoveError:
            break
        if candidate is not None:
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
    """Anneal a plan and return (refined plan, trace).

    Callers in the package call ``anneal``; this stays because
    ``perfbench/make_fixture.py`` imports it.
    """
    result = anneal(net, plan, cfg)
    return result.best, result.trace
