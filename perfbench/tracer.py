"""In-memory span tracer that wraps tnplan functions where they are called.

Every wrapped call records one span: name, start, end and the index of the
span that was open when it began (its parent).  Spans stay in a list until
the run ends.  Hot helpers that run hundreds of thousands of times per
second (``dims_product``) are only counted, never spanned.

Wrapping happens at the call site: a module's global binding is replaced,
so ``tnplan.anneal.reduction_path`` and ``tnplan.plan.reduction_path`` are
separate wrappers over the same function.  Modules are resolved with
``importlib.import_module`` because ``tnplan/__init__.py`` re-exports the
function ``anneal``, which shadows the ``tnplan.anneal`` submodule
attribute.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans and counters for one traced run; ``restore`` undoes every wrap."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self._open = []
        self._undo = []

    def start(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)

    def stop(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self.start(name)
        try:
            yield
        finally:
            self.stop()

    def timed(self, name, fn):
        def wrapper(*args, **kwargs):
            self.start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stop()

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def inclusive_seconds(self):
        """Total duration of the spans of each name."""
        out = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def span_counts(self):
        out = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def self_seconds(self):
        """Per name: span durations minus the durations of their direct children."""
        out = self.inclusive_seconds()
        for name, start, end, parent in self.spans:
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out

    def seconds_under(self, ancestor):
        """Inclusive seconds per name, counting only spans nested inside ``ancestor`` spans."""
        inside = []
        out = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            under = parent >= 0 and (self.spans[parent][0] == ancestor or inside[parent])
            inside.append(under)
            if under:
                out[name] += end - start
        return out


def _leg_entries(net, legs):
    return math.prod(net.edge_dim(e) for e in legs)


def install(tracer):
    """Wrap the layer boundaries of tnplan; returns the tracer for chaining."""
    anneal = importlib.import_module("tnplan.anneal")
    pathfind = importlib.import_module("tnplan.pathfind")
    plan = importlib.import_module("tnplan.plan")
    costs = importlib.import_module("tnplan.costs")
    execute = importlib.import_module("tnplan.execute")
    tree = importlib.import_module("tnplan.tree")

    spanned = [
        (anneal, "reduction_path", "pathfind.reduction_path"),
        (plan, "reduction_path", "pathfind.reduction_path"),
        (pathfind, "random_greedy_tree", "pathfind.random_greedy_tree"),
        (pathfind, "reduction_network", "pathfind.reduction_network"),
        (anneal, "greedy_tree", "pathfind.greedy_tree"),
        (plan, "greedy_tree", "pathfind.greedy_tree"),
        (anneal, "compose_plan_tree", "tree.compose"),
        (plan, "compose_plan_tree", "tree.compose"),
        (tree.ContractionTree, "subtree_roots", "tree.subtree_roots"),
        (anneal, "con_dist", "costs.con_dist"),
        (anneal, "con_serial", "costs.local"),
    ]
    for owner, attr, name in spanned:
        tracer.patch(owner, attr, lambda fn, name=name: tracer.timed(name, fn))
    for module in (costs, anneal, pathfind):
        tracer.patch(module, "dims_product", lambda fn: tracer.counted("costs.dims_product", fn))

    # A proposal is accepted when the next proposal of the same replica
    # starts from the state it returned, or when the replica ends on it.
    last = [None]
    counts = tracer.counts

    def wrap_select_neighbor(fn):
        timed = tracer.timed("anneal.select_neighbor", fn)

        def select_neighbor(net, state, cfg, rng):
            if last[0] is not None and state is last[0]:
                counts["anneal.accepted"] += 1
            candidate = timed(net, state, cfg, rng)
            counts["anneal.proposals"] += 1
            last[0] = candidate
            return candidate

        return select_neighbor

    def wrap_do_steps(fn):
        def do_steps(net, n, state, temperature, cfg, rng):
            last[0] = None
            end = fn(net, n, state, temperature, cfg, rng)
            if last[0] is not None and end is last[0]:
                counts["anneal.accepted"] += 1
            last[0] = None
            return end

        return do_steps

    tracer.patch(anneal, "select_neighbor", wrap_select_neighbor)
    tracer.patch(anneal, "do_steps", wrap_do_steps)

    def wrap_execute_plan(fn):
        timed = tracer.timed("execute.execute_plan", fn)

        def execute_plan(net, tree, *args, **kwargs):
            trace = timed(net, tree, *args, **kwargs)
            computed = 0
            for r in trace.records:
                left, right = tree.children(r.node)
                computed += r.entries + _leg_entries(net, tree.legs(left)) + _leg_entries(net, tree.legs(right))
            counts["execute.kernel_s"] += sum(r.seconds for r in trace.records)
            counts["execute.contractions"] += len(trace.records)
            counts["execute.mults"] += trace.mult_count
            counts["execute.bytes_computed"] += 16 * computed
            return trace

        return execute_plan

    tracer.patch(execute, "execute_plan", wrap_execute_plan)
    return tracer
