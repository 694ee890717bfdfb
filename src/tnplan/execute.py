"""Dense execution of contraction trees, with operation and memory accounting.

The executor walks a tree bottom-up, contracting pairs of complex-double
tensors with ``np.tensordot``, which permutes each operand into a matrix
and multiplies.  Each contraction performs (and counts) exactly
result_entries * shared_dims_product scalar multiplications, so the
trace's mult_count matches the serial cost metric of the tree it executed.

Self-loop (trace) edges on a leaf are summed out when the leaf is loaded;
that uses additions only and leaves the planning-level tensor whose legs
the tree reasons about.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .costs import mem_cost

DEFAULT_MAX_ENTRIES = 2 ** 28


class ExecutionError(RuntimeError):
    """Missing payloads, malformed operands, or non-finite results."""


class MemoryBudgetError(ExecutionError):
    """The plan's peak buffer requirement exceeds the configured budget."""


def contract_pair(s, t, pairs):
    """Contract two tensors over the given (s_axis, t_axis) pairs.

    The result's axes are s's free axes in their original order followed
    by t's free axes in theirs.  An empty ``pairs`` yields the outer
    product.
    """
    s = np.asarray(s, dtype=np.complex128)
    t = np.asarray(t, dtype=np.complex128)
    seen_s, seen_t = set(), set()
    for a, b in pairs:
        if not (0 <= a < s.ndim and 0 <= b < t.ndim):
            raise ExecutionError(f"axis pair ({a}, {b}) out of range")
        if a in seen_s or b in seen_t:
            raise ExecutionError(f"axis pair ({a}, {b}) repeats an axis")
        seen_s.add(a)
        seen_t.add(b)
        if s.shape[a] != t.shape[b]:
            raise ExecutionError(
                f"dimension mismatch on pair ({a}, {b}): {s.shape[a]} vs {t.shape[b]}"
            )
    return np.tensordot(s, t, axes=([a for a, _ in pairs], [b for _, b in pairs]))


@dataclass
class ContractionRecord:
    node: int
    entries: int
    seconds: float


@dataclass
class ExecutionTrace:
    """Result tensor plus per-contraction accounting for one tree walk."""

    result: np.ndarray
    axis_edges: tuple
    mult_count: int
    peak_entries: int
    resident_peak: int
    records: list = field(default_factory=list)

    def scalar(self):
        if self.result.size != 1:
            raise ExecutionError(f"result has {self.result.size} entries, not a scalar")
        return complex(self.result.reshape(()))


def _leaf_tensor(net, v):
    arr = net.payload(v)
    if arr is None:
        raise ExecutionError(f"vertex {v} has no tensor data")
    axes = list(net.axis_edges(v))
    while True:
        loop = None
        for i, e in enumerate(axes):
            j = axes.index(e)
            if j != i:
                loop = (j, i)
                break
        if loop is None:
            break
        a, b = loop
        arr = np.trace(arr, axis1=a, axis2=b)
        axes = [e for i, e in enumerate(axes) if i not in (a, b)]
    return np.asarray(arr, dtype=np.complex128), axes


def execute_plan(net, tree, max_entries=DEFAULT_MAX_ENTRIES):
    """Evaluate a contraction tree over materialized tensors.

    ``tree`` may cover the whole network or a vertex subset; edges leaving
    the covered set appear as axes of the result.  Plans whose peak buffer
    need exceeds ``max_entries`` are refused before anything is allocated.
    """
    if max_entries is not None and (need := mem_cost(tree)) > max_entries:
        raise MemoryBudgetError(f"plan needs {need:.4g} buffer entries, budget is {max_entries}")
    env = {}
    live_total = 0
    mult_count = 0
    peak = 0
    resident = 0
    records = []

    for node in tree.postorder():
        ch = tree.children(node)
        if ch is None:
            arr, axes = _leaf_tensor(net, node)
            env[node] = (arr, axes)
            live_total += arr.size
            resident = max(resident, live_total)
            continue
        left, right = ch
        larr, lax = env.pop(left)
        rarr, rax = env.pop(right)
        shared = sorted(tree.legs(left) & tree.legs(right))
        pairs = [(lax.index(e), rax.index(e)) for e in shared]
        started = time.perf_counter()
        out = contract_pair(larr, rarr, pairs)
        seconds = time.perf_counter() - started
        g = 1
        for e in shared:
            g *= net.edge_dim(e)
        mult_count += out.size * g
        peak = max(peak, out.size + larr.size + rarr.size)
        resident = max(resident, live_total + out.size)
        live_total += out.size - larr.size - rarr.size
        shared_set = set(shared)
        axes = [e for e in lax if e not in shared_set] + [e for e in rax if e not in shared_set]
        env[node] = (out, axes)
        records.append(ContractionRecord(node, out.size, seconds))

    arr, axes = env[tree.root]
    if not np.all(np.isfinite(arr)):
        raise ExecutionError("contraction produced non-finite values")
    return ExecutionTrace(arr, tuple(axes), mult_count, peak, resident, records)


@dataclass
class EmulationResult:
    """Distributed run emulated from one serial walk of the composed tree.

    Each contraction's measured seconds are charged to the partition whose
    subtree holds it, or else to the fan-in.  The emulated wall time
    charges each partition its own work plus the fan-in contractions on
    its path to the root, and takes the slowest partition;
    ``serial_seconds`` is the sum over all contractions of the walk.
    """

    trace: ExecutionTrace
    partition_seconds: list
    fanin_seconds: list
    emulated_seconds: float
    serial_seconds: float

    @property
    def mult_count(self):
        return self.trace.mult_count

    def scalar(self):
        return self.trace.scalar()


def execute_distributed_emulation(net, plan, max_entries=DEFAULT_MAX_ENTRIES):
    """Run a partitioned plan once, timing per-partition and fan-in work separately."""
    tree = plan.tree
    trace = execute_plan(net, tree, max_entries=max_entries)
    seconds = {r.node: r.seconds for r in trace.records}
    locals_ = []
    fanin = []
    for r in plan.part_roots:
        locals_.append(sum(seconds[t] for t in tree.internal_nodes(r)))
        total = 0.0
        a = tree.parent(r)
        while a is not None:
            total += seconds[a]
            a = tree.parent(a)
        fanin.append(total)
    emulated = max(l + f for l, f in zip(locals_, fanin))
    serial = sum(r.seconds for r in trace.records)
    return EmulationResult(trace, locals_, fanin, emulated, serial)
