"""Dense execution of contraction trees, with operation and memory accounting.

The executor walks a tree bottom-up, contracting pairs of complex-double
tensors with ``contract_pair``.  Each contraction performs (and counts)
exactly result_entries * shared_dims_product scalar multiplications, so the
trace's mult_count matches the serial cost metric of the tree it executed.

``contract_pair`` contracts by matrix products, as in Matthews,
*High-performance tensor contraction without transposition* (SIAM J. Sci.
Comput. 40, C1, 2018).  The smaller operand is permuted once into a
matrix, shared axes by free axes.  The larger one is read as a matrix of
its free axes by its shared axes:

- when its shared axes are already its trailing axes, that matrix is a
  view, and the contraction is one GEMM that copies nothing of it;
- otherwise, when it has more than ``BLOCK_THRESHOLD`` entries, it is
  sliced over its leading free axes into blocks; each block is permuted
  into a matrix of its own and its product written into its slice of one
  preallocated result;
- an operand out of place but no larger than that is copied whole, and
  the contraction is one GEMM.

So a run holds at most the smaller operand and one block beyond its
operands and results, where ``np.tensordot`` holds a transposed copy of
the whole larger operand.  The block constants below carry their
measurements (one BLAS thread, 2-core Xeon with 2 MB of L2 per core).

Self-loop (trace) edges on a leaf are summed out when the leaf is loaded;
that uses additions only and leaves the planning-level tensor whose legs
the tree reasons about.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .costs import mem_cost

DEFAULT_MAX_ENTRIES = 2 ** 28
# An operand of at most two blocks is copied whole: blocks would save at most
# one block of memory.  Contracted over 3 or 6 scattered axes, operands of
# 2^16 to 2^19 entries took within 8% of the same time either way; at 2^20
# and 2^21 entries a whole copy took 1.1 to 1.5 times as long as blocks.
BLOCK_THRESHOLD = 2 ** 15
# Entries per block, 256 KB: a 2^21-entry operand contracted over 5 scattered
# axes took 6.5, 6.3, 5.8, 5.9, 6.7 and 7.5 ms in blocks of 2^12 to 2^17.
BLOCK_ENTRIES = 2 ** 14
# GEMM rows per block, so that compute-bound contractions keep long GEMMs:
# two 2^18-entry operands sharing 9 axes (2^27 multiplications) took 29.0 ms
# in blocks of 32 rows and 25.5 to 25.9 ms in blocks of 256 to 1024.
MIN_BLOCK_ROWS = 256


class ExecutionError(RuntimeError):
    """Missing payloads, malformed operands, or non-finite results."""


class MemoryBudgetError(ExecutionError):
    """The plan's peak buffer requirement exceeds the configured budget."""


def contract_pair(s, t, pairs):
    """Contract two tensors over the given (s_axis, t_axis) pairs.

    The result's axes are s's free axes in their original order followed
    by t's free axes in theirs.  An empty ``pairs`` yields the outer
    product.  The smaller operand is permuted once.  The larger one is
    sliced, as the module docstring describes, over as many of its leading
    free axes as leave each block at least ``BLOCK_ENTRIES`` entries and
    ``MIN_BLOCK_ROWS`` rows; over none when it is in place or small.
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
    big_first = s.size >= t.size
    big, small = (s, t) if big_first else (t, s)
    big_seen, small_seen = (seen_s, seen_t) if big_first else (seen_t, seen_s)
    pairs = sorted(pairs if big_first else [(b, a) for a, b in pairs])
    big_shared = [a for a, _ in pairs]
    big_free = [a for a in range(big.ndim) if a not in big_seen]
    small_free = [b for b in range(small.ndim) if b not in small_seen]
    big_dims = [big.shape[a] for a in big_free]
    small_dims = [small.shape[b] for b in small_free]
    inner = math.prod(big.shape[a] for a in big_shared)
    rows = math.prod(big_dims)
    cols = math.prod(small_dims)
    loop = 0
    if big.size > BLOCK_THRESHOLD and big_shared != list(range(big.ndim - len(pairs), big.ndim)):
        least = max(MIN_BLOCK_ROWS, -(-BLOCK_ENTRIES // inner))
        while loop < len(big_dims) and rows // big_dims[loop] >= least:
            rows //= big_dims[loop]
            loop += 1
    blocks = big.transpose(big_free + big_shared)
    mat = small.transpose([b for _, b in pairs] + small_free).reshape(inner, cols)
    out = np.empty(big_dims + small_dims if big_first else small_dims + big_dims,
                   dtype=np.complex128)
    loop_shape = big_dims[:loop]
    n = math.prod(loop_shape)
    if big_first:
        dest = out.reshape(n, rows, cols)
    else:  # each block's product is the transpose of a strided slice of ``out``
        dest = out.reshape(cols, n, rows).transpose(1, 2, 0)
    for j, index in enumerate(np.ndindex(*loop_shape)):
        np.matmul(blocks[index].reshape(rows, inner), mat, out=dest[j])
    return out


@dataclass
class ContractionRecord:
    node: int
    entries: int
    seconds: float


@dataclass
class ExecutionTrace:
    """Result tensor plus per-contraction accounting for one tree walk.

    ``peak_entries`` is the largest operands-plus-result total of one
    contraction, ``costs.mem_cost`` of the tree, and ``resident_peak`` the
    largest total of all tensors held at once.  They are the run's real
    holdings, up to ``contract_pair``'s working copies: the smaller operand
    and one block of the larger.
    """

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

    for node in tree.order:
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
