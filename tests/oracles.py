"""Independent reference implementations used to check the package.

Everything here recomputes results from first principles through a
different code path than the package: whole-network einsum for values,
explicit index loops for one pairwise contraction, a dense state-vector
simulator for circuit amplitudes, recursive cost walks over nested tree
specs, and a checker of annealing moves that rebuilds what a proposal
caches.
"""

from __future__ import annotations

import copy
import heapq
import importlib
import math
from contextlib import contextmanager

import numpy as np

from tnplan.anneal import NoMoveError, Step, acceptance_probability
from tnplan.costs import con_dist, dims_product, distributed_breakdown, node_ops
from tnplan.network import OPEN, TensorNetwork
from tnplan.partition import validate
from tnplan.pathfind import FanInNetwork, greedy_tree, reduction_path
from tnplan.plan import owner_map
from tnplan.tree import ContractionTree, nested_to_pairs


# ---------------------------------------------------------------------------
# whole-network contraction by a single einsum call

def einsum_value(net):
    """Contract every tensor of ``net`` in one einsum; open axes sorted by edge id."""
    label = {}
    operands = []
    for v in net.vertices():
        subs = []
        for e in net.axis_edges(v):
            if e not in label:
                label[e] = len(label)
            subs.append(label[e])
        operands.append(np.asarray(net.payload(v)))
        operands.append(subs)
    if len(label) > 52:
        raise ValueError("network too large for the einsum oracle")
    out = [label[e] for e in sorted(open_edges(net))]
    operands.append(out)
    return np.einsum(*operands)


def sorted_open_result(trace, net):
    """Permute an executor result so its axes follow sorted open-edge ids."""
    order = np.argsort(trace.axis_edges, kind="stable")
    return np.transpose(np.asarray(trace.result), order) if trace.axis_edges else trace.result


def contract_loops(s, t, pairs):
    """``tnplan.execute.contract_pair`` by explicit index loops over every entry."""
    saxes = [p[0] for p in pairs]
    taxes = [p[1] for p in pairs]
    sf = [a for a in range(s.ndim) if a not in set(saxes)]
    tf = [a for a in range(t.ndim) if a not in set(taxes)]
    shared_dims = [s.shape[a] for a in saxes]
    out_shape = [s.shape[a] for a in sf] + [t.shape[a] for a in tf]
    out = np.zeros(out_shape, dtype=np.complex128)
    for out_idx in np.ndindex(*out_shape):
        sidx = [0] * s.ndim
        tidx = [0] * t.ndim
        for a, v in zip(sf, out_idx[: len(sf)]):
            sidx[a] = v
        for a, v in zip(tf, out_idx[len(sf):]):
            tidx[a] = v
        acc = 0j
        for sh in np.ndindex(*shared_dims):
            for a, b, v in zip(saxes, taxes, sh):
                sidx[a] = v
                tidx[b] = v
            acc += s[tuple(sidx)] * t[tuple(tidx)]
        out[out_idx] = acc
    return out


# ---------------------------------------------------------------------------
# state-vector simulation (qubit q <-> tensor axis q; targets[0] most significant)

_SQ = 1.0 / math.sqrt(2.0)

_ORACLE_GATES = {
    "H": [[_SQ, _SQ], [_SQ, -_SQ]],
    "X": [[0, 1], [1, 0]],
    "Y": [[0, -1j], [1j, 0]],
    "Z": [[1, 0], [0, -1]],
    "S": [[1, 0], [0, 1j]],
    "T": [[1, 0], [0, np.exp(1j * math.pi / 4)]],
    "CX": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    "CZ": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
    "SWAP": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
}


def _oracle_matrix(gate):
    name = gate.name.upper()
    if name in _ORACLE_GATES:
        return np.asarray(_ORACLE_GATES[name], dtype=complex)
    if name in ("RX", "RY", "RZ"):
        (theta,) = gate.params
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        if name == "RX":
            return np.array([[c, -1j * s], [-1j * s, c]])
        if name == "RY":
            return np.array([[c, -s], [s, c]])
        return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])
    if name == "CCX":
        m = np.eye(8, dtype=complex)
        m[[6, 7]] = m[[7, 6]]
        return m
    if gate.matrix is not None:
        return np.asarray(gate.matrix, dtype=complex)
    raise ValueError(f"oracle has no matrix for gate {gate.name}")


def statevector(circuit, initial=None):
    n = circuit.n_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    bits = initial or "0" * n
    psi[tuple(int(b) for b in bits)] = 1.0
    for gate in circuit.gates:
        k = len(gate.targets)
        u = _oracle_matrix(gate).reshape((2,) * (2 * k))
        psi = np.tensordot(u, psi, axes=(tuple(range(k, 2 * k)), tuple(gate.targets)))
        psi = np.moveaxis(psi, range(k), gate.targets)
    return psi


def amplitude(circuit, bits, initial=None):
    return complex(statevector(circuit, initial)[tuple(int(b) for b in bits)])


# ---------------------------------------------------------------------------
# nested tree specs: the reference encoding of tree shapes

def from_nested(net, nested):
    """A tree from a nested ``[left, right]`` structure: a leaf is a vertex
    id, an internal node a two-element list or tuple."""
    leaves, pairs = nested_to_pairs(nested, net.num_vertices)
    return ContractionTree.from_pairs(net, pairs, leaves)


def to_nested(tree, node=None):
    """Nested [left, right] structure of the subtree under ``node`` (default:
    root); a leaf is its vertex id."""
    t = tree.root if node is None else node
    ch = tree.children(t)
    if ch is None:
        return t
    return [to_nested(tree, ch[0]), to_nested(tree, ch[1])]


def swapped(tree, nodes):
    """The tree rebuilt with the children of every node in ``nodes`` swapped."""
    first = tree.network.num_vertices
    pairs = [(y, x) if first + j in nodes else (x, y) for j, (x, y) in enumerate(tree.pairs())]
    return ContractionTree.from_pairs(tree.network, pairs, tree.leaf_order)


def fanin_tree(net, partition_trees, nested):
    """A fan-in tree of the given nested shape over the partition results."""
    return from_nested(leg_fanin(net, [t.legs(t.root) for t in partition_trees]), nested)


class TableTree:
    """The structure of a tree with the given merge pairs over ``leaves``, kept
    as child and parent tables keyed by node id: the reference for the
    structure queries ``ContractionTree`` answers from its merge pairs."""

    def __init__(self, num_vertices, pairs, leaves):
        children = self.children = dict.fromkeys(leaves)
        parent = self.parent = {}
        ids = range(num_vertices, num_vertices + len(pairs))
        children.update(zip(ids, pairs))
        for node, (x, y) in zip(ids, pairs):
            parent[x] = parent[y] = node
        self.root = ids[-1] if pairs else leaves[0]
        parent[self.root] = None

    @property
    def leaf_order(self):
        return tuple(sorted(t for t, ch in self.children.items() if ch is None))

    def postorder(self, node):
        out = []
        stack = [node]
        while stack:  # node, right subtree, left subtree: postorder reversed
            t = stack.pop()
            out.append(t)
            ch = self.children[t]
            if ch is not None:
                stack += ch
        out.reverse()
        return out

    def internal_nodes(self, node):
        return [t for t in self.postorder(node) if self.children[t] is not None]

    def subtree_roots(self, blocks):
        where = {v: i for i, block in enumerate(blocks) for v in block}
        label = {}
        size = {}
        top = [None] * len(blocks)
        for t, ch in self.children.items():  # creation order: children first
            if ch is None:
                b, n = where.get(t), 1
            else:
                x, y = ch
                b = label[x] if label[x] == label[y] else None
                n = size[x] + size[y]
            label[t] = b
            size[t] = n
            if b is not None:
                top[b] = t
        roots = []
        for block, t in zip(blocks, top):
            if t is None or size[t] != len(block):
                return None
            roots.append(t)
        return roots


def subtree_roots_by_leaf_sets(tree, blocks):
    """``ContractionTree.subtree_roots`` by comparing each block with the leaf
    set of every node: the matching nodes, or None if a block has none."""
    by_leaves = {frozenset(tree.subtree_leaf_tensors(t)): t for t in tree.order}
    roots = [by_leaves.get(frozenset(b)) for b in blocks]
    return None if None in roots else roots


# ---------------------------------------------------------------------------
# cost recomputation over nested tree specs

def vertex_congestion(tree, t):
    """log2 of the multiplication count of the contraction at internal ``t``."""
    left, right = tree.children(t)
    legs = tree.legs(left) | tree.legs(right)
    return math.log2(math.prod(tree.network.edge_dim(e) for e in legs))


def _leaf_legs(net, v):
    seen = set()
    legs = set()
    for e in net.axis_edges(v):
        if e in seen:
            legs.discard(e)
        else:
            seen.add(e)
            legs.add(e)
    return frozenset(legs)


def _size(net, legs):
    p = 1.0
    for e in legs:
        p *= net.edge_dim(e)
    return p


def sequential_dims_product(net, legs):
    """Entry count as one float multiply per edge in sorted edge order,
    stopping at the 2**300 clamp: ``tnplan.costs.dims_product`` before it
    took exact integer products.  Exact whenever every dimension is a
    power of two."""
    value = 1.0
    for e in sorted(legs):
        value *= net.edge_dim(e)
        if value > 2.0 ** 300:
            return 2.0 ** 300
    return value


class _Node:
    __slots__ = ("legs", "leafset", "children", "ops")

    def __init__(self, legs, leafset, children, ops):
        self.legs = legs
        self.leafset = leafset
        self.children = children
        self.ops = ops


def build_spec(net, nested):
    """Recursively evaluate a nested [left, right] spec into _Node records."""
    if isinstance(nested, int):
        return _Node(_leaf_legs(net, nested), frozenset([nested]), None, 0.0)
    left = build_spec(net, nested[0])
    right = build_spec(net, nested[1])
    union = left.legs | right.legs
    return _Node(
        left.legs ^ right.legs,
        left.leafset | right.leafset,
        (left, right),
        _size(net, union),
    )


def oracle_serial(net, nested):
    root = build_spec(net, nested)

    def rec(node):
        if node.children is None:
            return 0.0
        l, r = node.children
        return node.ops + rec(l) + rec(r)

    return rec(root)


def oracle_par(net, nested):
    root = build_spec(net, nested)

    def rec(node):
        if node.children is None:
            return 0.0
        l, r = node.children
        return node.ops + max(rec(l), rec(r))

    return rec(root)


def leaf_walk_con_par(tree, root=None):
    """``con_par`` as a walk from every leaf to ``root``, O(leaves x depth):
    the largest sum of contraction costs on a leaf's path, summed bottom-up."""
    if root is None:
        root = tree.root
    top_parent = tree.parent(root)
    best = 0.0
    for t in tree.postorder(root):
        if tree.children(t) is not None:
            continue
        total = 0.0
        a = tree.parent(t)
        while a is not top_parent:
            total += node_ops(tree, a)
            a = tree.parent(a)
        best = max(best, total)
    return best


def oracle_mem(net, nested):
    root = build_spec(net, nested)
    if root.children is None:
        return _size(net, root.legs)
    best = 0.0

    def rec(node):
        nonlocal best
        if node.children is None:
            return
        l, r = node.children
        best = max(best, _size(net, node.legs) + _size(net, l.legs) + _size(net, r.legs))
        rec(l)
        rec(r)

    rec(root)
    return best


def oracle_dist(net, nested, blocks, alpha=0.0, beta=0.0, intra="serial"):
    """Distributed cost: per-partition local work plus its fan-in path."""
    root = build_spec(net, nested)
    worst = 0.0
    for block in blocks:
        target = frozenset(block)
        # locate the partition root and the ancestors above it
        node = root
        path = []
        while node.leafset != target:
            l, r = node.children
            path.append(node)
            node = l if target <= l.leafset else r
        if intra == "serial":
            local = _spec_serial(node)
        else:
            local = _spec_par(node)
        fanin = 0.0
        for a in path:
            l, r = a.children
            comm = alpha + beta * min(_size(net, l.legs), _size(net, r.legs))
            fanin += a.ops + comm
        worst = max(worst, local + fanin)
    return worst


def _spec_serial(node):
    if node.children is None:
        return 0.0
    l, r = node.children
    return node.ops + _spec_serial(l) + _spec_serial(r)


def _spec_par(node):
    if node.children is None:
        return 0.0
    l, r = node.children
    return node.ops + max(_spec_par(l), _spec_par(r))


# ---------------------------------------------------------------------------
# fan-in tables and search over leg sets

def leg_tables(net, leg_sets):
    """The exact tables of ``tnplan.pathfind`` (entries E and rows {j: X}) of
    tensors with the given leg sets, as lists, read off the legs rather
    than off vertex rows."""
    entries = []
    shared = []
    holder = {}  # edge -> the leg set seen holding it
    for p, legs in enumerate(leg_sets):
        table = {}
        n = 1
        for e in legs:
            d = net.edge_dim(e)
            n *= d
            q = holder.setdefault(e, p)
            if q != p:
                table[q] = shared[q][p] = table.get(q, 1) * d
        entries.append(n)
        shared.append(table)
    return entries, shared


def leg_fanin(net, partition_legs):
    """The ``FanInNetwork`` of tensors with the given leg sets, built from
    their ``leg_tables``."""
    return FanInNetwork(*leg_tables(net, partition_legs))


def pseudo_tensor_network(net, partition_legs):
    """One pseudo-tensor per partition with one axis per partition leg.

    Every original edge shared by two partitions is a bond, so the greedy
    search over it reads leg sets, where ``tnplan.pathfind.reduction_path``
    reads the exact tables of ``reduction_network``.
    """
    pseudo = TensorNetwork()
    for legs in partition_legs:
        pseudo.add_tensor([net.edge_dim(e) for e in sorted(legs)])
    holders = {}
    for i, legs in enumerate(partition_legs):
        for a, e in enumerate(sorted(legs)):
            holders.setdefault(e, []).append((i, a))
    for e in sorted(holders):
        ends = holders[e]
        if len(ends) == 2:
            (i, a), (j, b) = ends
            pseudo.bond(i, a, j, b)
    return pseudo


def reference_reduction_nested(net, partition_legs):
    """Nested fan-in tree that ``reduction_path`` must reproduce."""
    k = len(partition_legs)
    if k <= 2:
        return 0 if k == 1 else [0, 1]
    pseudo = pseudo_tensor_network(net, partition_legs)
    return to_nested(greedy_tree(pseudo))


# ---------------------------------------------------------------------------
# directed target over leg sets

def select_target_directed(net, partition_trees, k_src, moved_legs):
    """``tnplan.pathfind.select_target_directed`` over leg sets: every size is
    ``dims_product`` of the moved legs, a target's root legs, or their
    symmetric difference."""
    moved_size = dims_product(net, moved_legs)
    best_k = None
    best_obj = -math.inf
    for k, t in enumerate(partition_trees):
        if k == k_src:
            continue
        dest_legs = t.legs(t.root)
        result = dims_product(net, moved_legs ^ dest_legs)
        obj = moved_size + dims_product(net, dest_legs) - result
        if obj > best_obj:
            best_obj = obj
            best_k = k
    return best_k


# ---------------------------------------------------------------------------
# annealing moves

def check_move(net, state, candidate):
    """Assert that plan ``candidate`` is one annealing move from plan ``state``.

    Reads the two plans alone: the blocks are a valid partitioning and
    exactly two of them differ, the source having lost a non-empty proper
    subset of its vertices and the target having gained exactly that
    subset; tree ``i`` covers block ``i`` and the composed tree realizes
    every block; the two changed trees are fresh ``greedy_tree``s of their
    blocks (pairs and both memos); ``owner`` is the partitioning's; the
    fan-in tables equal ``leg_tables`` of the trees' root legs, the
    carried seed keys equal ones scored afresh, and the fan-in tree is a
    fresh ``reduction_path`` over those legs; the fan-in costs are
    ``distributed_breakdown``'s of the composed tree, as are the local
    costs; and the cached cost equals ``con_dist`` of the composed tree.
    """
    blocks = candidate.partitioning.blocks
    ok, problems = validate(candidate.partitioning, net)
    assert ok, f"invalid partitioning: {problems}"
    before = state.partitioning.blocks
    assert len(blocks) == len(before), f"{len(before)} blocks became {len(blocks)}"
    changed = [i for i, (b, a) in enumerate(zip(before, blocks)) if a != b]
    assert len(changed) == 2, f"blocks {changed} changed, not exactly two"
    src, dst = changed if blocks[changed[0]] < before[changed[0]] else changed[::-1]
    moved = before[src] - blocks[src]
    assert blocks[src] and blocks[src] < before[src], f"block {src} did not lose a proper subset"
    assert blocks[dst] == before[dst] | moved, f"block {dst} did not gain exactly what block {src} lost"
    trees = candidate.partition_trees
    assert [set(t.leaf_order) for t in trees] == [set(b) for b in blocks], "a tree does not cover its block"
    assert candidate.tree.subtree_roots(blocks) is not None, "the composed tree splits a block"
    assert candidate.owner == owner_map(net, blocks), "owner is not the partitioning's"
    for i in (src, dst):
        assert same_tree(trees[i], greedy_tree(net, blocks[i])), f"tree {i} is not a fresh greedy tree"
    fanin = candidate.reduction.network
    root_legs = [t.legs(t.root) for t in trees]
    tables = list(leg_tables(net, root_legs))
    assert [fanin.entries, fanin.shared] == tables, "fan-in tables differ from the root legs'"
    assert sorted(fanin.seeds.values()) == fanin_seed_keys(net, root_legs), \
        "carried seed keys differ from fresh ones"
    fresh_fanin = reduction_path(leg_fanin(net, root_legs))
    assert same_tree(candidate.reduction, fresh_fanin), "the fan-in tree is not a fresh pass's"
    parts = distributed_breakdown(candidate.tree, blocks, candidate.cost_cfg)
    assert list(candidate.local_costs) == [p.local for p in parts], \
        "local costs differ from the composed tree's breakdown"
    assert list(candidate.fanin_costs) == [p.fanin for p in parts], \
        "fan-in costs differ from the composed tree's breakdown"
    fresh = con_dist(candidate.tree, blocks, candidate.cost_cfg)
    assert candidate.cost == fresh, f"cached cost {candidate.cost} but the tree costs {fresh}"


def same_tree(a, b):
    """True when two trees have the same merge pairs, leaves and cost memos."""
    return ((a.pairs(), a.leaf_order, a.op_counts, a.entry_counts)
            == (b.pairs(), b.leaf_order, b.op_counts, b.entry_counts))


def fanin_seed_keys(net, partition_legs):
    """The sorted heap keys ``(-s, i, j, i, j)`` of the deterministic greedy
    pass over the partition results with the given legs, for every pair
    ``i < j`` that shares a leg, scored on leg sets."""
    keys = []
    for i, a in enumerate(partition_legs):
        for j in range(i + 1, len(partition_legs)):
            b = partition_legs[j]
            if a & b:
                s = dims_product(net, a) + dims_product(net, b) - dims_product(net, a ^ b)
                keys.append((-s, i, j, i, j))
    return sorted(keys)


def same_plan(a, b):
    """True when two plans have the same blocks, owner, trees (``same_tree``),
    cost settings, local and fan-in costs and cost."""
    return ((a.partitioning.blocks, a.owner, a.cost_cfg, a.local_costs, a.fanin_costs, a.cost)
            == (b.partitioning.blocks, b.owner, b.cost_cfg, b.local_costs, b.fanin_costs, b.cost)
            and all(map(same_tree, a.partition_trees, b.partition_trees))
            and same_tree(a.reduction, b.reduction))


class DrawRecorder:
    """A generator proxy that keeps its last ``random()`` draw as ``u``,
    for a proposal made with it its Metropolis draw."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def random(self):
        self.u = self.rng.random()
        return self.u


@contextmanager
def checked_proposals():
    """Run ``check_move`` on every proposal of ``tnplan.anneal.select_neighbor``
    made inside the block, including those of ``do_steps`` and ``anneal``,
    which look the name up at call time.

    Each proposal is first built in full from a copy of the generator at
    an infinite temperature, which accepts every candidate, and
    ``check_move`` runs on that candidate, so rejected proposals are
    checked too; a ``DrawRecorder`` around the copy keeps its Metropolis
    ``u``.  The answer at the proposal's own temperature must be that
    candidate exactly when the test accepts it and None otherwise, and
    leave the generator where the copy ends.

    Yields the checked function, for tests that propose directly; its
    ``candidates`` list holds every checked candidate in order.
    """
    module = importlib.import_module("tnplan.anneal")  # the package's ``anneal`` is the function
    propose = module.select_neighbor

    def checked(net, state, step, rng):
        reference = DrawRecorder(copy.deepcopy(rng))
        try:
            full = propose(net, state, Step(step.cfg, math.inf), reference)
        except NoMoveError:
            return propose(net, state, step, rng)  # raises the same
        answer = propose(net, state, step, rng)
        assert rng.bit_generator.state == reference.bit_generator.state, \
            "the proposal left the generator elsewhere than the full proposal and its draw"
        if acceptance_probability(state.cost, full.cost, step.temperature) >= reference.u:
            assert answer is not None and same_plan(answer, full), \
                "an accepted proposal differs from the full one"
        else:
            assert answer is None, "a proposal the Metropolis test rejects was returned"
        check_move(net, state, full)
        checked.candidates.append(full)
        return answer

    checked.candidates = []
    module.select_neighbor = checked
    try:
        yield checked
    finally:
        module.select_neighbor = propose


# ---------------------------------------------------------------------------
# greedy pass over leg sets

def reference_greedy_pass(net, pieces, rng=None, noise_scale=0.0, first=None):
    """``tnplan.pathfind._greedy_pass`` over leg sets, edges of ``net``.

    Every piece keeps its legs as a frozenset; a score sizes the two
    operands and their symmetric difference with ``dims_product``, and a
    merge's multiplications are ``dims_product`` of the union.  Heap keys,
    tie-breaks, noise draws and the outer-product phase are those of the
    package.  Returns the merges as (left, right) node ids, merge ``j``
    being node ``first + j`` (``first`` defaults to ``net.num_vertices``),
    each merge's multiplications and every piece's size, leaves first.
    """
    if first is None:
        first = net.num_vertices
    legs = [l for _, l in pieces]
    rep = [key for key, _ in pieces]
    node = list(rep)
    alive = [True] * len(pieces)
    pairs = []
    ops = []

    def score(i, j):
        result = dims_product(net, legs[i] ^ legs[j])
        s = dims_product(net, legs[i]) + dims_product(net, legs[j]) - result
        if rng is not None and noise_scale > 0.0:
            s *= math.exp(noise_scale * rng.standard_normal())
        return s

    def key(i, j):
        return (-score(i, j), rep[i], rep[j])

    def merge(i, j):
        ops.append(dims_product(net, legs[i] | legs[j]))
        pairs.append((node[i], node[j]))
        legs.append(legs[i] ^ legs[j])
        rep.append(rep[i])
        node.append(first + len(pairs) - 1)
        alive.append(True)
        alive[i] = alive[j] = False
        return len(legs) - 1

    heap = []

    def push(i, j):
        if rep[i] > rep[j]:
            i, j = j, i
        heapq.heappush(heap, key(i, j) + (i, j))

    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            if legs[a] & legs[b]:
                push(a, b)
    n_alive = len(pieces)
    while heap and n_alive > 1:
        *_, i, j = heapq.heappop(heap)
        if alive[i] and alive[j]:
            idx = merge(i, j)
            n_alive -= 1
            for nb in range(idx):
                if alive[nb] and legs[nb] & legs[idx]:
                    push(idx, nb)
    while n_alive > 1:
        live = sorted((i for i, a in enumerate(alive) if a), key=rep.__getitem__)
        best = min((key(i, j), i, j) for x, i in enumerate(live) for j in live[x + 1:])
        merge(best[1], best[2])
        n_alive -= 1
    return pairs, ops, [dims_product(net, l) for l in legs]


# ---------------------------------------------------------------------------
# connectivity

def open_edges(net):
    """Ids of the network's open edges, each found on the axis it leaves."""
    return frozenset(e for v in net.vertices() for e in net.axis_edges(v) if net.edge(e).is_open())


def edge_walk_neighbors(net, v):
    """The other vertices sharing a bound edge with ``v``, by walking the
    ends of its edges rather than reading its ``vertex_row``."""
    return {w for e in net.axis_edges(v) for w, _ in net.edge(e).ends if w not in (v, OPEN)}


def connected_components(net):
    """Connected components of the bound-edge graph, as sorted vertex lists."""
    seen = set()
    comps = []
    for s in net.vertices():
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            for w in edge_walk_neighbors(net, stack.pop()):
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(net):
    return len(connected_components(net)) <= 1


def edge_cut_weight(part, net):
    """Total log2 edge dimension over bound edges crossing block boundaries,
    summed edge by edge in id order rather than read from vertex rows."""
    ok, problems = validate(part, net)
    if not ok:
        raise ValueError("invalid partitioning: " + "; ".join(problems))
    where = {}
    for i, block in enumerate(part.blocks):
        for v in block:
            where[v] = i
    total = 0.0
    for e in sorted(net.bound_edges()):
        ed = net.edge(e)
        (u, _), (v, _) = ed.ends
        if where[u] != where[v]:
            total += math.log2(ed.dim)
    return total


# ---------------------------------------------------------------------------
# random instance generators

def random_network(rng, n_min=2, n_max=12, max_dim=4, max_degree=6,
                   p_open=0.25, p_loop=0.05, payloads=True):
    """A connected random network: spanning tree plus a few extra bonds,
    occasional self-loops and open axes."""
    n = int(rng.integers(n_min, n_max + 1))
    planned = [[] for _ in range(n)]  # per vertex: ('b', edge index) / ('o', dim)
    edges = []

    def degree(v):
        return len(planned[v])

    for v in range(1, n):
        u = int(rng.integers(0, v))
        idx = len(edges)
        edges.append([u, v, int(rng.integers(2, max_dim + 1))])
        planned[u].append(("b", idx))
        planned[v].append(("b", idx))
    for _ in range(int(rng.integers(0, n))):
        if rng.random() < p_loop:
            v = int(rng.integers(0, n))
            if degree(v) + 2 > max_degree:
                continue
            idx = len(edges)
            edges.append([v, v, int(rng.integers(2, max_dim + 1))])
            planned[v].append(("b", idx))
            planned[v].append(("b", idx))
        else:
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u == v or degree(u) + 1 > max_degree or degree(v) + 1 > max_degree:
                continue
            idx = len(edges)
            edges.append([u, v, int(rng.integers(2, max_dim + 1))])
            planned[u].append(("b", idx))
            planned[v].append(("b", idx))
    for v in range(n):
        if degree(v) < max_degree and rng.random() < p_open:
            planned[v].append(("o", int(rng.integers(2, max_dim + 1))))

    net = TensorNetwork()
    slots = {}
    for v in range(n):
        dims = []
        for a, (kind, x) in enumerate(planned[v]):
            dims.append(edges[x][2] if kind == "b" else x)
            if kind == "b":
                slots.setdefault(x, []).append((v, a))
        if payloads:
            size = int(np.prod(dims)) if dims else 1
            data = (rng.normal(size=size) + 1j * rng.normal(size=size)).reshape(dims)
        else:
            data = None
        net.add_tensor(dims, data)
    for idx in range(len(edges)):
        (u, a), (v, b) = slots[idx]
        net.bond(u, a, v, b)
    return net


def disjoint_union(nets):
    """One network holding ``nets`` side by side, vertex ids offset in order."""
    out = TensorNetwork()
    for net in nets:
        offset = out.num_vertices
        for v in net.vertices():
            out.add_tensor(net.dims_of(v))
        for e in net.bound_edges():
            (u, a), (v, b) = net.edge(e).ends
            out.bond(u + offset, a, v + offset, b)
    return out


def random_bond_network(rng, n_max=10, scale=1, loops=False):
    """A random network, often disconnected, whose bonds may have dimension
    1 or run in parallel, with some open axes; every dimension is a draw
    from 1..4 times ``scale``, so a large ``scale`` passes the 2**300 clamp.
    With ``loops``, a bond drawn from a vertex to itself is kept as a
    self-loop."""
    n = int(rng.integers(1, n_max + 1))
    drawn = rng.integers(0, n, (int(rng.integers(0, 2 * n + 1)), 2))
    bonds = [(int(u), int(v)) for u, v in drawn if loops or u != v]
    bonds += [b for b in bonds if rng.random() < 0.3]
    axes = [[] for _ in range(n)]  # per vertex: dims of its axes
    ends = []
    for u, v in bonds:
        d = scale * int(rng.integers(1, 5))
        a = len(axes[u])
        axes[u].append(d)
        ends.append(((u, a), (v, len(axes[v]))))
        axes[v].append(d)
    for dims in axes:
        if rng.random() < 0.3:
            dims.append(scale * int(rng.integers(1, 5)))
    net = TensorNetwork()
    for dims in axes:
        net.add_tensor(dims)
    for (u, a), (v, b) in ends:
        net.bond(u, a, v, b)
    return net


def random_pairs(rng, leaves):
    """A uniform-ish random elimination sequence over the given leaf ids."""
    roots = list(leaves)
    pairs = []
    next_id = max(leaves) + 1 if leaves else 0
    while len(roots) > 1:
        i, j = sorted(rng.choice(len(roots), size=2, replace=False))
        x, y = roots[i], roots[j]
        pairs.append((x, y))
        roots[i] = next_id
        next_id += 1
        del roots[j]
    return pairs


def random_nested(rng, leaves):
    items = [int(v) for v in leaves]
    while len(items) > 1:
        i, j = sorted(rng.choice(len(items), size=2, replace=False))
        items[i] = [items[i], items[j]]
        del items[j]
    return items[0]


def random_blocks(rng, vertices, k):
    """A random valid partitioning of ``vertices`` into exactly k blocks."""
    vs = list(vertices)
    rng.shuffle(vs)
    blocks = [[] for _ in range(k)]
    for i, v in enumerate(vs[:k]):
        blocks[i].append(int(v))
    for v in vs[k:]:
        blocks[int(rng.integers(0, k))].append(int(v))
    return [frozenset(b) for b in blocks]


def blocks_nested(rng, net, blocks):
    """A random nested tree that realizes every block as a subtree."""
    parts = [random_nested(rng, sorted(b)) for b in blocks]
    while len(parts) > 1:
        i, j = sorted(rng.choice(len(parts), size=2, replace=False))
        parts[i] = [parts[i], parts[j]]
        del parts[j]
    return parts[0]


def pearson(xs, ys):
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    return float(np.corrcoef(x, y)[0, 1])
