"""Rooted binary contraction trees over a network or a vertex subset.

Leaves correspond one-to-one to network vertices (leaf node id == vertex
id); every internal node has exactly two children and stands for the
pairwise contraction of its children's results.  The legs of a node are
the edges of that intermediate tensor: for a leaf, its network's
``leaf_legs(v)``, the distinct non-loop edges of its vertex; for an
internal node, the symmetric difference of the children's legs, so edges
shared by the two operands are summed away.

A tree built over a subset of the vertices (a view) treats edges leaving
the view as open: they survive to the view root's legs.

A tree reads ``num_vertices``, ``vertices()`` and ``vertex_row(v)`` of its
network, a ``TensorNetwork`` or a fan-in network (``pathfind.FanInNetwork``),
and ``leaf_legs(v)`` (a frozenset of int edge ids) only when its legs are
read: the executor reads them, planning does not, and a fan-in network has none.

A tree has one encoding, its merge pairs (the SSA form of opt_einsum's
``ssa_path``): leaves keep their vertex ids and merge ``j`` creates node
``num_vertices + j``.  A tree stores its leaves, its pairs and two count
memos; every structure query reads the pairs, and trees are never edited
after construction.  Every tree arrives sized: ``op_counts`` and
``entry_counts`` hold the exact integer counts of its leaves' vertex rows
merged pair by pair, each rounded once.  Pairs from a document or a caller
go through ``from_pairs``, which checks them and replays them over the
rows; the greedy pass and ``compose_plan_tree`` make valid pairs with their
figures and call the constructor.  What a query derives for the whole tree
is kept from its first read: the legs of every node (``legs(t)``), the
parent map (``parent(t)``) and the orders as tuples (``order``, the root
postorder, ``internal_order`` and ``leaf_order``, the sorted leaves);
``postorder(node)`` and ``internal_nodes(node)`` return fresh lists for
the subtree under ``node``.
"""

from __future__ import annotations

from .costs import rounded_count
from .network import NetworkError


class TreeError(ValueError):
    """Malformed contraction tree or invalid tree operation."""


def view_rows(net, nodes):
    """The exact rows of the vertices ``nodes`` as two lists keyed by position
    in ``nodes``: each vertex's entry count E, and a fresh ``{position: X}``
    of its ``vertex_row`` with the neighbours outside ``nodes`` dropped, so
    their edges stay open legs."""
    where = {v: p for p, v in enumerate(nodes)}.get
    entries = []
    shared = []
    for v in nodes:
        e, row = net.vertex_row(v)
        entries.append(e)
        shared.append({p: x for u, x in row.items() if (p := where(u)) is not None})
    return entries, shared


def nested_to_pairs(nested, first_id):
    """Unchecked leaves and merge pairs of a nested ``[left, right]``
    structure, merges numbered from ``first_id`` in post-order."""
    leaves = []
    pairs = []
    done = []  # node ids of the finished subtrees, innermost last
    stack = [(nested, False)]
    while stack:
        spec, expanded = stack.pop()
        if expanded:
            right = done.pop()
            pairs.append((done.pop(), right))
            done.append(first_id + len(pairs) - 1)
        elif isinstance(spec, (list, tuple)):
            if len(spec) != 2:
                raise TreeError(f"internal node must have 2 children, got {len(spec)}")
            stack += [(spec, True), (spec[1], False), (spec[0], False)]
        else:
            leaves.append(spec)
            done.append(spec)
    return leaves, pairs


class ContractionTree:
    """One contraction order, stored as its leaves and merge pairs.

    Leaf node ids equal the vertex ids they stand for; internal node ids
    are given out from ``net.num_vertices`` upward in creation order and
    carry no meaning: trees of one shape built in different orders number
    their internal nodes differently.  Node ``t >= num_vertices`` is merge
    ``t - num_vertices``, so its children are that pair; a leaf's children
    are ``None``.

    ``op_counts`` and ``entry_counts``, keyed by node id, are what
    ``costs.node_ops`` and ``costs.legs_size`` read: a checked tree arrives
    with both filled by its replay, a greedy tree by its pass, and a
    composed plan tree with the figures of its parts.  The constructor
    checks nothing, and ``pairs`` is a list of tuples; ``from_pairs`` checks.
    """

    def __init__(self, network, leaves, pairs, op_counts, entry_counts):
        self.network = network
        self._leaves = leaves
        self._pairs = pairs
        self.op_counts = op_counts
        self.entry_counts = entry_counts
        self._parent = None
        self._legs = {}
        self._order = self._internal_order = self._leaf_order = None

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_pairs(cls, network, pairs, leaves=None):
        """Build a tree from an elimination sequence of node-id pairs.

        ``leaves`` defaults to all vertices of the network.  Each pair
        (x, y) creates a new internal node with children x and y; the new
        node's id is num_vertices + (number of pairs so far).  The
        sequence must consume every node exactly once and reduce the
        forest to a single root.  Each pair is replayed over the leaves'
        ``view_rows`` as it is checked, as ``pathfind._greedy_pass`` merges,
        to fill the memos.
        """
        leaves = list(network.vertices() if leaves is None else leaves)
        pos = {}  # each open root -> the position of its row
        for v in leaves:
            if v not in network.vertices():
                raise NetworkError(f"no vertex {v} in the network")
            if v in pos:
                raise TreeError(f"vertex {v} appears twice as a leaf")
            pos[v] = len(pos)
        entries, shared = view_rows(network, leaves)
        ops = {}
        sizes = {v: rounded_count(e) for v, e in zip(leaves, entries)}
        pairs = [(x, y) for x, y in pairs]
        for node, (x, y) in enumerate(pairs, network.num_vertices):
            if x not in pos:
                raise TreeError(f"node {x} is not an available root in the sequence")
            if y not in pos:
                raise TreeError(f"node {y} is not an available root in the sequence")
            if x == y:
                raise TreeError(f"pair ({x}, {y}) contracts a node with itself")
            i = pos[node] = pos.pop(x)  # the new piece takes over its left operand's row
            j = pos.pop(y)
            table = shared[i]
            shared_dims = table.pop(j, 1)
            for nb, d in shared[j].items():
                if nb != i:
                    table[nb] = table.get(nb, 1) * d
                    row = shared[nb]
                    del row[j]
                    row[i] = row.get(i, 1) * d
            product = entries[i] * entries[j]
            entries[i] = product // (shared_dims * shared_dims)
            ops[node] = rounded_count(product // shared_dims)
            sizes[node] = rounded_count(entries[i])
        if len(pos) != 1:
            raise TreeError(f"sequence leaves {len(pos)} roots; it must reduce to one")
        return cls(network, leaves, pairs, ops, sizes)

    # -- structure queries ---------------------------------------------------

    @property
    def root(self):
        pairs = self._pairs
        return self.network.num_vertices + len(pairs) - 1 if pairs else self._leaves[0]

    def children(self, t):
        j = t - self.network.num_vertices
        return self._pairs[j] if j >= 0 else None

    def parent(self, t):
        """The node whose pair holds ``t``, None at the root.  The first
        call builds the parent map of every node and keeps it."""
        parent = self._parent
        if parent is None:
            parent = self._parent = {self.root: None}
            for node, (x, y) in enumerate(self._pairs, self.network.num_vertices):
                parent[x] = parent[y] = node
        return parent[t]

    @property
    def leaf_order(self):
        """The leaves in ascending order, as a tuple kept for the tree's life."""
        leaves = self._leaf_order
        if leaves is None:
            leaves = self._leaf_order = tuple(sorted(self._leaves))
        return leaves

    def pairs(self):
        """The merge sequence the tree was built from, as a fresh list: pair
        ``j`` made node ``num_vertices + j``."""
        return list(self._pairs)

    def postorder(self, node):
        """Nodes of the subtree under ``node``, children first, as a fresh list.

        The order is deterministic: left child's subtree, right child's
        subtree, then the node.
        """
        pairs, first = self._pairs, self.network.num_vertices
        out = []
        stack = [node]
        while stack:  # node, right subtree, left subtree: postorder reversed
            t = stack.pop()
            out.append(t)
            if t >= first:
                stack += pairs[t - first]
        out.reverse()
        return out

    @property
    def order(self):
        """``postorder`` of the root, as a tuple kept for the tree's life."""
        order = self._order
        if order is None:
            order = self._order = tuple(self.postorder(self.root))
        return order

    @property
    def internal_order(self):
        """The internal nodes of ``order``, in that order, as a tuple."""
        internal = self._internal_order
        if internal is None:
            first = self.network.num_vertices
            internal = self._internal_order = tuple(t for t in self.order if t >= first)
        return internal

    def internal_nodes(self, node):
        """The internal nodes of ``postorder(node)``, in that order."""
        first = self.network.num_vertices
        return [t for t in self.postorder(node) if t >= first]

    # -- legs and leaf sets ----------------------------------------------------

    def legs(self, t):
        """Edge set of the intermediate tensor at node ``t``.  The first read
        derives and keeps the legs of every node: the leaves', then each
        merge's in creation order."""
        memo = self._legs
        if not memo:
            memo.update(zip(self._leaves, map(self.network.leaf_legs, self._leaves)))
            for node, (x, y) in enumerate(self._pairs, self.network.num_vertices):
                memo[node] = memo[x] ^ memo[y]
        return memo[t]

    def subtree_leaf_tensors(self, t):
        """The set of network vertices mapped to leaves under ``t``."""
        first = self.network.num_vertices
        return {u for u in self.postorder(t) if u < first}

    # -- partitionings -----------------------------------------------------------

    def subtree_roots(self, blocks):
        """For each block, the node whose leaf set equals it, or None.

        Returns a list aligned with ``blocks`` when every block is realized
        by a subtree (i.e. the tree accepts the partitioning), else None.
        The blocks are disjoint vertex sets.  One pass over the leaves, then
        the merges in creation order, labels each node with the block all of
        its leaves share and counts its leaves; a block is realized when its
        topmost labelled node has ``len(block)`` leaves.
        """
        where = {v: i for i, block in enumerate(blocks) for v in block}
        label = {v: where.get(v) for v in self._leaves}  # node -> the block holding all its leaves, or None
        size = dict.fromkeys(self._leaves, 1)
        for t, (x, y) in enumerate(self._pairs, self.network.num_vertices):
            label[t] = label[x] if label[x] == label[y] else None
            size[t] = size[x] + size[y]
        top = {b: t for t, b in label.items() if b is not None}  # creation order: the last is topmost
        roots = []
        for b, block in enumerate(blocks):
            t = top.get(b)
            if t is None or size[t] != len(block):
                return None
            roots.append(t)
        return roots


def compose_plan_tree(network, partition_trees, reduction):
    """Graft per-partition trees under a fan-in tree whose leaf ``i`` stands
    for partition ``i``, mapping node ids arithmetically: each partition's
    merge ids shift by the number of merges before it, then the fan-in's
    merges follow them all, with leaf ``i`` mapped to partition ``i``'s
    root.  The partition trees cover disjoint vertex sets and the fan-in
    tree's leaves are ``0..k-1``, as in every plan, so the pairs are valid
    by construction and not re-checked.

    The parts' ``op_counts`` and ``entry_counts`` carry over under the
    composed ids: a fan-in node stands for the same tensor as its composed
    node, so its figures are the same, and the composed tree is not costed
    again."""
    first = network.num_vertices
    leaves = []
    pairs = []
    roots = []
    ops = {}
    entries = {}

    def graft(tree, new):  # append the tree's pairs and figures under the ids ``new`` gives
        pairs.extend((new(x), new(y)) for x, y in tree._pairs)
        ops.update((new(t), n) for t, n in tree.op_counts.items())
        entries.update((new(t), n) for t, n in tree.entry_counts.items())
        return new(tree.root)

    for tree in partition_trees:
        shift = len(pairs)  # the tree's merge j becomes merge shift + j
        roots.append(graft(tree, lambda t: t if t < first else t + shift))
        leaves += tree._leaves
    k = len(roots)
    shift = first + len(pairs) - k  # fan-in merge k + j follows every partition merge
    graft(reduction, lambda t: roots[t] if t < k else t + shift)
    return ContractionTree(network, leaves, pairs, ops, entries)
