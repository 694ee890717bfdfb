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

A tree reads ``num_vertices``, ``vertices()``, ``leaf_legs(v)`` (a frozenset
of int edge ids) and, in the cost functions, ``edge_dims[e]`` of its network:
a ``TensorNetwork`` or a fan-in network, ``pathfind.FanInNetwork``.

A tree has one encoding, its merge pairs (the SSA form of opt_einsum's
``ssa_path``): leaves keep their vertex ids and merge ``j`` creates node
``num_vertices + j``.  Every tree is built by ``from_valid_pairs``, which
records only the structure; trees are never edited after construction.
The first ``legs(t)`` read derives the legs of every node, children
first, and keeps them, so a tree whose legs are never read (an annealing
proposal's) never builds a leg set.  The orders are memoized the same
way: the first read of ``order`` (the root postorder), ``internal_order``
or ``leaf_order`` (the sorted leaves) keeps a tuple, which every reader
of the whole tree reads; ``postorder(node)`` and ``internal_nodes(node)``
return fresh lists for the subtree under ``node``.  Pairs from a
document or a caller go through ``from_pairs``, which checks them first;
the greedy pass and ``compose_plan_tree`` make valid pairs by
construction and build directly.
"""

from __future__ import annotations

from .network import NetworkError


class TreeError(ValueError):
    """Malformed contraction tree or invalid tree operation."""


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
    """One contraction order, stored as parent/child tables keyed by node id.

    Leaf node ids equal the vertex ids they stand for; internal node ids
    are given out from ``net.num_vertices`` upward in creation order and
    carry no meaning: trees of one shape built in different orders number
    their internal nodes differently.  A leaf is a node whose children
    are ``None``.

    ``op_counts`` and ``entry_counts`` are the memo tables, keyed by node
    id, of ``costs.node_ops`` and ``costs.legs_size``; a greedy tree
    arrives with both filled by its pass, and a composed plan tree with
    the figures of its parts.
    """

    def __init__(self, network):
        self.network = network
        self._children = {}
        self._parent = {}
        self._root = None
        self._legs = {}
        self._order = self._internal_order = self._leaf_order = None
        self.op_counts = {}
        self.entry_counts = {}

    # -- builders ----------------------------------------------------------

    @classmethod
    def from_pairs(cls, network, pairs, leaves=None):
        """Build a tree from an elimination sequence of node-id pairs.

        ``leaves`` defaults to all vertices of the network.  Each pair
        (x, y) creates a new internal node with children x and y; the new
        node's id is num_vertices + (number of pairs so far).  The
        sequence must consume every node exactly once and reduce the
        forest to a single root.
        """
        if leaves is None:
            leaves = list(network.vertices())
        open_roots = set()
        for v in leaves:
            if v not in network.vertices():
                raise NetworkError(f"no vertex {v} in the network")
            if v in open_roots:
                raise TreeError(f"vertex {v} appears twice as a leaf")
            open_roots.add(v)
        pairs = [(x, y) for x, y in pairs]
        for node, (x, y) in enumerate(pairs, network.num_vertices):
            if x not in open_roots:
                raise TreeError(f"node {x} is not an available root in the sequence")
            if y not in open_roots:
                raise TreeError(f"node {y} is not an available root in the sequence")
            if x == y:
                raise TreeError(f"pair ({x}, {y}) contracts a node with itself")
            open_roots.discard(x)
            open_roots.discard(y)
            open_roots.add(node)
        if len(open_roots) != 1:
            raise TreeError(
                f"sequence leaves {len(open_roots)} roots; it must reduce to one"
            )
        return cls.from_valid_pairs(network, pairs, leaves)

    @classmethod
    def from_valid_pairs(cls, network, pairs, leaves):
        """``from_pairs`` without its checks, for pairs known to be valid,
        each a tuple."""
        tree = cls(network)
        children = tree._children = dict.fromkeys(leaves)
        parent = tree._parent = {}
        ids = range(network.num_vertices, network.num_vertices + len(pairs))
        children.update(zip(ids, pairs))
        for node, (x, y) in zip(ids, pairs):
            parent[x] = parent[y] = node
        tree._root = ids[-1] if pairs else leaves[0]
        parent[tree._root] = None
        return tree

    # -- structure queries ---------------------------------------------------

    @property
    def root(self):
        return self._root

    def children(self, t):
        return self._children[t]

    def parent(self, t):
        return self._parent[t]

    @property
    def leaf_order(self):
        """The leaves in ascending order, as a tuple kept for the tree's life."""
        leaves = self._leaf_order
        if leaves is None:
            leaves = self._leaf_order = tuple(sorted(t for t, ch in self._children.items() if ch is None))
        return leaves

    def pairs(self):
        """The merge sequence the tree was built from: pair ``j`` made node ``num_vertices + j``."""
        first = self.network.num_vertices
        return [self._children[first + j] for j in range(len(self._children) // 2)]

    def postorder(self, node):
        """Nodes of the subtree under ``node``, children first, as a fresh list.

        The order is deterministic: left child's subtree, right child's
        subtree, then the node.
        """
        children = self._children
        out = []
        stack = [node]
        while stack:  # node, right subtree, left subtree: postorder reversed
            t = stack.pop()
            out.append(t)
            ch = children[t]
            if ch is not None:
                stack += ch
        out.reverse()
        return out

    @property
    def order(self):
        """``postorder`` of the root, as a tuple kept for the tree's life."""
        order = self._order
        if order is None:
            order = self._order = tuple(self.postorder(self._root))
        return order

    @property
    def internal_order(self):
        """The internal nodes of ``order``, in that order, as a tuple."""
        internal = self._internal_order
        if internal is None:
            children = self._children
            internal = self._internal_order = tuple(t for t in self.order if children[t] is not None)
        return internal

    def internal_nodes(self, node):
        """The internal nodes of ``postorder(node)``, in that order."""
        return [t for t in self.postorder(node) if self._children[t] is not None]

    # -- legs and leaf sets ----------------------------------------------------

    def legs(self, t):
        """Edge set of the intermediate tensor at node ``t``.  The first read
        derives and keeps the legs of every node, children first."""
        memo = self._legs
        if not memo:
            leaf_legs = self.network.leaf_legs
            for u, ch in self._children.items():  # creation order: children first
                memo[u] = leaf_legs(u) if ch is None else memo[ch[0]] ^ memo[ch[1]]
        return memo[t]

    def subtree_leaf_tensors(self, t):
        """The set of network vertices mapped to leaves under ``t``."""
        return {u for u in self.postorder(t) if self._children[u] is None}

    # -- partitionings -----------------------------------------------------------

    def subtree_roots(self, blocks):
        """For each block, the node whose leaf set equals it, or None.

        Returns a list aligned with ``blocks`` when every block is realized
        by a subtree (i.e. the tree accepts the partitioning), else None.
        The blocks are disjoint vertex sets.  One pass over the nodes,
        children first, labels each node with the block all of its leaves
        share and counts its leaves; a block is realized when its topmost
        labelled node has ``len(block)`` leaves.
        """
        where = {v: i for i, block in enumerate(blocks) for v in block}
        label = {}  # node -> index of the block holding all its leaves, or None
        size = {}
        top = [None] * len(blocks)
        for t, ch in self._children.items():  # creation order: children first
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


def compose_plan_tree(network, partition_trees, reduction):
    """Graft per-partition trees under a fan-in tree whose leaf ``i`` stands
    for partition ``i``, in one ``from_valid_pairs`` call: each partition's
    pairs offset past the merges before them, then the fan-in pairs with
    leaf ``i`` mapped to partition ``i``'s root.  The partition trees cover
    disjoint vertex sets and the fan-in tree's leaves are ``0..k-1``, as in
    every plan, so the pairs are valid by construction and not re-checked.

    The parts' ``op_counts`` and ``entry_counts`` carry over under the
    composed ids: a fan-in node has the legs of its composed node, so its
    figures are the same, and the composed tree is not costed again."""
    first = network.num_vertices
    leaves = []
    pairs = []
    roots = []
    ops = {}
    entries = {}

    def graft(tree, ids):
        pairs.extend((ids[x], ids[y]) for x, y in tree.pairs())
        ops.update((ids[t], n) for t, n in tree.op_counts.items())
        entries.update((ids[t], n) for t, n in tree.entry_counts.items())

    for tree in partition_trees:
        shift = len(pairs)
        ids = {t: t if t < first else t + shift for t in tree.order}
        graft(tree, ids)
        leaves += tree.leaf_order
        roots.append(ids[tree.root])
    k = len(roots)
    ids = dict(enumerate(roots))  # a fan-in tree over k leaves makes k - 1 merges
    ids.update((k + j, first + len(pairs) + j) for j in range(k - 1))
    graft(reduction, ids)
    tree = ContractionTree.from_valid_pairs(network, pairs, leaves)
    tree.op_counts, tree.entry_counts = ops, entries
    return tree
