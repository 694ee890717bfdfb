"""Rooted binary contraction trees over a network or a vertex subset.

Leaves correspond one-to-one to network vertices (leaf node id == vertex
id); every internal node has exactly two children and stands for the
pairwise contraction of its children's results.  The legs of a node are
the edges of that intermediate tensor: for a leaf, the distinct non-loop
edges of its vertex; for an internal node, the symmetric difference of
the children's legs, so edges shared by the two operands are summed away.

A tree built over a subset of the vertices (a view) treats edges leaving
the view as open: they survive to the view root's legs.

A tree reads ``num_vertices``, ``vertices()``, ``leaf_legs(v)`` (a frozenset
of int edge ids) and, in the cost functions, ``edge_dims[e]`` of its network:
a ``TensorNetwork`` or a fan-in network, ``pathfind.FanInNetwork``.

A tree has one encoding, its merge pairs (the SSA form of opt_einsum's
``ssa_path``): leaves keep their vertex ids and merge ``j`` creates node
``num_vertices + j``.  Every tree is built by ``from_valid_pairs``, which
stores each node's legs as the node is created, so they are plain lookups
afterwards; trees are never edited after construction.  Pairs from a
document or a caller go through ``from_pairs``, which checks them first;
the greedy pass and ``compose_plan_tree`` make valid pairs by
construction and build directly.
"""

from __future__ import annotations

from .network import NetworkError


class TreeError(ValueError):
    """Malformed contraction tree or invalid tree operation."""


def leaf_legs(net, v):
    """Planning legs of vertex ``v``: distinct incident edges, loops dropped.

    A self-loop is a trace internal to the tensor; the executor sums it
    out when the leaf is loaded, so it never appears on an intermediate.
    """
    return net.leaf_legs(v)


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
    arrives with both filled by its pass.
    """

    def __init__(self, network):
        self.network = network
        self._children = {}
        self._parent = {}
        self._root = None
        self._legs = {}
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
        """``from_pairs`` without its checks, for pairs known to be valid."""
        tree = cls(network)
        children, parent, legs = tree._children, tree._parent, tree._legs
        for v in leaves:
            children[v] = None
            parent[v] = None
            legs[v] = network.leaf_legs(v)
        node = network.num_vertices
        for x, y in pairs:
            children[node] = (x, y)
            parent[x] = parent[y] = node
            parent[node] = None
            legs[node] = legs[x] ^ legs[y]
            node += 1
        tree._root = node - 1 if pairs else leaves[0]
        return tree

    # -- structure queries ---------------------------------------------------

    @property
    def root(self):
        return self._root

    def is_leaf(self, t):
        return self._children[t] is None

    def children(self, t):
        return self._children[t]

    def parent(self, t):
        return self._parent[t]

    def leaves(self):
        return sorted(t for t, ch in self._children.items() if ch is None)

    def pairs(self):
        """The merge sequence the tree was built from: pair ``j`` made node ``num_vertices + j``."""
        first = self.network.num_vertices
        return [self._children[first + j] for j in range(len(self._children) // 2)]

    def postorder(self, node=None):
        """Nodes of the subtree under ``node`` (default: root), children first.

        The order is deterministic: left child's subtree, right child's
        subtree, then the node.
        """
        children = self._children
        out = []
        stack = [self._root if node is None else node]
        while stack:  # node, right subtree, left subtree: postorder reversed
            t = stack.pop()
            out.append(t)
            ch = children[t]
            if ch is not None:
                stack += ch
        out.reverse()
        return out

    def internal_nodes(self, node=None):
        return [t for t in self.postorder(node) if self._children[t] is not None]

    # -- legs and leaf sets ----------------------------------------------------

    def legs(self, t):
        """Edge set of the intermediate tensor at node ``t``."""
        return self._legs[t]

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

    def accepts_partitioning(self, blocks):
        """True when every block's leaf set is realized by some subtree."""
        return self.subtree_roots(blocks) is not None


def compose_plan_tree(network, partition_trees, reduction):
    """Graft per-partition trees under a fan-in tree whose leaf ``i`` stands
    for partition ``i``, in one ``from_valid_pairs`` call: each partition's
    pairs offset past the merges before them, then the fan-in pairs with
    leaf ``i`` mapped to partition ``i``'s root.  The partition trees cover
    disjoint vertex sets and the fan-in tree's leaves are ``0..k-1``, as in
    every plan, so the pairs are valid by construction and not re-checked."""
    first = network.num_vertices
    leaves = []
    pairs = []
    roots = []
    for tree in partition_trees:
        shift = len(pairs)
        pairs += [(x if x < first else x + shift, y if y < first else y + shift)
                  for x, y in tree.pairs()]
        leaves += tree.leaves()
        roots.append(tree.root if tree.root < first else tree.root + shift)
    k = len(roots)
    shift = first + len(pairs) - k
    pairs += [(roots[x] if x < k else x + shift, roots[y] if y < k else y + shift)
              for x, y in reduction.pairs()]
    return ContractionTree.from_valid_pairs(network, pairs, leaves)
