"""Rooted binary contraction trees over a network or a vertex subset.

Leaves correspond one-to-one to network vertices (leaf node id == vertex
id); every internal node has exactly two children and stands for the
pairwise contraction of its children's results.  The legs of a node are
the edges of that intermediate tensor: for a leaf, the distinct non-loop
edges of its vertex; for an internal node, the symmetric difference of
the children's legs, so edges shared by the two operands are summed away.

A tree built over a subset of the vertices (a view) treats edges leaving
the view as open: they survive to the view root's legs.

Every tree goes through ``from_pairs``, which stores each node's legs and
leaf bitmask as the node is created; children always precede their
parent, so both are plain lookups afterwards and no query walks a subtree
to fill them.
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
    return frozenset(e for e in net.edges_of(v) if not net.edge(e).is_loop())


class ContractionTree:
    """One contraction order, stored as parent/child tables keyed by node id.

    Leaf node ids equal the vertex ids they stand for; internal node ids
    are allocated from ``net.num_vertices`` upward in creation order, so a
    fixed build sequence yields a fixed node numbering.  A leaf is a node
    whose children are ``None``.
    """

    def __init__(self, network):
        self.network = network
        self._children = {}
        self._parent = {}
        self._root = None
        self._legs = {}
        self._mask = {}
        self.scratch = {}

    # -- builders ----------------------------------------------------------

    @classmethod
    def single_leaf(cls, network, v):
        return cls.from_pairs(network, [], leaves=[v])

    @classmethod
    def from_pairs(cls, network, pairs, leaves=None):
        """Build a tree from an elimination sequence of node-id pairs.

        ``leaves`` defaults to all vertices of the network.  Each pair
        (x, y) creates a new internal node with children x and y; the new
        node's id is num_vertices + (number of pairs so far).  The
        sequence must consume every node exactly once and reduce the
        forest to a single root.
        """
        tree = cls(network)
        if leaves is None:
            leaves = list(network.vertices())
        for v in leaves:
            tree._add_leaf(v)
        open_roots = set(tree._children)
        legs = tree._legs
        mask = tree._mask
        next_id = network.num_vertices
        for x, y in pairs:
            if x not in open_roots:
                raise TreeError(f"node {x} is not an available root in the sequence")
            if y not in open_roots:
                raise TreeError(f"node {y} is not an available root in the sequence")
            if x == y:
                raise TreeError(f"pair ({x}, {y}) contracts a node with itself")
            node = next_id
            next_id += 1
            tree._children[node] = (x, y)
            tree._parent[x] = node
            tree._parent[y] = node
            tree._parent[node] = None
            legs[node] = legs[x] ^ legs[y]
            mask[node] = mask[x] | mask[y]
            open_roots.discard(x)
            open_roots.discard(y)
            open_roots.add(node)
        if len(open_roots) != 1:
            raise TreeError(
                f"sequence leaves {len(open_roots)} roots; it must reduce to one"
            )
        tree._root = open_roots.pop()
        return tree

    @classmethod
    def from_nested(cls, network, nested):
        """Build from a nested pair structure: a leaf is a vertex id, an
        internal node is a two-element list/tuple ``[left, right]``.

        Internal nodes are numbered in post-order of the structure."""
        leaves = []
        pairs = []

        def build(spec):
            if isinstance(spec, (list, tuple)):
                if len(spec) != 2:
                    raise TreeError(f"internal node must have 2 children, got {len(spec)}")
                pairs.append((build(spec[0]), build(spec[1])))
                return network.num_vertices + len(pairs) - 1
            if not isinstance(spec, int):
                raise TreeError(f"leaf must be an integer vertex id, got {spec!r}")
            leaves.append(spec)
            return spec

        build(nested)
        if len(set(leaves)) != len(leaves):
            raise TreeError("nested structure repeats a leaf")
        return cls.from_pairs(network, pairs, leaves=leaves)

    def _add_leaf(self, v):
        if v not in self.network._axis_edges:
            raise NetworkError(f"no vertex {v} in the network")
        if v in self._children:
            raise TreeError(f"vertex {v} appears twice as a leaf")
        self._children[v] = None
        self._parent[v] = None
        self._legs[v] = leaf_legs(self.network, v)
        self._mask[v] = 1 << v

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

    def leaf_vertex(self, t):
        """The network vertex a leaf node stands for (the identity map)."""
        if not self.is_leaf(t):
            raise TreeError(f"node {t} is not a leaf")
        return t

    def nodes(self):
        return list(self._children)

    def leaves(self):
        return sorted(t for t, ch in self._children.items() if ch is None)

    def num_leaves(self):
        return (len(self._children) + 1) // 2  # a full binary tree

    def postorder(self, node=None):
        """Nodes of the subtree under ``node`` (default: root), children first.

        The order is deterministic: left child's subtree, right child's
        subtree, then the node.
        """
        if node is None:
            node = self._root
        out = []
        stack = [(node, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded or self._children[t] is None:
                out.append(t)
                continue
            left, right = self._children[t]
            stack.append((t, True))
            stack.append((right, False))
            stack.append((left, False))
        return out

    def internal_nodes(self, node=None):
        return [t for t in self.postorder(node) if self._children[t] is not None]

    def ancestors(self, t):
        """Strict ancestors of ``t``, ordered parent first, root last."""
        out = []
        p = self._parent[t]
        while p is not None:
            out.append(p)
            p = self._parent[p]
        return out

    def shortest_path(self, u, v):
        """The unique tree path from ``u`` to ``v``, inclusive of both."""
        up = [u] + self.ancestors(u)
        vp = [v] + self.ancestors(v)
        anc_u = {t: i for i, t in enumerate(up)}
        for j, t in enumerate(vp):
            if t in anc_u:
                i = anc_u[t]
                return up[: i + 1] + vp[:j][::-1]
        raise TreeError(f"nodes {u} and {v} are not in the same tree")

    # -- legs and leaf sets ----------------------------------------------------

    def legs(self, t):
        """Edge set of the intermediate tensor at node ``t``."""
        return self._legs[t]

    def leaf_mask(self, t):
        """Bitmask of the leaf vertices under node ``t``."""
        return self._mask[t]

    def subtree_leaf_tensors(self, t):
        """The set of network vertices mapped to leaves under ``t``."""
        mask = self.leaf_mask(t)
        out = set()
        v = 0
        while mask:
            if mask & 1:
                out.add(v)
            mask >>= 1
            v += 1
        return out

    # -- partitionings -----------------------------------------------------------

    def subtree_roots(self, blocks):
        """For each block, the node whose leaf set equals it, or None.

        Returns a list aligned with ``blocks`` when every block is realized
        by a subtree (i.e. the tree accepts the partitioning), else None.
        """
        by_mask = {m: t for t, m in self._mask.items()}
        roots = []
        for block in blocks:
            mask = 0
            for v in block:
                mask |= 1 << v
            t = by_mask.get(mask)
            if t is None:
                return None
            roots.append(t)
        return roots

    def accepts_partitioning(self, blocks):
        """True when every block's leaf set is realized by some subtree."""
        return self.subtree_roots(blocks) is not None

    # -- edits and conversions ------------------------------------------------------

    def swap_children(self, t):
        """Swap the operand order at ``t``; legs and leaf sets are unaffected."""
        ch = self._children[t]
        if ch is None:
            raise TreeError(f"node {t} is a leaf")
        self._children[t] = (ch[1], ch[0])

    def to_nested(self):
        """Nested pair structure mirroring the tree (leaf = vertex id)."""

        def rec(t):
            ch = self._children[t]
            if ch is None:
                return t
            return [rec(ch[0]), rec(ch[1])]

        return rec(self._root)

    def clone(self):
        tree = ContractionTree(self.network)
        tree._children = dict(self._children)
        tree._parent = dict(self._parent)
        tree._root = self._root
        tree._legs = dict(self._legs)
        tree._mask = dict(self._mask)
        return tree


def compose_plan_tree(network, partition_trees, reduction_nested):
    """Graft per-partition trees under a fan-in structure.

    ``reduction_nested`` is a nested pair structure whose leaves are
    partition indices; each index is replaced by that partition's tree.
    Returns the composed tree over the union of the partitions' leaves.
    """

    def substitute(spec):
        if isinstance(spec, (list, tuple)):
            return [substitute(spec[0]), substitute(spec[1])]
        return partition_trees[spec].to_nested()

    return ContractionTree.from_nested(network, substitute(reduction_nested))
