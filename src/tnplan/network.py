"""Tensor network graph model: vertices, dimensioned edges, and open legs.

A network is a multigraph whose vertices carry (optionally materialized)
dense complex tensors.  Every tensor axis is attached to exactly one edge.
An edge either joins two axes (a bound edge, possibly a self-loop joining
two axes of the same tensor) or joins one axis to the dummy endpoint
``OPEN``, which marks an unbound leg of the network.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

OPEN = -1
"""Dummy endpoint id marking an unbound axis."""


class NetworkError(ValueError):
    """Structural problem in a tensor network."""


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x):
    return (isinstance(x, float) or _is_int(x)) and abs(x) <= sys.float_info.max


@dataclass(frozen=True)
class Edge:
    """One edge: a dimension plus two (vertex, axis) endpoints.

    ``ends`` is ordered but the order carries no meaning.  At most one
    endpoint may be the ``OPEN`` dummy; its axis slot is always 0.
    """

    id: int
    dim: int
    ends: tuple[tuple[int, int], tuple[int, int]]

    def is_open(self):
        return self.ends[0][0] == OPEN or self.ends[1][0] == OPEN

    def is_loop(self):
        u, v = self.ends[0][0], self.ends[1][0]
        return u == v and u != OPEN

    def other_end(self, w):
        """The endpoint opposite to vertex ``w`` (ambiguous for loops)."""
        if self.ends[0][0] == w:
            return self.ends[1]
        if self.ends[1][0] == w:
            return self.ends[0]
        raise NetworkError(f"vertex {w} is not an endpoint of edge {self.id}")


class TensorNetwork:
    """Mutable builder and read-only query surface for one tensor network.

    Vertices are numbered densely from 0 in insertion order.  Edge ids are
    never reused after deletion, so ids stay stable across ``bond`` calls.
    The network is meant to be built once and treated as immutable while
    plans are computed against it.

    Three tables serve the plan search.  ``edge_dims`` maps every live
    edge id to its dimension, so a leg set's entry count is one product
    over it.  ``leaf_legs`` and ``vertex_row`` fill per-vertex tables of
    planning legs and of exact integer rows on first read.  ``add_tensor``
    and ``bond`` keep all three current; treat ``edge_dims`` as read-only.
    The partitioner reads adjacency from ``vertex_row`` too, and
    ``axis_edges`` is the one list of a vertex's edges.
    """

    def __init__(self):
        self._axis_edges = {}
        self._edges = {}
        self._payloads = {}
        self._next_edge = 0
        self.edge_dims = {}
        self._leaf_legs = {}
        self._rows = {}

    # -- construction ----------------------------------------------------

    def add_tensor(self, dims, payload=None):
        """Add a tensor with the given axis dimensions; returns the vertex id.

        Every axis starts out as its own open edge.  ``dims`` may be empty
        (a scalar).  ``payload``, if given, must hold exactly prod(dims)
        complex entries and is stored row-major in axis order.
        """
        dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in dims):
            raise NetworkError(f"axis dimensions must be >= 1, got {dims}")
        v = len(self._axis_edges)
        axes = []
        for a, d in enumerate(dims):
            e = self._new_edge(d, ((v, a), (OPEN, 0)))
            axes.append(e)
        self._axis_edges[v] = axes
        if payload is not None:
            arr = np.asarray(payload, dtype=np.complex128).reshape(dims)
            self._payloads[v] = arr
        else:
            self._payloads[v] = None
        return v

    def bond(self, u, a, v, b):
        """Join axis ``a`` of ``u`` with axis ``b`` of ``v``; returns the new edge id.

        Both axes must currently be open and have equal dimensions.  A
        self-loop (``u == v`` with ``a != b``) is allowed and produces a
        bound trace edge.
        """
        if u == v and a == b:
            raise NetworkError("cannot bond an axis to itself")
        ea = self._axis_edge_checked(u, a)
        eb = self._axis_edge_checked(v, b)
        if not ea.is_open():
            raise NetworkError(f"axis {a} of vertex {u} is already bound")
        if not eb.is_open():
            raise NetworkError(f"axis {b} of vertex {v} is already bound")
        if ea.dim != eb.dim:
            raise NetworkError(
                f"dimension mismatch: ({u},{a}) has {ea.dim}, ({v},{b}) has {eb.dim}"
            )
        for old in (ea.id, eb.id):
            del self._edges[old]
            del self.edge_dims[old]
        e = self._new_edge(ea.dim, ((u, a), (v, b)))
        self._axis_edges[u][a] = e
        self._axis_edges[v][b] = e
        for w in (u, v):
            self._leaf_legs.pop(w, None)
            self._rows.pop(w, None)
        return e

    def _new_edge(self, dim, ends):
        eid = self._next_edge
        self._next_edge += 1
        self._edges[eid] = Edge(eid, dim, ends)
        self.edge_dims[eid] = dim
        return eid

    def _axis_edge_checked(self, v, a):
        if v not in self._axis_edges:
            raise NetworkError(f"no vertex {v}")
        axes = self._axis_edges[v]
        if not 0 <= a < len(axes):
            raise NetworkError(f"vertex {v} has no axis {a} (degree {len(axes)})")
        return self._edges[axes[a]]

    # -- queries ----------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self._axis_edges)

    def vertices(self):
        return range(len(self._axis_edges))

    def axis_edges(self, v):
        """Edge id attached to each axis of ``v``, in axis order."""
        return tuple(self._axis_edges[v])

    def edge(self, e):
        return self._edges[e]

    def edge_dim(self, e):
        return self.edge_dims[e]

    def leaf_legs(self, v):
        """Planning legs of ``v``: its distinct incident edges, self-loops
        dropped.  A self-loop is a trace internal to the tensor; the
        executor sums it out when the leaf is loaded, so it never appears
        on an intermediate.  Computed on first read and kept until
        ``bond`` touches ``v``."""
        legs = self._leaf_legs.get(v)
        if legs is None:
            legs = self._leaf_legs[v] = frozenset(
                e for e in self._axis_edges[v] if not self._edges[e].is_loop()
            )
        return legs

    def vertex_row(self, v):
        """The exact integer row of ``v``: (E, {u: X}).

        E is the product of the dimensions over ``leaf_legs(v)``, and X,
        for each other vertex ``u`` sharing a bound edge with ``v``, the
        product of the dimensions of all edges joining them (parallel and
        dimension-1 edges included).  Self-loops count in neither, open
        legs only in E.  Computed on first read and kept until ``bond``
        touches ``v``; callers must not edit the row.
        """
        row = self._rows.get(v)
        if row is None:
            entries = 1
            shared = {}
            for e in self._axis_edges[v]:
                ed = self._edges[e]
                if ed.is_loop():
                    continue
                entries *= ed.dim
                u = ed.other_end(v)[0]
                if u != OPEN:
                    shared[u] = shared.get(u, 1) * ed.dim
            row = self._rows[v] = (entries, shared)
        return row

    def dims_of(self, v):
        return tuple(self._edges[e].dim for e in self._axis_edges[v])

    def payload(self, v):
        return self._payloads[v]

    def has_payloads(self):
        return all(arr is not None for arr in self._payloads.values())

    def bound_edges(self):
        return frozenset(e for e, ed in self._edges.items() if not ed.is_open())

    def neighbors(self, v):
        """The other vertices joined to ``v`` by at least one bound edge: the
        keys of its ``vertex_row``, which this fills if it is not cached."""
        return self.vertex_row(v)[1].keys()

    # -- serialization ----------------------------------------------------

    def to_json(self, include_data=True, indent=None):
        """Serialize to the interchange JSON format (returns text).

        Tensor data, when present and requested, is written as a flat
        row-major list of interleaved real/imaginary parts.
        """
        tensors = []
        for v in self.vertices():
            entry = {"id": v, "dims": list(self.dims_of(v)), "data": None}
            arr = self._payloads[v]
            if include_data and arr is not None:
                flat = arr.reshape(-1)
                inter = np.empty(2 * flat.size, dtype=float)
                inter[0::2] = flat.real
                inter[1::2] = flat.imag
                entry["data"] = inter.tolist()
            tensors.append(entry)
        bonds = []
        for e in sorted(self._edges):
            ed = self._edges[e]
            if ed.is_open():
                continue
            (u, a), (v, b) = sorted(ed.ends)
            bonds.append({"u": u, "a": a, "v": v, "b": b})
        bonds.sort(key=lambda d: (d["u"], d["a"]))
        return json.dumps({"tensors": tensors, "bonds": bonds}, sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text):
        """Parse the interchange JSON format into a network.

        Accepts either JSON text or an already-parsed document.  Tensor
        ids must form the dense range 0..n-1, dims must be ints >= 1 that
        a float holds, and nothing is coerced.  The network may be
        disconnected: the planner joins its components by outer products.
        """
        if isinstance(text, (str, bytes, bytearray)):
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise NetworkError(f"invalid JSON: {exc}") from exc
        else:
            doc = text
        tensors = doc.get("tensors") if isinstance(doc, dict) else None
        if not isinstance(tensors, list) or not all(isinstance(t, dict) for t in tensors):
            raise NetworkError("network document must be an object with a 'tensors' list")
        if not tensors:
            raise NetworkError("network document has no tensors")
        ids = [t.get("id") for t in tensors]
        if not all(_is_int(i) for i in ids) or sorted(ids) != list(range(len(tensors))):
            raise NetworkError(f"tensor ids must be dense 0..{len(tensors) - 1}, got {ids}")
        net = cls()
        for entry in sorted(tensors, key=lambda t: t["id"]):
            dims = entry.get("dims")
            if not isinstance(dims, list) or not all(_is_int(d) and 1 <= d <= sys.float_info.max for d in dims):
                raise NetworkError(f"tensor {entry['id']}: dims must be a list of ints in 1..{sys.float_info.max:.3g}")
            data = entry.get("data")
            payload = None
            if data is not None:
                size = math.prod(dims)
                if not isinstance(data, list) or len(data) != 2 * size:
                    raise NetworkError(
                        f"tensor {entry['id']}: data must be a list of {2 * size} floats "
                        f"for dims {dims}"
                    )
                if not all(_is_number(x) for x in data):
                    raise NetworkError(f"tensor {entry['id']}: data must be a flat list of numbers")
                raw = np.asarray(data, dtype=float)
                payload = raw[0::2] + 1j * raw[1::2]
            net.add_tensor(dims, payload)
        bonds = doc.get("bonds", [])
        if not isinstance(bonds, list):
            raise NetworkError("'bonds' must be a list")
        for b in bonds:
            ends = [b.get(k) for k in "uavb"] if isinstance(b, dict) else [None]
            if not all(_is_int(x) for x in ends):
                raise NetworkError(f"bond entry {b!r} needs int fields u, a, v, b")
            net.bond(*ends)
        return net
