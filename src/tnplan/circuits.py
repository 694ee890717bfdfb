"""Quantum circuit parsing and conversion to closed amplitude networks.

A single-amplitude computation <bits|C|init> becomes a tensor network with
one rank-1 tensor per qubit for the initial state, one rank-2k tensor per
k-qubit gate, and one rank-1 projection tensor per qubit, every dimension
equal to 2.  The network has no open legs; its full contraction is the
requested amplitude.

Gate matrix convention: a k-qubit gate matrix is 2^k x 2^k and acts on
basis states indexed with targets[0] as the most significant bit.  The
gate tensor is that matrix reshaped to 2k axes, output axes first, so
axis i is the output wire of targets[i] and axis k+i its input wire.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .network import TensorNetwork, _is_int, _is_number

UNITARITY_TOL = 1e-10


class CircuitError(ValueError):
    """Malformed circuit document or gate description."""


def _fixed(mat):
    return np.asarray(mat, dtype=np.complex128)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)

_FIXED_GATES = {
    "H": _fixed([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]]),
    "X": _fixed([[0, 1], [1, 0]]),
    "Y": _fixed([[0, -1j], [1j, 0]]),
    "Z": _fixed([[1, 0], [0, -1]]),
    "S": _fixed([[1, 0], [0, 1j]]),
    "T": _fixed([[1, 0], [0, np.exp(1j * math.pi / 4)]]),
    "CX": _fixed([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "CZ": _fixed(np.diag([1, 1, 1, -1])),
    "SWAP": _fixed([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    "CCX": _fixed(np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]]),
}

_ROTATIONS = {"RX", "RY", "RZ"}

_ARITY = {name: int(math.log2(m.shape[0])) for name, m in _FIXED_GATES.items()}
_ARITY.update({name: 1 for name in _ROTATIONS})


def _rotation_matrix(name, theta):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if name == "RX":
        return _fixed([[c, -1j * s], [-1j * s, c]])
    if name == "RY":
        return _fixed([[c, -s], [s, c]])
    return _fixed([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


@dataclass
class Gate:
    name: str
    targets: tuple
    matrix: np.ndarray
    params: tuple = ()


@dataclass
class Circuit:
    n_qubits: int
    gates: list = field(default_factory=list)


def _check_unitary(mat, label):
    dim = mat.shape[0]
    dev = np.max(np.abs(mat @ mat.conj().T - np.eye(dim)))
    if dev > UNITARITY_TOL:
        raise CircuitError(f"{label}: matrix is not unitary (deviation {dev:.3e})")


def _parse_matrix(raw, k, label):
    """Decode a gate matrix from JSON.

    Two encodings are accepted: a flat row-major list of 4^k [re, im]
    pairs, or 2^k rows of 2^k entries where each entry is a real number
    or an [re, im] pair.  The outer length tells them apart.
    """
    dim = 2 ** k
    if not isinstance(raw, list):
        raise CircuitError(f"{label}: matrix must be a list")

    def entry(x, where):
        if _is_number(x):
            return complex(x)
        if isinstance(x, list) and len(x) == 2 and all(_is_number(p) for p in x):
            return complex(x[0], x[1])
        raise CircuitError(f"{label}: bad matrix entry at {where}: {x!r}")

    if len(raw) == dim * dim:
        flat = [entry(x, i) for i, x in enumerate(raw)]
        mat = np.array(flat, dtype=np.complex128).reshape(dim, dim)
    elif len(raw) == dim:
        rows = []
        for i, row in enumerate(raw):
            if not isinstance(row, list) or len(row) != dim:
                raise CircuitError(f"{label}: row {i} must hold {dim} entries")
            rows.append([entry(x, (i, j)) for j, x in enumerate(row)])
        mat = np.array(rows, dtype=np.complex128)
    else:
        raise CircuitError(
            f"{label}: matrix for {k} qubit(s) needs {dim * dim} flat pairs "
            f"or {dim} rows, got length {len(raw)}"
        )
    _check_unitary(mat, label)
    return mat


def make_gate(name, targets, params=(), matrix=None):
    """Build a validated Gate from a name or an explicit matrix."""
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise CircuitError(f"gate {name!r}: repeated target in {targets}")
    if not targets:
        raise CircuitError(f"gate {name!r}: no targets")
    params = tuple(float(p) for p in params)
    canon = str(name).upper()
    if matrix is not None:
        mat = np.asarray(matrix, dtype=np.complex128)
        dim = 2 ** len(targets)
        if mat.shape != (dim, dim):
            raise CircuitError(
                f"gate {name!r}: matrix shape {mat.shape} does not fit {len(targets)} target(s)"
            )
        _check_unitary(mat, f"gate {name!r}")
        return Gate(str(name), targets, mat, params)
    if canon in _ROTATIONS:
        if len(params) != 1:
            raise CircuitError(f"gate {canon} needs exactly one angle parameter")
        mat = _rotation_matrix(canon, params[0])
    elif canon in _FIXED_GATES:
        if params:
            raise CircuitError(f"gate {canon} takes no parameters")
        mat = _FIXED_GATES[canon]
    else:
        raise CircuitError(f"unknown gate {name!r} and no explicit matrix given")
    if len(targets) != _ARITY[canon]:
        raise CircuitError(
            f"gate {canon} acts on {_ARITY[canon]} qubit(s), got targets {targets}"
        )
    return Gate(canon, targets, mat, params)


def circuit_from_dict(doc):
    """Parse a circuit document; anything malformed raises ``CircuitError``.

    Qubit counts and targets must be integers and angles and matrix
    entries numbers; booleans are neither, and nothing is coerced.
    """
    if not isinstance(doc, dict):
        raise CircuitError("circuit document must be a JSON object")
    n = doc.get("qubits")
    if not _is_int(n) or not 1 <= n <= sys.maxsize:
        raise CircuitError(f"'qubits' must be a positive integer that fits an index, got {n!r}")
    raw_gates = doc.get("gates", [])
    if not isinstance(raw_gates, list):
        raise CircuitError(f"'gates' must be a list, got {raw_gates!r}")
    gates = []
    for idx, g in enumerate(raw_gates):
        if not isinstance(g, dict):
            raise CircuitError(f"gate {idx} must be an object")
        name = g.get("name")
        targets = g.get("targets")
        if name is None or not isinstance(targets, list):
            raise CircuitError(f"gate {idx} needs 'name' and a 'targets' list")
        for t in targets:
            if not _is_int(t) or not 0 <= t < n:
                raise CircuitError(f"gate {idx} ({name!r}): target {t!r} out of range 0..{n - 1}")
        params = g.get("params", [])
        if not isinstance(params, list) or not all(_is_number(p) for p in params):
            raise CircuitError(f"gate {idx} ({name!r}): 'params' must be a list of numbers")
        matrix = None
        if "matrix" in g and g["matrix"] is not None:
            matrix = _parse_matrix(g["matrix"], len(targets), f"gate {idx} ({name!r})")
        gates.append(make_gate(name, targets, params, matrix))
    return Circuit(n, gates)


def circuit_to_dict(circuit):
    gates = []
    for g in circuit.gates:
        entry = {"name": g.name, "targets": list(g.targets)}
        if g.params:
            entry["params"] = list(g.params)
        canon = g.name.upper()
        derivable = canon in _FIXED_GATES or (canon in _ROTATIONS and g.params)
        if not derivable:
            flat = g.matrix.reshape(-1)
            entry["matrix"] = [[float(z.real), float(z.imag)] for z in flat]
        gates.append(entry)
    return {"qubits": circuit.n_qubits, "gates": gates}


def circuit_to_json(circuit):
    return json.dumps(circuit_to_dict(circuit), sort_keys=True)


def _check_bits(bits, n, label):
    if bits is None:
        return "0" * n
    if len(bits) != n or any(c not in "01" for c in bits):
        raise CircuitError(f"{label} must be a length-{n} string over 0/1, got {bits!r}")
    return bits


def circuit_to_network(circuit, bits=None, initial=None):
    """Closed network whose contraction is the amplitude <bits|C|initial>.

    Both bitstrings default to all zeros.  Tensors appear in a fixed
    order: n initial-state vectors, the gate tensors in program order,
    then n projection vectors, for 2n + #gates tensors total.  The
    network is connected exactly when the circuit's qubit coupling graph
    is; otherwise its components contract independently and the planner
    joins the component scalars by outer products, which multiplies the
    per-component amplitudes.
    """
    n = circuit.n_qubits
    bits = _check_bits(bits, n, "amplitude bitstring")
    initial = _check_bits(initial, n, "initial-state bitstring")
    basis = {"0": [1.0, 0.0], "1": [0.0, 1.0]}
    net = TensorNetwork()
    wires = []
    for q in range(n):
        v = net.add_tensor([2], payload=basis[initial[q]])
        wires.append((v, 0))
    for gate in circuit.gates:
        k = len(gate.targets)
        dims = (2,) * (2 * k)
        v = net.add_tensor(dims, payload=gate.matrix.reshape(dims))
        for i, q in enumerate(gate.targets):
            wv, wa = wires[q]
            net.bond(wv, wa, v, k + i)
            wires[q] = (v, i)
    for q in range(n):
        v = net.add_tensor([2], payload=basis[bits[q]])
        net.bond(wires[q][0], wires[q][1], v, 0)
    return net
