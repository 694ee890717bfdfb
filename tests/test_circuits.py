"""Circuit parsing, gate validation, and network construction."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tnplan.circuits import (
    CircuitError,
    circuit_from_dict,
    circuit_to_dict,
    circuit_to_network,
    make_gate,
)
from tnplan.cli import main
from tnplan.corpus import bundled_suite, ghz_circuit, graph_state_circuit, qft_circuit, random_circuit

from oracles import amplitude, connected_components, einsum_value, is_connected, open_edges, statevector

SQ2 = 1.0 / math.sqrt(2.0)


def test_parse_round_trip():
    doc = {
        "qubits": 3,
        "gates": [
            {"name": "H", "targets": [0]},
            {"name": "CX", "targets": [0, 1]},
            {"name": "RZ", "targets": [2], "params": [0.5]},
        ],
    }
    c = circuit_from_dict(doc)
    assert c.n_qubits == 3 and len(c.gates) == 3
    again = circuit_from_dict(circuit_to_dict(c))
    assert circuit_to_dict(again) == circuit_to_dict(c)
    assert circuit_from_dict(json.loads(json.dumps(doc))).n_qubits == 3


def test_gate_validation_errors():
    with pytest.raises(CircuitError):
        make_gate("NOPE", [0])
    with pytest.raises(CircuitError):
        make_gate("CX", [1, 1])
    with pytest.raises(CircuitError):
        make_gate("H", [])
    with pytest.raises(CircuitError):
        make_gate("RX", [0])  # missing angle
    with pytest.raises(CircuitError):
        make_gate("H", [0, 1])  # arity mismatch
    with pytest.raises(CircuitError):
        circuit_from_dict({"qubits": 2, "gates": [{"name": "H", "targets": [2]}]})
    with pytest.raises(CircuitError):
        circuit_from_dict({"qubits": 0, "gates": []})


def test_explicit_matrix_must_be_unitary():
    doc = {
        "qubits": 1,
        "gates": [{"name": "custom", "targets": [0], "matrix": [[1, 0], [0, 2]]}],
    }
    with pytest.raises(CircuitError, match="unitar"):
        circuit_from_dict(doc)


def test_matrix_row_and_flat_encodings():
    rows = {
        "qubits": 1,
        "gates": [{"name": "phase", "targets": [0], "matrix": [[1, 0], [0, [0, 1]]]}],
    }
    c = circuit_from_dict(rows)
    np.testing.assert_allclose(c.gates[0].matrix, [[1, 0], [0, 1j]])
    flat = {
        "qubits": 1,
        "gates": [{"name": "ident", "targets": [0], "matrix": [1, 0, 0, 1]}],
    }
    c2 = circuit_from_dict(flat)
    np.testing.assert_allclose(c2.gates[0].matrix, np.eye(2))
    pairs = {
        "qubits": 1,
        "gates": [
            {"name": "y", "targets": [0], "matrix": [[0, 0], [0, -1], [0, 1], [0, 0]]}
        ],
    }
    c3 = circuit_from_dict(pairs)
    np.testing.assert_allclose(c3.gates[0].matrix, [[0, -1j], [1j, 0]])


def test_network_shape_for_ghz():
    c = ghz_circuit(10)
    net = circuit_to_network(c)
    assert net.num_vertices == 30  # 10 inits + 10 gates + 10 projections
    assert open_edges(net) == frozenset()
    assert net.has_payloads()
    assert is_connected(net)


def test_amplitude_bits_validation():
    c = ghz_circuit(3)
    with pytest.raises(CircuitError):
        circuit_to_network(c, bits="01")  # wrong length
    with pytest.raises(CircuitError):
        circuit_to_network(c, bits="012")
    with pytest.raises(CircuitError):
        circuit_to_network(c, initial="0")


def test_ghz_amplitude_through_whole_network_einsum():
    c = ghz_circuit(4)
    val = complex(einsum_value(circuit_to_network(c)))
    assert val == pytest.approx(SQ2, abs=1e-12)
    ones = complex(einsum_value(circuit_to_network(c, bits="1111")))
    assert ones == pytest.approx(SQ2, abs=1e-12)
    mixed = complex(einsum_value(circuit_to_network(c, bits="0001")))
    assert mixed == pytest.approx(0.0, abs=1e-12)


def test_initial_state_changes_result():
    c = ghz_circuit(2)
    # starting from |10>: H on qubit 0 maps 1 -> (|0>-|1>)/sqrt(2)
    val = complex(einsum_value(circuit_to_network(c, bits="11", initial="10")))
    assert val == pytest.approx(-SQ2, abs=1e-12)
    assert amplitude(c, "11", initial="10") == pytest.approx(val, abs=1e-12)


def test_ccx_and_swap_semantics():
    doc = {
        "qubits": 3,
        "gates": [
            {"name": "X", "targets": [0]},
            {"name": "X", "targets": [1]},
            {"name": "CCX", "targets": [0, 1, 2]},
        ],
    }
    c = circuit_from_dict(doc)
    assert amplitude(c, "111") == pytest.approx(1.0)
    val = complex(einsum_value(circuit_to_network(c, bits="111")))
    assert val == pytest.approx(1.0, abs=1e-12)
    swap = circuit_from_dict(
        {
            "qubits": 2,
            "gates": [
                {"name": "X", "targets": [0]},
                {"name": "SWAP", "targets": [0, 1]},
            ],
        }
    )
    val = complex(einsum_value(circuit_to_network(swap, bits="01")))
    assert val == pytest.approx(1.0, abs=1e-12)


def test_gate_free_circuit_gives_disconnected_product_state():
    c = circuit_from_dict({"qubits": 3, "gates": []})
    net = circuit_to_network(c)
    assert len(connected_components(net)) == 3
    assert complex(einsum_value(net)) == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_small_random_circuits_match_statevector_oracle(seed):
    """Whole-network einsum equals the state-vector amplitude; neither path
    touches the contraction planner."""
    rng = np.random.default_rng(seed)
    c = random_circuit(3, depth=3, seed=seed)
    bits = "".join(str(int(b)) for b in rng.integers(0, 2, 3))
    net = circuit_to_network(c, bits=bits)
    assert complex(einsum_value(net)) == pytest.approx(amplitude(c, bits), abs=1e-10)


def test_statevector_norms_stay_one():
    for seed in (1, 2, 3):
        c = random_circuit(4, depth=4, seed=seed)
        psi = statevector(c)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)


def test_corpus_suite_composition():
    suite = bundled_suite()
    names = [n for n, _ in suite]
    assert len(names) == len(set(names))
    sizes = [c.n_qubits for _, c in suite]
    mid = [s for s in sizes if 6 <= s <= 12]
    assert len(mid) >= 10
    for name, c in suite:
        net = circuit_to_network(c)
        assert is_connected(net), name


def test_qft_small_matches_oracle():
    c = qft_circuit(3)
    # QFT of |000>: uniform superposition, every amplitude 2^{-3/2}
    for bits in ("000", "101", "111"):
        net = circuit_to_network(c, bits=bits)
        assert complex(einsum_value(net)) == pytest.approx(2 ** -1.5, abs=1e-10)
        assert amplitude(c, bits) == pytest.approx(2 ** -1.5, abs=1e-10)


def test_graph_state_ring_amplitude():
    c = graph_state_circuit(4)
    net = circuit_to_network(c)
    val = complex(einsum_value(net))
    assert val == pytest.approx(amplitude(c, "0000"), abs=1e-10)
    assert abs(val) == pytest.approx(0.25, abs=1e-10)


def _gate_doc(**gate):
    return {"qubits": 2, "gates": [dict({"name": "RZ", "targets": [0], "params": [0.5]}, **gate)]}


@pytest.mark.parametrize(
    "doc",
    [
        {"qubits": True, "gates": []},
        {"qubits": 2.0, "gates": []},
        {"qubits": 2, "gates": 5},
        {"qubits": 2, "gates": {"name": "H"}},
        _gate_doc(targets=[True]),
        _gate_doc(targets=[0.0]),
        _gate_doc(params=[True]),
        _gate_doc(params=5),
        _gate_doc(params=["x"]),
        _gate_doc(params=[[0.5]]),
        _gate_doc(params=[10**400]),
        _gate_doc(params=[float("nan")]),
        _gate_doc(name="ID", params=[], matrix=[[float("inf"), 0], [0, 1]]),
        _gate_doc(name="ID", params=[], matrix=[[True, False], [False, True]]),
        _gate_doc(name="ID", params=[], matrix=[[1, 0], [0, [True, 0]]]),
        _gate_doc(name="ID", params=[], matrix=[True, 0, 0, 1]),
    ],
)
def test_circuit_from_dict_does_not_coerce(doc):
    with pytest.raises(CircuitError):
        circuit_from_dict(doc)


def test_circuit_from_dict_rejects_more_qubits_than_an_index_holds():
    # Ingest would fail with a bare OverflowError building the bitstring.
    with pytest.raises(CircuitError, match="qubits"):
        circuit_from_dict({"qubits": 2**64, "gates": []})


def test_circuit_from_dict_takes_an_int_angle():
    assert circuit_from_dict(_gate_doc(params=[1])).gates[0].params == (1.0,)


@pytest.mark.parametrize(
    "doc", [{"qubits": True, "gates": []}, _gate_doc(params=5), _gate_doc(params=["x"])]
)
def test_plan_rejects_malformed_circuit(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["plan", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
