"""Malformed input documents fail only with the package's document errors.

Hypothesis builds network, circuit and plan documents: arbitrary JSON
values, and valid documents with one part (possibly the whole document)
replaced by such a value.  Plans start from both tree forms, merge pairs
and nested lists.  Reading any of them either succeeds or raises
``NetworkError``, ``CircuitError``, ``PlanError`` or ``TreeError``;
anything else, such as a bare ``TypeError``, fails the test.  The same
documents, read by ``tnplan plan`` and ``tnplan execute --plan``, exit 0,
or 1 with one ``error:`` line and nothing on stdout.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tnplan.circuits import CircuitError, circuit_from_dict, circuit_to_dict, circuit_to_network
from tnplan.cli import main
from tnplan.corpus import ghz_circuit
from tnplan.network import NetworkError, TensorNetwork
from tnplan.partition import initial_partition
from tnplan.plan import PlanError, build_plan, plan_from_dict, plan_to_dict
from tnplan.tree import TreeError

DOCUMENT_ERRORS = (NetworkError, CircuitError, PlanError, TreeError)

KEYS = (
    "tensors", "bonds", "id", "dims", "data", "u", "a", "v", "b",
    "qubits", "gates", "name", "targets", "params", "matrix",
    "blocks", "epsilon", "partition_trees", "reduction_tree", "leaves", "pairs",
)

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.sampled_from([2**64, -(2**64), 10**400])
    | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)

CIRCUIT = ghz_circuit(3)
NET = circuit_to_network(CIRCUIT, bits="000")
PLAN = build_plan(NET, initial_partition(NET, 2, seed=0))
PLAN_DOCS = [
    plan_to_dict(PLAN),
    dict(
        plan_to_dict(PLAN),
        partition_trees=[oracles.to_nested(t) for t in PLAN.partition_trees],
        reduction_tree=oracles.to_nested(PLAN.reduction),
    ),
]


def paths(doc, prefix=()):
    """Every position in a JSON document, the whole document first."""
    out = [prefix]
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        out += paths(value, prefix + (key,))
    return out


def mutated(data, base):
    """``base`` with the value at one drawn position replaced by drawn JSON."""
    path = data.draw(st.sampled_from(paths(base)))
    value = data.draw(JSON)
    if not path:
        return value
    doc = copy.deepcopy(base)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def read_or_document_error(read, doc):
    try:
        read(doc)
    except DOCUMENT_ERRORS:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_network_documents(data):
    base = json.loads(NET.to_json())
    read_or_document_error(TensorNetwork.from_json, mutated(data, base))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_circuit_documents(data):
    base = circuit_to_dict(CIRCUIT)
    read_or_document_error(lambda doc: circuit_to_network(circuit_from_dict(doc)), mutated(data, base))


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_plan_documents_in_both_tree_forms(data):
    base = data.draw(st.sampled_from(PLAN_DOCS))
    read_or_document_error(lambda doc: plan_from_dict(NET, doc), mutated(data, base))


def test_execute_with_a_malformed_plan_prints_one_error(tmp_path, capsys):
    circuit = tmp_path / "ghz3.json"
    circuit.write_text(json.dumps(circuit_to_dict(CIRCUIT)))
    doc = plan_to_dict(PLAN)
    doc["partition_trees"][0]["leaves"][0] = True  # a bool is not a vertex id
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["execute", str(circuit), "--amplitude", "000", "--plan", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def cli_exits_cleanly(argv):
    """``main(argv)`` returns 0, or 1 with exactly one ``error:`` line and no output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
    return code


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("docs")
    (path / "ghz3.json").write_text(json.dumps(circuit_to_dict(CIRCUIT)))
    return path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_plan_command_on_network_and_circuit_documents(doc_dir, data):
    base = data.draw(st.sampled_from([json.loads(NET.to_json()), circuit_to_dict(CIRCUIT)]))
    path = doc_dir / "input.json"
    path.write_text(json.dumps(mutated(data, base)))
    cli_exits_cleanly(["plan", str(path)])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_execute_command_on_plan_documents_in_both_tree_forms(doc_dir, data):
    path = doc_dir / "plan.json"
    path.write_text(json.dumps(mutated(data, data.draw(st.sampled_from(PLAN_DOCS)))))
    circuit = str(doc_dir / "ghz3.json")
    cli_exits_cleanly(["execute", circuit, "--amplitude", "000", "--plan", str(path)])


@pytest.mark.parametrize(
    "gate",
    [
        {"name": "a\nb", "targets": [7]},
        {"name": "a\nb", "targets": [0], "params": 1},
        {"name": "a\nb", "targets": [0, 0]},
        {"name": "a\nb", "targets": [0], "matrix": [[1, 0], [0, 2]]},
    ],
)
def test_gate_name_with_a_line_break_gives_one_error_line(doc_dir, gate):
    path = doc_dir / "gate.json"
    path.write_text(json.dumps({"qubits": 2, "gates": [gate]}))
    assert cli_exits_cleanly(["plan", str(path)]) == 1
