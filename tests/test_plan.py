"""Tests for plan assembly and serialization."""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tnplan.anneal import AnnealConfig, anneal, do_steps
from tnplan.circuits import circuit_to_network
from tnplan.corpus import ghz_circuit, random_circuit
from tnplan.costs import CostConfig, con_dist, con_par, con_serial, dims_product, is_saturated, mem_cost
from tnplan.execute import execute_plan
from tnplan.network import TensorNetwork
from tnplan.partition import Partitioning, initial_partition
from tnplan.pathfind import GreedyConfig, greedy_tree
from tnplan.plan import (
    PlanError,
    assemble_plan,
    build_plan,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    serial_plan,
    state_to_plan,
)
from tnplan.tree import ContractionTree, TreeError

FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "amplitudes-rc18x8-k8.json"


def ghz_net(n=6):
    return circuit_to_network(ghz_circuit(n), bits="0" * n)


def pair_net():
    net = TensorNetwork()
    a = net.add_tensor([2, 3])
    b = net.add_tensor([3, 4])
    net.bond(a, 1, b, 0)
    return net


class TestBuildPlan:
    def test_plan_carries_consistent_pieces(self):
        net = ghz_net()
        part = initial_partition(net, 3, seed=0)
        plan = build_plan(net, part)
        assert plan.network is net
        assert len(plan.partition_trees) == 3
        assert plan.tree.subtree_roots(part.blocks) is not None
        for t, block in zip(plan.partition_trees, part.blocks):
            assert set(t.leaf_order) == set(block)
        assert plan.cost == plan.report.con_dist
        assert plan.cost == con_dist(plan.tree, part.blocks)

    def test_tree_and_report_are_built_on_first_read(self):
        net = ghz_net()
        plan = build_plan(net, initial_partition(net, 3, seed=0))
        assert not {"tree", "report"} & set(vars(plan))
        loaded = plan_from_dict(net, plan_to_dict(plan))
        assert not {"tree", "report"} & set(vars(loaded))
        assert loaded.report.con_dist == loaded.cost == plan.cost
        assert {"tree", "report"} <= set(vars(loaded))

    def test_invalid_partitioning_rejected(self):
        net = pair_net()
        bad = Partitioning([frozenset({0}), frozenset({0, 1})])
        with pytest.raises(PlanError, match="invalid partitioning"):
            build_plan(net, bad)

    def test_cost_config_threads_through(self):
        net = ghz_net()
        part = initial_partition(net, 2, seed=1)
        cheap = build_plan(net, part, cost_cfg=CostConfig(comm_beta=0.0))
        dear = build_plan(net, part, cost_cfg=CostConfig(comm_beta=8.0))
        assert dear.report.con_dist > cheap.report.con_dist


class TestSerialPlan:
    def test_single_partition_over_everything(self):
        net = ghz_net()
        plan = serial_plan(net)
        assert plan.partitioning.to_lists() == [sorted(net.vertices())]
        assert plan.report.con_dist == plan.report.con_serial

    def test_prebuilt_tree_used_verbatim(self):
        net = pair_net()
        tree = oracles.from_nested(net, [0, 1])
        plan = assemble_plan(net, Partitioning([net.vertices()]), [tree])
        assert plan.partition_trees[0] is tree
        assert oracles.to_nested(plan.tree) == oracles.to_nested(tree)
        assert plan.report.con_serial == con_serial(tree)

    def test_single_tensor_network(self):
        net = TensorNetwork()
        net.add_tensor([2, 2])
        plan = serial_plan(net)
        assert plan.report.con_serial == 0.0
        assert list(plan.tree.leaf_order) == [0]

    def test_cfg_steers_the_greedy_search(self):
        # The deterministic pass costs 1380 here; a config used to be ignored.
        net = circuit_to_network(random_circuit(10, 3, seed=13))
        assert serial_plan(net).report.con_serial == 1380
        sampled = serial_plan(net, cfg=GreedyConfig(samples=64))
        assert sampled.report.con_serial < 1380


class TestAssemblePlan:
    @pytest.mark.parametrize("given", ["halves", "short", "missing-leaf"])
    def test_unrealized_partitioning_rejected(self, given):
        # Blocks interleave even/odd vertices, but the supplied trees cover
        # the two contiguous halves, or only the first block; or the fan-in
        # pairs of a three-block plan never reach its last block.
        net = ghz_net()
        verts = sorted(net.vertices())
        half = len(verts) // 2
        part = Partitioning([frozenset(verts[::2]), frozenset(verts[1::2])])
        halves = [greedy_tree(net, frozenset(verts[:half])), greedy_tree(net, frozenset(verts[half:]))]
        trees = halves if given == "halves" else [greedy_tree(net, part.blocks[0])]
        error, match = PlanError, "block"
        if given == "missing-leaf":
            part = initial_partition(net, 3, seed=0)
            trees = [greedy_tree(net, block) for block in part.blocks]
            error, match = TreeError, "roots"
        with pytest.raises(error, match=match):
            assemble_plan(net, part, trees, [[0, 1]])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    source=st.sampled_from(("built", "proposed", "reloaded")),
    other=st.sampled_from((CostConfig(), CostConfig(comm_alpha=0.5, intra_node="par"), CostConfig(comm_beta=2.0))),
)
def test_a_plans_parts_reassemble_and_recost_to_the_same_plan(seed, source, other):
    # Dimension-1 and parallel bonds, often disconnected.
    rng = np.random.default_rng(seed)
    net = oracles.random_bond_network(rng)
    k = int(rng.integers(1, net.num_vertices + 1))
    cost = CostConfig(comm_beta=1.0)
    plan = build_plan(net, Partitioning(oracles.random_blocks(rng, net.vertices(), k)), cost_cfg=cost)
    if source != "built":
        plan = do_steps(net, 5, plan, 1.0, AnnealConfig(workers=1, max_iters=1, mode="directed", cost=cost), rng)
    if source == "reloaded":
        plan = plan_from_dict(net, plan_to_dict(plan), cost)
    pairs = plan.reduction.pairs()
    again = assemble_plan(net, plan.partitioning, plan.partition_trees, pairs, cost)
    assert plan_to_dict(again) == plan_to_dict(plan)
    assert again.cost == plan.cost
    assembled = assemble_plan(net, plan.partitioning, plan.partition_trees, pairs, other)
    recosted = state_to_plan(net, plan, other)
    assert recosted.reduction is plan.reduction and recosted.partition_trees is plan.partition_trees
    assert recosted.cost == assembled.cost
    assert recosted.local_costs == assembled.local_costs
    assert recosted.report.to_dict() == assembled.report.to_dict()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    source=st.sampled_from(("built", "proposed", "reloaded")),
    cost=st.sampled_from((CostConfig(comm_beta=1.0), CostConfig(comm_alpha=0.5, intra_node="par"))),
)
def test_composed_tree_carries_its_parts_memos(seed, source, cost):
    rng = np.random.default_rng(seed)
    net = oracles.random_bond_network(rng)
    k = int(rng.integers(1, net.num_vertices + 1))
    plan = build_plan(net, Partitioning(oracles.random_blocks(rng, net.vertices(), k)), cost_cfg=cost)
    if source != "built":
        plan = do_steps(net, 5, plan, 1.0, AnnealConfig(workers=1, max_iters=1, mode="directed", cost=cost), rng)
    if source == "reloaded":
        plan = plan_from_dict(net, plan_to_dict(plan), cost)
    tree = plan.tree
    # Every contraction arrives costed, so the report recosts none of them.
    assert set(tree.op_counts) == set(tree.internal_order)
    for t, n in tree.op_counts.items():
        a, b = tree.children(t)
        assert n == dims_product(net, tree.legs(a) | tree.legs(b))
    for t, n in tree.entry_counts.items():
        assert n == dims_product(net, tree.legs(t))
    bare = ContractionTree.from_pairs(net, tree.pairs(), tree.leaf_order)
    report = plan.report.to_dict()
    assert (report["mem"], report["con_serial"], report["con_par"], report["saturated"]) == (
        mem_cost(bare), con_serial(bare), con_par(bare), is_saturated(bare))


class TestSerialization:
    def test_round_trip_identical_document(self):
        net = ghz_net()
        part = initial_partition(net, 3, seed=2)
        plan = build_plan(net, part)
        doc = plan_to_dict(plan)
        again = plan_from_dict(net, doc)
        assert plan_to_dict(again) == doc
        assert again.report.con_dist == plan.report.con_dist

    def test_json_text_round_trip(self):
        net = ghz_net()
        plan = build_plan(net, initial_partition(net, 2, seed=0))
        text = plan_to_json(plan)
        again = plan_from_json(net, text)
        assert plan_to_json(again) == text

    def test_document_is_plain_json(self):
        net = ghz_net()
        plan = build_plan(net, initial_partition(net, 2, seed=0))
        doc = json.loads(plan_to_json(plan))
        assert set(doc) == {
            "blocks",
            "partition_trees",
            "reduction_tree",
            "cost",
        }

    def test_no_plan_document_states_a_balance_bound(self):
        # The bound is the partitioner's setting; annealing does not keep it.
        net = ghz_net()
        plan = build_plan(net, initial_partition(net, 3, seed=0))
        refined = anneal(net, plan, AnnealConfig(max_iters=2, steps=4, workers=1)).best
        for p in (serial_plan(net), plan, refined):
            assert "epsilon" not in plan_to_dict(p)
            assert '"epsilon"' not in plan_to_json(p)

    @pytest.mark.parametrize("epsilon", [0, 0.03, 0.5, 7])
    def test_legacy_epsilon_is_checked_then_dropped(self, epsilon):
        net = ghz_net()
        doc = plan_to_dict(build_plan(net, initial_partition(net, 3, seed=1)))
        legacy = dict(doc, epsilon=epsilon)
        again = plan_from_dict(net, legacy)
        assert again.report.to_dict() == doc["cost"]
        assert plan_to_dict(again) == doc

    def test_missing_field_rejected(self):
        net = ghz_net()
        plan = build_plan(net, initial_partition(net, 2, seed=0))
        for field in ("blocks", "partition_trees", "reduction_tree"):
            doc = plan_to_dict(plan)
            del doc[field]
            with pytest.raises(PlanError, match="missing field"):
                plan_from_dict(net, doc)

    def test_block_tree_count_mismatch_rejected(self):
        net = ghz_net()
        plan = build_plan(net, initial_partition(net, 2, seed=0))
        doc = plan_to_dict(plan)
        doc["partition_trees"] = doc["partition_trees"][:1]
        with pytest.raises(PlanError, match="blocks but"):
            plan_from_dict(net, doc)

    def test_tree_covering_wrong_block_rejected(self):
        net = ghz_net()
        plan = build_plan(net, initial_partition(net, 2, seed=0))
        doc = plan_to_dict(plan)
        doc["partition_trees"] = doc["partition_trees"][::-1]
        with pytest.raises(PlanError, match="does not cover"):
            plan_from_dict(net, doc)

    def test_blocks_must_cover_the_network(self):
        net = ghz_net(4)
        doc = {"blocks": [[0], [1]], "partition_trees": [0, 1], "reduction_tree": [0, 1]}
        with pytest.raises(PlanError, match="invalid partitioning"):
            plan_from_dict(net, doc)

    @pytest.mark.parametrize("reduction", [[0, 2], [0, 0], [[0, 1], 2], 0, [0, "1"], [0, True]])
    def test_reduction_leaves_must_be_the_block_indices(self, reduction):
        net = ghz_net()
        doc = plan_to_dict(build_plan(net, initial_partition(net, 2, seed=0)))
        doc["reduction_tree"] = reduction
        with pytest.raises(PlanError, match="reduction tree leaves"):
            plan_from_dict(net, doc)

    def test_invalid_json_text_rejected(self):
        net = ghz_net()
        with pytest.raises(PlanError, match="invalid JSON"):
            plan_from_json(net, "{not json")

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        net = oracles.random_network(rng, n_min=4, n_max=10, max_dim=3, payloads=False)
        k = int(rng.integers(2, min(4, net.num_vertices) + 1))
        plan = build_plan(net, initial_partition(net, k, seed=seed))
        doc = plan_to_dict(plan)
        again = plan_from_dict(net, doc)
        assert plan_to_dict(again) == doc
        assert again.report.to_dict() == plan.report.to_dict()


def test_single_tensor_report_maps_non_finite_to_null():
    net = TensorNetwork()
    net.add_tensor([3, 5])
    report = serial_plan(net).report
    assert report.con_serial == 0.0 and report.con_serial_log2 == float("-inf")
    doc = report.to_dict()
    assert doc["con_serial_log2"] is None
    assert doc["con_par_log2"] is None and doc["con_dist_log2"] is None
    assert doc["mem"] == 15.0 and doc["con_serial"] == 0.0
    assert doc["per_partition"] == [{"index": 0, "local": 0.0, "fanin": 0.0}]
    json.dumps(doc, allow_nan=False)


def nested_document(plan):
    """The plan's document with every tree in the older nested-list form."""
    doc = plan_to_dict(plan)
    doc["partition_trees"] = [oracles.to_nested(t) for t in plan.partition_trees]
    doc["reduction_tree"] = oracles.to_nested(plan.reduction)
    return doc


def two_block_plan():
    net = ghz_net()
    return net, build_plan(net, initial_partition(net, 2, seed=0))


def _true_for_vertex_1(spec):
    if isinstance(spec, dict):
        return {key: _true_for_vertex_1(value) for key, value in spec.items()}
    if isinstance(spec, list):
        return [_true_for_vertex_1(item) for item in spec]
    return True if type(spec) is int and spec == 1 else spec


def _bool_leaf(doc):
    """Vertex 1 written as ``true`` wherever its partition tree names it."""
    i = next(i for i, b in enumerate(doc["blocks"]) if 1 in b)
    doc["partition_trees"][i] = _true_for_vertex_1(doc["partition_trees"][i])


def _bool_in_blocks(doc):
    i = next(i for i, b in enumerate(doc["blocks"]) if 1 in b)
    doc["blocks"][i] = [True if v == 1 else v for v in doc["blocks"][i]]


MALFORMED = {
    "bool-leaf": _bool_leaf,
    "bool-in-blocks": _bool_in_blocks,
    "repeated-vertex-in-block": lambda doc: doc["blocks"][0].append(doc["blocks"][0][0]),
    "epsilon-string": lambda doc: doc.update(epsilon="0.5"),
    "epsilon-bool": lambda doc: doc.update(epsilon=True),
    "epsilon-not-a-number": lambda doc: doc.update(epsilon="x"),
    "epsilon-nan": lambda doc: doc.update(epsilon=float("nan")),
    "epsilon-negative": lambda doc: doc.update(epsilon=-1),
    "partition-trees-int": lambda doc: doc.update(partition_trees=5),
    "blocks-string": lambda doc: doc.update(blocks="ab"),
    "blocks-nested-too-deep": lambda doc: doc.update(blocks=[[[0]]]),
}


class TestDocumentChecks:
    @pytest.mark.parametrize("form", ["pairs", "nested"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_field_raises_plan_error(self, case, form):
        net, plan = two_block_plan()
        doc = plan_to_dict(plan) if form == "pairs" else nested_document(plan)
        MALFORMED[case](doc)
        with pytest.raises(PlanError):
            plan_from_dict(net, doc)

    def test_document_must_be_an_object(self):
        net, plan = two_block_plan()
        with pytest.raises(PlanError, match="JSON object"):
            plan_from_dict(net, [plan_to_dict(plan)])

    @pytest.mark.parametrize(
        "tree, error",
        [
            ({"leaves": [0, 1]}, PlanError),  # no pairs
            ({"leaves": [0, 1], "pairs": [[0, True]]}, PlanError),
            ({"leaves": [0, 1], "pairs": [[0, 1, 2]]}, PlanError),
            ({"leaves": [0, 1], "pairs": [[0, [1]]]}, PlanError),
            ({"leaves": [0, 0, 1], "pairs": [[0, 1]]}, PlanError),
            ({"leaves": [0, 1], "pairs": [[0, 3]]}, TreeError),  # 3 does not exist yet
            ({"leaves": [0, 1], "pairs": [[0, 1], [2, 0]]}, TreeError),  # 0 reused
            ({"leaves": [0, 1], "pairs": []}, TreeError),  # two roots left
            ([0, [1]], TreeError),
        ],
    )
    def test_malformed_reduction_tree_is_rejected(self, tree, error):
        net, plan = two_block_plan()
        doc = plan_to_dict(plan)
        doc["reduction_tree"] = tree
        with pytest.raises(error):
            plan_from_dict(net, doc)


class TestTreeForms:
    def test_document_trees_are_leaves_and_merge_pairs(self):
        net, plan = two_block_plan()
        doc = plan_to_dict(plan)
        for tree, spec in zip(plan.partition_trees, doc["partition_trees"]):
            assert spec == {"leaves": list(tree.leaf_order), "pairs": [list(p) for p in tree.pairs()]}
            assert all(x < net.num_vertices + j for j, p in enumerate(spec["pairs"]) for x in p)
        assert doc["reduction_tree"] == {"leaves": [0, 1], "pairs": [[0, 1]]}

    def test_nested_and_pair_documents_load_to_the_same_plan(self):
        net = circuit_to_network(random_circuit(10, 3, seed=13))
        plan = build_plan(net, initial_partition(net, 4, seed=3))
        from_pairs = plan_from_dict(net, plan_to_dict(plan))
        from_nested = plan_from_dict(net, nested_document(plan))
        assert from_nested.report.to_dict() == from_pairs.report.to_dict() == plan.report.to_dict()
        assert plan_to_dict(from_pairs) == plan_to_dict(plan)
        # Nested trees number their merges in post-order, so only shapes agree.
        for got, want in zip(from_nested.partition_trees, plan.partition_trees):
            assert oracles.to_nested(got) == oracles.to_nested(want)
        assert oracles.to_nested(from_nested.tree) == oracles.to_nested(plan.tree)

    def test_committed_nested_fixture_loads_with_its_stored_cost(self):
        doc = json.loads(FIXTURE.read_text())
        kind, n, depth, seed = doc["generator"]["circuit"]
        assert kind == "random"
        net = circuit_to_network(random_circuit(n, depth, seed=seed))
        stored = copy.deepcopy(doc["plan"])
        assert isinstance(stored["reduction_tree"], list)  # the older nested form
        plan = plan_from_dict(net, stored)
        assert stored == doc["plan"]  # read-only
        assert plan.report.con_dist == stored["cost"]["con_dist"]
        assert plan.report.to_dict() == stored["cost"]
        assert oracles.to_nested(plan.tree) == stored["tree"]


def test_deep_plans_round_trip_and_execute():
    # ghz-1100 has 3,300 tensors.  Its serial greedy tree is 1,102 levels
    # deep, past the default recursion limit; at k=2 the trees are about
    # 570 deep.
    assert sys.getrecursionlimit() <= 1000
    n = 1100
    net = circuit_to_network(ghz_circuit(n), bits="0" * n)
    for plan in (serial_plan(net), build_plan(net, initial_partition(net, 2, seed=0))):
        again = plan_from_json(net, plan_to_json(plan))
        assert again.report.to_dict() == plan.report.to_dict()
        assert plan_to_dict(again) == plan_to_dict(plan)
        trace = execute_plan(net, again.tree)
        assert trace.scalar() == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert trace.mult_count == again.report.con_serial
