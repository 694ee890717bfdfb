"""Tests for plan assembly and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tnplan.circuits import circuit_to_network
from tnplan.corpus import ghz_circuit, random_circuit
from tnplan.costs import CostConfig, con_dist, con_serial
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
)
from tnplan.tree import ContractionTree


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
        assert plan.tree.accepts_partitioning(part.blocks)
        for t, block in zip(plan.partition_trees, part.blocks):
            assert set(t.leaves()) == set(block)
        assert plan.cost == plan.report.con_dist
        assert plan.cost == con_dist(plan.tree, part.blocks)

    def test_invalid_partitioning_rejected(self):
        net = pair_net()
        bad = Partitioning([frozenset({0}), frozenset({0, 1})], epsilon=0.0)
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
        tree = ContractionTree.from_nested(net, [0, 1])
        plan = serial_plan(net, tree=tree)
        assert plan.partition_trees[0] is tree
        assert plan.tree.to_nested() == tree.to_nested()
        assert plan.report.con_serial == con_serial(tree)

    def test_single_tensor_network(self):
        net = TensorNetwork()
        net.add_tensor([2, 2])
        plan = serial_plan(net)
        assert plan.report.con_serial == 0.0
        assert plan.tree.leaves() == [0]

    def test_cfg_steers_the_greedy_search(self):
        # The deterministic pass costs 1380 here; a config used to be ignored.
        net = circuit_to_network(random_circuit(10, 3, seed=13))
        assert serial_plan(net).report.con_serial == 1380
        sampled = serial_plan(net, cfg=GreedyConfig(samples=64))
        assert sampled.report.con_serial < 1380


class TestAssemblePlan:
    def test_unrealized_partitioning_rejected(self):
        # A tree built over the whole network in one piece cannot expose
        # an interleaved split as subtrees.
        # Blocks interleave even/odd vertices, but the supplied trees cover
        # the two contiguous halves, so neither block appears as a subtree.
        net = ghz_net()
        verts = sorted(net.vertices())
        half = len(verts) // 2
        part = Partitioning([frozenset(verts[::2]), frozenset(verts[1::2])], epsilon=0.5)
        t_lo = greedy_tree(net, frozenset(verts[:half]))
        t_hi = greedy_tree(net, frozenset(verts[half:]))
        with pytest.raises(PlanError, match="subtree"):
            assemble_plan(net, part, [t_lo, t_hi], [0, 1])


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
            "epsilon",
            "partition_trees",
            "reduction_tree",
            "tree",
            "cost",
        }

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
