"""Tests for the simulated-annealing refinement loop."""

import copy
import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from tnplan.anneal import (
    AnnealConfig,
    AnnealResult,
    NoMoveError,
    Step,
    acceptance_probability,
    anneal,
    do_steps,
    refine_plan,
    select_neighbor,
    state_to_plan,
    temperature_at,
)
from tnplan.circuits import circuit_to_network
from tnplan.corpus import bundled_suite, ghz_circuit, random_circuit
from tnplan.costs import CostConfig, con_dist, con_serial
from tnplan.network import TensorNetwork
from tnplan.partition import Partitioning, initial_partition, validate
from tnplan.pathfind import (
    FanInNetwork, greedy_tree, leg_tables, reduction_network, reduction_path,
    select_target_directed, vertex_set_row,
)
from tnplan.plan import Plan, build_plan, owner_map, plan_to_dict
from tnplan.tree import ContractionTree


def chain_net(dims=(2, 4, 8, 3)):
    """Open chain: T0[d0,d1] - T1[d1,d2] - T2[d2,d3]."""
    net = TensorNetwork()
    a = net.add_tensor([dims[0], dims[1]])
    b = net.add_tensor([dims[1], dims[2]])
    c = net.add_tensor([dims[2], dims[3]])
    net.bond(a, 1, b, 0)
    net.bond(b, 1, c, 0)
    return net


def ghz_net(n=6):
    return circuit_to_network(ghz_circuit(n), bits="0" * n)


def renumbered(tree):
    """The same tree with its internal nodes created right subtree first."""
    pairs = []

    def build(t):
        ch = tree.children(t)
        if ch is None:
            return t
        right = build(ch[1])
        pairs.append((build(ch[0]), right))
        return tree.network.num_vertices + len(pairs) - 1

    build(tree.root)
    return ContractionTree.from_pairs(tree.network, pairs, leaves=tree.leaf_order)


def planned(net, k=2, seed=0, cfg=None):
    cfg = cfg or AnnealConfig(workers=2, max_iters=4, seed=seed)
    part = initial_partition(net, k, seed=seed)
    return build_plan(net, part, cost_cfg=cfg.cost), cfg


# ---------------------------------------------------------------------------
# acceptance probability
# ---------------------------------------------------------------------------


class TestAcceptanceProbability:
    def test_equal_costs_always_accepted(self):
        for t in (0.001, 0.5, 1.0, 100.0):
            assert acceptance_probability(7.0, 7.0, t) == 1.0

    def test_doubling_at_unit_temperature_is_half(self):
        assert acceptance_probability(10.0, 20.0, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_downhill_always_at_least_one(self):
        for t in (0.01, 1.0, 50.0):
            assert acceptance_probability(20.0, 10.0, t) >= 1.0

    def test_scale_invariance(self):
        base = acceptance_probability(3.0, 5.0, 0.7)
        for lam in (1e-6, 0.25, 1.0, 17.0, 1e6):
            scaled = acceptance_probability(3.0 * lam, 5.0 * lam, 0.7)
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_extreme_ratio_saturates_to_infinity(self):
        # exponent > 700 would overflow exp(); the rule reports "certain".
        assert acceptance_probability(1e300, 1e-300, 1.0) == math.inf

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            acceptance_probability(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            acceptance_probability(1.0, -2.0, 1.0)
        with pytest.raises(ValueError):
            acceptance_probability(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 2.0, math.nan)])
    def test_rejects_nan_inputs(self, args):
        with pytest.raises(ValueError):
            acceptance_probability(*args)

    def test_infinite_temperature_accepts_everything(self):
        clamp = 2.0 ** 300
        for current, candidate in ((1e-300, 1e300), (1e300, 1e-300), (1.0, clamp), (clamp, 1.0)):
            assert acceptance_probability(current, candidate, math.inf) == 1.0

    @given(
        c=st.floats(min_value=1e-6, max_value=1e6),
        ratio=st.floats(min_value=1e-3, max_value=1e3),
        temp=st.floats(min_value=1e-3, max_value=1e3),
        lam=st.floats(min_value=1e-6, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance_property(self, c, ratio, temp, lam):
        base = acceptance_probability(c, c * ratio, temp)
        scaled = acceptance_probability(c * lam, c * ratio * lam, temp)
        if math.isinf(base):
            assert math.isinf(scaled)
        else:
            assert scaled == pytest.approx(base, rel=1e-9)


# ---------------------------------------------------------------------------
# temperature schedule
# ---------------------------------------------------------------------------


class TestTemperatureSchedule:
    def test_endpoints(self):
        cfg = AnnealConfig(t0=2.0, tf=0.005, max_iters=1)
        assert temperature_at(0.0, cfg) == pytest.approx(2.0)
        assert temperature_at(1.0, cfg) == pytest.approx(0.005)

    def test_monotone_decreasing(self):
        cfg = AnnealConfig(t0=1.0, tf=0.001, max_iters=1)
        temps = [temperature_at(p, cfg) for p in np.linspace(0.0, 1.0, 33)]
        assert all(a > b for a, b in zip(temps, temps[1:]))

    def test_constant_when_t0_equals_tf(self):
        cfg = AnnealConfig(t0=0.7, tf=0.7, max_iters=1)
        for p in (0.0, 0.3, 1.0):
            assert temperature_at(p, cfg) == pytest.approx(0.7)

    def test_progress_out_of_range_rejected(self):
        cfg = AnnealConfig(max_iters=1)
        with pytest.raises(ValueError):
            temperature_at(-0.1, cfg)
        with pytest.raises(ValueError):
            temperature_at(1.1, cfg)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


class TestAnnealConfig:
    def test_bad_temperatures(self):
        with pytest.raises(ValueError, match="temperatures"):
            AnnealConfig(t0=0.0)
        with pytest.raises(ValueError, match="temperatures"):
            AnnealConfig(t0=1.0, tf=2.0)
        with pytest.raises(ValueError, match="temperatures"):
            AnnealConfig(tf=-1.0)
        nan, inf = float("nan"), float("inf")
        for t0, tf in ((nan, nan), (nan, 0.001), (1.0, nan), (inf, 0.001), (inf, inf)):
            with pytest.raises(ValueError, match="temperatures"):
                AnnealConfig(t0=t0, tf=tf)

    def test_bad_steps_and_threshold(self):
        with pytest.raises(ValueError, match="steps"):
            AnnealConfig(steps=0)
        with pytest.raises(ValueError, match="restart_threshold"):
            AnnealConfig(restart_threshold=0)

    def test_workers_must_be_positive(self):
        assert AnnealConfig().workers == 4
        for workers in (0, -1):
            with pytest.raises(ValueError, match="workers"):
                AnnealConfig(workers=workers)

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            AnnealConfig(mode="random")

    def test_requires_some_budget(self):
        with pytest.raises(ValueError, match="max_iters"):
            AnnealConfig(max_iters=0, time_limit=0.0)
        # either budget alone is fine
        AnnealConfig(max_iters=5, time_limit=0.0)
        AnnealConfig(max_iters=0, time_limit=1.0)

    def test_negative_max_iters_rejected(self):
        # -1 once annealed by wall clock, as 0 does.
        for limit in (0.0, 0.2):
            with pytest.raises(ValueError, match="max_iters must be >= 0, got -1"):
                AnnealConfig(max_iters=-1, time_limit=limit)

    def test_time_limit_must_be_finite(self):
        # nan once failed at the first temperature; inf with max_iters=0 never stopped.
        for limit in (float("nan"), float("inf"), float("-inf")):
            for iters in (0, 5):
                with pytest.raises(ValueError, match="time_limit must be finite"):
                    AnnealConfig(max_iters=iters, time_limit=limit)


# ---------------------------------------------------------------------------
# directed target selection
# ---------------------------------------------------------------------------


def directed_target(net, trees, k_src, node):
    """``select_target_directed`` for the leaves under ``node`` of tree
    ``k_src``, on the fan-in network of ``trees``, checked against the
    leg-set rule of the oracle."""
    fanin = reduction_network(net, [t.legs(t.root) for t in trees])
    owner = owner_map(net, [t.leaf_order for t in trees])
    tree = trees[k_src]
    k = select_target_directed(fanin, k_src, vertex_set_row(net, owner, tree.subtree_leaf_tensors(node)))
    assert k == oracles.select_target_directed(net, trees, k_src, tree.legs(node))
    return k


class TestDirectedSelection:
    def test_chain_prefers_heavier_contraction(self):
        # Moving T1 (size 4*8=32): pairing with T2 (size 8*3=24) removes the
        # shared dim-8 edge (result 4*3=12, objective 32+24-12=44) and beats
        # pairing with T0 (objective 8+32-16=24).
        net = chain_net()
        trees = [ContractionTree.from_pairs(net, [], leaves=[i]) for i in range(3)]
        assert directed_target(net, trees, 1, 1) == 2

    def test_tie_breaks_to_lowest_index(self):
        # Symmetric chain: both neighbours of the middle tensor offer the
        # same objective, so the lowest partition index wins.
        net = chain_net(dims=(3, 4, 4, 3))
        trees = [ContractionTree.from_pairs(net, [], leaves=[i]) for i in range(3)]
        assert directed_target(net, trees, 1, 1) == 0

    def test_source_partition_never_selected(self):
        net = chain_net()
        trees = [ContractionTree.from_pairs(net, [], leaves=[i]) for i in range(3)]
        for src in range(3):
            assert directed_target(net, trees, src, src) != src


# ---------------------------------------------------------------------------
# carried fan-in tables
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    mode=st.sampled_from(("naive", "directed")),
    huge=st.booleans(),
)
def test_walks_carry_the_tables_of_their_trees(seed, mode, huge):
    # Dimension-1 and parallel bonds, often disconnected; with ``huge``
    # every dimension is a multiple of 2**100, past the 2**300 clamp.
    rng = np.random.default_rng(seed)
    net = oracles.random_bond_network(rng, scale=2**100 if huge else 1)
    assume(net.num_vertices >= 3)
    k = int(rng.integers(2, min(5, net.num_vertices)))
    part = Partitioning(oracles.random_blocks(rng, net.vertices(), k))
    cfg = AnnealConfig(mode=mode, cost=CostConfig(comm_beta=1.0), workers=1, max_iters=1)
    state = build_plan(net, part, cost_cfg=cfg.cost)
    for _ in range(6):
        trees = state.partition_trees
        legs = [t.legs(t.root) for t in trees]
        fanin = state.reduction.network
        assert [fanin.entries, fanin.shared] == list(leg_tables(net, legs))
        assert state.owner == owner_map(net, state.partitioning.blocks)
        fresh = reduction_path(reduction_network(net, legs))
        assert state.reduction.pairs() == fresh.pairs()
        for t in state.reduction.order:
            assert state.reduction.legs(t) == fresh.legs(t)
        for k_src, tree in enumerate(trees):
            for node in tree.order[:-1]:
                directed_target(net, trees, k_src, node)
        try:
            state = select_neighbor(net, state, Step(cfg, math.inf), rng)
        except NoMoveError:
            break


# ---------------------------------------------------------------------------
# neighbour moves
# ---------------------------------------------------------------------------


class TestSelectNeighbor:
    def test_move_preserves_validity(self):
        net = ghz_net(6)
        state, cfg = planned(net, k=2, seed=3)
        rng = np.random.default_rng(7)
        with oracles.checked_proposals() as propose:
            nxt = propose(net, state, Step(cfg, math.inf), rng)
        ok, problems = validate(nxt.partitioning, net)
        assert ok, problems
        assert nxt.tree.subtree_roots(nxt.partitioning.blocks) is not None
        assert nxt.cost > 0

    def test_cached_cost_matches_fresh_evaluation(self):
        net = ghz_net(6)
        state, cfg = planned(net, k=3, seed=1)
        rng = np.random.default_rng(11)
        for _ in range(5):
            state = select_neighbor(net, state, Step(cfg, math.inf), rng)
            fresh = con_dist(state.tree, state.partitioning.blocks, cfg.cost)
            assert state.cost == fresh

    def test_all_singletons_raise(self):
        net = chain_net()
        cfg = AnnealConfig(workers=1, max_iters=1)
        part = initial_partition(net, net.num_vertices, seed=0)
        state = build_plan(net, part, cost_cfg=cfg.cost)
        with pytest.raises(NoMoveError):
            select_neighbor(net, state, Step(cfg, math.inf), np.random.default_rng(0))

    def test_move_does_not_depend_on_node_ids(self):
        net = circuit_to_network(dict(bundled_suite())["rand-12"])
        state, cfg = planned(net, k=4, seed=1)
        trees = tuple(renumbered(t) for t in state.partition_trees)
        assert [oracles.to_nested(t) for t in trees] == [oracles.to_nested(t) for t in state.partition_trees]
        assert any(t.internal_order != u.internal_order
                   for t, u in zip(trees, state.partition_trees))
        relabelled = dataclasses.replace(state, partition_trees=trees)
        step = Step(cfg, math.inf)
        for seed in range(50):
            a = select_neighbor(net, state, step, np.random.default_rng(seed))
            b = select_neighbor(net, relabelled, step, np.random.default_rng(seed))
            assert a.partitioning.blocks == b.partitioning.blocks
            assert a.cost == b.cost

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_random_walks_stay_valid(self, seed):
        rng = np.random.default_rng(seed)
        net = oracles.random_network(rng, n_min=6, n_max=10, max_dim=3, payloads=False)
        cfg = AnnealConfig(workers=1, max_iters=1, seed=seed)
        part = initial_partition(net, 2, seed=seed)
        state = build_plan(net, part, cost_cfg=cfg.cost)
        walk = np.random.default_rng(seed + 1)
        with oracles.checked_proposals() as propose:
            for _ in range(4):
                try:
                    state = propose(net, state, Step(cfg, math.inf), walk)
                except NoMoveError:
                    break
                ok, problems = validate(state.partitioning, net)
                assert ok, problems


class TestCheckMove:
    """``oracles.check_move`` rejects each kind of corrupted proposal."""

    @staticmethod
    def moved():
        net = circuit_to_network(dict(bundled_suite())["rand-12"])
        state, cfg = planned(net, k=3, seed=1)
        candidate = select_neighbor(net, state, Step(cfg, math.inf), np.random.default_rng(0))
        oracles.check_move(net, state, candidate)
        return net, state, cfg, candidate

    def test_doubled_fanin_entry_through_do_steps(self, monkeypatch):
        net, state, cfg, _ = self.moved()
        after_move = FanInNetwork.after_move

        def doubled(fanin, net, owner, blocks, trees, src, dst, moved_row):
            out = after_move(fanin, net, owner, blocks, trees, src, dst, moved_row)
            out.entries[src] *= 2
            return out

        monkeypatch.setattr(FanInNetwork, "after_move", doubled)
        with oracles.checked_proposals(), pytest.raises(AssertionError, match="fan-in tables"):
            do_steps(net, 4, state, 1.0, cfg, np.random.default_rng(0))

    def test_carried_seed_key_rescored_wrongly(self, monkeypatch):
        net, state, cfg, _ = self.moved()
        after_move = FanInNetwork.after_move

        def skewed(fanin, net, owner, blocks, trees, src, dst, moved_row):
            out = after_move(fanin, net, owner, blocks, trees, src, dst, moved_row)
            pair = min(p for p in out.seeds if src in p)
            key = out.seeds[pair]
            out.seeds[pair] = (math.nextafter(key[0], -math.inf), *key[1:])
            return out

        monkeypatch.setattr(FanInNetwork, "after_move", skewed)
        with oracles.checked_proposals(), pytest.raises(AssertionError, match="carried seed keys"):
            do_steps(net, 4, state, 1.0, cfg, np.random.default_rng(0))

    def test_wrong_owner_entry(self):
        net, state, _, candidate = self.moved()
        owner = list(candidate.owner)
        owner[0] = (owner[0] + 1) % len(candidate.partition_trees)
        with pytest.raises(AssertionError, match="owner"):
            oracles.check_move(net, state, dataclasses.replace(candidate, owner=owner))

    def test_cost_one_ulp_off(self):
        net, state, _, candidate = self.moved()
        cost = math.nextafter(candidate.cost, math.inf)
        with pytest.raises(AssertionError, match="cached cost"):
            oracles.check_move(net, state, dataclasses.replace(candidate, cost=cost))

    def test_fanin_cost_one_ulp_off(self):
        net, state, _, candidate = self.moved()
        fanin = list(candidate.fanin_costs)
        fanin[-1] = math.nextafter(fanin[-1], math.inf)
        with pytest.raises(AssertionError, match="fan-in costs"):
            oracles.check_move(net, state, dataclasses.replace(candidate, fanin_costs=tuple(fanin)))

    def test_whole_block_moved(self):
        net, state, _, _ = self.moved()
        blocks = list(state.partitioning.blocks)
        blocks[1], blocks[0] = blocks[1] | blocks[0], frozenset()
        emptied = dataclasses.replace(state, partitioning=Partitioning(blocks))
        with pytest.raises(AssertionError, match="block 0 is empty"):
            oracles.check_move(net, state, emptied)


class TestStepProposals:
    """A ``Step`` proposal is the full proposal judged by the Metropolis test."""

    @given(
        seed=st.integers(0, 10**6),
        mode=st.sampled_from(("naive", "directed")),
        intra=st.sampled_from(("serial", "par")),
        alpha=st.floats(0, 2),
        beta=st.floats(0, 2),
        log_t=st.floats(-3, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_step_answers_as_the_full_proposal_and_its_draw(self, seed, mode, intra, alpha, beta, log_t):
        # Parallel, dimension-1 and self-loop bonds, open legs, often disconnected.
        rng = np.random.default_rng(seed)
        net = oracles.random_bond_network(rng, loops=True)
        assume(net.num_vertices >= 2)
        k = int(rng.integers(2, net.num_vertices + 1))
        cost = CostConfig(comm_alpha=alpha, comm_beta=beta, intra_node=intra)
        cfg = AnnealConfig(mode=mode, cost=cost, workers=1, max_iters=1)
        state = build_plan(net, Partitioning(oracles.random_blocks(rng, net.vertices(), k)), cost_cfg=cost)
        step = Step(cfg, 10.0 ** log_t)
        for _ in range(6):
            reference = oracles.DrawRecorder(copy.deepcopy(rng))
            try:
                full = select_neighbor(net, state, Step(cfg, math.inf), reference)
            except NoMoveError:
                with pytest.raises(NoMoveError):
                    select_neighbor(net, state, step, rng)
                break
            got = select_neighbor(net, state, step, rng)
            assert rng.bit_generator.state == reference.bit_generator.state
            if acceptance_probability(state.cost, full.cost, step.temperature) >= reference.u:
                assert got is not None and oracles.same_plan(got, full)
                state = got
            else:
                assert got is None

    def test_cold_proposals_are_rejected_before_the_partition_passes(self, monkeypatch):
        net = circuit_to_network(dict(bundled_suite())["rand-12"])
        state, cfg = planned(net, k=8, seed=1)
        passes = []

        def counted(*args):
            passes.append(args)
            return greedy_tree(*args)

        monkeypatch.setattr(importlib.import_module("tnplan.anneal"), "greedy_tree", counted)
        rng = np.random.default_rng(0)
        early = 0
        for _ in range(40):
            before = len(passes)
            got = select_neighbor(net, state, Step(cfg, 1e-3), rng)
            if len(passes) == before:
                assert got is None
                early += 1
            else:
                assert len(passes) == before + 2
            state = got or state
        assert 0 < early < 40


# ---------------------------------------------------------------------------
# the annealing loop
# ---------------------------------------------------------------------------


class TestAnneal:
    def test_result_never_worse_than_initial(self):
        for seed in range(4):
            net = ghz_net(6)
            state, _ = planned(net, k=2, seed=seed)
            cfg = AnnealConfig(workers=2, steps=8, max_iters=12, seed=seed)
            result = anneal(net, state, cfg)
            assert result.best.cost <= state.cost

    def test_trace_shape_and_bookkeeping(self):
        net = ghz_net(6)
        state, _ = planned(net, k=2, seed=0)
        cfg = AnnealConfig(workers=2, steps=8, max_iters=15, restart_threshold=4, seed=0)
        result = anneal(net, state, cfg)
        assert isinstance(result, AnnealResult)
        assert result.iterations == 15
        assert len(result.trace) == 15
        best_so_far = math.inf
        for i, row in enumerate(result.trace):
            assert row["iteration"] == i
            assert set(row) == {
                "iteration",
                "temperature",
                "cost",
                "best",
                "improved",
                "restarted",
            }
            assert not (row["improved"] and row["restarted"])
            best_so_far = min(best_so_far, row["cost"])
            assert row["best"] == best_so_far
        temps = [row["temperature"] for row in result.trace]
        assert all(a > b for a, b in zip(temps, temps[1:]))

    def test_restart_resumes_from_best(self):
        net = ghz_net(6)
        state, _ = planned(net, k=2, seed=0)
        cfg = AnnealConfig(
            t0=2.0, tf=1.0, workers=1, steps=4, max_iters=40, restart_threshold=3, seed=5
        )
        result = anneal(net, state, cfg)
        restarts = [row for row in result.trace if row["restarted"]]
        assert restarts, "expected at least one restart at high temperature"
        # Replay the bookkeeping rule: an improvement resets the stall
        # counter; once it reaches the threshold the walk restarts from the
        # best state (so the logged cost snaps back to the best).
        best = state.cost
        last_event = -1
        for i, row in enumerate(result.trace):
            if row["cost"] < best:
                expect = (True, False)
                best = row["cost"]
                last_event = i
            elif i - last_event >= cfg.restart_threshold:
                expect = (False, True)
                last_event = i
                assert row["cost"] == best
            else:
                expect = (False, False)
            assert (row["improved"], row["restarted"]) == expect, f"iteration {i}"

    def test_no_movable_blocks_returns_initial(self):
        net = chain_net()
        cfg = AnnealConfig(workers=1, max_iters=10, seed=0)
        part = initial_partition(net, net.num_vertices, seed=0)
        plan = build_plan(net, part, cost_cfg=cfg.cost)
        result = anneal(net, plan, cfg)
        assert result.iterations == 0
        assert result.trace == []
        assert result.best is plan

    def test_single_block_returns_initial(self):
        net = chain_net()
        cfg = AnnealConfig(workers=1, max_iters=10, seed=0)
        plan = build_plan(net, initial_partition(net, 1, seed=0), cost_cfg=cfg.cost)
        result = anneal(net, plan, cfg)
        assert result.iterations == 0 and result.trace == []
        assert result.best is plan

    def test_best_is_a_plan_under_the_run_costs(self):
        net = ghz_net(6)
        plan, _ = planned(net, k=3, seed=1)
        cfg = AnnealConfig(cost=CostConfig(comm_beta=1.0), workers=2, steps=8, max_iters=6, seed=1)
        best = anneal(net, plan, cfg).best
        assert isinstance(best, Plan)
        assert best.cost_cfg == cfg.cost
        assert best.cost == best.report.con_dist == con_dist(best.tree, best.partitioning.blocks, cfg.cost)

    def test_directed_mode_runs_and_improves(self):
        net = ghz_net(8)
        cfg = AnnealConfig(workers=2, steps=8, max_iters=20, mode="directed", seed=1)
        part = initial_partition(net, 4, seed=1)
        plan = build_plan(net, part, cost_cfg=cfg.cost)
        result = anneal(net, plan, cfg)
        assert result.best.cost <= plan.cost


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        net = ghz_net(6)
        outs = []
        for _ in range(2):
            cfg = AnnealConfig(workers=3, steps=9, max_iters=10, seed=42)
            plan = build_plan(net, initial_partition(net, 2, seed=42), cost_cfg=cfg.cost)
            refined, trace = refine_plan(net, plan, cfg)
            outs.append((plan_to_dict(refined), trace))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_thread_count_does_not_change_results(self):
        net = ghz_net(6)
        outs = []
        for threads in (1, 3):
            cfg = AnnealConfig(workers=3, steps=9, max_iters=10, seed=7, threads=threads)
            plan = build_plan(net, initial_partition(net, 2, seed=7), cost_cfg=cfg.cost)
            refined, trace = refine_plan(net, plan, cfg)
            outs.append((plan_to_dict(refined), trace))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_seed_changes_the_walk(self):
        net = ghz_net(6)
        traces = []
        for seed in (0, 1):
            cfg = AnnealConfig(workers=2, steps=8, max_iters=10, seed=seed)
            plan = build_plan(net, initial_partition(net, 2, seed=0), cost_cfg=cfg.cost)
            _, trace = refine_plan(net, plan, cfg)
            traces.append([row["cost"] for row in trace])
        assert traces[0] != traces[1]

    @pytest.mark.parametrize(
        "network, k, cost",
        [
            ((20, 8), 8, CostConfig(comm_alpha=1.0, comm_beta=0.5)),
            # Costs near 2**80, where float sums round: a reordered sum or a
            # changed rounding shows here, not in the exact sums under 2**53.
            ((30, 12), 16, CostConfig(comm_beta=1.0)),
            # Every circuit dimension is 2, so those sums hold powers of two;
            # dimensions 2..7 and costs of 2**80-2**120 make a reordered sum
            # round differently.
            (80, 8, CostConfig(comm_alpha=0.5, comm_beta=1.0)),
            # Four components with no open axes: the fan-in is small, so the
            # slowest partition's local cost, near 2**70, sets the cost, and
            # summing it in another order than con_serial's shows here.
            ([100] * 4, 4, CostConfig(comm_alpha=0.5, comm_beta=1.0)),
        ],
        ids=["rc20x8-k8", "rc30x12-k16", "rand80-d7-k8", "4xrand100-d7-k4"],
    )
    def test_state_is_a_function_of_its_partitioning(self, network, k, cost):
        if isinstance(network, tuple):
            net = circuit_to_network(random_circuit(*network, seed=1))
        elif isinstance(network, list):
            rng = np.random.default_rng(0)
            net = oracles.disjoint_union([
                oracles.random_network(rng, n_min=n, n_max=n, max_dim=7, p_open=0, payloads=False)
                for n in network
            ])
        else:
            net = oracles.random_network(
                np.random.default_rng(0), n_min=network, n_max=network, max_dim=7, payloads=False
            )
        cfg = AnnealConfig(mode="directed", cost=cost, workers=1, max_iters=1)
        plan = build_plan(net, initial_partition(net, k, seed=0), cost_cfg=cost)
        # Every proposal in full, rejected ones included.
        with oracles.checked_proposals() as propose:
            do_steps(net, 40, plan, 1.0, cfg, np.random.default_rng(3))
        assert len(propose.candidates) == 40
        for state in propose.candidates:
            trees = [greedy_tree(net, block) for block in state.partitioning.blocks]
            reduction = reduction_path(reduction_network(net, [t.legs(t.root) for t in trees]))
            assert reduction.pairs() == state.reduction.pairs()
            local = [con_serial(t) for t in trees]
            rebuilt = con_dist(reduction, None, cost, subtree_roots=range(k), local_costs=local)
            assert rebuilt == state.cost


# ---------------------------------------------------------------------------
# recosting a plan
# ---------------------------------------------------------------------------


class TestStatePlanRoundTrip:
    def test_round_trip_preserves_everything(self):
        net = ghz_net(6)
        free, dear = CostConfig(), CostConfig(comm_beta=1.0)
        plan = build_plan(net, initial_partition(net, 2, seed=0), cost_cfg=free)
        recosted = state_to_plan(net, plan, dear)
        assert recosted.cost == con_dist(plan.tree, plan.partitioning.blocks, dear) > plan.cost
        back = state_to_plan(net, recosted, CostConfig())
        assert plan_to_dict(back) == plan_to_dict(plan)
        assert state_to_plan(net, plan, CostConfig()) is plan

    def test_do_steps_returns_reachable_state(self):
        net = ghz_net(6)
        state, cfg = planned(net, k=2, seed=0)
        rng = np.random.default_rng(3)
        out = do_steps(net, 6, state, 1.0, cfg, rng)
        ok, problems = validate(out.partitioning, net)
        assert ok, problems
        assert out.tree.subtree_roots(out.partitioning.blocks) is not None
