"""End-to-end acceptance suite.

One test per shipping criterion; with ``pytest -v`` each prints exactly one
PASSED/FAILED line.  Each test also emits a ``CRITERION n PASS`` summary
(visible with ``-rA`` or ``-s``) once its assertions have all held.
"""

import itertools
import json
import math
import time

import numpy as np

import oracles
from tnplan.anneal import (
    AnnealConfig,
    acceptance_probability,
    anneal,
    refine_plan,
)
from tnplan.bench import RunConfig, compare_report, report_json, run_pipeline
from tnplan.circuits import circuit_to_network
from tnplan.corpus import bundled_suite, ghz_circuit, random_circuit
from tnplan.costs import CostConfig, con_dist, con_par, con_serial
from tnplan.execute import execute_distributed_emulation, execute_plan
from tnplan.network import TensorNetwork
from tnplan.partition import (
    Partitioning,
    cut_weight,
    initial_partition,
    refine_partition,
    validate,
)
from tnplan.plan import build_plan, plan_to_json, serial_plan


def test_criterion_1_executor_mult_count_equals_serial_cost():
    """The executor's multiplication count reproduces the serial cost metric,
    integer-exactly, on 100 random networks of up to 12 tensors."""
    started = time.perf_counter()
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        net = oracles.random_network(rng, n_min=2, n_max=12, max_dim=4, payloads=True)
        nested = oracles.random_nested(rng, list(net.vertices()))
        tree = oracles.from_nested(net, nested)
        trace = execute_plan(net, tree)
        predicted = con_serial(tree)
        assert predicted == float(int(predicted))
        assert trace.mult_count == int(predicted), f"seed {seed}"
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 100
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"CRITERION 1 PASS: mult count == serial cost on {checked} networks "
          f"({elapsed:.1f}s)")


def test_criterion_2_circuit_amplitudes_match_reference():
    """GHZ amplitudes are exact through the executor, and random 6-qubit
    circuit amplitudes agree with a dense state-vector simulation."""
    started = time.perf_counter()
    target = 1.0 / math.sqrt(2.0)
    for n in range(2, 11):
        net = circuit_to_network(ghz_circuit(n), bits="0" * n)
        value = execute_plan(net, serial_plan(net).tree).scalar()
        assert abs(value - target) < 1e-9, f"ghz-{n}"
        bad = circuit_to_network(ghz_circuit(n), bits="0" * (n - 1) + "1")
        mismatch = execute_plan(bad, serial_plan(bad).tree).scalar()
        assert abs(mismatch) < 1e-12, f"ghz-{n} mismatched bit"

    # the same amplitude must survive a partitioned, annealed plan
    net = circuit_to_network(ghz_circuit(8), bits="0" * 8)
    plan = build_plan(net, initial_partition(net, 4, seed=0))
    cfg = AnnealConfig(workers=2, steps=8, max_iters=20, seed=0)
    refined, _ = refine_plan(net, plan, cfg)
    value = execute_plan(net, refined.tree).scalar()
    assert abs(value - target) < 1e-9

    rng = np.random.default_rng(2024)
    for case in range(6):
        circuit = random_circuit(6, depth=8, seed=900 + case)
        bits = "".join(str(b) for b in rng.integers(0, 2, size=6))
        net = circuit_to_network(circuit, bits=bits)
        value = execute_plan(net, serial_plan(net).tree).scalar()
        reference = oracles.amplitude(circuit, bits)
        assert abs(value - reference) < 1e-9, f"case {case} bits {bits}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"CRITERION 2 PASS: GHZ 2..10 and 6 random 6-qubit circuits match "
          f"reference amplitudes ({elapsed:.1f}s)")


def test_criterion_3_distributed_metric_recovers_serial_and_parallel():
    """With free communication, one partition yields the serial cost and
    all-singleton partitions yield the parallel cost — exactly."""
    free = CostConfig(comm_alpha=0.0, comm_beta=0.0, intra_node="serial")
    for seed in range(100):
        rng = np.random.default_rng(seed)
        net = oracles.random_network(rng, n_min=2, n_max=10, max_dim=4, payloads=False)
        nested = oracles.random_nested(rng, list(net.vertices()))
        tree = oracles.from_nested(net, nested)
        whole = [frozenset(net.vertices())]
        assert con_dist(tree, whole, free) == con_serial(tree), f"seed {seed}"
        singles = [frozenset({v}) for v in net.vertices()]
        assert con_dist(tree, singles, free) == con_par(tree), f"seed {seed}"
    print("CRITERION 3 PASS: distributed metric recovers serial and parallel "
          "costs exactly on 100 random trees")


def test_criterion_4_annealer_never_regresses_and_states_stay_valid():
    """Annealing never returns a worse plan than it started from, and every
    state visited along a 1000-iteration trace satisfies the partitioning
    and subtree invariants (checked inside every proposal)."""
    net = circuit_to_network(ghz_circuit(6), bits="0" * 6)
    cfg = AnnealConfig(
        workers=1, steps=2, max_iters=1000, check_invariants=True, seed=0
    )
    plan = build_plan(net, initial_partition(net, 2, seed=0), cost_cfg=cfg.cost)
    result = anneal(net, plan, cfg)
    assert len(result.trace) == 1000
    assert result.best.cost <= plan.cost
    ok, problems = validate(result.best.partitioning, net)
    assert ok, problems
    assert result.best.tree.accepts_partitioning(result.best.partitioning.blocks)

    for seed in range(1, 6):
        cfg = AnnealConfig(
            workers=2, steps=8, max_iters=40, check_invariants=True, seed=seed
        )
        plan = build_plan(net, initial_partition(net, 3, seed=seed), cost_cfg=cfg.cost)
        result = anneal(net, plan, cfg)
        assert result.best.cost <= plan.cost, f"seed {seed}"
    print("CRITERION 4 PASS: annealer monotone vs initial; 1000-iteration "
          "trace kept every invariant")


def test_criterion_5_directed_annealing_halves_distributed_cost():
    """Over the bundled 6..12-qubit suite with a 10-second budget per circuit
    and method, sweeping 2/4/8 partitions: directed annealing reaches a
    geometric-mean cost ratio of at most 0.5 against the serial baseline and
    a median no worse than naive annealing."""
    suite = [(name, c) for name, c in bundled_suite() if 6 <= c.n_qubits <= 12]
    assert len(suite) >= 10
    cfg = RunConfig(
        sweep=(2, 4, 8),
        budget_seconds=10.0,
        repeats=1,
        workers=4,
        threads=4,
        seed=0,
    )
    report = run_pipeline(suite, cfg)
    assert report["errors"] == []
    summary = compare_report([report])
    directed = summary["methods"]["sa-directed"]
    naive = summary["methods"]["sa-naive"]
    assert directed["count"] == len(suite)
    assert directed["ratio_geomean"] <= 0.5, directed
    assert directed["ratio_median"] <= naive["ratio_median"], (directed, naive)
    print(f"CRITERION 5 PASS: sa-directed geomean ratio "
          f"{directed['ratio_geomean']:.3f} <= 0.5 over {len(suite)} circuits; "
          f"median {directed['ratio_median']:.3f} <= naive "
          f"{naive['ratio_median']:.3f}")


def test_criterion_6_distributed_cost_predicts_emulated_walltime():
    """Across 16 plans over 8 random networks, the distributed cost metric
    correlates with emulated wall time at Pearson r >= 0.9.  Each plan is
    emulated 3 times and its fastest run counts, so that a burst of load
    from other processes does not stand in for the plan's own time."""
    started = time.perf_counter()
    specs = [
        (10, 3, 101),
        (12, 4, 102),
        (14, 4, 103),
        (16, 5, 104),
        (16, 6, 105),
        (18, 6, 106),
        (18, 7, 107),
        (20, 7, 108),
    ]
    costs, seconds = [], []
    for idx, (n, max_dim, seed) in enumerate(specs):
        rng = np.random.default_rng(seed)
        net = oracles.random_network(
            rng,
            n_min=n,
            n_max=n,
            max_dim=max_dim,
            max_degree=4,
            p_open=0.1,
            p_loop=0.0,
            payloads=True,
        )
        for k in (2, 4):
            plan = build_plan(net, initial_partition(net, k, seed=idx))
            costs.append(plan.report.con_dist)
            seconds.append(min(
                execute_distributed_emulation(net, plan).emulated_seconds for _ in range(3)
            ))
    elapsed = time.perf_counter() - started
    assert len(costs) >= 10
    r = oracles.pearson(costs, seconds)
    assert r >= 0.9, f"r = {r:.4f}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    print(f"CRITERION 6 PASS: Pearson r = {r:.3f} over {len(costs)} plans "
          f"({elapsed:.1f}s)")


def test_criterion_7_seeded_runs_are_bit_reproducible():
    """Fixed seeds reproduce identical plans, costs, and report bytes across
    repeated runs and across thread counts (timings live in a separate
    section and are excluded)."""
    net = circuit_to_network(ghz_circuit(6), bits="0" * 6)
    plans = []
    for threads in (1, 4, 1):
        cfg = AnnealConfig(workers=3, steps=9, max_iters=12, seed=11, threads=threads)
        plan = build_plan(net, initial_partition(net, 2, seed=11), cost_cfg=cfg.cost)
        refined, trace = refine_plan(net, plan, cfg)
        plans.append((plan_to_json(refined), refined.report.con_dist, trace))
    assert plans[0] == plans[1] == plans[2]

    suite = [("ghz-6", ghz_circuit(6)), ("rand-6", random_circuit(6, depth=3, seed=11))]
    bodies = []
    for threads in (1, 4, 1):
        cfg = RunConfig(
            sweep=(2, 4),
            budget_iters=3,
            budget_seconds=0.0,
            repeats=1,
            steps=8,
            workers=2,
            threads=threads,
            seed=5,
        )
        report = run_pipeline(suite, cfg)
        del report["timings"]
        bodies.append(report_json(report).encode())
    assert bodies[0] == bodies[1] == bodies[2]
    print("CRITERION 7 PASS: plans, costs, and report bytes identical across "
          "runs and thread counts")


def test_criterion_8_ring_bisection_finds_minimum_cut():
    """On an 8-tensor ring the initial bisection finds the minimum 2-edge
    cut (verified by brute force), stays balanced and valid, and boundary
    refinement never increases the cut weight."""
    net = TensorNetwork()
    for _ in range(8):
        net.add_tensor([2, 2])
    for i in range(8):
        net.bond(i, 1, (i + 1) % 8, 0)

    best = math.inf
    for left in itertools.combinations(range(8), 4):
        if 0 not in left:
            continue
        blocks = [frozenset(left), frozenset(range(8)) - frozenset(left)]
        best = min(best, cut_weight(Partitioning(blocks), net))
    assert best == 2.0

    part = initial_partition(net, 2, seed=0)
    ok, problems = validate(part, net)
    assert ok, problems
    assert sorted(len(b) for b in part.blocks) == [4, 4]
    assert cut_weight(part, net) == best

    for seed in range(5):
        start = initial_partition(net, 2, seed=seed)
        refined, history = refine_partition(start, net)
        assert all(a >= b for a, b in zip(history, history[1:])), history
        ok, problems = validate(refined, net)
        assert ok, problems
    print("CRITERION 8 PASS: 8-ring bisection reaches the brute-force "
          "minimum cut of 2.0; refinement is monotone")


def test_criterion_9_acceptance_rule_is_scale_free():
    """The move-acceptance rule is certain for equal costs, exactly 1/2 for
    a cost doubling at unit temperature, and invariant under rescaling both
    costs by any factor up to 1e6."""
    for t in (0.001, 0.1, 1.0, 10.0, 1e3):
        for c in (1e-6, 1.0, 3.7, 1e6):
            assert acceptance_probability(c, c, t) == 1.0
    assert abs(acceptance_probability(1.0, 2.0, 1.0) - 0.5) < 1e-12
    assert abs(acceptance_probability(10.0, 20.0, 1.0) - 0.5) < 1e-12

    rng = np.random.default_rng(0)
    lams = [1e-6, 1e-3, 1.0, 42.0, 1e3, 1e6]
    lams += list(10 ** rng.uniform(-6, 6, size=100))
    for c, c_new, t in ((3.0, 5.0, 0.7), (8.0, 2.0, 1.3), (1.0, 1.5, 0.05)):
        base = acceptance_probability(c, c_new, t)
        for lam in lams:
            assert 0.0 < lam <= 1e6
            scaled = acceptance_probability(c * lam, c_new * lam, t)
            if math.isinf(base):
                assert math.isinf(scaled)
            else:
                assert abs(scaled - base) <= 1e-9 * max(1.0, base), (lam, c, c_new, t)
    print("CRITERION 9 PASS: acceptance rule certain at equal cost, 1/2 at "
          "doubling, and scale-free over six decades")
