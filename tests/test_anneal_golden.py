"""Golden outputs of the annealer: plan JSON and trace for fixed seeds.

Each case builds a circuit network, an initial partition and greedy plan,
anneals it for a fixed iteration budget and compares the refined plan
document and the trace with ``tests/data/anneal_golden.json``.  Any change
to partitioning, greedy search, fan-in search, costing or the move rule
that alters a plan shows up here.

Regenerate the data only when a change of plans is intended:

    PYTHONPATH=src python tests/test_anneal_golden.py
"""

import itertools
import json
from pathlib import Path

import pytest

from tnplan.anneal import AnnealConfig, anneal
from tnplan.circuits import circuit_to_network
from tnplan.corpus import bundled_suite, random_circuit
from tnplan.costs import CostConfig
from tnplan.partition import initial_partition
from tnplan.plan import build_plan, plan_to_dict

DATA = Path(__file__).with_name("data") / "anneal_golden.json"

CIRCUITS = {
    "rand12": lambda: dict(bundled_suite())["rand-12"],
    "rc20x8": lambda: random_circuit(20, 8, seed=1),
}
K = 8
SEED = 5
MAX_ITERS = 3
COSTS = {"a0b0": (0.0, 0.0), "a1b0.5": (1.0, 0.5)}


def case_ids():
    return [
        f"{circuit}-{mode}-{cost}-dist"
        for circuit, mode, cost in itertools.product(CIRCUITS, ("naive", "directed"), COSTS)
    ]


def run_case(case_id):
    """Refined plan document and trace for one case, JSON-normalised."""
    circuit, mode, cost, _ = case_id.split("-")
    alpha, beta = COSTS[cost]
    cost_cfg = CostConfig(comm_alpha=alpha, comm_beta=beta)
    net = circuit_to_network(CIRCUITS[circuit]())
    plan = build_plan(net, initial_partition(net, K, seed=SEED), cost_cfg=cost_cfg)
    cfg = AnnealConfig(
        mode=mode, cost=cost_cfg, workers=2, steps=4,
        max_iters=MAX_ITERS, seed=SEED, threads=1,
    )
    result = anneal(net, plan, cfg)
    return json.loads(json.dumps({"plan": plan_to_dict(result.best), "trace": result.trace}))


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("case_id", case_ids())
def test_annealed_plan_matches_golden(golden, case_id):
    assert run_case(case_id) == golden[case_id]


def test_golden_data_covers_every_case(golden):
    assert sorted(golden) == sorted(case_ids())


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    lines = [
        f"{json.dumps(case_id)}: {json.dumps(run_case(case_id), sort_keys=True, separators=(',', ':'))}"
        for case_id in case_ids()
    ]
    DATA.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} cases to {DATA}")
