"""Contraction planning for tensor networks on distributed machines.

The pieces, roughly in dependency order:

* :mod:`tnplan.network` -- tensor networks with explicit bond bookkeeping
* :mod:`tnplan.tree` -- binary contraction trees over a network
* :mod:`tnplan.costs` -- memory and operation-count metrics, including the
  distributed metric that charges communication at partition fan-in
* :mod:`tnplan.pathfind` -- greedy and noisy-greedy tree construction
* :mod:`tnplan.partition` -- balanced initial partitionings of a network
* :mod:`tnplan.anneal` -- simulated-annealing refinement of a plan
* :mod:`tnplan.plan` -- bundles partitioning + trees + costs, (de)serializes
* :mod:`tnplan.circuits` -- quantum-circuit ingestion into amplitude networks
* :mod:`tnplan.execute` -- dense reference executor and distributed emulation
* :mod:`tnplan.bench` -- batch pipeline over circuit suites
"""

from .anneal import (
    AnnealConfig,
    AnnealResult,
    acceptance_probability,
    anneal,
    refine_plan,
    temperature_at,
)
from .bench import RunConfig, compare_report, format_comparison, run_pipeline
from .circuits import (
    Circuit,
    CircuitError,
    Gate,
    circuit_from_dict,
    circuit_to_network,
    make_gate,
    parse_circuit,
)
from .corpus import bundled_suite, ghz_circuit, graph_state_circuit, qft_circuit, random_circuit
from .costs import (
    CostConfig,
    CostReport,
    con_dist,
    con_par,
    con_serial,
    cost_report,
    mem_cost,
    node_ops,
)
from .execute import (
    ExecutionError,
    ExecutionTrace,
    MemoryBudgetError,
    contract_pair,
    execute_distributed_emulation,
    execute_plan,
)
from .network import OPEN, Edge, NetworkError, TensorNetwork
from .partition import Partitioning, cut_weight, initial_partition, refine_partition, validate
from .pathfind import GreedyConfig, greedy_tree, random_greedy_tree, reduction_path
from .plan import (
    Plan,
    PlanError,
    assemble_plan,
    build_plan,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    serial_plan,
)
from .tree import ContractionTree, TreeError, compose_plan_tree, leaf_legs

__version__ = "0.1.0"

__all__ = [
    "OPEN",
    "AnnealConfig",
    "AnnealResult",
    "Circuit",
    "CircuitError",
    "ContractionTree",
    "CostConfig",
    "CostReport",
    "Edge",
    "ExecutionError",
    "ExecutionTrace",
    "Gate",
    "GreedyConfig",
    "MemoryBudgetError",
    "NetworkError",
    "Partitioning",
    "Plan",
    "PlanError",
    "RunConfig",
    "TensorNetwork",
    "TreeError",
    "acceptance_probability",
    "anneal",
    "assemble_plan",
    "build_plan",
    "bundled_suite",
    "circuit_from_dict",
    "circuit_to_network",
    "compare_report",
    "compose_plan_tree",
    "con_dist",
    "con_par",
    "con_serial",
    "contract_pair",
    "cost_report",
    "cut_weight",
    "execute_distributed_emulation",
    "execute_plan",
    "format_comparison",
    "ghz_circuit",
    "graph_state_circuit",
    "greedy_tree",
    "initial_partition",
    "leaf_legs",
    "make_gate",
    "mem_cost",
    "node_ops",
    "parse_circuit",
    "plan_from_dict",
    "plan_from_json",
    "plan_to_dict",
    "plan_to_json",
    "qft_circuit",
    "random_circuit",
    "random_greedy_tree",
    "reduction_path",
    "refine_partition",
    "refine_plan",
    "run_pipeline",
    "serial_plan",
    "temperature_at",
    "validate",
]
