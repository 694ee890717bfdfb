"""Command line front-end.

Subcommands:

* ``ingest``   circuit JSON -> tensor network JSON
* ``plan``     network JSON -> partitioned contraction plan JSON
* ``anneal``   refine a plan (or build one first) with simulated annealing
* ``execute``  run a plan on the dense executor, optionally emulating
  distributed execution
* ``bench``    batch pipeline over a circuit suite, writes a report
* ``report``   summarize one or more bench reports as a table

Exit codes: 0 on success, 1 on error, 2 when a bench batch partially
failed (some circuits produced results, some errored).
"""

from __future__ import annotations

import argparse
import json
import sys

from .anneal import AnnealConfig, refine_plan
from .bench import METHODS, RunConfig, compare_report, format_comparison, report_json, run_pipeline
from .circuits import circuit_from_dict, circuit_to_network
from .corpus import bundled_suite
from .costs import CostConfig
from .execute import DEFAULT_MAX_ENTRIES, execute_distributed_emulation, execute_plan
from .network import TensorNetwork
from .partition import DEFAULT_IMBALANCE, initial_partition
from .pathfind import GreedyConfig
from .plan import build_plan, plan_from_dict, plan_to_json, serial_plan


def _read_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _write_text(text, path):
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _load_network(path, amplitude=None):
    """Load a network JSON file; circuit JSON is ingested on the fly."""
    payload = _read_json(path)
    if isinstance(payload, dict) and "gates" in payload:
        circuit = circuit_from_dict(payload)
        return circuit_to_network(circuit, bits=amplitude or None)
    return TensorNetwork.from_json(payload)


def _cost_config(args):
    return CostConfig(
        comm_alpha=args.comm_alpha, comm_beta=args.comm_beta, intra_node=args.intra_node
    )


def _partitioned_plan(net, args, cost_cfg):
    part = initial_partition(net, args.partitions, args.imbalance, seed=args.seed)
    return build_plan(net, part, cost_cfg=cost_cfg)


def _add_input_flags(parser):
    parser.add_argument("network", help="network JSON (circuit JSON is ingested on the fly)")
    parser.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    parser.add_argument("--amplitude", default="", help="used only when ingesting a circuit")


def _add_plan_flags(parser, partitions, partitions_help):
    parser.add_argument("--partitions", type=int, default=partitions, help=partitions_help)
    parser.add_argument(
        "--imbalance", type=float, default=DEFAULT_IMBALANCE, help="initial partition imbalance"
    )


def _add_replica_flags(parser):
    parser.add_argument(
        "--steps", type=int, default=AnnealConfig.steps, help="proposals per temperature"
    )
    parser.add_argument(
        "--workers", type=int, default=AnnealConfig.workers, help="seeded replicas per iteration"
    )
    parser.add_argument(
        "--threads", type=int, default=AnnealConfig.threads, help="accepted; has no effect"
    )


def _add_cost_flags(parser):
    parser.add_argument(
        "--intra-node",
        choices=("serial", "par"),
        default=CostConfig.intra_node,
        help="how work inside one partition is costed",
    )
    parser.add_argument(
        "--comm-alpha", type=float, default=CostConfig.comm_alpha, help="per-message cost"
    )
    parser.add_argument(
        "--comm-beta", type=float, default=CostConfig.comm_beta, help="per-entry transfer cost"
    )


def cmd_ingest(args):
    circuit = circuit_from_dict(_read_json(args.circuit))
    net = circuit_to_network(
        circuit,
        bits=args.amplitude or None,
        initial=args.initial_state or None,
    )
    _write_text(net.to_json(include_data=not args.shapes_only, indent=2), args.output)
    print(
        f"ingested {circuit.n_qubits} qubits, {len(circuit.gates)} gates -> "
        f"{net.num_vertices} tensors, {len(net.bound_edges())} bonds",
        file=sys.stderr,
    )
    return 0


def cmd_plan(args):
    net = _load_network(args.network, amplitude=args.amplitude)
    cost_cfg = _cost_config(args)
    if args.partitions <= 1:
        greedy = GreedyConfig(
            samples=args.greedy_samples, noise_scale=args.greedy_noise, rng_seed=args.seed
        )
        plan = serial_plan(net, cost_cfg, cfg=greedy)
    else:
        plan = _partitioned_plan(net, args, cost_cfg)
    _write_text(plan_to_json(plan), args.output)
    r = plan.report
    print(
        f"k={len(plan.partitioning.blocks)} cost[dist]={r.con_dist:.6g} mem={r.mem:.6g} "
        f"(log2 dist={r.con_dist_log2:.2f})",
        file=sys.stderr,
    )
    return 0


def cmd_anneal(args):
    cost_cfg = _cost_config(args)
    cfg = AnnealConfig(
        t0=args.t0,
        tf=args.tf,
        steps=args.steps,
        workers=args.workers,
        time_limit=args.time_limit,
        max_iters=args.iters,
        restart_threshold=args.restart_threshold,
        mode=args.mode,
        seed=args.seed,
        cost=cost_cfg,
        threads=args.threads,
    )
    net = _load_network(args.network, amplitude=args.amplitude)
    if args.plan:
        plan = plan_from_dict(net, _read_json(args.plan), cost_cfg)
    elif args.partitions <= 1:
        raise ValueError("anneal needs --plan or --partitions >= 2")
    else:
        plan = _partitioned_plan(net, args, cost_cfg)
    refined, trace = refine_plan(net, plan, cfg)
    if args.trace:
        with open(args.trace, "w") as fh:
            for row in trace:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
    _write_text(plan_to_json(refined), args.output)
    print(
        f"anneal[{args.mode}] {len(trace)} iterations: "
        f"cost[dist] {plan.cost:.6g} -> {refined.cost:.6g}",
        file=sys.stderr,
    )
    return 0


def cmd_execute(args):
    net = _load_network(args.network, amplitude=args.amplitude)
    if not net.has_payloads():
        raise ValueError("network carries no tensor data; ingest without --shapes-only")
    if args.plan:
        plan = plan_from_dict(net, _read_json(args.plan))
    else:
        plan = serial_plan(net, cfg=GreedyConfig(rng_seed=args.seed))
    emu = None
    if args.emulate:
        emu = execute_distributed_emulation(net, plan, max_entries=args.max_entries)
        trace = emu.trace
    else:
        trace = execute_plan(net, plan.tree, max_entries=args.max_entries)
    out = {
        "mult_count": trace.mult_count,
        "peak_entries": trace.peak_entries,
        "resident_peak": trace.resident_peak,
        "predicted_con_serial": plan.report.con_serial,
        "shape": [net.edge(e).dim for e in trace.axis_edges],
    }
    if not trace.axis_edges:
        value = trace.scalar()
        out["value"] = [value.real, value.imag]
        out["abs"] = abs(value)
        out["prob"] = abs(value) ** 2
    if emu is not None:
        out["emulated_seconds"] = emu.emulated_seconds
        out["serial_seconds"] = emu.serial_seconds
        out["partition_seconds"] = emu.partition_seconds
        out["fanin_seconds"] = emu.fanin_seconds
    _write_text(json.dumps(out, sort_keys=True, indent=2), args.output)
    return 0


def cmd_bench(args):
    cfg = RunConfig(
        methods=tuple(args.methods.split(",")) if args.methods else METHODS,
        sweep=tuple(int(k) for k in args.sweep.split(",")) if args.sweep else RunConfig.sweep,
        epsilon=args.imbalance,
        seed=args.seed,
        budget_seconds=args.budget_seconds,
        budget_iters=args.budget_iters,
        repeats=args.repeats,
        steps=args.steps,
        workers=args.workers,
        threads=args.threads,
        amplitude=args.amplitude or "",
        cost=_cost_config(args),
    )
    named = [] if args.circuits else bundled_suite()
    preload_errors = []
    for path in args.circuits:
        name = path.rsplit("/", 1)[-1].removesuffix(".json")
        try:
            named.append((name, circuit_from_dict(_read_json(path))))
        except Exception as exc:
            preload_errors.append({"circuit": name, "error": f"{type(exc).__name__}: {exc}"})
    report = run_pipeline(named, cfg)
    report["errors"] = preload_errors + report["errors"]
    _write_text(report_json(report), args.output)
    summary = compare_report([report])
    print(format_comparison(summary), file=sys.stderr)
    if report["errors"]:
        return 2 if report["results"] else 1
    return 0


def cmd_report(args):
    reports = [_read_json(path) for path in args.reports]
    summary = compare_report(reports)
    if args.json:
        _write_text(json.dumps(summary, sort_keys=True, indent=2), args.json)
    _write_text(format_comparison(summary), None)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tnplan",
        description="contraction planning for distributed tensor networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert a circuit JSON file to a tensor network")
    p.add_argument("circuit", help="circuit JSON file (or - for stdin)")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p.add_argument(
        "--amplitude",
        default="",
        help="output bitstring to project on (default all zeros)",
    )
    p.add_argument(
        "--initial-state",
        dest="initial_state",
        default="",
        help="initial product-state bitstring (default all zeros)",
    )
    p.add_argument(
        "--shapes-only",
        action="store_true",
        help="omit tensor entries from the output",
    )
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("plan", help="build a partitioned contraction plan")
    _add_input_flags(p)
    _add_plan_flags(p, 1, "number of partitions")
    p.add_argument("--seed", type=int, default=GreedyConfig.rng_seed)
    serial_only = "serial plan search only"
    p.add_argument("--greedy-samples", type=int, default=GreedyConfig.samples, help=serial_only)
    p.add_argument("--greedy-noise", type=float, default=GreedyConfig.noise_scale, help=serial_only)
    _add_cost_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("anneal", help="refine a plan with simulated annealing")
    _add_input_flags(p)
    p.add_argument("--plan", default=None, help="plan JSON to refine")
    _add_plan_flags(p, 0, "build the initial plan inline")
    p.add_argument("--seed", type=int, default=AnnealConfig.seed)
    p.add_argument("--t0", type=float, default=AnnealConfig.t0)
    p.add_argument("--tf", type=float, default=AnnealConfig.tf)
    _add_replica_flags(p)
    p.add_argument("--time-limit", type=float, default=AnnealConfig.time_limit, help="wall seconds")
    p.add_argument("--iters", type=int, default=AnnealConfig.max_iters, help="overrides --time-limit")
    p.add_argument("--restart-threshold", type=int, default=AnnealConfig.restart_threshold)
    p.add_argument("--mode", choices=("naive", "directed"), default=AnnealConfig.mode)
    p.add_argument("--trace", default=None, help="write per-iteration JSON lines here")
    _add_cost_flags(p)
    p.set_defaults(func=cmd_anneal)

    p = sub.add_parser("execute", help="contract a network, optionally along a saved plan")
    _add_input_flags(p)
    p.add_argument("--plan", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-entries",
        type=int,
        default=DEFAULT_MAX_ENTRIES,
        help="refuse plans whose peak memory exceeds this many tensor entries",
    )
    p.add_argument("--emulate", action="store_true", help="also emulate distributed execution")
    p.set_defaults(func=cmd_execute)

    p = sub.add_parser("bench", help="run the batch pipeline over a circuit suite")
    p.add_argument("circuits", nargs="*", help="circuit JSON files (default: bundled suite)")
    p.add_argument("-o", "--output", default=None, help="report JSON path (default stdout)")
    p.add_argument("--methods", default="", help=f"comma list from {','.join(METHODS)}")
    p.add_argument("--sweep", default="", help="comma list of partition counts")
    p.add_argument("--imbalance", type=float, default=RunConfig.epsilon)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument(
        "--budget-seconds", type=float, default=RunConfig.budget_seconds, help="per method+circuit"
    )
    p.add_argument(
        "--budget-iters", type=int, default=RunConfig.budget_iters, help="deterministic reports"
    )
    p.add_argument("--repeats", type=int, default=RunConfig.repeats)
    _add_replica_flags(p)
    p.add_argument("--amplitude", default=RunConfig.amplitude)
    _add_cost_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="summarize bench reports")
    p.add_argument("reports", nargs="+", help="report JSON files")
    p.add_argument("--json", default=None, help="also write the summary as JSON here")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
