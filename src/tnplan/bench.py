"""Batch planning pipeline: methods x circuits x partition counts, with reports.

For every circuit the harness plans a serial greedy baseline, then each
partitioned method across a sweep of partition counts, averaging repeated
seeded runs.  Per (circuit, method) the best partition count is the one
with the smallest distributed cost, and its ratio against the serial
baseline's serial cost is the headline number.

Reports are plain dicts serialized with sorted keys.  All wall-clock
measurements live in a separate "timings" section, so the rest of a
report is byte-reproducible for a fixed seed whenever the annealing
budget is given in iterations rather than seconds.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .anneal import AnnealConfig, anneal
from .circuits import circuit_to_network
from .costs import CostConfig
from .partition import DEFAULT_IMBALANCE, check_imbalance, initial_partition
from .plan import build_plan, serial_plan

METHODS = ("serial-baseline", "partition-only", "sa-naive", "sa-directed")

DEFAULT_SWEEP = (4, 8, 16, 32, 64, 128, 256)


@dataclass
class RunConfig:
    """Pipeline settings; ``threads`` is kept for compatibility and has no effect.

    ``anneal`` is the ``AnnealConfig`` every annealed run copies with its own
    mode, seed and time limit; building it validates the annealing settings.
    """

    methods: tuple = METHODS
    sweep: tuple = DEFAULT_SWEEP
    epsilon: float = DEFAULT_IMBALANCE
    seed: int = 0
    budget_seconds: float = AnnealConfig.time_limit
    budget_iters: int = AnnealConfig.max_iters
    repeats: int = 2
    steps: int = AnnealConfig.steps
    workers: int = AnnealConfig.workers
    threads: int = AnnealConfig.threads
    amplitude: str = ""
    cost: CostConfig = field(default_factory=CostConfig)

    def __post_init__(self):
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {list(METHODS)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods must not repeat, got {list(self.methods)}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not self.sweep or min(self.sweep) < 2:
            raise ValueError(f"sweep must list partition counts >= 2, got {list(self.sweep)}")
        check_imbalance(self.epsilon, "epsilon")
        if self.budget_iters < 0:
            raise ValueError(f"budget_iters must be >= 0, got {self.budget_iters!r}")
        if not math.isfinite(self.budget_seconds):
            raise ValueError(f"budget_seconds must be finite, got {self.budget_seconds!r}")
        if self.budget_iters <= 0 and self.budget_seconds <= 0:
            raise ValueError("either budget_iters or a positive budget_seconds is required")
        self.anneal = AnnealConfig(
            steps=self.steps, workers=self.workers, time_limit=self.budget_seconds,
            max_iters=self.budget_iters, cost=self.cost, threads=self.threads,
        )

    def to_dict(self):
        """The report's ``config`` section: every field but ``threads``."""
        out = asdict(self)
        del out["threads"]
        return out


def derive_seed(master, *key):
    seq = np.random.SeedSequence(master & ((1 << 128) - 1), spawn_key=tuple(key))
    return int(seq.generate_state(1)[0])


def _plan_once(net, method, k, run_seed, budget_seconds, cfg):
    part = initial_partition(net, k, cfg.epsilon, seed=run_seed)
    plan = build_plan(net, part, cost_cfg=cfg.cost)
    if method == "partition-only":
        return plan
    anneal_cfg = replace(
        cfg.anneal,
        mode="directed" if method == "sa-directed" else "naive",
        seed=derive_seed(run_seed, 2),
        time_limit=budget_seconds,
    )
    return anneal(net, plan, anneal_cfg).best


def _method_entries(name, net, method, ks, baseline_cost, cfg, ci, timings):
    entries = []
    for k in ks:
        per_run_budget = cfg.budget_seconds / max(1, len(ks) * cfg.repeats)
        repeat_costs = []
        repeat_mems = []
        started = time.perf_counter()
        for r in range(cfg.repeats):
            run_seed = derive_seed(cfg.seed, ci, k, r)  # shared by every method
            plan = _plan_once(net, method, k, run_seed, per_run_budget, cfg)
            repeat_costs.append(plan.report.con_dist)
            repeat_mems.append(plan.report.mem)
        timings[f"{name}|{method}|k={k}"] = time.perf_counter() - started
        cost = sum(repeat_costs) / len(repeat_costs)
        entries.append(
            {
                "circuit": name,
                "method": method,
                "k": k,
                "cost": cost,
                "mem": sum(repeat_mems) / len(repeat_mems),
                "repeat_costs": repeat_costs,
                "ratio": cost / baseline_cost,
                "best_k": False,
            }
        )
    if entries:
        best = min(entries, key=lambda e: (e["cost"], e["k"]))
        best["best_k"] = True
    return entries


def run_pipeline(named_circuits, cfg=None):
    """Plan every circuit with every configured method; returns the report dict.

    ``named_circuits`` is a list of (name, Circuit).  A circuit that fails
    to ingest or plan contributes an error entry instead of results, and
    so does one whose network is smaller than every count of the sweep.
    """
    cfg = cfg or RunConfig()
    results = []
    errors = []
    timings = {}
    for ci, (name, circuit) in enumerate(named_circuits):
        try:
            bits = cfg.amplitude or None
            net = circuit_to_network(circuit, bits=bits)
            n = net.num_vertices
            ks = [k for k in cfg.sweep if k <= n]
            if not ks and set(cfg.methods) - {"serial-baseline"}:
                raise ValueError(
                    f"sweep {list(cfg.sweep)} has no partition count in 2..{n} (|V| = {n})"
                )
            started = time.perf_counter()
            baseline = serial_plan(net, cfg.cost)
            timings[f"{name}|serial-baseline"] = time.perf_counter() - started
            baseline_cost = baseline.report.con_serial
            if "serial-baseline" in cfg.methods:
                results.append(
                    {
                        "circuit": name,
                        "method": "serial-baseline",
                        "k": 1,
                        "cost": baseline_cost,
                        "mem": baseline.report.mem,
                        "repeat_costs": [baseline_cost],
                        "ratio": 1.0,
                        "best_k": True,
                    }
                )
            for method in cfg.methods:
                if method == "serial-baseline":
                    continue
                results.extend(
                    _method_entries(name, net, method, ks, baseline_cost, cfg, ci, timings)
                )
        except Exception as exc:
            errors.append({"circuit": name, "error": f"{type(exc).__name__}: {exc}"})
    return {
        "config": cfg.to_dict(),
        "results": results,
        "errors": errors,
        "timings": timings,
    }


def report_json(report):
    return json.dumps(report, sort_keys=True, indent=2)


def _quartiles(values):
    vs = sorted(values)
    n = len(vs)

    def at(q):
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        if lo == hi:
            return vs[lo]
        w = pos - lo
        return vs[lo] * (1 - w) + vs[hi] * w

    return at(0.0), at(0.25), at(0.5), at(0.75), at(1.0)


def compare_report(reports):
    """Aggregate best-k results per method across one or more report dicts."""
    by_method = {}
    circuits = set()
    for rep in reports:
        for entry in rep.get("results", []):
            circuits.add(entry["circuit"])
            if not entry.get("best_k"):
                continue
            by_method.setdefault(entry["method"], []).append(entry)
    methods = {}
    for method, entries in sorted(by_method.items()):
        ratios = [e["ratio"] for e in entries]
        costs = [e["cost"] for e in entries]
        lo, q1, med, q3, hi = _quartiles(ratios)
        methods[method] = {
            "count": len(entries),
            "ratio_min": lo,
            "ratio_q1": q1,
            "ratio_median": med,
            "ratio_q3": q3,
            "ratio_max": hi,
            "ratio_geomean": math.exp(sum(math.log(r) for r in ratios) / len(ratios)),
            "mean_cost": sum(costs) / len(costs),
        }
    return {"circuits": len(circuits), "methods": methods}


def format_comparison(summary):
    lines = []
    header = (
        f"{'method':<18} {'n':>3} {'min':>9} {'q1':>9} {'median':>9} "
        f"{'q3':>9} {'max':>9} {'geomean':>9} {'mean cost':>12}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for method, s in summary["methods"].items():
        lines.append(
            f"{method:<18} {s['count']:>3} {s['ratio_min']:>9.3g} {s['ratio_q1']:>9.3g} "
            f"{s['ratio_median']:>9.3g} {s['ratio_q3']:>9.3g} {s['ratio_max']:>9.3g} "
            f"{s['ratio_geomean']:>9.3g} {s['mean_cost']:>12.4g}"
        )
    lines.append(f"circuits: {summary['circuits']}")
    return "\n".join(lines)
