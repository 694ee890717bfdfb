#!/usr/bin/env python3
"""Regenerate the fixed plan of the ``amplitudes-rc18x8-k8`` workload.

    python3 perfbench/make_fixture.py

Builds the workload's circuit network, seeds an initial partition, anneals
it in directed mode for a fixed iteration count and writes the plan, with
every generator parameter, to ``perfbench/fixtures``.  The result depends
only on these parameters and the tnplan code, not on the machine.
Regenerating changes the amplitudes workload's baseline, so do it only in a
change that redefines the benchmark.
"""

from __future__ import annotations

import json
import sys

import run

WORKLOAD = "amplitudes-rc18x8-k8"
PARTITION_SEED = 0
ANNEAL_SEED = 0
MAX_ITERS = 16


def main():
    run.load_sources()
    from tnplan import (AnnealConfig, build_plan, circuit_to_network, initial_partition,
                        plan_to_dict, refine_plan)

    spec = run.WORKLOADS[WORKLOAD]
    net = circuit_to_network(run.make_circuit(spec.circuit))
    initial = build_plan(net, initial_partition(net, spec.k, seed=PARTITION_SEED))
    cfg = AnnealConfig(
        mode="directed", max_iters=MAX_ITERS, workers=run.WORKERS, steps=run.STEPS,
        threads=run.THREADS, seed=ANNEAL_SEED,
    )
    plan, _ = refine_plan(net, initial, cfg)
    doc = {
        "generator": {
            "circuit": list(spec.circuit),
            "k": spec.k,
            "partition_seed": PARTITION_SEED,
            "mode": cfg.mode,
            "max_iters": cfg.max_iters,
            "workers": cfg.workers,
            "steps": cfg.steps,
            "threads": cfg.threads,
            "seed": cfg.seed,
            "cost": {"comm_alpha": cfg.cost.comm_alpha, "comm_beta": cfg.cost.comm_beta},
        },
        "plan": plan_to_dict(plan),
    }
    path = run.HERE / spec.fixture
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    report = plan.report
    print(f"wrote {path.relative_to(run.ROOT)}: con_serial {report.con_serial:.4g}, "
          f"con_dist {report.con_dist:.4g}, mem {report.mem:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
