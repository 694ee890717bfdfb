#!/usr/bin/env python3
"""Layered benchmark for tnplan: plan search and amplitude execution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tnplan checkout.  The package is imported from
``src/`` and the state-vector oracle from ``tests/oracles.py``; without them
the command exits with status 2 and prints no result.

Workloads (one process, ``threads=1``, ``workers=4``, ``steps=64``):

* ``anneal-rand12-k8`` and ``anneal-rc30x12-k16`` repeat plan requests
  (circuit -> network -> initial partition -> greedy plan -> directed
  annealing at a fixed iteration budget -> serialized plan) until the time
  is up.  Every request draws its partition and anneal seeds from the
  workload seed and its own index.
* ``amplitudes-rc18x8-k8`` repeats amplitude requests (seeded bitstring ->
  network -> fixture plan load -> distributed emulation) against the plan
  committed in ``perfbench/fixtures``.

Every request is checked (see ``check_plan`` and ``amplitude_request``); a
failed check counts in ``failed`` and makes the command exit with status 1
after printing the result.

With ``--trace 0`` the last stdout line holds the end-to-end metrics, times
in refs of an in-run reference loop (see ``Reference``).  With
``--trace 1`` the first half of the time runs untraced requests, the second
half re-runs the same requests under the span tracer of ``tracer.py``, and
the last line holds the per-layer metrics, each normalised per request.
The line before the result is a JSON run record: machine, versions,
configuration, sample counts and percentiles.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer, install

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

WORKERS = 4
STEPS = 64
THREADS = 1
TOLERANCE = 1e-9
SETUP_REPEATS = 5
REFERENCE_PERIOD = 0.05

END_TO_END = {
    "setup_s": "s",
    "plan_ref": "ref",
    "throughput_per_kref": "1/kref",
    "latency_p50_ref": "ref",
    "latency_tail_ref": "ref",
    "con_dist_log2": "log2",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "pathfind.reduction_path_s": "s",
    "pathfind.random_greedy_tree_s": "s",
    "pathfind.reduction_network_s": "s",
    "pathfind.greedy_tree_s": "s",
    "pathfind.greedy_tree_calls": "count",
    "costs.con_dist_s": "s",
    "costs.local_s": "s",
    "costs.dims_product_calls": "count",
    "tree.compose_s": "s",
    "tree.subtree_roots_s": "s",
    "partition.initial_s": "s",
    "plan.build_s": "s",
    "plan.finalize_s": "s",
    "anneal.anneal_s": "s",
    "anneal.select_neighbor_self_s": "s",
    "anneal.proposals": "count",
    "anneal.accept_ratio": "ratio",
    "anneal.restarts": "count",
    "circuits.ingest_s": "s",
    "plan.load_s": "s",
    "execute.kernel_s": "s",
    "execute.overhead_s": "s",
    "execute.mults": "count",
    "execute.contractions": "count",
    "execute.mults_per_s": "1/s",
    "execute.bytes_computed": "B",
    "execute.ops_per_byte": "1/B",
    "execute.partition_s_max": "s",
    "execute.fanin_s": "s",
    "execute.emulated_speedup": "ratio",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class AnnealWorkload:
    circuit: tuple
    k: int
    comm_beta: float
    max_iters: int
    min_plans: int  # con_dist_log2 is the mean over these first requests
    execute_check: bool
    tail_pct: float
    steps: int = STEPS

    @property
    def nominal_proposals(self):
        return self.max_iters * WORKERS * math.ceil(self.steps / WORKERS)


@dataclass(frozen=True)
class AmplitudeWorkload:
    circuit: tuple
    k: int
    fixture: str
    tail_pct: float


# The tail percentile is fixed per workload, so that its meaning does not
# change when throughput moves: the highest of 90/95/99 that leaves at
# least ten samples beyond it in a 30-second run on a 2-core VM, except
# that rand-12 uses 95.  Its proposals take about 4 ms, and their p99 there
# measured stalls of the whole VM: it ranged from 6 to 15 refs across seeds
# while the median stayed within 3%.
WORKLOADS = {
    "anneal-rand12-k8": AnnealWorkload(
        circuit=("bundled", "rand-12"),
        k=8,
        comm_beta=0.0,
        max_iters=3,
        min_plans=5,
        execute_check=True,
        tail_pct=95,
    ),
    "anneal-rc30x12-k16": AnnealWorkload(
        circuit=("random", 30, 12, 1),
        k=16,
        comm_beta=1.0,
        max_iters=2,
        min_plans=3,
        execute_check=False,
        tail_pct=95,
    ),
    "amplitudes-rc18x8-k8": AmplitudeWorkload(
        circuit=("random", 18, 8, 1),
        k=8,
        fixture="fixtures/amplitudes-rc18x8-k8.json",
        tail_pct=90,
    ),
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run: missing sources or a stale fixture."""


def load_sources():
    """Import tnplan from ``src/`` and the oracles from ``tests/`` of this checkout."""
    if not (ROOT / "src" / "tnplan" / "__init__.py").is_file():
        raise BenchmarkError(f"no tnplan sources under {ROOT / 'src'}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        raise BenchmarkError(f"no state-vector oracle at {ROOT / 'tests' / 'oracles.py'}")
    # One BLAS thread, so executor timings do not depend on the core count.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    for path in (ROOT / "tests", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import tnplan  # noqa: F401


def make_circuit(spec):
    from tnplan import bundled_suite, random_circuit

    kind, *args = spec
    if kind == "bundled":
        return dict(bundled_suite())[args[0]]
    n, depth, seed = args
    return random_circuit(n, depth, seed=seed)


def import_seconds():
    """Time ``import tnplan`` in a fresh interpreter, as a user pays it."""
    code = "import time; t = time.perf_counter(); import tnplan; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return float(done.stdout)


def reduction_leaves(nested, out):
    if isinstance(nested, list):
        for child in nested:
            reduction_leaves(child, out)
    else:
        out.append(nested)
    return out


def load_fixture(spec, circuit):
    """Read and check the committed plan; returns its plan document."""
    from tnplan import Partitioning, circuit_to_network, plan_from_dict, validate

    doc = json.loads((HERE / spec.fixture).read_text())
    gen = doc["generator"]
    expected = {"circuit": list(spec.circuit), "k": spec.k}
    if {key: gen[key] for key in expected} != expected:
        raise BenchmarkError(f"fixture was generated for {gen}, workload needs {expected}")
    net = circuit_to_network(circuit)
    plan_doc = doc["plan"]
    ok, problems = validate(Partitioning(plan_doc["blocks"]), net)
    if not ok:
        raise BenchmarkError("fixture partitioning is invalid: " + "; ".join(problems))
    if sorted(reduction_leaves(plan_doc["reduction_tree"], [])) != list(range(spec.k)):
        raise BenchmarkError(f"fixture reduction tree leaves are not exactly range({spec.k})")
    plan = plan_from_dict(net, plan_doc)
    if plan.report.con_dist != plan_doc["cost"]["con_dist"]:
        raise BenchmarkError(
            f"fixture con_dist {plan_doc['cost']['con_dist']} but the plan costs {plan.report.con_dist}"
        )
    return plan_doc, plan.report


def set_up(spec):
    """Everything a run needs before its first request; returns a context dict."""
    from oracles import statevector

    circuit = make_circuit(spec.circuit)
    ctx = {"circuit": circuit}
    if isinstance(spec, AmplitudeWorkload):
        ctx["plan_doc"], _ = load_fixture(spec, circuit)
    if isinstance(spec, AmplitudeWorkload) or spec.execute_check:
        ctx["psi"] = statevector(circuit)
    return ctx


def timed_set_up(spec):
    """Set up ``SETUP_REPEATS`` times; returns (median seconds, last context)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        ctx = set_up(spec)
        samples.append(import_seconds() + time.perf_counter() - started)
    return statistics.median(samples), ctx


def request_rng(seed, index):
    import numpy as np

    return np.random.default_rng([seed, index])


def random_bits(rng, n):
    return "".join(str(int(b)) for b in rng.integers(0, 2, n))


def reference_loop():
    total = 0
    for i in range(15000):
        total += i * i
    return total


class Reference:
    """Times a fixed pure-Python loop about every ``REFERENCE_PERIOD`` seconds.

    On shared machines the speed one process gets drifts by a third within
    seconds, as other tenants load the cores, and this loop slows by the
    same factor.  Durations are therefore reported in "refs": divided by
    the loop's mean time over the same interval, widened to the nearest
    sample on each side.  On a shared 2-core VM, the median amplitude
    latency moved by 37% across six runs while in refs it moved by 5%.
    """

    def __init__(self):
        self.times = []  # midpoints of the samples
        self.lengths = []
        self.spent = 0.0
        self._due = 0.0

    def tick(self, force=False):
        started = time.perf_counter()
        if started < self._due and not force:
            return
        reference_loop()
        took = time.perf_counter() - started
        self.times.append(started + took / 2)
        self.lengths.append(took)
        self.spent += took
        self._due = started + took + REFERENCE_PERIOD

    def local(self, start, end):
        """Mean loop time over [start, end] plus the nearest sample on each side."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        return statistics.fmean(self.lengths[lo:hi])

    def refs(self, intervals):
        """Each (start, end, seconds) interval's seconds in refs."""
        return [seconds / self.local(start, end) for start, end, seconds in intervals]


class Requests:
    """One phase of checked requests of a workload, untraced or traced.

    Untraced, a one-wrapper tracer times each anneal proposal, which the
    latency metrics of the anneal workloads need, and samples the reference
    loop between proposals; traced, the full tracer records every layer and
    its spans also count the proposals.  Reference samples also run between
    requests.  Their time is left out of every recorded duration.
    """

    def __init__(self, spec, ctx, seed, tracer=None):
        self.spec = spec
        self.ctx = ctx
        self.seed = seed
        self.tracer = tracer
        self.reference = Reference()
        if tracer is None:
            self.clock = Tracer()
            anneal = importlib.import_module("tnplan.anneal")
            self.clock.patch(anneal, "select_neighbor", self._timed_proposals)
            self.stage = lambda name: nullcontext()
        else:
            self.clock = tracer
            self.stage = tracer.span
        self.attempted = 0
        self.failed = 0
        self.problems = 0
        # (start, end, seconds) intervals; seconds leave out reference samples
        self.requests = []  # whole requests, checks included
        self.plans = []  # circuit -> plan ready to use
        self.work = []  # what throughput counts: anneal calls, or amplitude requests
        self.work_units = 0
        self.con_dist_log2 = []

    def run(self, indices, seconds, minimum):
        """Request each index until the time is up and ``minimum`` ran; undoes the wrapping."""
        request = self.amplitude if isinstance(self.spec, AmplitudeWorkload) else self.plan
        phase_started = time.perf_counter()
        try:
            for index in indices:
                if index >= minimum and time.perf_counter() - phase_started >= seconds:
                    break
                self.reference.tick()
                self.attempted += 1
                problems = self.problems
                started = self.mark()
                try:
                    request(index)
                except Exception:  # a crashing request is a failed request; keep measuring
                    traceback.print_exc()
                    self.problems += 1
                self.requests.append(self.interval(started))
                if self.problems > problems:
                    self.failed += 1
        finally:
            self.clock.restore()
            self.reference.tick(force=True)
        return self

    def mark(self):
        return time.perf_counter(), self.reference.spent

    def interval(self, mark):
        """(start, end, seconds) since ``mark``, reference samples left out."""
        start, spent = mark
        end = time.perf_counter()
        return start, end, end - start - (self.reference.spent - spent)

    def request_seconds(self):
        return [seconds for _, _, seconds in self.requests]

    def proposals(self, first=0):
        return [(start, end, end - start) for name, start, end, _ in self.clock.spans[first:]
                if name == "anneal.select_neighbor"]

    def _timed_proposals(self, select_neighbor):
        timed = self.clock.timed("anneal.select_neighbor", select_neighbor)

        def proposal(*args):
            candidate = timed(*args)
            self.reference.tick()
            return candidate

        return proposal

    def fail(self, what):
        self.problems += 1
        print(f"check failed: {what}", file=sys.stderr)

    def plan(self, index):
        """Circuit -> annealed, serialized plan, then its checks."""
        from tnplan import (AnnealConfig, CostConfig, build_plan, circuit_to_network,
                            initial_partition, plan_to_json)

        anneal = importlib.import_module("tnplan.anneal")
        spec, stage = self.spec, self.stage
        rng = request_rng(self.seed, index)
        part_seed = int(rng.integers(2 ** 31))
        anneal_seed = int(rng.integers(2 ** 63))
        cost = CostConfig(comm_beta=spec.comm_beta)
        cfg = AnnealConfig(
            mode="directed", max_iters=spec.max_iters, workers=WORKERS, steps=spec.steps,
            threads=THREADS, seed=anneal_seed, cost=cost,
        )
        first_span = len(self.clock.spans)

        started = self.mark()
        with stage("circuits.ingest"):
            net = circuit_to_network(self.ctx["circuit"])
        with stage("partition.initial"):
            part = initial_partition(net, spec.k, seed=part_seed)
        with stage("plan.build"):
            initial = build_plan(net, part, cost_cfg=cost)
        annealing = self.mark()
        with stage("anneal.run"):
            result = anneal.anneal(net, initial, cfg)
        self.work.append(self.interval(annealing))
        with stage("plan.finalize"):
            plan = anneal.state_to_plan(net, result.best, cost)
            text = plan_to_json(plan)
        self.plans.append(self.interval(started))
        self.work_units += spec.nominal_proposals
        self.con_dist_log2.append(plan.report.con_dist_log2)
        if self.tracer is not None:
            self.tracer.counts["anneal.restarts"] += sum(1 for r in result.trace if r["restarted"])
        self.check_plan(index, net, plan, text, len(self.proposals(first_span)), cost)

    def check_plan(self, index, net, plan, text, proposals, cost):
        from tnplan import circuit_to_network, plan_from_dict, plan_from_json, validate

        if proposals != self.spec.nominal_proposals:
            self.fail(f"request {index}: {proposals} proposals, nominal {self.spec.nominal_proposals}")
        valid, problems = validate(plan.partitioning, net)
        if not valid:
            self.fail(f"request {index}: annealed partitioning invalid: {problems}")
        reloaded = plan_from_json(net, text, cost)
        if reloaded.report.con_dist != plan.report.con_dist:
            self.fail(f"request {index}: con_dist {plan.report.con_dist} became {reloaded.report.con_dist}")
        if self.spec.execute_check:
            circuit = self.ctx["circuit"]
            bits = random_bits(request_rng(self.seed, index), circuit.n_qubits)
            with self.stage("circuits.ingest"):
                net_bits = circuit_to_network(circuit, bits)
            with self.stage("plan.load"):
                loaded = plan_from_dict(net_bits, json.loads(text), cost)
            self.check_amplitude(loaded, self.emulate(net_bits, loaded), bits)

    def amplitude(self, index):
        """Bitstring -> amplitude through the fixture plan, then its checks."""
        from tnplan import circuit_to_network, plan_from_dict

        circuit = self.ctx["circuit"]
        bits = random_bits(request_rng(self.seed, index), circuit.n_qubits)
        started = self.mark()
        with self.stage("circuits.ingest"):
            net = circuit_to_network(circuit, bits)
        with self.stage("plan.load"):
            plan = plan_from_dict(net, self.ctx["plan_doc"])
        self.plans.append(self.interval(started))
        em = self.emulate(net, plan)
        self.work.append(self.interval(started))
        self.work_units += 1
        self.con_dist_log2.append(plan.report.con_dist_log2)
        self.check_amplitude(plan, em, bits)

    def emulate(self, net, plan):
        from tnplan import execute_distributed_emulation

        with self.stage("execute.emulation"):
            em = execute_distributed_emulation(net, plan)
        if self.tracer is not None:
            c = self.tracer.counts
            c["execute.emulations"] += 1
            c["execute.partition_s_max"] += max(em.partition_seconds)
            c["execute.fanin_s"] += em.serial_seconds - sum(em.partition_seconds)
            c["execute.emulated_speedup"] += em.serial_seconds / em.emulated_seconds
        return em

    def check_amplitude(self, plan, emulation, bits):
        ref = complex(self.ctx["psi"][tuple(int(b) for b in bits)])
        if abs(emulation.scalar() - ref) > TOLERANCE:
            self.fail(f"amplitude <{bits}> is {emulation.scalar()}, state vector gives {ref}")
        if emulation.mult_count != plan.report.con_serial:
            self.fail(f"emulation did {emulation.mult_count} mults, plan says {plan.report.con_serial}")


def percentile(samples, pct):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(spec, requests, setup_seconds):
    if isinstance(spec, AmplitudeWorkload):
        latencies = requests.work
        quality = requests.con_dist_log2
    else:
        latencies = requests.proposals()
        quality = requests.con_dist_log2[: spec.min_plans]
    reference = requests.reference
    latency_refs = reference.refs(latencies)
    work_refs = sum(reference.refs(requests.work))
    values = {
        "setup_s": setup_seconds,
        "plan_ref": statistics.median(reference.refs(requests.plans)),
        "throughput_per_kref": 1000 * requests.work_units / work_refs,
        "latency_p50_ref": statistics.median(latency_refs),
        "latency_tail_ref": percentile(latency_refs, spec.tail_pct),
        "con_dist_log2": statistics.fmean(quality),
        "peak_rss_mb": peak_rss_mb(),
    }
    seconds = [s for _, _, s in latencies]
    record = {
        "seconds_measured": {
            "ref_s": statistics.median(reference.lengths),
            "plan_s": statistics.median(s for _, _, s in requests.plans),
            "throughput_per_s": requests.work_units / sum(s for _, _, s in requests.work),
            "latency_p50_s": statistics.median(seconds),
            "latency_tail_s": percentile(seconds, spec.tail_pct),
        },
        "reference_samples": len(reference.lengths),
        "latency_unit": "amplitude" if isinstance(spec, AmplitudeWorkload) else "anneal proposal",
        "latency_samples": len(latencies),
        "latency_tail_pct": spec.tail_pct,
        "latency_samples_beyond_tail": len(latencies) - math.ceil(spec.tail_pct / 100 * len(latencies)),
        "requests": requests.attempted,
        "con_dist_log2_requests": len(quality),
    }
    return values, record


def per_layer(spec, tracer, untraced, traced):
    incl = tracer.inclusive_seconds()
    own = tracer.self_seconds()
    self_seconds = dict(sorted(own.items()))
    calls = tracer.span_counts()
    c = tracer.counts
    emulations = c["execute.emulations"]

    def ratio(a, b):
        return a / b if b else 0.0

    totals = {
        "pathfind.reduction_path_s": incl["pathfind.reduction_path"],
        "pathfind.random_greedy_tree_s": incl["pathfind.random_greedy_tree"],
        "pathfind.reduction_network_s": incl["pathfind.reduction_network"],
        "pathfind.greedy_tree_s": incl["pathfind.greedy_tree"],
        "pathfind.greedy_tree_calls": calls["pathfind.greedy_tree"],
        "costs.con_dist_s": incl["costs.con_dist"],
        "costs.local_s": incl["costs.local"],
        "costs.dims_product_calls": c["costs.dims_product"],
        "tree.compose_s": incl["tree.compose"],
        "tree.subtree_roots_s": incl["tree.subtree_roots"],
        "partition.initial_s": incl["partition.initial"],
        "plan.build_s": incl["plan.build"],
        "plan.finalize_s": incl["plan.finalize"],
        "anneal.anneal_s": incl["anneal.run"],
        "anneal.select_neighbor_self_s": own["anneal.select_neighbor"],
        "anneal.proposals": c["anneal.proposals"],
        "anneal.restarts": c["anneal.restarts"],
        "circuits.ingest_s": incl["circuits.ingest"],
        "plan.load_s": incl["plan.load"],
        "execute.kernel_s": c["execute.kernel_s"],
        "execute.overhead_s": incl["execute.emulation"] - c["execute.kernel_s"],
        "execute.mults": c["execute.mults"],
        "execute.contractions": c["execute.contractions"],
        "execute.bytes_computed": c["execute.bytes_computed"],
        "execute.partition_s_max": c["execute.partition_s_max"],
        "execute.fanin_s": c["execute.fanin_s"],
    }
    units = traced.attempted
    values = {name: value / units for name, value in totals.items()}
    values["anneal.accept_ratio"] = ratio(c["anneal.accepted"], c["anneal.proposals"])
    values["execute.mults_per_s"] = ratio(c["execute.mults"], c["execute.kernel_s"])
    values["execute.ops_per_byte"] = ratio(c["execute.mults"], c["execute.bytes_computed"])
    values["execute.emulated_speedup"] = ratio(c["execute.emulated_speedup"], emulations)
    # Both phases run the same requests, each measured in its own refs.
    values["trace.overhead_ratio"] = (
        sum(traced.reference.refs(traced.requests)) / sum(untraced.reference.refs(untraced.requests))
    )
    anneal_seconds = incl["anneal.run"]
    record = {
        "per_layer_unit": "amplitude request" if isinstance(spec, AmplitudeWorkload) else "plan request",
        "traced_requests": units,
        "traced_wall_s": sum(traced.request_seconds()),
        "self_seconds_sum": sum(self_seconds.values()),
        "self_seconds": self_seconds,
        "share_of_anneal": {
            name: seconds / anneal_seconds
            for name, seconds in sorted(tracer.seconds_under("anneal.run").items())
        } if anneal_seconds else {},
    }
    return values, record


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record(name, spec, seed, seconds, trace):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workers": WORKERS,
        "steps": getattr(spec, "steps", STEPS),
        "threads": THREADS,
        "max_iters": getattr(spec, "max_iters", None),
        "k": spec.k,
        "circuit": list(spec.circuit),
    }


def run_benchmark(name, seed, seconds, trace, spec=None):
    """Run one workload; returns (result line dict, run record dict)."""
    spec = spec or WORKLOADS[name]
    setup_seconds, ctx = timed_set_up(spec)
    record = machine_record(name, spec, seed, seconds, trace)
    record["setup_s"] = setup_seconds
    if not trace:
        minimum = getattr(spec, "min_plans", 1)
        phases = [Requests(spec, ctx, seed).run(itertools.count(), seconds, minimum)]
        metrics, extra = end_to_end(spec, phases[0], setup_seconds)
        units = END_TO_END
    else:
        untraced = Requests(spec, ctx, seed).run(itertools.count(), seconds / 2, 1)
        tracer = install(Tracer())
        traced = Requests(spec, ctx, seed, tracer).run(range(untraced.attempted), math.inf, 0)
        phases = [untraced, traced]
        metrics, extra = per_layer(spec, tracer, untraced, traced)
        units = PER_LAYER
    record.update(extra)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in phases),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_sources()
        result, record = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
