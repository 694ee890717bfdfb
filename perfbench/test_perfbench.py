"""Self-test of the benchmark at tiny budgets.

    python3 -m pytest perfbench

Each workload runs one or two requests, untraced and traced, and the
result must carry every metric of ``BENCHMARK.json`` with its unit, the
layer counts must match the plan, and the correctness gate must trip on a
stale fixture or a wrong amplitude.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.load_sources()

TINY = {
    "anneal-rand12-k8": dict(max_iters=1, steps=8, min_plans=1),
    "anneal-rc30x12-k16": dict(max_iters=1, steps=4, min_plans=1),
    "amplitudes-rc18x8-k8": {},
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def tiny(name, seed=1, trace=0, **changes):
    spec = replace(run.WORKLOADS[name], **TINY[name], **changes)
    return run.run_benchmark(name, seed, 0.0, trace, spec) + (spec,)


def declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def test_declared_metrics_match_the_code():
    assert declared("end_to_end") == run.END_TO_END
    assert declared("per_layer") == run.PER_LAYER
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(name, trace):
    result, record, spec = tiny(name, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = declared("per_layer" if trace else "end_to_end")
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    for metric, value in result["metrics"].items():
        assert NAME.fullmatch(metric)
        assert isinstance(value["value"], float | int)
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in expected)
    if trace:
        assert record["self_seconds_sum"] <= record["traced_wall_s"]


@pytest.mark.parametrize("name", ["anneal-rand12-k8", "anneal-rc30x12-k16"])
def test_traced_proposals_equal_the_nominal_count(name):
    result, _, spec = tiny(name, trace=1)
    metrics = result["metrics"]
    assert metrics["anneal.proposals"]["value"] == spec.nominal_proposals
    assert 0 <= metrics["anneal.accept_ratio"]["value"] <= 1


def test_traced_mults_equal_the_fixture_serial_cost():
    result, _, spec = tiny("amplitudes-rc18x8-k8", trace=1)
    _, report = run.load_fixture(spec, run.make_circuit(spec.circuit))
    assert result["metrics"]["execute.mults"]["value"] == report.con_serial
    assert result["metrics"]["execute.contractions"]["value"] > 0


def test_plan_quality_repeats_for_a_seed():
    first, _, _ = tiny("anneal-rand12-k8", seed=7)
    second, _, _ = tiny("anneal-rand12-k8", seed=7)
    quality = [r["metrics"]["con_dist_log2"]["value"] for r in (first, second)]
    assert quality[0] == quality[1]


def test_wrong_amplitude_fails_the_run(monkeypatch):
    monkeypatch.setattr(run, "TOLERANCE", -1.0)
    result, _, _ = tiny("amplitudes-rc18x8-k8")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_stale_fixture_is_refused(tmp_path):
    spec = run.WORKLOADS["amplitudes-rc18x8-k8"]
    doc = json.loads((run.HERE / spec.fixture).read_text())
    doc["plan"]["blocks"][0] = doc["plan"]["blocks"][0][1:]
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(doc))
    with pytest.raises(run.BenchmarkError, match="not covered"):
        run.load_fixture(replace(spec, fixture=str(stale)), run.make_circuit(spec.circuit))
