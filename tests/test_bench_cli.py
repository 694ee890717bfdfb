"""Tests for the batch pipeline and the command-line interface."""

import copy
import inspect
import json
import math
import os

import pytest

from tnplan.bench import (
    METHODS,
    RunConfig,
    _quartiles,
    compare_report,
    derive_seed,
    format_comparison,
    report_json,
    run_pipeline,
)
from tnplan import cli, execute
from tnplan.anneal import AnnealConfig, AnnealResult
from tnplan.circuits import circuit_to_json
from tnplan.cli import build_parser, main
from tnplan.costs import CostConfig
from tnplan.corpus import bundled_suite, ghz_circuit, random_circuit
from tnplan.partition import DEFAULT_IMBALANCE, initial_partition, refine_partition
from tnplan.pathfind import GreedyConfig


def tiny_cfg(**overrides):
    base = dict(
        sweep=(2, 3),
        budget_iters=2,
        budget_seconds=0.0,
        repeats=1,
        steps=4,
        workers=2,
    )
    base.update(overrides)
    return RunConfig(**base)


def strip_timings(report):
    out = copy.deepcopy(report)
    out.pop("timings", None)
    return out


# ---------------------------------------------------------------------------
# seed derivation
# ---------------------------------------------------------------------------


class TestDeriveSeed:
    def test_stable(self):
        assert derive_seed(0, 1, 2, 3) == derive_seed(0, 1, 2, 3)

    def test_distinct_keys_distinct_seeds(self):
        seeds = {derive_seed(7, i, j) for i in range(4) for j in range(4)}
        assert len(seeds) == 16

    def test_master_seed_matters(self):
        assert derive_seed(0, 1) != derive_seed(1, 1)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


class TestRunPipeline:
    def test_report_structure(self):
        report = run_pipeline([("ghz-6", ghz_circuit(6))], tiny_cfg())
        assert set(report) == {"config", "results", "errors", "timings"}
        assert report["errors"] == []
        baseline = [e for e in report["results"] if e["method"] == "serial-baseline"]
        assert len(baseline) == 1
        assert baseline[0]["k"] == 1
        assert baseline[0]["ratio"] == 1.0
        base_cost = baseline[0]["cost"]
        for entry in report["results"]:
            assert entry["ratio"] == entry["cost"] / base_cost
        for method in METHODS[1:]:
            rows = [e for e in report["results"] if e["method"] == method]
            assert {e["k"] for e in rows} == {2, 3}
            assert sum(e["best_k"] for e in rows) == 1
            best = min(rows, key=lambda e: (e["cost"], e["k"]))
            assert best["best_k"]

    def test_sweep_clipped_to_network_size(self):
        # 2-qubit GHZ yields a 6-tensor network, so k=8 is skipped.
        cfg = tiny_cfg(sweep=(2, 8), methods=("partition-only",))
        report = run_pipeline([("ghz-2", ghz_circuit(2))], cfg)
        assert {e["k"] for e in report["results"]} == {2}

    def test_deterministic_across_runs(self):
        suite = [("ghz-6", ghz_circuit(6)), ("rand", random_circuit(5, 8, seed=3))]
        a = run_pipeline(suite, tiny_cfg())
        b = run_pipeline(suite, tiny_cfg())
        assert strip_timings(a) == strip_timings(b)
        assert report_json(strip_timings(a)) == report_json(strip_timings(b))

    def test_deterministic_across_thread_counts(self):
        suite = [("ghz-6", ghz_circuit(6))]
        a = run_pipeline(suite, tiny_cfg(threads=1))
        b = run_pipeline(suite, tiny_cfg(threads=3))
        assert strip_timings(a) == strip_timings(b)

    def test_broken_circuit_becomes_error_entry(self):
        suite = [("good", ghz_circuit(4)), ("bad", object())]
        report = run_pipeline(suite, tiny_cfg())
        assert [e["circuit"] for e in report["errors"]] == ["bad"]
        assert all(e["circuit"] == "good" for e in report["results"])
        assert report["results"]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="sa-quantum"):
            tiny_cfg(methods=("serial-baseline", "sa-quantum"))

    def test_repeated_method_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            tiny_cfg(methods=("sa-naive", "sa-naive"))

    def test_cost_is_mean_of_repeats(self):
        report = run_pipeline([("ghz-6", ghz_circuit(6))], tiny_cfg(repeats=2))
        for entry in report["results"]:
            n = 1 if entry["method"] == "serial-baseline" else 2
            assert len(entry["repeat_costs"]) == n
            assert entry["cost"] == sum(entry["repeat_costs"]) / n

    def test_annealing_refines_the_partition_only_plan(self):
        # Every method of one (circuit, k, repeat) starts from the same
        # initial plan, and annealing keeps the best state it visits.
        suite = [("ghz-3", ghz_circuit(3))] + bundled_suite()[::3]
        report = run_pipeline(suite, tiny_cfg(sweep=(2, 3, 4), repeats=2, budget_iters=1))
        start = {
            (e["circuit"], e["k"]): e["repeat_costs"]
            for e in report["results"]
            if e["method"] == "partition-only"
        }
        for e in report["results"]:
            if e["method"].startswith("sa-"):
                for annealed, initial in zip(e["repeat_costs"], start[e["circuit"], e["k"]]):
                    assert annealed <= initial, e


class TestReportConfig:
    """The report's ``config`` section.

    The expected dicts were captured from the hand-written ``to_dict`` that
    ``dataclasses.asdict`` replaced, less ``restart_threshold``, ``t0`` and
    ``tf``: bench runs take those from ``AnnealConfig``'s defaults.
    """

    COMMON = {
        "methods": ["serial-baseline", "partition-only", "sa-naive", "sa-directed"],
        "epsilon": 0.03,
        "seed": 0,
        "amplitude": "",
        "cost": {"comm_alpha": 0.0, "comm_beta": 0.0, "intra_node": "serial"},
    }

    @staticmethod
    def written_config(cfg):
        return json.loads(report_json(run_pipeline([], cfg)))["config"]

    def test_default_config(self):
        expected = dict(
            self.COMMON,
            sweep=[4, 8, 16, 32, 64, 128, 256],
            budget_seconds=10.0,
            budget_iters=0,
            repeats=2,
            steps=64,
            workers=4,
        )
        assert self.written_config(RunConfig()) == expected

    def test_tiny_config(self):
        expected = dict(
            self.COMMON,
            sweep=[2, 3],
            budget_seconds=0.0,
            budget_iters=2,
            repeats=1,
            steps=4,
            workers=2,
        )
        assert self.written_config(tiny_cfg()) == expected
        assert self.written_config(tiny_cfg(threads=3)) == expected


class TestRunConfigValidation:
    @pytest.mark.parametrize("name", ["repeats", "workers", "steps"])
    def test_setting_below_one_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            RunConfig(**{name: 0})

    @pytest.mark.parametrize("sweep", [(), (1,), (2, 0), (4, -2)])
    def test_empty_sweep_or_count_below_two_rejected(self, sweep):
        with pytest.raises(ValueError, match="sweep"):
            RunConfig(sweep=sweep)

    def test_circuit_smaller_than_every_sweep_count_is_an_error(self):
        # 2-qubit GHZ yields a 6-tensor network.
        report = run_pipeline([("ghz-2", ghz_circuit(2))], tiny_cfg(sweep=(7, 99)))
        assert report["results"] == []
        (entry,) = report["errors"]
        assert entry["circuit"] == "ghz-2"
        assert "[7, 99]" in entry["error"] and "2..6" in entry["error"]

    def test_zero_annealing_budget_rejected_for_every_method_list(self):
        # Checked up front, even when no method anneals.
        with pytest.raises(ValueError, match="budget_iters or a positive budget_seconds"):
            RunConfig(methods=("partition-only",), budget_seconds=0.0, budget_iters=0)

    def test_negative_iteration_budget_rejected(self):
        # Checked before the AnnealConfig is built, so the error names budget_iters.
        with pytest.raises(ValueError, match="budget_iters must be >= 0, got -1"):
            RunConfig(budget_iters=-1, budget_seconds=0.1)

    def test_unbounded_annealing_budget_rejected(self):
        with pytest.raises(ValueError, match="budget_seconds must be finite"):
            RunConfig(budget_seconds=float("inf"), budget_iters=0)

    def test_runs_copy_the_one_anneal_config(self):
        cfg = tiny_cfg(cost=CostConfig(comm_beta=2.0))
        assert cfg.anneal == AnnealConfig(
            steps=4, workers=2, time_limit=0.0, max_iters=2, cost=CostConfig(comm_beta=2.0)
        )
        assert "anneal" not in cfg.to_dict()


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


class TestSummaries:
    def test_quartiles_interpolate(self):
        assert _quartiles([4.0, 1.0, 3.0, 2.0]) == (1.0, 1.75, 2.5, 3.25, 4.0)
        assert _quartiles([5.0]) == (5.0, 5.0, 5.0, 5.0, 5.0)
        assert _quartiles([1.0, 2.0, 3.0]) == (1.0, 1.5, 2.0, 2.5, 3.0)

    def test_compare_report_uses_best_k_only(self):
        report = {
            "results": [
                {"circuit": "a", "method": "m", "k": 2, "cost": 4.0, "ratio": 0.25, "best_k": True},
                {"circuit": "a", "method": "m", "k": 4, "cost": 9.0, "ratio": 0.5, "best_k": False},
                {"circuit": "b", "method": "m", "k": 2, "cost": 16.0, "ratio": 1.0, "best_k": True},
            ]
        }
        summary = compare_report([report])
        assert summary["circuits"] == 2
        stats = summary["methods"]["m"]
        assert stats["count"] == 2
        assert stats["ratio_min"] == 0.25
        assert stats["ratio_max"] == 1.0
        assert stats["ratio_median"] == pytest.approx(0.625)
        assert stats["ratio_geomean"] == pytest.approx(0.5)
        assert stats["mean_cost"] == pytest.approx(10.0)

    def test_compare_report_merges_files(self):
        row = {"circuit": "a", "method": "m", "k": 2, "cost": 1.0, "ratio": 1.0, "best_k": True}
        rep1 = {"results": [row]}
        rep2 = {"results": [dict(row, circuit="b", ratio=4.0)]}
        summary = compare_report([rep1, rep2])
        assert summary["methods"]["m"]["count"] == 2
        assert summary["methods"]["m"]["ratio_geomean"] == pytest.approx(2.0)

    def test_format_comparison_lists_methods(self):
        report = run_pipeline([("ghz-4", ghz_circuit(4))], tiny_cfg())
        text = format_comparison(compare_report([report]))
        for method in METHODS:
            assert method in text
        assert "geomean" in text and "circuits: 1" in text


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


@pytest.fixture
def ghz_file(tmp_path):
    path = tmp_path / "ghz6.json"
    path.write_text(circuit_to_json(ghz_circuit(6)))
    return path


class TestCli:
    def test_ingest_plan_anneal_execute_round_trip(self, tmp_path, ghz_file, capsys):
        net_path = tmp_path / "net.json"
        plan_path = tmp_path / "plan.json"
        refined_path = tmp_path / "refined.json"
        exec_path = tmp_path / "exec.json"
        trace_path = tmp_path / "trace.jsonl"

        assert main(["ingest", str(ghz_file), "-o", str(net_path)]) == 0
        net_doc = json.loads(net_path.read_text())
        assert net_doc["tensors"]

        assert (
            main(
                [
                    "plan",
                    str(net_path),
                    "--partitions",
                    "2",
                    "--seed",
                    "0",
                    "-o",
                    str(plan_path),
                ]
            )
            == 0
        )
        plan_doc = json.loads(plan_path.read_text())
        assert len(plan_doc["blocks"]) == 2

        assert (
            main(
                [
                    "anneal",
                    str(net_path),
                    "--plan",
                    str(plan_path),
                    "--iters",
                    "3",
                    "--steps",
                    "4",
                    "--workers",
                    "2",
                    "--seed",
                    "0",
                    "--trace",
                    str(trace_path),
                    "-o",
                    str(refined_path),
                ]
            )
            == 0
        )
        refined_doc = json.loads(refined_path.read_text())
        assert refined_doc["cost"]["con_dist"] <= plan_doc["cost"]["con_dist"]
        rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert len(rows) == 3
        assert rows[0]["iteration"] == 0

        capsys.readouterr()
        assert (
            main(["execute", str(net_path), "--plan", str(refined_path), "-o", str(exec_path)])
            == 0
        )
        out = json.loads(exec_path.read_text())
        assert out["shape"] == []
        assert out["abs"] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert out["mult_count"] == int(out["predicted_con_serial"])

    def test_headline_is_the_written_plans_con_dist(self, tmp_path, ghz_file, capsys):
        plan_path, refined_path = tmp_path / "plan.json", tmp_path / "refined.json"
        assert main(["plan", str(ghz_file), "--partitions", "2", "-o", str(plan_path)]) == 0
        cost = json.loads(plan_path.read_text())["cost"]
        assert cost["con_dist"] not in (cost["con_serial"], cost["con_par"])
        assert f"cost[dist]={cost['con_dist']:.6g} " in capsys.readouterr().err
        argv = ["anneal", str(ghz_file), "--plan", str(plan_path), "--iters", "2"]
        assert main(argv + ["-o", str(refined_path)]) == 0
        refined = json.loads(refined_path.read_text())["cost"]["con_dist"]
        headline = f"cost[dist] {cost['con_dist']:.6g} -> {refined:.6g}\n"
        assert capsys.readouterr().err.endswith(headline)

    def test_execute_without_payloads_exits_nonzero(self, tmp_path, ghz_file, capsys):
        net_path = tmp_path / "shapes.json"
        assert main(["ingest", str(ghz_file), "--shapes-only", "-o", str(net_path)]) == 0
        assert json.loads(net_path.read_text())["tensors"][0]["data"] is None
        code = main(["execute", str(net_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error" in err and "data" in err

    def test_plan_on_circuit_ingests_on_the_fly(self, tmp_path, ghz_file, capsys):
        assert main(["plan", str(ghz_file), "--partitions", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["blocks"]) == 2

    def test_serial_plan_follows_greedy_flags(self, tmp_path, capsys):
        path = tmp_path / "rc.json"
        path.write_text(circuit_to_json(random_circuit(10, 3, seed=13)))
        costs = []
        for samples in ("1", "64"):
            args = ["plan", str(path), "--greedy-samples", samples, "--greedy-noise", "0.3"]
            assert main(args) == 0
            costs.append(json.loads(capsys.readouterr().out)["cost"]["con_serial"])
        assert costs[1] < costs[0]

    def test_execute_direct_circuit_amplitude(self, tmp_path, ghz_file, capsys):
        assert main(["execute", str(ghz_file), "--amplitude", "000001"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["abs"] == pytest.approx(0.0, abs=1e-12)

    def test_bench_report_round_trip(self, tmp_path, ghz_file, capsys):
        rep_path = tmp_path / "rep.json"
        code = main(
            [
                "bench",
                str(ghz_file),
                "--sweep",
                "2",
                "--budget-iters",
                "2",
                "--repeats",
                "1",
                "--steps",
                "4",
                "--workers",
                "2",
                "-o",
                str(rep_path),
            ]
        )
        assert code == 0
        report = json.loads(rep_path.read_text())
        assert report["errors"] == []
        assert report["results"]
        capsys.readouterr()

        sum_path = tmp_path / "summary.json"
        assert main(["report", str(rep_path), "--json", str(sum_path)]) == 0
        summary = json.loads(sum_path.read_text())
        assert summary["circuits"] == 1
        text = capsys.readouterr().out
        assert "serial-baseline" in text

    def test_bench_exit_codes_reflect_errors(self, tmp_path, ghz_file, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps({"qubits": 2, "gates": [{"name": "NOPE", "targets": [0]}]}))
        # good + bad -> partial results, exit 2
        code = main(
            ["bench", str(ghz_file), str(bad), "--sweep", "2", "--budget-iters", "1",
             "--repeats", "1", "--steps", "2", "--workers", "1", "-o", str(tmp_path / "r.json")]
        )
        assert code == 2
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["errors"] and report["results"]
        capsys.readouterr()
        # only bad -> no results, exit 1
        code = main(
            ["bench", str(bad), "--sweep", "2", "--budget-iters", "1", "--repeats", "1",
             "--steps", "2", "--workers", "1", "-o", str(tmp_path / "r2.json")]
        )
        assert code == 1
        capsys.readouterr()

    def test_bench_reports_byte_identical_across_threads(self, tmp_path, ghz_file, capsys):
        bodies = []
        for threads in ("1", "3"):
            out = tmp_path / f"rep{threads}.json"
            assert (
                main(
                    ["bench", str(ghz_file), "--sweep", "2,3", "--budget-iters", "2",
                     "--repeats", "1", "--steps", "4", "--workers", "2",
                     "--threads", threads, "-o", str(out)]
                )
                == 0
            )
            doc = json.loads(out.read_text())
            del doc["timings"]
            bodies.append(json.dumps(doc, sort_keys=True))
            capsys.readouterr()
        assert bodies[0] == bodies[1]

    def test_anneal_output_does_not_depend_on_cpu_count(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "rand10.json"
        path.write_text(circuit_to_json(dict(bundled_suite())["rand-10"]))
        outputs = []
        for cpus in (2, 8):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            argv = ["anneal", str(path), "--partitions", "4", "--iters", "3", "--seed", "1"]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "doc", [{"tensors": 5}, {"tensors": [{"id": 0, "dims": [2.5]}]}]
    )
    def test_plan_rejects_malformed_network(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["plan", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    COST = ["--intra-node", "par", "--comm-alpha", "1.5", "--comm-beta", "2.5"]
    COST_ARGS = {"intra_node": "par", "comm_alpha": 1.5, "comm_beta": 2.5}
    EVERY_FLAG = {
        "plan": (
            ["net.json", "-o", "p.json", "--amplitude", "01", "--partitions", "3",
             "--imbalance", "0.1", "--greedy-samples", "5", "--greedy-noise", "0.2",
             "--seed", "7"],
            {"network": "net.json", "output": "p.json", "amplitude": "01", "partitions": 3,
             "imbalance": 0.1, "greedy_samples": 5, "greedy_noise": 0.2, "seed": 7},
        ),
        "anneal": (
            ["net.json", "-o", "r.json", "--amplitude", "01", "--plan", "p.json",
             "--partitions", "3", "--imbalance", "0.1", "--t0", "2", "--tf", "0.5",
             "--steps", "8", "--workers", "2", "--threads", "3", "--time-limit", "1.5",
             "--iters", "6", "--restart-threshold", "4", "--mode", "directed", "--seed", "7",
             "--trace", "t.jsonl"],
            {"network": "net.json", "output": "r.json", "amplitude": "01", "plan": "p.json",
             "partitions": 3, "imbalance": 0.1, "t0": 2.0, "tf": 0.5, "steps": 8,
             "workers": 2, "threads": 3, "time_limit": 1.5, "iters": 6,
             "restart_threshold": 4, "mode": "directed", "seed": 7, "trace": "t.jsonl"},
        ),
        "execute": (
            ["net.json", "-o", "x.json", "--amplitude", "01", "--plan", "p.json",
             "--max-entries", "99", "--emulate", "--seed", "7"],
            {"network": "net.json", "output": "x.json", "amplitude": "01", "plan": "p.json",
             "max_entries": 99, "emulate": True, "seed": 7},
        ),
        "bench": (
            ["a.json", "b.json", "-o", "rep.json", "--methods", "sa-naive", "--sweep", "2,4",
             "--imbalance", "0.1", "--seed", "7", "--budget-seconds", "1.5",
             "--budget-iters", "6", "--repeats", "3", "--steps", "8", "--workers", "2",
             "--threads", "3", "--amplitude", "01"],
            {"circuits": ["a.json", "b.json"], "output": "rep.json", "methods": "sa-naive",
             "sweep": "2,4", "imbalance": 0.1, "seed": 7, "budget_seconds": 1.5,
             "budget_iters": 6, "repeats": 3, "steps": 8, "workers": 2, "threads": 3,
             "amplitude": "01"},
        ),
    }

    @pytest.mark.parametrize("command", sorted(EVERY_FLAG))
    def test_parser_accepts_every_flag(self, command):
        argv, expected = self.EVERY_FLAG[command]
        if command != "execute":
            argv = argv + self.COST
            expected = dict(expected, **self.COST_ARGS)
        args = vars(build_parser().parse_args([command] + argv))
        assert {k: args[k] for k in expected} == expected
        assert set(args) == set(expected) | {"command", "func"}

    @pytest.mark.parametrize("command", ["plan", "anneal", "execute"])
    def test_kernel_flag_is_gone(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "net.json", "--kernel", "matmul"])

    @pytest.mark.parametrize("command", ["plan", "anneal"])
    @pytest.mark.parametrize("flags", [["--execute"], ["--emulate"], ["--max-entries", "99"]])
    def test_plan_and_anneal_do_not_execute(self, command, flags, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "net.json"] + flags)

    @pytest.mark.parametrize(
        "argv", [["bench"], ["execute", "net.json"], ["plan", "net.json"], ["anneal", "net.json"]]
    )
    def test_cost_metric_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--cost-metric", "serial"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--intra-node", "--comm-alpha", "--comm-beta"])
    def test_execute_has_no_cost_flags(self, flag, capsys):
        value = "par" if flag == "--intra-node" else "1.5"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["execute", "net.json", flag, value])

    @pytest.mark.parametrize(
        "flags", [["--reduction-samples", "3"], ["--greedy-samples", "5"], ["--greedy-noise", "0.2"]]
    )
    def test_anneal_has_no_fanin_search_flags(self, flags, capsys):
        # The fan-in tree is one deterministic pass, so nothing can steer it.
        with pytest.raises(SystemExit) as exc:
            main(["anneal", "net.json", "--partitions", "2"] + flags)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_anneal_workers_default_matches_bench(self):
        anneal_args = build_parser().parse_args(["anneal", "net.json"])
        bench_args = build_parser().parse_args(["bench"])
        assert anneal_args.workers == bench_args.workers == RunConfig.workers == 4

    @pytest.mark.parametrize("emulate", [False, True])
    def test_execute_contracts_the_network_once(self, tmp_path, ghz_file, monkeypatch, capsys, emulate):
        plan_path = tmp_path / "plan.json"
        assert main(["plan", str(ghz_file), "--partitions", "2", "-o", str(plan_path)]) == 0
        calls = []
        execute_plan = execute.execute_plan

        def counted(*args, **kwargs):
            calls.append(1)
            return execute_plan(*args, **kwargs)

        monkeypatch.setattr(execute, "execute_plan", counted)
        monkeypatch.setattr(cli, "execute_plan", counted)
        out = tmp_path / "x.json"
        argv = ["execute", str(ghz_file), "--plan", str(plan_path), "-o", str(out)]
        assert main(argv + ["--emulate"] * emulate) == 0
        assert len(calls) == 1
        doc = json.loads(out.read_text())
        assert doc["mult_count"] == doc["predicted_con_serial"]
        assert len(doc.get("partition_seconds", [])) == 2 * emulate

    def test_one_block_plan_emulates(self, tmp_path, ghz_file, capsys):
        plan_path = tmp_path / "serial.json"
        assert main(["plan", str(ghz_file), "-o", str(plan_path)]) == 0
        out = tmp_path / "emu.json"
        assert main(["execute", str(ghz_file), "--plan", str(plan_path), "--emulate", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["partition_seconds"]) == 1
        assert doc["fanin_seconds"] == [0.0]
        assert doc["emulated_seconds"] == doc["serial_seconds"]

    def test_ingested_idle_qubit_network_plans_and_emulates(self, tmp_path, capsys):
        circuit = tmp_path / "idle.json"
        circuit.write_text(json.dumps(
            {"qubits": 3, "gates": [{"name": "H", "targets": [0]}, {"name": "CX", "targets": [0, 1]}]}
        ))
        net, plan, out = (tmp_path / name for name in ("net.json", "plan.json", "emu.json"))
        assert main(["ingest", str(circuit), "-o", str(net)]) == 0
        assert main(["plan", str(net), "--partitions", "2", "-o", str(plan)]) == 0
        assert main(["execute", str(net), "--plan", str(plan), "--emulate", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["abs"] == pytest.approx(1 / math.sqrt(2), abs=1e-9)
        assert doc["mult_count"] == doc["predicted_con_serial"]
        assert len(doc["partition_seconds"]) == 2

    def test_unknown_subcommand_fails(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_error_path_returns_one(self, tmp_path, capsys):
        code = main(["plan", str(tmp_path / "missing.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bench_with_zero_repeats_exits_one_before_any_run(self, tmp_path, ghz_file, capsys):
        out = tmp_path / "rep.json"
        assert main(["bench", str(ghz_file), "--repeats", "0", "-o", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert not out.exists()


class TestRejectedSettings:
    """Settings that once ran silently and exited 0."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["plan", "--partitions", "2", "--imbalance", "-1"],
            ["anneal", "--partitions", "2", "--iters", "1", "--imbalance", "-1"],
            ["bench", "--sweep", "1", "--budget-iters", "1", "--repeats", "1"],
            ["bench", "--sweep", "2", "--budget-iters", "1", "--imbalance", "-1"],
            ["plan", "--partitions", "2", "--comm-beta", "nan"],
            ["plan", "--partitions", "2", "--comm-beta", "-5"],
            ["plan", "--comm-alpha", "inf"],
            ["anneal", "--partitions", "2", "--iters", "1", "--comm-alpha", "-1"],
            ["anneal", "--partitions", "2", "--iters", "1", "--t0", "nan", "--tf", "nan"],
            ["anneal", "--partitions", "2", "--iters", "1", "--t0", "inf"],
            ["bench", "--sweep", "2", "--budget-iters", "1", "--comm-beta", "nan"],
            ["bench", "--sweep", "2", "--budget-iters", "1", "--comm-alpha", "-1"],
            ["bench", "--sweep", "2", "--budget-iters", "1", "--methods", "serial-baseline,sa-bogus"],
            ["bench", "--sweep", "2", "--budget-iters", "1", "--methods", "sa-naive,sa-naive"],
            ["plan", "--partitions", "0"],
            ["plan", "--partitions", "-3"],
            ["plan", "--greedy-noise", "nan"],
            ["plan", "--greedy-noise", "inf"],
            ["plan", "--partitions", "2", "--imbalance", "nan"],
            ["anneal", "--partitions", "2", "--iters", "1", "--imbalance", "nan"],
            ["bench", "--sweep", "2", "--budget-iters", "1", "--imbalance", "nan"],
            ["plan", "--partitions", "2", "--greedy-noise", "nan"],
            ["plan", "--partitions", "2", "--greedy-samples", "0"],
            ["plan", "--imbalance", "nan"],
            ["anneal", "--plan", "PLAN", "--iters", "1", "--imbalance", "nan"],
            ["anneal", "--plan", "PLAN", "--iters", "1", "--imbalance", "-1"],
            ["anneal", "--partitions", "2", "--iters", "-1", "--time-limit", "0.2"],
            ["bench", "--sweep", "2", "--budget-iters", "-1", "--budget-seconds", "0.1"],
        ],
    )
    def test_exits_one_with_one_error_line(self, tmp_path, ghz_file, capsys, argv):
        out, plan = tmp_path / "out.json", tmp_path / "plan.json"
        if "PLAN" in argv:
            assert main(["plan", str(ghz_file), "--partitions", "2", "-o", str(plan)]) == 0
            capsys.readouterr()
            argv = [str(plan) if a == "PLAN" else a for a in argv]
        assert main(argv[:1] + [str(ghz_file), "-o", str(out)] + argv[1:]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["1", "2", "4"])
    def test_anneal_takes_a_plan_or_a_partition_count(self, tmp_path, ghz_file, capsys, k):
        # Given both, anneal once refined the plan's own block count and exited 0.
        plan, out = tmp_path / "plan.json", tmp_path / "out.json"
        assert main(["plan", str(ghz_file), "--partitions", "2", "-o", str(plan)]) == 0
        capsys.readouterr()
        argv = ["anneal", str(ghz_file), "--plan", str(plan), "--partitions", k, "--iters", "1"]
        assert main(argv + ["-o", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["anneal", "--partitions", "2", "--time-limit", "nan"],
            ["bench", "--sweep", "2", "--budget-seconds", "nan"],
        ],
    )
    def test_nan_time_budget_is_rejected_before_any_run(self, tmp_path, ghz_file, capsys, argv):
        out = tmp_path / "out.json"
        assert main(argv[:1] + [str(ghz_file), "-o", str(out)] + argv[1:]) == 1
        lines = capsys.readouterr().err.splitlines()
        name = "budget_seconds" if argv[0] == "bench" else "time_limit"
        assert len(lines) == 1 and lines[0].startswith(f"error: {name} must be finite"), lines
        assert not out.exists()

    @pytest.mark.parametrize("seconds", ["nan", "inf", "0", "-1"])
    def test_bench_budget_errors_name_the_bench_settings(self, tmp_path, ghz_file, capsys, seconds):
        out = tmp_path / "out.json"
        argv = ["bench", str(ghz_file), "--sweep", "2", "--budget-seconds", seconds, "-o", str(out)]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "budget_seconds" in lines[0], lines
        assert "time_limit" not in lines[0] and "max_iters" not in lines[0], lines
        assert not out.exists()

    def test_anneal_with_nan_temperatures_writes_no_trace(self, tmp_path, ghz_file, capsys):
        trace = tmp_path / "t.jsonl"
        argv = ["anneal", str(ghz_file), "--partitions", "2", "--iters", "1",
                "--t0", "nan", "--tf", "nan", "--trace", str(trace), "-o", str(tmp_path / "p.json")]
        assert main(argv) == 1
        assert not trace.exists()

    def test_bench_sweep_past_the_network_reports_an_error(self, tmp_path, ghz_file, capsys):
        out = tmp_path / "rep.json"
        argv = ["bench", str(ghz_file), "--sweep", "99", "--budget-iters", "1", "-o", str(out)]
        assert main(argv) == 1
        report = json.loads(out.read_text())
        assert report["results"] == []
        (entry,) = report["errors"]
        assert "[99]" in entry["error"] and "|V|" in entry["error"]


class TestFlagDefaults:
    """Every ``plan``/``anneal``/``bench`` flag default equals the dataclass field it feeds.

    Each command runs with default flags and the config objects it builds
    are captured and compared with default-constructed ones.
    """

    def test_plan(self, monkeypatch, ghz_file, capsys):
        seen = []
        serial_plan = cli.serial_plan

        def capture(net, cost_cfg, cfg):
            seen.append((cost_cfg, cfg))
            return serial_plan(net, cost_cfg, cfg=cfg)

        monkeypatch.setattr(cli, "serial_plan", capture)
        assert main(["plan", str(ghz_file)]) == 0
        assert seen == [(CostConfig(), GreedyConfig())]

    def test_anneal(self, monkeypatch, ghz_file, capsys):
        seen = []

        def capture(net, plan, cfg):
            seen.append(cfg)
            return AnnealResult(plan, [], 0)

        monkeypatch.setattr(cli, "anneal", capture)
        assert main(["anneal", str(ghz_file), "--partitions", "2"]) == 0
        assert seen == [AnnealConfig()]

    @pytest.mark.parametrize("command", ["plan", "anneal"])
    def test_partitioned_commands_pass_the_default_imbalance(
        self, monkeypatch, ghz_file, capsys, command
    ):
        seen = []

        def capture(net, k, epsilon, seed):
            seen.append(epsilon)
            return initial_partition(net, k, epsilon, seed=seed)

        monkeypatch.setattr(cli, "initial_partition", capture)
        monkeypatch.setattr(cli, "anneal", lambda net, plan, cfg: AnnealResult(plan, [], 0))
        assert main([command, str(ghz_file), "--partitions", "2"]) == 0
        default = inspect.signature(initial_partition).parameters["epsilon"].default
        assert seen == [DEFAULT_IMBALANCE] and default == DEFAULT_IMBALANCE
        assert inspect.signature(refine_partition).parameters["epsilon"].default == DEFAULT_IMBALANCE
        assert RunConfig.epsilon == DEFAULT_IMBALANCE

    def test_bench(self, monkeypatch, ghz_file, capsys):
        seen = []

        def capture(named, cfg):
            seen.append(cfg)
            return run_pipeline([], cfg)

        monkeypatch.setattr(cli, "run_pipeline", capture)
        assert main(["bench", str(ghz_file)]) == 0
        assert seen == [RunConfig()]
