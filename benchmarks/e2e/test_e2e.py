"""Tests of the end-to-end benchmark itself, on its ``--smoke`` cells.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import compare
import inproc
import layertrace
import run
from workloads import cell

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke", "--seed", "1",
         "--seconds", "0.2", *args],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300)


def _last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_run_py_prints():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(run.WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_every_metric_is_reported_with_its_unit(trace, section):
    completed = _run("--trace", trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = _last_line(completed.stdout)
    assert result["correct"] and result["failed"] == 0
    for workload in BENCHMARK["workloads"]:
        line = result["workloads"][workload["name"]]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        for metric in BENCHMARK[section]:
            reported = line["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
            if section == "end_to_end":
                assert reported["value"] > 0, metric["name"]


def test_wrong_expectation_counts_as_failed_and_exits_1(monkeypatch, capsys):
    wrong = cell("fifo", "xici", "verified", 99, depth=3)
    monkeypatch.setitem(run.SMOKE_WORKLOADS, "xici-tables",
                        dict(run.SMOKE_WORKLOADS["xici-tables"],
                             cells=[wrong]))
    code = run.main(["--smoke", "--workload", "xici-tables", "--seed", "1",
                     "--seconds", "0.2"])
    output = capsys.readouterr().out
    result = _last_line(output)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "1 iterations, expected 99" in output


def _wrapped_bindings() -> list:
    """Every repro module global or class attribute that is a wrapper."""
    found = []
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] != "repro":
            continue
        for name, value in vars(module).items():
            if hasattr(value, layertrace.MARKER):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type):
                found += [f"{module.__name__}.{name}.{attr}"
                          for attr, member in vars(value).items()
                          if hasattr(member, layertrace.MARKER)]
    return found


def test_traced_pass_leaves_no_wrapped_bindings():
    cells = [cell("fifo", "xici", "violated", 1, bug="1", depth=3),
             cell("movavg", "xici", "verified", 1, depth=2)]
    document = inproc.measure({"cells": cells, "seed": 1, "seconds": 0,
                               "trace": 1})
    assert document["failed"] == 0, document["failures"]
    assert document["missing"] == []
    assert document["layers"]["bdd.compose.calls"] > 0
    assert document["layers"]["fsm.counterexample.total_s"] > 0
    assert _wrapped_bindings() == []


def test_missing_trace_targets_are_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(layertrace, "TARGETS", layertrace.TARGETS + (
        ("gone.method", "repro.bdd.manager", "Function.no_such_method"),
        ("gone.module", "repro.no_such_module", "function")))
    recorder = layertrace.LayerRecorder()
    with recorder:
        assert _wrapped_bindings() != []
    assert recorder.missing == [
        "repro.bdd.manager.Function.no_such_method",
        "repro.no_such_module.function"]
    assert _wrapped_bindings() == []


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "bug-hunt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


@pytest.mark.parametrize("a,b,better,expected", [
    (1.0, 1.05, "lower", "within"),
    (1.0, 1.2, "lower", "outside"),
    (1.0, 0.5, "lower", "within"),
    (10.0, 8.0, "higher", "outside"),
    (10.0, 12.0, "higher", "within"),
    (0.0, 1.0, "lower", "unresolved"),
    (None, 1.0, "lower", "unresolved"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, 0.1, better) == expected


def test_compare_reads_run_out_files(tmp_path):
    def results(wall):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in BENCHMARK["end_to_end"]}
        metrics["wall_s"]["value"] = wall
        return {w["name"]: {"metrics": metrics}
                for w in BENCHMARK["workloads"]}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(results(1.0)))
    b.write_text(json.dumps(results(1.5)))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(b), str(a)]) == 0
