"""The perf trajectory observatory (repro.obs.perf / repro.obs.trend).

Everything here runs on synthetic series — no real wall-clock noise.
A "regression" is an injected step in hand-built numbers, so the
changepoint index, the attribution verdict and the gate outcome are
all exact assertions, not flaky timing checks.
"""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.obs import benchjson, ledger, perf, trend

HOST = {"id": "deadbeef", "node": "testhost", "machine": "x86_64",
        "python": "3.x", "cpus": 4}


# ----------------------------------------------------------------------
# Synthetic feeders
# ----------------------------------------------------------------------

def _report(index: int, slow_from: int = 10 ** 9,
            benchmark: str = "synthetic") -> dict:
    """One benchjson report; the ``cached`` cell steps up at
    ``slow_from`` while ``plain`` stays flat (deterministic wobble)."""
    report = benchjson.new_report(benchmark, scale="quick", rounds=2)
    wobble = 0.002 * (index % 3)
    plain = 0.100 + wobble
    cached = 0.200 + wobble + (0.400 if index >= slow_from else 0.0)
    benchjson.add_entry(report, "counter", "fixpoint", "plain",
                        {"seconds": plain, "outcome": "verified",
                         "iterations": 4},
                        samples=[benchjson.make_sample(plain),
                                 benchjson.make_sample(plain + 0.001)])
    benchjson.add_entry(report, "counter", "fixpoint", "cached",
                        {"seconds": cached, "outcome": "verified",
                         "iterations": 4},
                        samples=[benchjson.make_sample(cached)])
    return report


def _run_doc(index: int, slow_from: int = 10 ** 9) -> dict:
    """One ledger run document whose ``image`` span phase regresses at
    ``slow_from`` (and drags an op-cache counter with it)."""
    slow = index >= slow_from
    image = 0.50 + (0.80 if slow else 0.0)
    return {
        "model": "fifo-4x3",
        "method": "XICI",
        "config": {"kernel": "array", "reorder": "off"},
        "result": {
            "outcome": "verified",
            "iterations": 7,
            "elapsed_seconds": 0.70 + (0.80 if slow else 0.0),
            "peak_nodes": 4100,
            "max_iterate_nodes": 150,
            "span_rollup": {
                "image": {"self_seconds": image},
                "reduce": {"self_seconds": 0.15},
            },
            "bdd_stats": {"ite_hits": 900 if not slow else 300,
                          "ite_misses": 100 if not slow else 700,
                          "nodes_peak": 4100},
        },
    }


def _record_reports(ledger_dir, n: int, slow_from: int = 10 ** 9):
    for i in range(n):
        perf.record_report_point(ledger_dir, _report(i, slow_from),
                                 git=f"rev{i}", host=HOST)


# ----------------------------------------------------------------------
# Trend math
# ----------------------------------------------------------------------

class TestTrendMath:
    def test_median_mad(self):
        assert trend.median([3, 1, 2]) == 2
        assert trend.median([1, 2, 3, 4]) == 2.5
        assert trend.mad([1, 1, 1, 9]) == 0.0 or trend.mad([1, 1, 1, 9]) >= 0
        assert trend.mad([2, 2, 2]) == 0.0
        with pytest.raises(ValueError):
            trend.median([])

    def test_bootstrap_deterministic(self):
        values = [0.10, 0.11, 0.12, 0.10, 0.13, 0.11]
        assert trend.bootstrap_ci(values) == trend.bootstrap_ci(values)
        lo, hi = trend.bootstrap_ci(values)
        assert lo <= trend.median(values) <= hi
        assert trend.bootstrap_ci([0.5]) == (0.5, 0.5)

    def test_summarize_shape(self):
        summary = trend.summarize([1.0, 2.0, 3.0])
        assert summary["count"] == 3
        assert summary["median"] == 2.0
        assert summary["min"] == 1.0 and summary["max"] == 3.0
        assert summary["ci_low"] <= summary["ci_high"]

    def test_flat_with_noise_is_stable(self):
        series = [0.100 + 0.002 * (i % 3) for i in range(12)]
        verdict = trend.detect_changepoint(series)
        assert verdict["status"] == "stable"

    def test_injected_step_flagged_at_right_index(self):
        series = [0.100 + 0.002 * (i % 3) for i in range(12)]
        for i in range(7, 12):
            series[i] += 0.300
        verdict = trend.detect_changepoint(series)
        assert verdict["status"] == "changepoint"
        assert verdict["index"] == 7
        assert verdict["direction"] == "regression"
        assert verdict["shift"] == pytest.approx(0.300, abs=0.01)

    def test_improvement_direction(self):
        series = [1.0] * 6 + [0.4] * 6
        verdict = trend.detect_changepoint(series)
        assert verdict["status"] == "changepoint"
        assert verdict["direction"] == "improvement"

    def test_short_series_insufficient(self):
        verdict = trend.detect_changepoint([1.0, 1.0, 5.0])
        assert verdict["status"] == "insufficient"
        assert verdict["points"] == 3
        assert verdict["needed"] >= trend.MIN_TREND_POINTS

    def test_sparkline(self):
        line = trend.sparkline([0.0, 1.0])
        assert line == "▁█"
        assert trend.sparkline([2.0, 2.0, 2.0]) == "▄▄▄"
        assert trend.sparkline([]) == ""


# ----------------------------------------------------------------------
# benchjson schema 2 (samples) and the version-1 reader
# ----------------------------------------------------------------------

class _FakeResult:
    peak_nodes = 4100
    bdd_stats = {"ite_hits": 30, "ite_misses": 10, "nodes_peak": 4100}


class TestBenchjsonSchema2:
    def test_make_sample_from_result(self):
        sample = benchjson.make_sample(0.25, cpu_seconds=0.24,
                                       result=_FakeResult())
        assert sample["wall_seconds"] == 0.25
        assert sample["cpu_seconds"] == 0.24
        assert sample["peak_nodes"] == 4100
        assert sample["cache_hit_rate"] == 0.75

    def test_samples_fold_robust_stats_into_metrics(self):
        entry = benchjson.make_entry(
            "m", "fwd", "auto", {"seconds": 0.10},
            samples=[benchjson.make_sample(s)
                     for s in (0.10, 0.12, 0.11)])
        metrics = entry["metrics"]
        assert metrics["seconds"] == 0.10  # gated metric untouched
        assert metrics["seconds_median"] == pytest.approx(0.11)
        assert "seconds_mad" in metrics
        assert metrics["seconds_ci_low"] <= metrics["seconds_ci_high"]
        assert len(entry["samples"]) == 3

    def test_schema2_round_trip(self, tmp_path):
        report = _report(0)
        path = tmp_path / "report.json"
        benchjson.write_report(report, path)
        loaded = benchjson.load_report(path)
        assert loaded["schema_version"] == 2
        assert loaded["entries"][0]["samples"][0]["wall_seconds"] > 0

    def test_schema1_baseline_still_loads(self, tmp_path):
        v1 = {"schema_version": 1, "benchmark": "evaluator",
              "scale": "quick", "rounds": 3,
              "entries": [{"model": "movavg", "method": "fwd",
                           "config": "on",
                           "metrics": {"seconds": 0.3,
                                       "outcome": "verified"}}]}
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(v1), encoding="utf-8")
        loaded = benchjson.load_report(path)
        assert loaded["schema_version"] == 1
        assert "samples" not in loaded["entries"][0]
        # and it still feeds the perf store
        point = perf.point_from_report(loaded, git="r", host=HOST)
        assert point["cells"][0]["metrics"]["seconds"] == 0.3

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99,
                                    "benchmark": "x", "entries": []}),
                        encoding="utf-8")
        with pytest.raises(ValueError, match="schema_version"):
            benchjson.load_report(path)

    def test_sample_without_wall_seconds_rejected(self, tmp_path):
        report = _report(0)
        report["entries"][0]["samples"] = [{"cpu_seconds": 1.0}]
        path = tmp_path / "torn.json"
        benchjson.write_report(report, path)
        with pytest.raises(ValueError, match="wall_seconds"):
            benchjson.load_report(path)


# ----------------------------------------------------------------------
# The history store
# ----------------------------------------------------------------------

class TestHistoryStore:
    def test_append_load_round_trip(self, tmp_path):
        point0 = perf.record_report_point(
            tmp_path, _report(0), git="abc1234", host=HOST)
        point1 = perf.record_report_point(
            tmp_path, _report(1), git="abc1234", host=HOST)
        points = perf.load_history(tmp_path)
        assert points == [point0, point1]
        assert points[0]["git_rev"] == "abc1234"
        assert points[0]["host"]["id"] == "deadbeef"
        assert points[0]["benchmark"] == "synthetic"
        assert {c["config"] for c in points[0]["cells"]} \
            == {"plain", "cached"}
        assert point0["kind"] == "perf_point"

    def test_git_rev_is_asked_once_per_process(self, tmp_path,
                                               monkeypatch):
        calls = []

        def fake_run(args, **kwargs):
            calls.append(args)
            return subprocess.CompletedProcess(args, 0, stdout="abc1234\n",
                                               stderr="")

        monkeypatch.setattr(perf.subprocess, "run", fake_run)
        perf._git_rev_in.cache_clear()
        try:
            for index in range(2):
                point = perf.record_run_point(
                    tmp_path, _run_doc(index), git=None, host=HOST)
                assert point["git_rev"] == "abc1234"
        finally:
            perf._git_rev_in.cache_clear()
        assert len(calls) == 1

    def test_append_never_reads_the_history(self, tmp_path, monkeypatch):
        perf.record_run_point(tmp_path, _run_doc(0), git="r", host=HOST)

        def unreadable(ledger_dir):
            raise AssertionError("append read the history")

        monkeypatch.setattr(perf, "load_history", unreadable)
        perf.record_run_point(tmp_path, _run_doc(1), git="r", host=HOST)
        monkeypatch.undo()
        assert len(perf.load_history(tmp_path)) == 2

    def test_torn_and_foreign_lines_skipped(self, tmp_path):
        perf.record_report_point(tmp_path, _report(0), git="r", host=HOST)
        path = perf.history_path(tmp_path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"schema_version": 999, "kind": "perf_point"}\n')
            handle.write('{"kind": "something_else", '
                         '"schema_version": 1}\n')
            handle.write('{"torn": ')  # killed writer
        assert len(perf.load_history(tmp_path)) == 1

    def test_missing_store_is_empty(self, tmp_path):
        assert perf.load_history(tmp_path / "nowhere") == []

    def test_run_point_keyed_by_request_hash(self):
        point = perf.point_from_run(_run_doc(0), run_id="r1",
                                    request_hash="f" * 64,
                                    git="r", host=HOST)
        assert point["benchmark"] == perf.RUN_BENCHMARK
        cell = point["cells"][0]
        assert cell["config"] == "f" * 12
        metrics = cell["metrics"]
        assert metrics["span_image_self_seconds"] == 0.5
        assert metrics["stat_ite_hits"] == 900
        # no hash -> deterministic config digest, still unique per config
        anon = perf.point_from_run(_run_doc(0), git="r", host=HOST)
        assert anon["cells"][0]["config"].startswith("cfg-")

    def test_cell_label_round_trip(self):
        key = ("run", "fifo-4x3", "XICI", "cfg-12345678")
        assert perf.parse_cell_label(perf.cell_label(key)) == key
        with pytest.raises(ValueError, match="malformed"):
            perf.parse_cell_label("no-colon-here")
        with pytest.raises(ValueError, match="malformed"):
            perf.parse_cell_label("bench:only/two")


# ----------------------------------------------------------------------
# Trends over the store
# ----------------------------------------------------------------------

class TestTrendRows:
    def test_slowed_cell_flagged_flat_cell_not(self, tmp_path):
        _record_reports(tmp_path, 12, slow_from=8)
        points = perf.load_history(tmp_path)
        rows = {row["label"]: row for row in perf.trend_rows(points)}
        plain = rows["synthetic:counter/fixpoint/plain"]
        cached = rows["synthetic:counter/fixpoint/cached"]
        assert plain["status"] == "stable"
        assert cached["status"] == "changepoint"
        assert cached["changepoint"]["index"] == 8
        assert cached["changepoint"]["direction"] == "regression"
        assert cached["count"] == 12

    def test_render_trend_table(self, tmp_path):
        _record_reports(tmp_path, 12, slow_from=8)
        points = perf.load_history(tmp_path)
        text = perf.render_trend(perf.trend_rows(points))
        assert "## Trend — `seconds`" in text
        assert "synthetic:counter/fixpoint/cached" in text
        assert "REGRESSION" in text
        assert "`" in text  # sparkline fences

    def test_insufficient_under_min_points(self, tmp_path):
        _record_reports(tmp_path, 3)
        rows = perf.trend_rows(perf.load_history(tmp_path))
        assert all(row["status"] == "insufficient" for row in rows)

    def test_benchmark_filter(self, tmp_path):
        _record_reports(tmp_path, 2)
        perf.record_report_point(tmp_path, _report(0, benchmark="other"),
                                 git="r", host=HOST)
        points = perf.load_history(tmp_path)
        labels = {row["label"] for row in
                  perf.trend_rows(points, benchmark="other")}
        assert labels == {"other:counter/fixpoint/plain",
                          "other:counter/fixpoint/cached"}


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------

class TestAttribution:
    def _history(self, tmp_path, n=12, slow_from=8):
        for i in range(n):
            perf.record_run_point(tmp_path, _run_doc(i, slow_from),
                                  run_id=f"run{i}",
                                  request_hash="f" * 64,
                                  git=f"rev{i}", host=HOST)
        return perf.load_history(tmp_path)

    def test_attribute_names_regressed_phase(self, tmp_path):
        points = self._history(tmp_path)
        key = ("run", "fifo-4x3", "XICI", "f" * 12)
        result = perf.attribute(points, key)
        assert result["status"] == "attributed"
        assert result["changepoint"]["index"] == 8
        assert result["before"]["point_index"] == 7
        assert result["after"]["point_index"] == 8
        # the top-ranked phase is the one that actually moved
        assert result["phases"][0]["metric"] == "span_image_self_seconds"
        assert result["phases"][0]["delta"] == pytest.approx(0.8)
        assert "image" in result["summary"]
        # counters rank the op-cache swing too
        counter_names = [c["metric"] for c in result["counters"]]
        assert "stat_ite_misses" in counter_names

    def test_explicit_before_after_bracketing(self, tmp_path):
        points = self._history(tmp_path)
        key = ("run", "fifo-4x3", "XICI", "f" * 12)
        result = perf.attribute(points, key, before=0, after=-1)
        assert result["status"] == "attributed"
        assert result["before"]["point_index"] == 0
        assert result["after"]["point_index"] == 11

    def test_stable_cell_not_attributed(self, tmp_path):
        points = self._history(tmp_path, n=8, slow_from=10 ** 9)
        key = ("run", "fifo-4x3", "XICI", "f" * 12)
        result = perf.attribute(points, key)
        assert result["status"] == "stable"
        assert "phases" not in result

    def test_render_attribution(self, tmp_path):
        points = self._history(tmp_path)
        key = ("run", "fifo-4x3", "XICI", "f" * 12)
        text = perf.render_attribution(perf.attribute(points, key))
        assert "## Attribution" in text
        assert "REGRESSION" in text
        assert "span_image_self_seconds" in text

    def test_out_of_range_indices_raise(self, tmp_path):
        points = self._history(tmp_path, n=2)
        key = ("run", "fifo-4x3", "XICI", "f" * 12)
        with pytest.raises(ValueError, match="out of range"):
            perf.attribute(points, key, before=0, after=99)


# ----------------------------------------------------------------------
# The noise-aware gate (history CI instead of the blunt 5x bound)
# ----------------------------------------------------------------------

class TestHistoryGate:
    def test_thin_history_gets_no_override(self, tmp_path):
        _record_reports(tmp_path, 3)
        overrides = perf.seconds_tolerances_from_history(
            perf.load_history(tmp_path), "synthetic", min_points=5)
        assert overrides == {}

    def test_overrides_cover_every_cell_with_evidence(self, tmp_path):
        _record_reports(tmp_path, 8)
        overrides = perf.seconds_tolerances_from_history(
            perf.load_history(tmp_path), "synthetic", min_points=5)
        assert set(overrides) == {("counter", "fixpoint", "plain"),
                                  ("counter", "fixpoint", "cached")}
        tolerance = overrides[("counter", "fixpoint", "plain")]["seconds"]
        assert isinstance(tolerance, perf.HistoryTolerance)
        # ~0.1s median, margin 1.5, slack 0.05 -> limit well under the
        # 0.6s a 5x default bound would wave through
        assert tolerance.limit < 0.3

    def test_history_tolerance_check(self):
        tolerance = perf.HistoryTolerance(
            limit=0.21, ci_low=0.10, ci_high=0.11, points=8, margin=1.5)
        assert tolerance.check(0.10, 0.15) is None
        problem = tolerance.check(0.10, 0.60)
        assert problem is not None and "history limit" in problem

    def test_diff_reports_uses_cell_override(self, tmp_path):
        _record_reports(tmp_path, 8)
        overrides = perf.seconds_tolerances_from_history(
            perf.load_history(tmp_path), "synthetic", min_points=5)
        baseline = _report(0)
        slowed = _report(0)
        for entry in slowed["entries"]:
            if entry["config"] == "plain":
                # 0.1s -> 0.45s: inside the default 5x+1s bound, but
                # far outside the cell's own history CI
                entry["metrics"]["seconds"] = 0.45
        loose = ledger.diff_reports(baseline, slowed)
        assert loose["passed"]
        strict = ledger.diff_reports(baseline, slowed,
                                     cell_tolerances=overrides)
        assert not strict["passed"]
        assert any("history limit" in violation
                   for violation in strict["violations"])


# ----------------------------------------------------------------------
# The CLI surface
# ----------------------------------------------------------------------

class TestPerfCli:
    def _record(self, tmp_path, n=8, slow_from=10 ** 9):
        from repro.cli import main
        store = tmp_path / "ledger"
        for i in range(n):
            path = tmp_path / f"report{i}.json"
            benchjson.write_report(_report(i, slow_from), path)
            assert main(["perf", "record", str(path),
                         "--ledger", str(store)]) == 0
        return store

    def test_record_then_trend_table(self, tmp_path, capsys):
        from repro.cli import main
        store = self._record(tmp_path, n=8)
        capsys.readouterr()
        assert main(["perf", "trend", "--ledger", str(store)]) == 0
        out = capsys.readouterr().out
        assert "synthetic:counter/fixpoint/plain" in out
        assert "synthetic:counter/fixpoint/cached" in out
        assert "stable" in out

    def test_fail_on_changepoint_exit_code(self, tmp_path, capsys):
        from repro.cli import main
        store = self._record(tmp_path, n=12, slow_from=8)
        assert main(["perf", "trend", "--ledger", str(store),
                     "--fail-on-changepoint"]) == 1
        capsys.readouterr()
        # JSON mode carries the verdicts for machine consumers
        assert main(["perf", "trend", "--ledger", str(store),
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_label = {row["label"]: row for row in rows}
        cell = by_label["synthetic:counter/fixpoint/cached"]
        assert cell["status"] == "changepoint"
        assert cell["changepoint"]["index"] == 8

    def test_attribute_cli(self, tmp_path, capsys):
        from repro.cli import main
        store = self._record(tmp_path, n=12, slow_from=8)
        capsys.readouterr()
        assert main(["perf", "attribute",
                     "synthetic:counter/fixpoint/cached",
                     "--ledger", str(store)]) == 0
        out = capsys.readouterr().out
        assert "## Attribution" in out
        assert "REGRESSION" in out
        assert main(["perf", "attribute"]) == 2  # needs one label

    def test_report_written_to_file(self, tmp_path, capsys):
        from repro.cli import main
        store = self._record(tmp_path, n=12, slow_from=8)
        out_file = tmp_path / "perf-report.md"
        assert main(["perf", "report", "--ledger", str(store),
                     "--output", str(out_file)]) == 0
        text = out_file.read_text(encoding="utf-8")
        assert "# Perf trajectory report" in text
        assert "## Attribution" in text
        assert main(["perf", "report", "--ledger", str(store),
                     "--output", str(out_file),
                     "--fail-on-changepoint"]) == 1

    def test_record_run_target(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["verify", "--model", "fifo", "--depth", "3",
                     "--width", "4", "--method", "xici",
                     "--ledger", str(tmp_path)])
        assert code == 0
        points = perf.load_history(tmp_path)
        # repro verify --ledger already feeds the store once...
        assert len(points) == 1
        assert points[0]["source"] == "cli"
        assert points[0]["benchmark"] == "run"
        assert points[0]["request_hash"]
        run_id = points[0]["run_id"]
        # ...and perf record run:<id> replays the archived document
        capsys.readouterr()
        assert main(["perf", "record", f"run:{run_id}",
                     "--ledger", str(tmp_path)]) == 0
        points = perf.load_history(tmp_path)
        assert len(points) == 2
        assert points[1]["run_id"] == run_id
        assert points[1]["request_hash"] == points[0]["request_hash"]


class TestBenchReportAgainstPerf:
    def _store(self, tmp_path, n=6):
        store = tmp_path / "ledger"
        _record_reports(store, n)
        return store

    def test_against_latest_history_point(self, tmp_path, capsys):
        from repro.cli import main
        store = self._store(tmp_path)
        current = tmp_path / "current.json"
        benchjson.write_report(_report(0), current)
        code = main(["bench-report", str(current),
                     "--against", "perf:-1", "--ledger", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_against_indexed_point_catches_regression(self, tmp_path,
                                                      capsys):
        from repro.cli import main
        store = self._store(tmp_path)
        slowed = _report(0)
        for entry in slowed["entries"]:
            entry["metrics"]["seconds"] = 99.0
        current = tmp_path / "slow.json"
        benchjson.write_report(slowed, current)
        code = main(["bench-report", str(current),
                     "--against", "perf:0", "--ledger", str(store)])
        capsys.readouterr()
        assert code == 1

    def test_malformed_or_out_of_range_index(self, tmp_path, capsys):
        from repro.cli import main
        store = self._store(tmp_path)
        current = tmp_path / "current.json"
        benchjson.write_report(_report(0), current)
        with pytest.raises(SystemExit):
            main(["bench-report", str(current),
                  "--against", "perf:zzz", "--ledger", str(store)])
        with pytest.raises(SystemExit):
            main(["bench-report", str(current),
                  "--against", "perf:99", "--ledger", str(store)])

    def test_point_as_report_round_trip(self, tmp_path):
        store = self._store(tmp_path)
        point = perf.load_history(store)[-1]
        report = perf.point_as_report(point)
        assert report["benchmark"] == "synthetic"
        index = benchjson.entry_index(report)
        assert ("counter", "fixpoint", "plain") in index
        assert report["derived"]["perf_point"]["git_rev"] == "rev5"
