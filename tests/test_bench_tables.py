"""Tests for the benchmark harness itself (paper data + runners)."""

import pytest

from repro.bench import PAPER_ROWS, ReportRow, TableReport, chosen_scale, \
    lookup, run_case, table1_fifo
from repro.core import Options, Outcome
from repro.models import typed_fifo


class TestPaperData:
    def test_every_table_present(self):
        tables = {row.table for row in PAPER_ROWS}
        assert tables == {"1-fifo", "1-network", "1-movavg", "2", "3"}

    def test_row_counts_match_paper(self):
        # Table 1: 8 fifo + 10 network + 10 movavg rows; Table 2: 9;
        # Table 3: 13 + 1 in-text assisted row.
        by_table = {}
        for row in PAPER_ROWS:
            by_table[row.table] = by_table.get(row.table, 0) + 1
        assert by_table["1-fifo"] == 8
        assert by_table["1-network"] == 10
        assert by_table["1-movavg"] == 10
        assert by_table["2"] == 9
        assert by_table["3"] == 14

    def test_lookup(self):
        row = lookup("1-fifo", "5", "ICI")
        assert row is not None
        assert row.nodes == 41
        assert row.profile == "(5 x 9 nodes)"
        assert lookup("1-fifo", "99", "ICI") is None

    def test_exceeded_rows_have_notes(self):
        for row in PAPER_ROWS:
            if row.iterations is None:
                assert "Exceeded" in row.note


class TestRunCase:
    def test_pairs_with_paper_row(self):
        row = run_case(typed_fifo(depth=5, width=8), "ici", "1-fifo", "5")
        assert row.paper is not None
        assert row.paper.nodes == 41
        assert row.result.max_iterate_nodes == 41

    def test_formats_both_rows(self):
        row = run_case(typed_fifo(depth=3, width=4), "xici", "1-fifo", "3")
        text = row.format()
        assert "iter=" in text
        assert "paper:" not in text  # size 3 was not run in the paper

    def test_format_includes_paper_reference(self):
        row = run_case(typed_fifo(depth=5, width=8), "bkwd", "1-fifo", "5")
        assert "paper:" in row.format()

    def test_exhausted_formatting(self):
        row = run_case(typed_fifo(depth=6, width=8), "fwd", "1-fifo", "6",
                       options=Options(max_nodes=200))
        assert row.result.outcome == Outcome.NODE_BUDGET
        assert "budget" in row.format()

    def test_monolithic_flag(self):
        row = run_case(typed_fifo(depth=3, width=4), "ici", "1-fifo", "3",
                       monolithic=True)
        bkwd = run_case(typed_fifo(depth=3, width=4), "bkwd", "1-fifo", "3")
        assert row.result.max_iterate_nodes == \
            bkwd.result.max_iterate_nodes


class TestTableRunners:
    def test_table_report_structure(self):
        report = table1_fifo(scale="quick", methods=("ici", "xici"))
        assert len(report.rows) == 4
        assert "Table 1" in report.format()
        row = report.row("5", "ICI")
        assert row.result.verified
        with pytest.raises(KeyError):
            report.row("5", "Santa")

    def test_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert chosen_scale() == "quick"
        monkeypatch.setenv("REPRO_FULL", "1")
        assert chosen_scale() == "paper"

