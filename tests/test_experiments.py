"""Smoke tests for every experiment module (tiny scale, no cache)."""

import pytest

from repro.experiments import (
    fig2_bias,
    fig8_mpki,
    fig9_ablation,
    fig10_tables,
    fig11_relative,
    fig12_hits,
    table1_storage,
)
from repro.experiments.report import format_bar_chart, format_table, write_report


def tiny_args(module, extra=None):
    from repro.experiments import common

    parser = common.make_parser("test")
    argv = ["--branches", "1500", "--traces", "FP1", "INT1", "--cache-dir", ""]
    if extra:
        argv += extra
    return parser.parse_args(argv)


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xx", 3]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in text

    def test_format_table_title(self):
        assert format_table(["a"], [], title="T").startswith("T")

    def test_bar_chart(self):
        text = format_bar_chart(["x", "yy"], [1.0, 2.0], width=10)
        assert text.splitlines()[1].count("#") == 10
        assert text.splitlines()[0].count("#") == 5

    def test_bar_chart_mismatch(self):
        with pytest.raises(ValueError):
            format_bar_chart(["x"], [1.0, 2.0])

    def test_bar_chart_empty(self):
        assert format_bar_chart([], []) == ""

    def test_write_report_to_file(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        write_report("hello", out)
        assert out.read_text() == "hello\n"
        assert "hello" in capsys.readouterr().out


class TestFig2:
    def test_runs_and_reports(self):
        report = fig2_bias.run(tiny_args(fig2_bias))
        assert "FP1" in report and "INT1" in report
        assert "% biased dyn" in report
        assert "average biased dynamic fraction" in report


class TestFig8:
    def test_runs_and_reports(self):
        report = fig8_mpki.run(tiny_args(fig8_mpki))
        assert "OH-SNAP" in report
        assert "BF-Neural" in report
        assert "TAGE" in report
        assert "Avg." in report


class TestFig9:
    def test_runs_and_reports(self):
        report = fig9_ablation.run(tiny_args(fig9_ablation))
        assert "stage0" in report and "stage3" in report
        assert "average MPKI" in report


class TestFig10:
    def test_runs_and_reports(self, monkeypatch):
        monkeypatch.setattr(fig10_tables, "TABLE_COUNTS", [4, 5])
        report = fig10_tables.run(tiny_args(fig10_tables))
        assert "ISL-TAGE" in report
        assert "BF-ISL-TAGE" in report


class TestFig11:
    def test_runs_and_reports(self):
        report = fig11_relative.run(tiny_args(fig11_relative))
        assert "TAGE-15 impr %" in report
        assert "BF-TAGE-10 impr %" in report
        assert "INT1*" in report  # marked long-history trace


class TestFig12:
    def test_runs_and_reports(self):
        report = fig12_hits.run(tiny_args(fig12_hits))
        assert "mean provider table" in report
        assert "TAGE-15 %hits" in report

    def test_default_traces_are_papers(self):
        assert fig12_hits.FIG12_TRACES == [
            "SPEC00", "SPEC02", "SPEC03", "SPEC06", "SPEC09", "SPEC15", "SPEC17",
        ]


class TestTable1:
    def test_matches_components(self):
        report = table1_storage.run(None)
        assert "BST" in report
        assert "Total" in report
        assert "51100" in report  # paper reference column

    def test_total_is_sum_consistent(self):
        from repro.core.configs import bf_tage_storage_table

        rows = bf_tage_storage_table(10)
        components = {name: b for name, b in rows}
        total = components.pop("Total")
        # The byte rows are cumulative-remainder conversions of the bit
        # rows, so they sum exactly — no rounding slop allowed.
        assert total == sum(components.values())


class TestMainEntrypoints:
    def test_fig2_main(self, capsys, tmp_path):
        out = tmp_path / "fig2.txt"
        fig2_bias.main(
            ["--branches", "1000", "--traces", "FP1", "--cache-dir", "", "--output", str(out)]
        )
        assert out.exists()

    def test_table1_main(self, capsys):
        table1_storage.main([])
        assert "Table I" in capsys.readouterr().out
