"""Tests for plain-text report rendering."""

from repro.analysis.report import format_stacked_bars, format_table


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["A", "LongHeader"], [["x", 1.0], ["yy", 22.5]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[:1])
        assert "LongHeader" in lines[0]
        assert "22.50" in lines[3]

    def test_title(self):
        out = format_table(["A"], [["x"]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        out = format_table(["v"], [[3.14159]])
        assert "3.14" in out
        assert "3.1415" not in out


class TestFormatStackedBars:
    def test_legend_and_totals(self):
        stacks = [{"x": 1.0, "y": 1.0}]
        out = format_stacked_bars(["row"], stacks, order=["x", "y"],
                                  title="T")
        assert "T" in out
        assert "2.00" in out

    def test_symbols_used(self):
        stacks = [{"x": 1.0, "y": 1.0}]
        out = format_stacked_bars(["row"], stacks, order=["x", "y"],
                                  symbols={"x": "X", "y": "Y"})
        assert "X" in out and "Y" in out

    def test_segment_proportions(self):
        stacks = [{"x": 3.0, "y": 1.0}]
        out = format_stacked_bars(["row"], stacks, order=["x", "y"],
                                  symbols={"x": "X", "y": "Y"})
        row = out.splitlines()[-1]
        assert row.count("X") == 3 * row.count("Y")
