"""Bench-harness tests: series formatting and the CLI entry points."""

import pytest

from repro.bench.harness import Series, format_series, speedup_note


class TestSeries:
    def test_format_aligns_rows(self):
        a = Series("openuh", [("64", 1.5), ("128", 3.0)])
        b = Series("vendor-b", [("64", 2.5), ("128", "F")])
        text = format_series("demo", [a, b], xlabel="size")
        lines = text.splitlines()
        assert "demo" in lines[0]
        assert "openuh" in lines[2] and "vendor-b" in lines[2]
        assert any("1.500" in ln and "2.500" in ln for ln in lines)
        assert any("F" in ln for ln in lines)

    def test_missing_points_render_dash(self):
        a = Series("x", [("1", 1.0)])
        b = Series("y", [("2", 2.0)])
        text = format_series("t", [a, b])
        assert "-" in text

    def test_speedup_note(self):
        assert speedup_note(1.0, 2.0) == "2.00x slower"
        assert speedup_note(2.0, 1.0) == "2.00x faster"
        assert speedup_note(0.0, 1.0) == "n/a"


class TestCLIs:
    """Tiny end-to-end runs of each bench CLI (quick paths)."""

    def test_table2_quick(self, capsys):
        from repro.bench.table2 import main
        assert main(["--quick", "--ops", "+", "--ctypes", "int"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "openuh" in out

    def test_fig11_quick_single_position(self, capsys):
        from repro.bench.fig11 import main
        assert main(["--quick", "--positions", "vector"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11(c)" in out

    def test_fig12_quick_matmul_only(self, capsys):
        from repro.bench.fig12 import main
        assert main(["--quick", "--only", "b"]) == 0
        out = capsys.readouterr().out
        assert "Figure 12(b)" in out
        assert "F" in out  # vendor-b's missing bar

    def test_ablations_quick_subset(self, capsys):
        from repro.bench.ablations import main
        assert main(["--quick", "--only", "A4", "A8"]) == 0
        out = capsys.readouterr().out
        assert "A4" in out and "A8" in out

    def test_fig11_subfigure_letters(self):
        from repro.bench.fig11 import SUBFIGURES
        assert SUBFIGURES["gang"] == "a"
        assert SUBFIGURES["same line gang worker vector"] == "g"


class TestAblationRows:
    def test_every_ablation_has_quick_size(self):
        from repro.bench.ablations import ABLATIONS, _QUICK_SIZES
        assert set(_QUICK_SIZES) == set(ABLATIONS)

    def test_ablation_variants_verified_correct(self):
        # _measure raises if a variant produces a wrong result
        from repro.bench.ablations import run_ablation
        rows = run_ablation("A1", quick=True)
        assert len(rows) == 2
        assert all(r.kernel_ms > 0 for r in rows)


class TestProfileSinkTruncation:
    def test_write_truncated_stamps_document(self, tmp_path):
        import json

        from repro.bench.harness import ProfileSink

        from repro.obs import timeline

        sink = ProfileSink(str(tmp_path / "p.json"))
        with sink.profiler:
            with timeline.current().timed_span("passes", "pass:sweep"):
                pass
        path = sink.write({"bench": "t"},
                          truncated_by=RuntimeError("died mid-sweep"))
        doc = json.loads(open(path).read())
        assert doc["truncated"] is True
        assert doc["truncated_by"]["error"] == "RuntimeError"
        assert doc["bench"] == {"bench": "t"}
        assert doc["traceEvents"]  # the partial trace survived
