"""Smoke tests: every experiment module produces well-formed figures on a
miniature configuration (the full-size runs live under ``benchmarks/``)."""

import pytest

from repro.bench.experiment1 import run_experiment1
from repro.bench.experiment2 import collect_ft2_runs, run_experiment2
from repro.bench.experiment3 import run_experiment3
from repro.bench.guarantees import run_guarantees


class TestExperiment1:
    @pytest.fixture(scope="class")
    def figures(self):
        return run_experiment1(total_bytes=30_000, fragment_counts=[1, 2, 3])

    def test_both_figures_present(self, figures):
        assert set(figures) == {"fig9a", "fig9b"}

    def test_series_lengths_match_x_axis(self, figures):
        for figure in figures.values():
            assert figure.x_values == [1, 2, 3]
            for series in figure.series.values():
                assert len(series.values) == 3
                assert all(value > 0 for value in series.values)

    def test_legend_labels(self, figures):
        assert set(figures["fig9a"].series) == {"PaX3-NA-Q1", "PaX3-XA-Q1"}
        assert set(figures["fig9b"].series) == {"PaX3-NA-Q4", "PaX2-NA-Q4"}


class TestExperiments2And3:
    @pytest.fixture(scope="class")
    def sweep(self):
        return collect_ft2_runs([30_000, 60_000])

    @pytest.fixture(scope="class")
    def fig10(self, sweep):
        return sweep.figures("parallel_seconds")

    @pytest.fixture(scope="class")
    def fig11(self, sweep):
        return sweep.figures("total_seconds")

    def test_four_subfigures_each(self, fig10, fig11):
        assert set(fig10) == {"fig10a", "fig10b", "fig10c", "fig10d"}
        assert set(fig11) == {"fig11a", "fig11b", "fig11c", "fig11d"}

    def test_series_shapes(self, fig10):
        assert set(fig10["fig10c"].series) == {"PaX3-NA-Q3", "PaX2-NA-Q3", "PaX2-XA-Q3"}
        for figure in fig10.values():
            for series in figure.series.values():
                assert len(series.values) == 2

    def test_total_time_at_least_parallel_time(self, fig10, fig11):
        # Both figures read the same runs, so every point holds exactly:
        # the sum over sites is never below the slowest site.
        for key in ("a", "b", "c", "d"):
            parallel = fig10[f"fig10{key}"]
            total = fig11[f"fig11{key}"]
            for label, series in parallel.series.items():
                for total_point, parallel_point in zip(total.series[label].values, series.values):
                    assert total_point >= parallel_point

    def test_entry_points_keep_their_figure_keys(self):
        assert set(run_experiment2(sizes=[30_000])) == {"fig10a", "fig10b", "fig10c", "fig10d"}
        assert set(run_experiment3(sizes=[30_000])) == {"fig11a", "fig11b", "fig11c", "fig11d"}

    def test_render_is_printable(self, fig10):
        text = fig10["fig10a"].render()
        assert "Figure 10(a)" in text and "approx. bytes" in text


class TestGuarantees:
    def test_rows_and_rendered_table(self):
        result = run_guarantees(sizes=[40_000], variant_labels=["PaX2-NA", "Naive"])
        rows = result["rows"]
        assert {row["algorithm"] for row in rows} == {"PaX2-NA", "Naive"}
        assert all(row["max_site_visits"] >= 1 for row in rows)
        assert "comm units" in result["rendered"]
