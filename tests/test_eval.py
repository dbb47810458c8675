"""Unit tests for the evaluation harness (tables, spy plots, registry)."""

import pytest

from repro.eval import render_table, spy
from repro.eval.benchkit import delta_headline
from repro.eval.experiments import experiment_fig11, experiment_table1
from repro.eval.spyplot import density_grid
from repro.eval.tables import format_value
from repro.graph import GraphBuilder, CSRGraph


class TestTables:
    def test_render_basic(self):
        out = render_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = out.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert "22" in lines[3]  # header, rule, row 1, row 2

    def test_column_union_across_rows(self):
        out = render_table([{"a": 1}, {"b": 2}])
        assert "a" in out and "b" in out

    def test_empty_rows(self):
        assert "(no rows)" in render_table([])

    def test_title(self):
        assert "=== T ===" in render_table([{"a": 1}], title="T")

    def test_format_large_float(self):
        assert format_value(1.23e7) == "1.23e+07"

    def test_format_int_commas(self):
        assert format_value(1234567) == "1,234,567"

    def test_format_bool(self):
        assert format_value(True) == "yes"


class TestSpyPlot:
    def test_density_grid_counts_all_nnz(self, fig2):
        grid = density_grid(fig2, resolution=4)
        assert grid.sum() == fig2.num_edges

    def test_spy_dimensions(self, fig2):
        art = spy(fig2, resolution=10)
        lines = art.splitlines()
        assert len(lines) == 10
        assert all(len(line) == 10 for line in lines)

    def test_spy_empty_graph(self):
        art = spy(CSRGraph.empty(4), resolution=5)
        assert set("".join(art.splitlines())) == {"."}

    def test_anti_diagonal_flip(self):
        g = GraphBuilder(10).add_edge(0, 1).build()
        normal = spy(g, resolution=10)
        flipped = spy(g, resolution=10, anti_diagonal=True)
        assert normal != flipped

    def test_title_included(self, fig2):
        assert spy(fig2, resolution=4, title="hello").startswith("hello")

    def test_dense_block_darker_than_sparse(self):
        g = (
            GraphBuilder(64)
            .add_clique(range(16))       # dense corner
            .add_edge(40, 60)            # lone nnz elsewhere
            .build()
        )
        grid = density_grid(g, resolution=8)
        assert grid[0, 0] > grid[5, 7]


class TestExperimentRegistry:
    def test_fig11_matches_paper_split(self):
        result = experiment_fig11()
        assert result.extras["locator_fraction"] == pytest.approx(0.34, abs=0.02)
        assert result.extras["consumer_fraction"] == pytest.approx(0.66, abs=0.02)

    def test_fig11_renders(self):
        text = experiment_fig11().render()
        assert "Figure 11" in text
        assert "tp_bfs_engines" in text

    def test_table1_rows(self):
        result = experiment_table1("cora")
        methods = [row["method"] for row in result.rows]
        assert len(methods) == 3
        assert any("PULL" in m for m in methods)
        assert any("Islandization" in m for m in methods)

    def test_table1_igcn_least_traffic(self):
        result = experiment_table1("cora")
        traffic = {row["method"]: row["dram_mb"] for row in result.rows}
        igcn = [v for k, v in traffic.items() if "Islandization" in k][0]
        assert igcn <= min(traffic.values())


class TestBenchRepeats:
    @pytest.mark.parametrize("suite, kwargs", [
        ("locator", dict(tiers=("1e3",))),
        ("consumer", dict(tiers=("1e3",))),
        ("event", dict(tiers=("1e3",))),
        ("partition", dict(tiers=("2e5",), max_edges=1_000)),
        ("incremental", dict(tiers=("1e1",), max_edges=1_000)),
        ("pincr", dict(tiers=("1e1",), max_edges=1_000, partitions=2,
                       workers=1)),
    ])
    def test_zero_repeats_is_a_config_error(self, suite, kwargs, tmp_path):
        import importlib

        from repro.errors import ConfigError

        module = importlib.import_module(f"repro.eval.bench_{suite}")
        run = getattr(module, f"run_{suite}_bench")
        if suite in ("partition", "pincr"):
            kwargs = dict(kwargs, graph_dir=tmp_path)
        with pytest.raises(ConfigError, match="repeats must be >= 1"):
            run(repeats=0, **kwargs)


class TestDeltaHeadline:
    """One win rule for both delta suites: no fallback and speedup > 1."""

    @staticmethod
    def _rung(tier, speedup, fallback=False):
        return {"tier": tier, "speedup": speedup, "fallback": fallback}

    def test_last_win_is_headline_first_loss_is_crossover(self):
        rows = [self._rung("1e1", 17.8), self._rung("1e3", 5.0),
                self._rung("1e5", 0.8)]
        assert delta_headline(rows, "speedup") == {
            "headline_tier": "1e3", "headline_speedup": 5.0,
            "crossover_delta": "1e5",
        }

    def test_tie_at_one_is_no_win(self):
        rows = [self._rung("1e1", 2.0), self._rung("1e3", 1.0),
                self._rung("1e5", 1.5)]
        out = delta_headline(rows, "speedup")
        assert out["crossover_delta"] == "1e3"
        assert (out["headline_tier"], out["headline_speedup"]) == ("1e5", 1.5)

    def test_fallback_rung_never_wins(self):
        rows = [self._rung("1e1", 3.0, fallback=True),
                self._rung("1e3", None)]
        assert delta_headline(rows, "speedup") == {
            "headline_tier": None, "headline_speedup": None,
            "crossover_delta": "1e1",
        }

    def test_empty_ladder(self):
        assert delta_headline([], "speedup_vs_record") == {
            "headline_tier": None, "headline_speedup": None,
            "crossover_delta": None,
        }
