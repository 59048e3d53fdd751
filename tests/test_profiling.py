"""Tests for repro.analysis.profiling."""

import pytest

from repro.analysis.profiling import scaling_study


class TestScalingStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return scaling_study(sizes=(8, 12, 16))

    def test_row_per_size(self, study):
        assert [r.n_nodes for r in study.rows] == [8, 12, 16]

    def test_timings_positive(self, study):
        for r in study.rows:
            assert r.mst_s > 0
            assert r.aaml_s > 0
            assert r.ira_s > 0
            assert r.ira_lp_solves >= 1

    def test_edges_grow_with_size(self, study):
        edges = [r.n_edges for r in study.rows]
        assert edges == sorted(edges)

    def test_render(self, study):
        out = study.render()
        assert "IRA ms" in out and "LP solves" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            scaling_study(sizes=(8,), lc_divisor=0)
