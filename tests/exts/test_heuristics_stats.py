"""Additional coverage for heuristic-search bookkeeping."""

import math

import pytest

from repro.cluster.presets import kishimoto_cluster
from repro.core.search import (
    GreedyGrowth,
    SearchSpace,
    SearchStats,
    grid_from_scalar,
)


class TestSearchStats:
    def test_record_tracks_best(self):
        stats = SearchStats()
        stats.record("config-a", 5.0)
        stats.record("config-b", 3.0)
        stats.record("config-c", 4.0)
        assert stats.best_estimate == 3.0
        assert stats.best_config == "config-b"
        assert stats.evaluations == 3
        assert stats.trace == [5.0, 3.0, 3.0]

    def test_initial_state(self):
        stats = SearchStats()
        assert stats.best_config is None
        assert stats.best_estimate == math.inf


class TestGreedyInternals:
    @pytest.fixture(scope="class")
    def searcher(self):
        return GreedyGrowth(
            SearchSpace.from_spec(kishimoto_cluster()),
            grid_from_scalar(lambda c, n: 1.0),
        )

    def test_state_config_roundtrip(self, searcher):
        state = (("athlon", 1, 2), ("pentium2", 4, 1))
        config = searcher._to_config(state)
        assert searcher._from_config(config) == state

    def test_neighbors_respect_bounds(self, searcher):
        state = (("athlon", 1, 6), ("pentium2", 8, 1))
        spec = kishimoto_cluster()
        for neighbor in searcher._neighbors(state):
            for kind, pe, procs in neighbor:
                available = spec.pe_count(kind)
                assert 0 <= pe <= available
                assert procs <= searcher.space.max_procs_per_pe
                if pe == 0:
                    assert procs == 0

    def test_neighbors_never_empty_config(self, searcher):
        state = (("athlon", 1, 1), ("pentium2", 0, 0))
        for neighbor in searcher._neighbors(state):
            assert sum(pe * procs for _, pe, procs in neighbor) >= 1

    def test_starts_include_both_sides_of_the_valley(self, searcher):
        starts = searcher._single_pe_starts()
        labels = {searcher._to_config(s).label(("athlon", "pentium2")) for s in starts}
        assert "1,1,0,0" in labels  # single fast PE
        assert "0,0,8,1" in labels  # the whole slow pool

    def test_evaluation_cache(self, searcher):
        stats = SearchStats()
        state = (("athlon", 1, 1), ("pentium2", 0, 0))
        a = searcher._evaluate(state, 100, stats)
        b = searcher._evaluate(state, 100, stats)
        assert a == b
        assert stats.evaluations == 1  # second hit came from the cache
