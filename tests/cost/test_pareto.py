"""Dominance, frontier filtering, and scalarization — pure-logic layer."""

import math

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.search import grid_from_scalar
from repro.cost.model import CostModel
from repro.cost.pareto import (
    FrontierPoint,
    build_point,
    dominates,
    enumerate_frontier,
    pareto_front,
    parse_objective,
    select_weighted,
)
from repro.errors import SearchError

KINDS = ("athlon", "pentium2")


def _config(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(KINDS, (p1, m1, p2, m2))


def _point(values, time_s, dollars, energy_wh=0.0, n=1000):
    return FrontierPoint(
        config=_config(*values), n=n, time_s=time_s, dollars=dollars,
        energy_wh=energy_wh,
    )


class TestDominance:
    def test_strict_in_one_axis_suffices(self):
        assert dominates((1.0, 2.0), (1.0, 3.0))
        assert dominates((1.0, 2.0), (2.0, 2.0))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0))

    def test_trade_off_is_incomparable(self):
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (1.0, 3.0))

    def test_length_mismatch_raises(self):
        with pytest.raises(SearchError, match="differ in length"):
            dominates((1.0,), (1.0, 2.0))


class TestParetoFront:
    def test_dominated_points_removed(self):
        points = [
            _point((1, 1, 0, 0), 10.0, 1.0),
            _point((2, 1, 0, 0), 5.0, 2.0),
            _point((3, 1, 0, 0), 12.0, 3.0),  # dominated by both
        ]
        front = pareto_front(points)
        assert [p.time_s for p in front] == [5.0, 10.0]

    def test_exact_ties_all_kept_in_key_order(self):
        a = _point((1, 1, 0, 0), 5.0, 2.0)
        b = _point((2, 1, 0, 0), 5.0, 2.0)
        front = pareto_front([b, a])
        assert front == [a, b]  # canonical (time, dollars, key) order

    def test_canonical_order_is_time_then_dollars(self):
        points = [
            _point((2, 1, 0, 0), 8.0, 1.0),
            _point((1, 1, 0, 0), 5.0, 3.0),
        ]
        front = pareto_front(points)
        assert [p.time_s for p in front] == [5.0, 8.0]
        assert all(
            not dominates(p.objectives(), q.objectives())
            for p in front
            for q in front
        )


class TestBuildPoint:
    def test_costs_follow_time_linearly(self):
        model = CostModel.of(athlon=(3600.0, 3600.0))  # $1/PE-s, 1 Wh/PE-s
        point = build_point(model, _config(2, 1, 0, 0), 100, 7.0)
        assert point.dollars == pytest.approx(14.0)
        assert point.energy_wh == pytest.approx(14.0)

    def test_unestimable_time_poisons_every_objective(self):
        point = build_point(CostModel(), _config(1, 1, 0, 0), 100, math.inf)
        assert point.dollars == math.inf
        assert point.energy_wh == math.inf


class TestEnumerateFrontier:
    # Sublinear speedup: more processes are faster but cost more dollars
    # overall, so the two objectives genuinely conflict.
    _objective = staticmethod(
        grid_from_scalar(lambda config, n: 100.0 / config.total_processes**0.5)
    )

    def test_frontier_points_are_mutually_non_dominated(self):
        model = CostModel.of(athlon=(1.0, 0.0), pentium2=(0.25, 0.0))
        candidates = [
            _config(1, 1, 0, 0), _config(2, 1, 0, 0),
            _config(0, 0, 2, 1), _config(2, 1, 2, 1),
        ]
        outcome = enumerate_frontier(self._objective, candidates, 1000, model)
        assert outcome.complete
        assert outcome.stats.evaluations == len(candidates)
        for p in outcome.points:
            for q in outcome.points:
                assert not dominates(p.objectives(), q.objectives())

    def test_max_cost_filters_before_frontier(self):
        model = CostModel.of(athlon=(1.0, 0.0))
        candidates = [_config(1, 1, 0, 0), _config(2, 1, 0, 0)]
        outcome = enumerate_frontier(
            self._objective, candidates, 1000, model,
            max_cost=model.dollars_per_pe_second("athlon") * 100.0 * 1.01,
        )
        assert [p.config.key() for p in outcome.points] == [
            candidates[0].key()
        ]
        assert outcome.max_cost is not None

    def test_unsatisfiable_max_cost_raises(self):
        model = CostModel.of(athlon=(1.0, 0.0))
        with pytest.raises(SearchError, match="max_cost"):
            enumerate_frontier(
                self._objective, [_config(1, 1, 0, 0)], 1000, model,
                max_cost=0.0,
            )


class TestScalarization:
    def test_parse_objective(self):
        assert parse_objective("time") is None
        assert parse_objective("weighted:0.25") == 0.25
        for bad in ("nope", "weighted:", "weighted:2", "weighted:-0.1"):
            with pytest.raises(SearchError, match="objective"):
                parse_objective(bad)

    def test_alpha_endpoints_select_frontier_endpoints(self):
        front = [
            _point((1, 1, 0, 0), 5.0, 9.0),
            _point((2, 1, 0, 0), 7.0, 4.0),
            _point((3, 1, 0, 0), 11.0, 1.0),
        ]
        assert select_weighted(front, 0.0) is front[0]   # pure time
        assert select_weighted(front, 1.0) is front[-1]  # pure dollars
        mid = select_weighted(front, 0.5)
        assert mid in front
