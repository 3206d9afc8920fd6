"""Unit tests for the pluggable search layer (registry + backends)."""

import math

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.search import (
    DEFAULT_BACKEND,
    BranchBoundSearch,
    ExhaustiveOptimizer,
    SearchBackend,
    SearchOutcome,
    SearchProblem,
    SearchSpace,
    SearchStats,
    create_search,
    grid_from_scalar,
    register_search,
    registered_search_backends,
    search_backend_class,
    synthetic_problem,
)
from repro.core.search.base import RankedEstimate, rank_evaluations
from repro.errors import SearchError
from repro.perf.report import PerfReport

KINDS = ("athlon", "pentium2")


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(KINDS, (p1, m1, p2, m2))


@pytest.fixture(scope="module")
def small_problem():
    """3 kinds x 3 PEs x 2 procs: 342 candidates, exhaustive-friendly."""
    return synthetic_problem(n_kinds=3, pes_per_kind=3, max_procs=2)


class TestRegistry:
    def test_shipped_backends_registered(self):
        tags = registered_search_backends()
        for tag in ("exhaustive", "branch-bound", "beam", "greedy",
                    "hill-climb", "anneal"):
            assert tag in tags
        assert DEFAULT_BACKEND in tags

    def test_unknown_tag_raises(self, small_problem):
        with pytest.raises(SearchError, match="unknown search backend"):
            create_search("no-such-backend", small_problem)

    def test_unknown_option_is_search_error(self, small_problem):
        with pytest.raises(SearchError, match="rejected its options"):
            create_search("branch-bound", small_problem, frobnicate=3)

    def test_duplicate_tag_rejected(self):
        with pytest.raises(SearchError, match="already registered"):
            @register_search("exhaustive")
            class Impostor(SearchBackend):
                pass

    def test_decorator_assigns_backend_type(self):
        assert search_backend_class("branch-bound").backend_type == "branch-bound"
        assert BranchBoundSearch.backend_type == "branch-bound"


class TestSearchSpace:
    def test_size_excludes_all_idle(self, small_problem):
        space = small_problem.space
        assert space.size == 7**3 - 1

    def test_configs_enumeration_matches_size(self, small_problem):
        space = small_problem.space
        configs = list(space.configs())
        assert len(configs) == space.size
        assert len({c.key() for c in configs}) == space.size

    def test_from_candidates_exact_cover_roundtrip(self):
        candidates = [cfg(1, 1, 0, 0), cfg(1, 2, 0, 0), cfg(0, 0, 8, 1),
                      cfg(1, 1, 8, 1), cfg(1, 2, 8, 1)]
        space = SearchSpace.from_candidates(candidates, KINDS)
        # 2x3 product minus the all-idle point is 5 == len(candidates).
        assert space.is_exact_cover_of(candidates)

    def test_irregular_candidates_not_exact_cover(self):
        candidates = [cfg(1, 1, 0, 0), cfg(0, 0, 8, 1), cfg(1, 2, 8, 1)]
        space = SearchSpace.from_candidates(candidates, KINDS)
        assert not space.is_exact_cover_of(candidates)


class TestBranchBound:
    def test_bitwise_identical_to_exhaustive(self, small_problem):
        exhaustive = create_search("exhaustive", small_problem)
        bb = create_search("branch-bound", small_problem)
        for n in (1000, 3000):
            a = exhaustive.optimize(n).best
            b = bb.optimize(n).best
            assert a.config.key() == b.config.key()
            assert a.estimate_s == b.estimate_s  # bitwise, not approx

    def test_prunes_most_of_the_space(self, small_problem):
        bb = create_search("branch-bound", small_problem)
        outcome = bb.optimize(3000)
        stats = outcome.stats
        assert stats.backend == "branch-bound"
        assert stats.pruned_subtrees > 0
        # Evaluations + pruned candidates account for the whole space.
        assert stats.evaluations + stats.pruned_candidates == small_problem.space.size
        assert stats.evaluations < small_problem.space.size / 5
        assert not outcome.complete  # pruned candidates are absent from ranking

    def test_budget_gives_anytime_answer(self, small_problem):
        bb = create_search("branch-bound", small_problem, budget=5)
        outcome = bb.optimize(3000)
        assert outcome.stats.evaluations <= 5
        assert outcome.stats.budget == 5
        assert math.isfinite(outcome.best.estimate_s)

    def test_work_cap_terminates_interior_walk(self):
        # 11^6-1 candidates; the unbudgeted walk needs ~400 bound
        # evaluations, so a 200-evaluation work cap stops it mid-walk
        # after the first descent has produced an incumbent.
        problem = synthetic_problem(n_kinds=6, pes_per_kind=5, max_procs=2)
        bb = create_search("branch-bound", problem, budget=200, work_factor=1)
        outcome = bb.optimize(5000)
        assert outcome.stats.exhausted
        assert outcome.stats.evaluations >= 1
        # The cap is checked at node entry, so a final expansion may
        # overshoot by at most one branching factor (11 here).
        assert outcome.stats.bound_evaluations <= 200 + 11
        assert not outcome.complete

    def test_work_cap_before_first_leaf_raises(self, small_problem):
        # A cap too small to even reach one leaf leaves nothing to rank.
        bb = create_search("branch-bound", small_problem, budget=2, work_factor=1)
        with pytest.raises(SearchError, match="no candidate"):
            bb.optimize(3000)

    def test_requires_bounds(self, small_problem):
        stripped = SearchProblem(
            objective=small_problem.objective,
            space=small_problem.space,
            kinds=small_problem.kinds,
            allow_unestimable=False,
        )
        with pytest.raises(SearchError, match="bound"):
            create_search("branch-bound", stripped)

    def test_optimize_many_matches_single(self, small_problem):
        bb = create_search("branch-bound", small_problem)
        many = bb.optimize_many([1000, 2000])
        assert [o.n for o in many] == [1000, 2000]
        single = create_search("branch-bound", small_problem).optimize(2000)
        assert many[1].best.config.key() == single.best.config.key()
        assert many[1].best.estimate_s == single.best.estimate_s

    def test_exhaustive_rejects_budget(self, small_problem):
        with pytest.raises(SearchError, match="budget"):
            create_search("exhaustive", small_problem, budget=10)


class TestLocalBackends:
    def test_beam_is_deterministic(self, small_problem):
        a = create_search("beam", small_problem).optimize(3000)
        b = create_search("beam", small_problem).optimize(3000)
        assert a.best.config.key() == b.best.config.key()
        assert a.best.estimate_s == b.best.estimate_s

    def test_beam_near_optimal_on_small_instance(self, small_problem):
        exact = create_search("branch-bound", small_problem).optimize(3000)
        beam = create_search("beam", small_problem).optimize(3000)
        assert beam.best.estimate_s <= 1.05 * exact.best.estimate_s
        assert not beam.complete

    def test_jump_moves_cross_activation_valleys(self, small_problem):
        # The exact optimum of this instance uses more than one kind;
        # single-coordinate moves alone cannot activate an idle kind
        # without transiting a bottleneck state, so reaching it proves
        # the jump moves work.
        exact = create_search("branch-bound", small_problem).optimize(3000)
        assert len(exact.best.config.active) > 1
        beam = create_search("beam", small_problem).optimize(3000)
        assert len(beam.best.config.active) > 1

    def test_budget_enforced(self, small_problem):
        for tag in ("beam", "greedy", "hill-climb", "anneal"):
            outcome = create_search(tag, small_problem, budget=25).optimize(3000)
            assert outcome.stats.evaluations <= 25, tag
            assert outcome.stats.budget == 25, tag

    def test_stochastic_backends_seeded(self, small_problem):
        for tag in ("hill-climb", "anneal"):
            a = create_search(tag, small_problem).optimize(3000)
            b = create_search(tag, small_problem).optimize(3000)
            assert a.best.config.key() == b.best.config.key(), tag
            assert a.best.estimate_s == b.best.estimate_s, tag

    def test_greedy_flags_structural_stuck(self, small_problem):
        """Greedy growth stopping at a local optimum without covering
        the space must say so — ``stats.stuck`` is the typed form of
        the 'structurally stuck' failure the PR-7 benches documented."""
        outcome = create_search("greedy", small_problem).optimize(3000)
        stats = outcome.stats
        assert stats.evaluations < small_problem.space.size
        assert stats.stuck
        assert stats.to_dict()["stuck"] is True

    def test_exact_backends_never_stuck(self, small_problem):
        for tag in ("exhaustive", "branch-bound"):
            stats = create_search(tag, small_problem).optimize(3000).stats
            assert not stats.stuck, tag
            assert "stuck" not in stats.to_dict(), tag


class TestRankingSemantics:
    def test_inf_ties_rank_deterministically(self):
        """+inf ties must order by configuration key, not insertion order."""
        entries = [(cfg(1, 2, 0, 0), 1.0), (cfg(1, 1, 8, 1), math.inf),
                   (cfg(0, 0, 8, 1), math.inf), (cfg(1, 1, 0, 0), math.inf)]
        a = rank_evaluations(100, entries, started=0.0)
        b = rank_evaluations(100, list(reversed(entries)), started=0.0)
        assert [e.config.key() for e in a.ranking] == [
            e.config.key() for e in b.ranking
        ]
        assert a.best.estimate_s == 1.0

    def test_duplicate_candidate_key_raises_on_lookup(self):
        ranking = [
            RankedEstimate(config=cfg(1, 1, 0, 0), n=1, estimate_s=1.0),
            RankedEstimate(config=cfg(1, 1, 0, 0), n=1, estimate_s=2.0),
        ]
        outcome = SearchOutcome(n=1, ranking=ranking, search_seconds=0.0)
        with pytest.raises(SearchError, match="duplicate candidate"):
            outcome.estimate_for(cfg(1, 1, 0, 0))

    def test_strict_mode_on_batched_many_with_partial_inf(self):
        """allow_unestimable=False must also catch +inf on the batched
        optimize_many path when only some sizes are unestimable."""
        optimizer = ExhaustiveOptimizer(
            grid_from_scalar(lambda c, n: 5.0 if n <= 1 else math.inf),
            [cfg(1, 1, 0, 0), cfg(1, 2, 0, 0)],
            allow_unestimable=False,
        )
        assert optimizer.optimize_many([1])[0].best.estimate_s == 5.0
        with pytest.raises(SearchError, match="invalid time"):
            optimizer.optimize_many([1, 2])


class TestPerfReportWiring:
    def test_record_search_accumulates_per_backend(self):
        report = PerfReport()
        stats = SearchStats(backend="branch-bound", budget=10)
        stats.record(cfg(1, 1, 0, 0), 2.0)
        stats.prune(7)
        stats.exhausted = True
        report.record_search(stats)
        report.record_search(stats)
        report.record_search(None)  # tolerated no-op
        entry = report.to_dict()["search_backends"]["branch-bound"]
        assert entry["runs"] == 2
        assert entry["evaluations"] == 2
        assert entry["pruned_candidates"] == 14
        assert entry["exhausted"] == 2
        assert entry["stuck"] == 0
        assert "search[branch-bound]" in report.render()

    def test_stuck_runs_counted_and_rendered(self):
        report = PerfReport()
        stats = SearchStats(backend="greedy", stuck=True)
        stats.record(cfg(1, 1, 0, 0), 2.0)
        report.record_search(stats)
        assert report.to_dict()["search_backends"]["greedy"]["stuck"] == 1
        assert "1 stuck" in report.render()

    def test_mixed_backend_run_aggregates_per_backend(self, ns_pipeline):
        """One pipeline run mixing backends (branch-bound then anneal)
        keeps separate per-backend entries — counters never blend."""
        before = {
            name: dict(entry)
            for name, entry in ns_pipeline.perf.search_backends.items()
        }
        ns_pipeline.optimize(8000, backend="branch-bound")
        ns_pipeline.optimize(8000, backend="anneal")
        backends = ns_pipeline.perf.search_backends
        for tag in ("branch-bound", "anneal"):
            assert backends[tag]["runs"] == (
                before.get(tag, {}).get("runs", 0) + 1
            ), tag
        assert backends["branch-bound"]["pruned_candidates"] > before.get(
            "branch-bound", {}
        ).get("pruned_candidates", 0)
        rendered = ns_pipeline.perf.render()
        assert "search[branch-bound]" in rendered
        assert "search[anneal]" in rendered


class TestPipelineDispatch:
    def test_default_backend_unchanged(self, ns_pipeline):
        legacy = ns_pipeline.optimize(8000)
        explicit = ns_pipeline.optimize(8000, backend="exhaustive")
        assert legacy.best.config.key() == explicit.best.config.key()
        assert legacy.best.estimate_s == explicit.best.estimate_s
        assert legacy.complete and explicit.complete

    def test_branch_bound_matches_exhaustive_on_pipeline(self, ns_pipeline):
        exhaustive = ns_pipeline.optimize(8000)
        bb = ns_pipeline.optimize(8000, backend="branch-bound")
        assert bb.best.config.key() == exhaustive.best.config.key()
        assert bb.best.estimate_s == exhaustive.best.estimate_s
        assert bb.stats.backend == "branch-bound"
        assert bb.stats.evaluations < exhaustive.stats.evaluations

    def test_unknown_backend_raises(self, ns_pipeline):
        with pytest.raises(SearchError, match="unknown search backend"):
            ns_pipeline.optimize(8000, backend="no-such")

    def test_budgeted_beam_on_pipeline(self, ns_pipeline):
        outcome = ns_pipeline.optimize_many(
            [6400, 8000], backend="beam", budget=40
        )
        assert [o.n for o in outcome] == [6400, 8000]
        for o in outcome:
            assert o.stats.evaluations <= 40
            assert math.isfinite(o.best.estimate_s)

    def test_perf_report_sees_backend_runs(self, ns_pipeline):
        ns_pipeline.optimize(8000, backend="branch-bound")
        assert "branch-bound" in ns_pipeline.perf.search_backends


class TestSynthetic:
    def test_instance_is_deterministic(self):
        a = synthetic_problem(n_kinds=3, pes_per_kind=3, max_procs=2)
        b = synthetic_problem(n_kinds=3, pes_per_kind=3, max_procs=2)
        sample = next(a.space.configs())
        assert a.objective([sample], [2000]) == b.objective([sample], [2000])
        assert a.space.kinds == b.space.kinds

    def test_datacenter_scale_space_is_huge(self):
        problem = synthetic_problem()  # 10 kinds, 500 PEs
        assert problem.space.size > 1e22
        assert problem.space.max_total_processes == 10 * 50 * 4

    def test_branch_bound_runs_at_scale_under_budget(self):
        problem = synthetic_problem()
        bb = create_search("branch-bound", problem, budget=50, work_factor=64)
        outcome = bb.optimize(20000)
        assert math.isfinite(outcome.best.estimate_s)
        assert outcome.stats.evaluations <= 50
