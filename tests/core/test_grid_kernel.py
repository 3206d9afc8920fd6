"""Candidate-axis grid kernel: bitwise equivalence on every search path.

The contract under test (DESIGN.md §15): ``estimate_grid`` cell
``[i, j]`` is **bitwise** ``estimate(configs[i], ns[j]).total``, and
every backend searching the kernel objective produces the identical
outcome — ranking, winner, stats, budget exhaustion point — as the same
backend searching the per-cell reference
``grid_from_scalar(lambda c, n: pipeline.estimate(c, n).total)``.
Equality below is ``==`` on floats, never ``approx``.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig
from repro.core.binning import MemoryBin
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.core.search import (
    create_search,
    grid_from_scalar,
    registered_search_backends,
    synthetic_estimator,
    synthetic_kind_params,
    synthetic_problem,
)
from repro.cost.presets import synthetic_rate_card
from repro.errors import ConfigurationError, SearchError
from repro.measure.grids import PAPER_KINDS
from repro.perf.report import GridKernelStats

SIZES = (1600, 3200, 4800, 6400, 8000, 9600)


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(PAPER_KINDS, (p1, m1, p2, m2))


#: HPL ratios spread over all three bins, sorting over the first two,
#: and Monte Carlo (no memory model, ratio 0) sits in the scaled first.
MEMORY_BINS = (
    MemoryBin(max_ratio=0.05, ta_scale=1.25, tc_scale=0.75, label="light"),
    MemoryBin(max_ratio=0.5, label="fits"),
    MemoryBin(max_ratio=2.0, ta_scale=1.4, tc_scale=1.1, label="pages"),
)


def strip_grid(backend, pipeline):
    """The scalar reference: the same backend searching the pipeline's
    scalar estimates, lifted cell by cell, instead of the kernel."""
    backend.objective = grid_from_scalar(
        lambda config, n: pipeline.estimate(config, n).total
    )
    return backend


def outcome_sig(outcome):
    """Everything observable about an outcome, floats bit-for-bit."""
    return (
        outcome.n,
        [(e.config.key(), e.estimate_s) for e in outcome.ranking],
        outcome.stats.evaluations,
        outcome.stats.dedup_hits,
        outcome.stats.exhausted,
        outcome.complete,
        outcome.best.config.key(),
        outcome.best.estimate_s,
    )


class TestEstimateGrid:
    def test_bitwise_equal_to_scalar_estimates(self, ns_pipeline):
        configs = ns_pipeline.plan.evaluation_configs
        grid = ns_pipeline.estimate_grid(configs, SIZES)
        assert grid.shape == (len(configs), len(SIZES))
        for i, config in enumerate(configs):
            for j, n in enumerate(SIZES):
                assert grid[i, j] == ns_pipeline.estimate(config, n).total

    def test_cold_then_warm_grid_sweep(self, spec):
        pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=11))
        configs = pipeline.plan.evaluation_configs
        cells = len(configs) * len(SIZES)
        first = pipeline.estimate_grid(configs, SIZES)
        stats = pipeline.estimate_cache.stats
        assert stats.misses == cells
        assert stats.hits == 0
        second = pipeline.estimate_grid(configs, SIZES)
        assert stats.hits == cells
        assert first.tolist() == second.tolist()
        # Warm sweep never re-enters the kernel.
        assert pipeline.perf.grid.blocks == 1

    def test_partial_cache_hits_fill_only_missing_cells(self, spec):
        pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=12))
        configs = pipeline.plan.evaluation_configs[:4]
        warm = pipeline.estimate_grid(configs[:2], SIZES[:2])
        full = pipeline.estimate_grid(configs, SIZES)
        assert full[:2, :2].tolist() == warm.tolist()
        for i, config in enumerate(configs):
            for j, n in enumerate(SIZES):
                assert full[i, j] == pipeline.estimate(config, n).total

    @pytest.mark.parametrize("protocol", ["basic", "nl", "ns"])
    @pytest.mark.parametrize("workload", ["hpl", "sorting", "montecarlo"])
    def test_memory_bins_evaluate_in_one_block_bitwise(self, spec, workload, protocol):
        pipeline = EstimationPipeline(
            spec,
            PipelineConfig(
                protocol=protocol, seed=11, workload=workload, memory_bins=MEMORY_BINS
            ),
        )
        configs = pipeline.plan.evaluation_configs
        sizes = pipeline.plan.evaluation_sizes
        grid = pipeline.estimate_grid(configs, sizes)
        stats = pipeline.perf.grid
        assert stats.blocks == 1
        assert stats.cells == len(configs) * len(sizes)
        scaled = 0
        for i, config in enumerate(configs):
            expected = [pipeline.estimate(config, n) for n in sizes]
            assert grid[i].tolist() == [e.total for e in expected]
            # The serve path: one single-candidate kernel block.
            assert pipeline.estimate_totals(config, sizes).tolist() == [
                e.total for e in expected
            ]
            scaled += sum(
                any(k.bin_label != "fits" for k in e.per_kind) for e in expected
            )
        assert scaled > 0  # some rows took a scaling bin
        assert stats.blocks == 1 + len(configs)

    def test_kernel_stats_recorded(self, spec):
        pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=13))
        configs = pipeline.plan.evaluation_configs
        pipeline.estimate_grid(configs, SIZES)
        stats = pipeline.perf.grid
        assert isinstance(stats, GridKernelStats)
        assert stats.blocks == 1
        assert stats.block_candidates == len(configs)
        assert stats.cells == len(configs) * len(SIZES)
        assert "grid" in pipeline.perf.to_dict()
        assert pipeline.perf.to_dict()["grid"]["blocks"] == 1

    def test_invalid_configuration_raises_like_scalar(self, ns_pipeline):
        bad = cfg(9, 1, 0, 0)  # more athlon PEs than the cluster has
        with pytest.raises(ConfigurationError) as scalar_err:
            ns_pipeline.estimate(bad, 4800)
        with pytest.raises(ConfigurationError) as grid_err:
            ns_pipeline.estimate_grid([cfg(1, 1, 8, 1), bad], [4800])
        assert str(grid_err.value) == str(scalar_err.value)


class TestBackendGoldenSweep:
    """Every registered backend, scalar vs grid, bitwise-equal outcomes."""

    @pytest.mark.parametrize("tag", registered_search_backends())
    def test_paper_grid(self, ns_pipeline, tag):
        for n in SIZES:
            grid = ns_pipeline.optimizer(backend=tag).optimize(n)
            scalar = strip_grid(ns_pipeline.optimizer(backend=tag), ns_pipeline).optimize(n)
            assert outcome_sig(grid) == outcome_sig(scalar)

    @pytest.mark.parametrize("tag", registered_search_backends())
    def test_synthetic_4kind(self, tag):
        problem = synthetic_problem(n_kinds=4, pes_per_kind=4, max_procs=3)
        problem.cost = synthetic_rate_card(n_kinds=4)  # prices budget-frontier
        scalar_problem = dataclasses.replace(
            problem,
            objective=grid_from_scalar(
                synthetic_estimator(synthetic_kind_params(4))
            ),
        )
        grid = create_search(tag, problem).optimize(4000)
        scalar = create_search(tag, scalar_problem).optimize(4000)
        assert outcome_sig(grid) == outcome_sig(scalar)

    def test_optimize_many_bitwise(self, ns_pipeline):
        grid = ns_pipeline.optimizer().optimize_many(SIZES)
        scalar = strip_grid(ns_pipeline.optimizer(), ns_pipeline).optimize_many(SIZES)
        for a, b in zip(grid, scalar):
            assert [(e.config.key(), e.estimate_s) for e in a.ranking] == [
                (e.config.key(), e.estimate_s) for e in b.ranking
            ]

    def test_frontier_bitwise(self, ns_pipeline):
        for budget in (None, 20):
            grid = ns_pipeline.optimizer(
                backend="budget-frontier", budget=budget
            ).frontier(6400)
            scalar = strip_grid(
                ns_pipeline.optimizer(backend="budget-frontier", budget=budget),
                ns_pipeline,
            ).frontier(6400)
            assert [
                (p.config.key(), p.time_s, p.dollars) for p in grid.points
            ] == [(p.config.key(), p.time_s, p.dollars) for p in scalar.points]
            assert grid.complete == scalar.complete

    def test_bad_grid_shape_rejected(self, ns_pipeline):
        backend = ns_pipeline.optimizer()
        backend.objective = lambda configs, ns: np.ones(
            (len(configs), len(ns) + 1)
        )
        with pytest.raises(SearchError, match="shape"):
            backend.optimize(4800)


class TestBudgetExhaustion:
    """A budget that runs out mid-frontier must cut the block short at
    the identical evaluation and report the identical best-seen state."""

    @pytest.mark.parametrize("tag", ["beam", "anneal"])
    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 8, 13, 21, 34])
    def test_mid_frontier_budget_matches_scalar(self, ns_pipeline, tag, budget):
        grid = ns_pipeline.optimizer(backend=tag, budget=budget).optimize(4800)
        scalar = strip_grid(
            ns_pipeline.optimizer(backend=tag, budget=budget), ns_pipeline
        ).optimize(4800)
        assert outcome_sig(grid) == outcome_sig(scalar)
        # The budget caps evaluations actually performed, not prefetches.
        assert grid.stats.evaluations <= budget

    @pytest.mark.parametrize("tag", ["branch-bound", "budget-frontier"])
    @pytest.mark.parametrize("budget", [3, 10, 40])
    def test_leaf_block_budget_matches_scalar(self, ns_pipeline, tag, budget):
        grid = ns_pipeline.optimizer(backend=tag, budget=budget).optimize(4800)
        scalar = strip_grid(
            ns_pipeline.optimizer(backend=tag, budget=budget), ns_pipeline
        ).optimize(4800)
        assert outcome_sig(grid) == outcome_sig(scalar)
        assert grid.stats.evaluations <= budget


class TestFrontierDedup:
    """Satellite: local searchers deduplicate frontiers before evaluation
    and count the skips — identically with and without the kernel."""

    @pytest.mark.parametrize("tag", ["greedy", "hill-climb", "anneal", "beam"])
    def test_dedup_hits_counted_and_mode_independent(self, ns_pipeline, tag):
        grid = ns_pipeline.optimizer(backend=tag).optimize(6400)
        scalar = strip_grid(ns_pipeline.optimizer(backend=tag), ns_pipeline).optimize(6400)
        assert grid.stats.dedup_hits == scalar.stats.dedup_hits
        # Revisited states exist in any real run of these searchers.
        assert grid.stats.dedup_hits > 0
        assert grid.stats.to_dict()["dedup_hits"] == grid.stats.dedup_hits

    def test_dedup_hits_reported_by_perf(self, spec):
        pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=14))
        pipeline.optimize(4800, backend="beam")
        entry = pipeline.perf.to_dict()["search_backends"]["beam"]
        assert entry["dedup_hits"] > 0
