"""Batched/cached estimation engine: ``optimize_many``, the estimate
cache, the ``estimate_for`` index and the pipeline perf report."""

import pytest

from repro.cluster.config import ClusterConfig
from repro.core.binning import MemoryBin
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.core.search import ExhaustiveOptimizer, grid_from_scalar
from repro.errors import SearchError
from repro.measure.grids import PAPER_KINDS


def cfg(p1, m1, p2, m2):
    return ClusterConfig.from_tuple(PAPER_KINDS, (p1, m1, p2, m2))


SIZES = (1600, 3200, 4800, 6400, 8000, 9600)


class TestOptimizeMany:
    def test_matches_looped_optimize_bitwise(self, ns_pipeline):
        looped = [ns_pipeline.optimizer().optimize(n) for n in SIZES]
        batched = ns_pipeline.optimize_many(SIZES)
        assert len(batched) == len(SIZES)
        for a, b in zip(looped, batched):
            assert b.n == a.n
            assert [e.config.key() for e in b.ranking] == [
                e.config.key() for e in a.ranking
            ]
            # bitwise, not approximately: the batched path must evaluate
            # the very same arithmetic per element
            assert [e.estimate_s for e in b.ranking] == [
                e.estimate_s for e in a.ranking
            ]

    def test_single_size_matches(self, nl_pipeline):
        (batched,) = nl_pipeline.optimize_many([6400])
        scalar = nl_pipeline.optimizer().optimize(6400)
        assert batched.best.config.key() == scalar.best.config.key()
        assert batched.best.estimate_s == scalar.best.estimate_s

    def test_empty_sizes_rejected(self, ns_pipeline):
        with pytest.raises(SearchError):
            ns_pipeline.optimize_many([])

    def test_invalid_value_message_matches_scalar_path(self):
        """optimize(n) and a sweep containing n fail identically, on the
        first invalid candidate of the size that has one."""
        candidates = [cfg(1, 1, 0, 0), cfg(1, 2, 0, 0)]
        optimizer = ExhaustiveOptimizer(
            grid_from_scalar(lambda config, n: -1.0 if n == 400 else 1.0),
            candidates,
        )
        with pytest.raises(SearchError) as scalar_err:
            optimizer.optimize(400)
        with pytest.raises(SearchError) as batched_err:
            optimizer.optimize_many([200, 400])
        assert str(scalar_err.value) == str(batched_err.value)


class TestEstimateTotals:
    def test_matches_scalar_estimates(self, nl_pipeline):
        for config in (cfg(1, 3, 8, 1), cfg(0, 0, 4, 1), cfg(1, 1, 0, 0)):
            totals = nl_pipeline.estimate_totals(config, SIZES)
            expected = [nl_pipeline.estimate(config, n).total for n in SIZES]
            assert totals.tolist() == expected

    def test_memory_bins_batched_matches_scalar(self, spec):
        pipeline = EstimationPipeline(
            spec,
            PipelineConfig(
                protocol="nl",
                seed=11,
                memory_bins=(
                    MemoryBin(max_ratio=0.5, label="fits"),
                    MemoryBin(max_ratio=2.0, ta_scale=1.4, tc_scale=1.1, label="pages"),
                ),
            ),
        )
        config = cfg(1, 2, 8, 1)
        totals = pipeline.estimate_totals(config, SIZES)
        expected = [pipeline.estimate(config, n).total for n in SIZES]
        assert totals.tolist() == expected


class TestEstimateCache:
    def test_cold_then_warm_sweep(self, spec):
        pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=11))
        sizes = list(SIZES)
        first = pipeline.optimize_many(sizes)
        stats = pipeline.estimate_cache.stats
        assert stats.hits == 0
        assert stats.misses == len(pipeline.plan.evaluation_configs) * len(sizes)
        second = pipeline.optimize_many(sizes)
        assert stats.hits == len(pipeline.plan.evaluation_configs) * len(sizes)
        for a, b in zip(first, second):
            assert [e.estimate_s for e in a.ranking] == [
                e.estimate_s for e in b.ranking
            ]

    def test_cached_scalar_estimator_matches_uncached(self, ns_pipeline):
        """A single cell through the cached grid objective — how search
        backends evaluate one unprefetched state — equals the uncached
        estimate, cold and warm."""
        config = cfg(1, 2, 8, 1)
        plain = ns_pipeline.estimate(config, 4800).total
        for _ in range(2):  # cold fill, then warm hit
            assert ns_pipeline.estimate_grid([config], [4800])[0, 0] == plain

    def test_fingerprint_tracks_models(self, spec):
        same_a = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=11))
        same_b = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=11))
        other = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=12))
        assert same_a.estimate_cache.fingerprint == same_b.estimate_cache.fingerprint
        assert same_a.estimate_cache.fingerprint != other.estimate_cache.fingerprint


class TestEstimateForIndex:
    def test_lookup_and_missing(self, ns_pipeline):
        outcome = ns_pipeline.optimize(4800)
        for entry in outcome.ranking[:5]:
            assert outcome.estimate_for(entry.config) == entry.estimate_s
        # M2=2 is outside the evaluation grid (it sweeps M2=1 only)
        with pytest.raises(SearchError, match="not a candidate"):
            outcome.estimate_for(cfg(1, 1, 8, 2))

    def test_equivalent_config_forms_resolve(self, ns_pipeline):
        outcome = ns_pipeline.optimize(4800)
        entry = outcome.ranking[0]
        flat = ClusterConfig.from_tuple(
            PAPER_KINDS, entry.config.as_flat_tuple(PAPER_KINDS)
        )
        assert outcome.estimate_for(flat) == entry.estimate_s


class TestPerfReport:
    def test_pipeline_records_stages(self, spec):
        pipeline = EstimationPipeline(spec, PipelineConfig(protocol="ns", seed=11))
        pipeline.optimize_many(SIZES)
        report = pipeline.perf
        for stage in ("campaign", "evaluation", "fit", "compose", "adjust", "search"):
            assert report.stage_calls(stage) >= 1, stage
            assert report.stage_seconds(stage) >= 0.0
        assert report.cache is pipeline.estimate_cache
        text = report.render()
        assert "campaign" in text and "cache:" in text
