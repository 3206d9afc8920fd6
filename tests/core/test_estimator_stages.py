"""Unit tests for the Estimator facade and the pipeline stage graph."""

import pytest

from repro.cluster.presets import kishimoto_cluster
from repro.core.estimator import Estimator, MemoryBin, UnifiedBackend
from repro.core.pipeline import EstimationPipeline, PipelineConfig
from repro.core.stages import PipelineContext, Stage, StageGraph
from repro.errors import ModelError
from repro.perf.report import PerfReport


@pytest.fixture(scope="module")
def pipeline():
    return EstimationPipeline(
        kishimoto_cluster(), PipelineConfig(protocol="ns", seed=3)
    )


class TestEstimatorFacade:
    def test_models_is_the_facade(self, pipeline):
        assert isinstance(pipeline.models, Estimator)
        assert pipeline.models is pipeline.graph.get("estimator")

    def test_models_iterates_every_fitted_model(self, pipeline):
        assert len(list(pipeline.models.models())) == pipeline.store.model_count

    def test_select_routes_by_figure_5(self, pipeline):
        label_single, _ = pipeline.models.select("pentium2", 2, 2)
        label_multi, _ = pipeline.models.select("pentium2", 8, 1)
        assert label_single == "nt"
        assert label_multi == "pt"
        with pytest.raises(ModelError, match="impossible query"):
            pipeline.models.select("pentium2", 1, 2)

    def test_estimate_total_inf_when_any_kind_invalid(self, pipeline):
        facade = pipeline.models
        for config in pipeline.plan.evaluation_configs:
            per_kind = facade.estimate_kinds(config, 9600)
            total = facade.estimate_total(config, 9600)
            if all(k.valid for k in per_kind):
                assert total == max(k.total for k in per_kind)
            else:
                assert total == float("inf")

    def test_fingerprint_tracks_models_and_bins(self, pipeline):
        base = pipeline.models.fingerprint()
        assert base == pipeline.models.fingerprint()  # stable
        with_bins = Estimator.for_store(
            pipeline.store, memory_bins=[MemoryBin(max_ratio=1.0)]
        )
        assert with_bins.fingerprint() != base

    def test_memory_bins_must_ascend(self, pipeline):
        with pytest.raises(ModelError, match="ascending"):
            Estimator.for_store(
                pipeline.store,
                memory_bins=[MemoryBin(max_ratio=2.0), MemoryBin(max_ratio=1.0)],
            )

    def test_unified_backend_requires_models(self):
        with pytest.raises(ModelError, match="no unified models"):
            UnifiedBackend({})


class TestStageGraph:
    def _graph(self, stages):
        ctx = PipelineContext(
            spec=None,
            config=None,
            plan=None,
            perf=PerfReport(),
            memory_ratio_fn=lambda c, n, k: 0.0,
            candidates=list,
        )
        return StageGraph(stages, ctx)

    def _stage(self, name, deps=(), builds=None, invalidates=False, timed=True):
        calls = []

        class _S(Stage):
            invalidates_estimates = invalidates

            def requires(self, ctx):
                return tuple(deps)

            def timed(self, ctx):
                return timed

            def build(self, ctx):
                calls.append(name)
                return builds if builds is not None else name

        _S.name = name
        stage = _S()
        stage.calls = calls
        return stage

    def test_builds_once_dependencies_first(self):
        a = self._stage("a")
        b = self._stage("b", deps=("a",))
        graph = self._graph([a, b])
        assert graph.get("b") == "b"
        assert graph.get("b") == "b"
        assert a.calls == ["a"] and b.calls == ["b"]

    def test_dependency_time_not_billed_to_dependent(self):
        import time

        class Slow(Stage):
            name = "slow"

            def build(self, ctx):
                time.sleep(0.05)
                return "slow"

        class Fast(Stage):
            name = "fast"

            def requires(self, ctx):
                return ("slow",)

            def build(self, ctx):
                return "fast"

        graph = self._graph([Slow(), Fast()])
        graph.get("fast")
        perf = graph.ctx.perf
        assert perf.stage_seconds("slow") >= 0.05
        assert perf.stage_seconds("fast") < 0.05

    def test_untimed_stage_records_nothing(self):
        graph = self._graph([self._stage("quiet", timed=False)])
        graph.get("quiet")
        assert graph.ctx.perf.stage_calls("quiet") == 0

    def test_set_drops_downstream_and_fires_hooks(self):
        a = self._stage("a", invalidates=True)
        b = self._stage("b", deps=("a",))
        graph = self._graph([a, b])
        graph.get("b")
        fired = []
        graph.on_invalidate(fired.append)
        graph.set("a", "replacement")
        assert fired == ["a"]
        assert not graph.has("b")
        assert graph.get("a") == "replacement"
        assert graph.get("b") == "b"
        assert b.calls == ["b", "b"]  # rebuilt against the injected artifact

    def test_invalidate_cascades_transitively(self):
        a = self._stage("a", invalidates=True)
        b = self._stage("b", deps=("a",))
        c = self._stage("c", deps=("b",))
        graph = self._graph([a, b, c])
        graph.get("c")
        graph.invalidate("a")
        assert not graph.has("a") and not graph.has("b") and not graph.has("c")

    def test_cycles_are_reported(self):
        a = self._stage("a", deps=("b",))
        b = self._stage("b", deps=("a",))
        graph = self._graph([a, b])
        with pytest.raises(RuntimeError, match="dependency cycle"):
            graph.get("a")

    def test_unknown_stage_is_reported(self):
        graph = self._graph([self._stage("a")])
        with pytest.raises(KeyError, match="unknown stage 'z'"):
            graph.get("z")


class TestPipelineGraphIntegration:
    def test_adjust_off_skips_evaluation_and_timing(self):
        pipeline = EstimationPipeline(
            kishimoto_cluster(),
            PipelineConfig(protocol="ns", seed=3, adjust=False),
        )
        assert pipeline.adjustment.is_identity
        assert not pipeline.graph.has("evaluation")
        assert pipeline.perf.stage_calls("adjust") == 0

    def test_injecting_models_invalidates_search_engine(self, pipeline):
        pipeline.optimize(3200)
        old_cache = pipeline.estimate_cache
        fired = []
        pipeline.graph.on_invalidate(fired.append)
        pipeline.graph.set("compose", pipeline.graph.get("compose"))
        assert fired == ["compose"]
        assert pipeline.estimate_cache is not old_cache
