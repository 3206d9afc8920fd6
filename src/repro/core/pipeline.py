"""End-to-end estimation pipelines: the paper's Basic / NL / NS protocols.

:class:`EstimationPipeline` wires the whole method together over a cluster
as an explicit stage graph (:mod:`repro.core.stages`):

1. ``campaign`` — run the construction campaign (:mod:`repro.measure`);
2. ``fit`` — fit the N-T and P-T models (:mod:`repro.core.model_store`);
3. ``compose`` — compose P-T models for kinds that could not be measured
   (:mod:`repro.core.composition`);
4. ``adjust`` — calibrate the linear adjustment on the designated
   calibration family (:mod:`repro.core.adjustment`);
5. ``search`` — expose a configuration estimator and an exhaustive
   optimizer through the :class:`~repro.core.estimator.Estimator` facade;
6. ``verify`` — compare against ground-truth measurements of the
   evaluation grid, producing the rows of the paper's Tables 4 / 7 / 9
   and the scatter data of Figures 6-15.

Everything is lazily computed and cached by the
:class:`~repro.core.stages.StageGraph`; a pipeline is fully determined by
``(spec, plan, PipelineConfig)`` and reproducible from its seed.  The
pipeline class itself only (a) supplies the stage context, (b) composes
per-kind estimates with the adjustment into :class:`ConfigEstimate`, and
(c) keeps the public API stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.spec import ClusterSpec
from repro.core.adjustment import LinearAdjustment
from repro.core.binning import KindEstimate, MemoryBin
from repro.core.composition import CompositionPolicy
from repro.core.model_store import ModelStore
from repro.core.search import SearchOutcome
from repro.core.stages import (
    ComposeArtifact,
    PipelineContext,
    SearchEngine,
    StageGraph,
    calibration_configs,
    calibration_size,
    default_stages,
)
from repro.errors import ModelError
from repro.hpl.driver import NoiseSpec
from repro.hpl.schedule import HPLParameters
from repro.measure.campaign import CampaignResult, Runner
from repro.measure.dataset import Dataset
from repro.measure.grids import CampaignPlan
from repro.perf.cache import EstimateCache
from repro.perf.report import PerfReport
from repro.workloads import create_workload

if TYPE_CHECKING:  # repro.cost imports the core layer, never the reverse
    from repro.cost.model import CostModel
    from repro.cost.pareto import FrontierOutcome


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of one protocol run."""

    protocol: str = "basic"
    seed: int = 0
    noise: Optional[NoiseSpec] = field(default_factory=NoiseSpec)
    hpl_params: Optional[HPLParameters] = None
    composition: CompositionPolicy = field(default_factory=CompositionPolicy)
    adjust: bool = True
    adjustment_threshold: int = 3
    #: N-T least-squares objective: "uniform" (the paper) or "relative"
    #: (weights 1/t^2 — better small-N accuracy; future-work item (3)).
    nt_weighting: str = "uniform"
    #: Problem order of the adjustment calibration family; ``None`` means
    #: the paper's choice (6400) clamped into the evaluation grid.
    calibration_n: Optional[int] = None
    memory_bins: Tuple[MemoryBin, ...] = ()
    #: Exclude construction measurements predicted to page (paper Section
    #: 3.4: memory pressure is predictable from N and P) before fitting.
    memory_guard: bool = False
    #: Classification threshold and application working-set multiple used
    #: when ``memory_guard`` is on (SUMMA keeps 3 matrices resident).
    guard_threshold: float = 1.0
    guard_footprint: float = 1.0
    #: Workload family tag (:func:`repro.workloads.registered_workloads`):
    #: picks the simulator, phase decomposition, measurement grid and
    #: memory model.  The tag is persisted with pipeline artifacts and
    #: travels through served requests and observation logs.
    workload: str = "hpl"
    #: Explicit runner override; ``None`` (the default) uses the workload
    #: family's own simulator.  Any runner with the ``run_hpl`` signature
    #: works (e.g. ``repro.exts.apps.run_summa``) — the models never look
    #: inside the application, only at its per-kind Ta/Tc measurements.
    runner: Optional[Runner] = None
    #: Process-pool width for the measurement campaigns (1 = today's
    #: serial loop; >1 fans runs out via :mod:`repro.perf.parallel`
    #: without changing any produced number — runs are independently
    #: seeded).  Requests beyond the machine's CPUs are clamped with a
    #: one-time warning.
    workers: int = 1
    #: Default search backend for :meth:`EstimationPipeline.optimize` —
    #: any tag in :func:`repro.core.search.registered_search_backends`
    #: ("exhaustive", the paper's enumeration; "branch-bound", exact with
    #: pruning; "beam"/"greedy"/"hill-climb"/"anneal", heuristic).
    #: Per-call ``backend=`` arguments override it.
    search_backend: str = "exhaustive"
    #: Rate card (:class:`repro.cost.model.CostModel`) for cost-aware
    #: optimization.  ``None`` defers to the cluster spec's own card
    #: (``spec.cost``); setting it here overrides the spec — e.g. to
    #: price a what-if scenario without editing the cluster description.
    cost: Optional["CostModel"] = None


@dataclass(frozen=True)
class ConfigEstimate:
    """Model estimate of one configuration at one problem order."""

    config: ClusterConfig
    n: int
    per_kind: Tuple[KindEstimate, ...]
    raw_total: float
    adjusted_total: float
    max_mi: int
    adjusted: bool

    @property
    def valid(self) -> bool:
        """False when any kind's model produced a non-physical prediction
        (the configuration is outside the models' trustworthy domain)."""
        return all(k.valid for k in self.per_kind)

    @property
    def total(self) -> float:
        """The estimate the optimizer consumes (adjusted when enabled).

        Invalid estimates rank *last*, not first: a model that predicts a
        non-positive time is broken for this configuration, and the search
        must not be lured by it.
        """
        if not self.valid:
            return float("inf")
        return self.adjusted_total

    def kind(self, kind_name: str) -> KindEstimate:
        for estimate in self.per_kind:
            if estimate.kind_name == kind_name:
                return estimate
        raise ModelError(f"kind {kind_name!r} not part of {self.config.label()}")


class EstimationPipeline:
    """One protocol run over one cluster."""

    def __init__(
        self,
        spec: ClusterSpec,
        config: Optional[PipelineConfig] = None,
        plan: Optional[CampaignPlan] = None,
    ):
        self.spec = spec
        self.config = config if config is not None else PipelineConfig()
        #: The workload family this pipeline measures and models.
        self.workload = create_workload(self.config.workload)
        self.plan = (
            plan if plan is not None else self.workload.plan(self.config.protocol)
        )
        #: Per-stage wall-clock + cache statistics (perf-engine layer 3).
        self.perf = PerfReport()
        ctx = PipelineContext(
            spec=self.spec,
            config=self.config,
            plan=self.plan,
            perf=self.perf,
            workload=self.workload,
            memory_ratio_fn=self._memory_ratio_for,
            candidates=lambda: list(self.plan.evaluation_configs),
        )
        self.graph = StageGraph(default_stages(), ctx)

    # -- stage 1: measurement ---------------------------------------------------

    @property
    def campaign(self) -> CampaignResult:
        """Construction measurements (runs the campaign on first access)."""
        return self.graph.get("campaign")

    @property
    def evaluation(self) -> Dataset:
        """Ground-truth measurements of the evaluation grid."""
        return self.graph.get("evaluation")

    # -- stage 2+3: models ---------------------------------------------------------

    @property
    def store(self) -> ModelStore:
        """The fitted-and-composed model store (fits on first access)."""
        return self.graph.get("compose").store

    @property
    def excluded_paging_runs(self) -> Dataset:
        """Construction measurements the memory guard kept out of the fit
        (empty when the guard is off or nothing paged)."""
        return self.graph.get("fit").excluded_paging

    @property
    def models(self):
        """The :class:`~repro.core.estimator.Estimator` facade — the one
        query surface the optimizer, cache and analyses share."""
        return self.graph.get("estimator")

    @property
    def composed_models(self) -> Dict[str, List[int]]:
        """Which (kind -> Mi list) P-T models were composed, for reporting."""
        artifact: ComposeArtifact = self.graph.get("compose")
        return dict(artifact.composed)

    # -- stage 4: adjustment ----------------------------------------------------------

    @property
    def adjustment(self) -> LinearAdjustment:
        return self.graph.get("adjust")

    def calibration_size(self) -> int:
        """The paper calibrates at N = 6400; clamp into the eval grid."""
        return calibration_size(self.plan, self.config)

    def calibration_configs(self) -> List[ClusterConfig]:
        """The calibration family: evaluation configurations that use every
        kind at full PE count and reach the adjustment threshold (the
        paper's ``M1 >= 3`` at ``P2 = 8``)."""
        return calibration_configs(self.spec, self.plan, self.config)

    # -- stage 5: estimation & optimization ----------------------------------------------

    def _memory_ratio_for(self, config: ClusterConfig, n: int, kind_name: str) -> float:
        """Worst-node memory pressure for a kind under this configuration."""
        return self.workload.memory_ratio(
            self.spec, config, n, kind_name, footprint=self.config.guard_footprint
        )

    def _estimate_raw(self, config: ClusterConfig, n: int) -> ConfigEstimate:
        config.validate_against(self.spec)
        per_kind = self.models.estimate_kinds(config, n)
        total = max(estimate.total for estimate in per_kind)
        max_mi = max(a.procs_per_pe for a in config.active)
        return ConfigEstimate(
            config=config,
            n=n,
            per_kind=per_kind,
            raw_total=total,
            adjusted_total=total,
            max_mi=max_mi,
            adjusted=False,
        )

    def estimate(self, config: ClusterConfig, n: int) -> ConfigEstimate:
        """Full estimate: per-kind model evaluation, max composition,
        linear adjustment where applicable."""
        raw = self._estimate_raw(config, n)
        adjusted_total = self.adjustment.apply(raw.raw_total, raw.max_mi)
        return replace(
            raw,
            adjusted_total=adjusted_total,
            adjusted=self.adjustment.applies_to(raw.max_mi)
            and not self.adjustment.is_identity,
        )

    def estimate_totals(self, config: ClusterConfig, ns: Sequence[int]) -> np.ndarray:
        """Adjusted totals of one configuration over problem orders,
        element-for-element bitwise ``estimate(config, n).total``: row 0 of
        a one-candidate grid-kernel block (see
        :mod:`repro.core.grid_kernel`).  Uncached; :meth:`estimate_grid`
        is the cached path."""
        return self._engine.grid_kernel.evaluate([config], ns)[0]

    @property
    def _engine(self) -> SearchEngine:
        return self.graph.get("search")

    @property
    def estimate_cache(self) -> EstimateCache:
        """Memoized ``(config, N) -> adjusted total`` store, bound to the
        current models by fingerprint (see DESIGN.md for the invalidation
        rule).  Building it forces the model fit."""
        return self._engine.estimate_cache

    def estimate_grid(
        self, configs: Sequence[ClusterConfig], ns: Sequence[int]
    ) -> np.ndarray:
        """Candidate-axis vectorized estimates: the ``(C, S)`` block of
        adjusted totals for ``configs x ns``, each cell bitwise
        ``estimate(configs[i], ns[j]).total``.  One kernel pass over
        packed model-coefficient tensors replaces ``C`` per-candidate
        evaluations (see :mod:`repro.core.grid_kernel`); cached cells are
        served from :attr:`estimate_cache`."""
        return self._engine.estimate_grid(configs, ns)

    def optimizer(
        self,
        candidates: Optional[Sequence[ClusterConfig]] = None,
        backend: Optional[str] = None,
        budget: Optional[int] = None,
        **options,
    ):
        """A ready-to-run search backend over the candidate grid
        (``backend=None`` uses the config's ``search_backend``)."""
        return self._engine.optimizer(
            candidates, backend=backend, budget=budget, **options
        )

    def optimize(
        self,
        n: int,
        backend: Optional[str] = None,
        budget: Optional[int] = None,
        max_cost: Optional[float] = None,
        alpha: Optional[float] = None,
    ) -> SearchOutcome:
        # Resolving the engine forces campaign/fit/adjust through their
        # own timed stages, so the search timing is pure search.
        return self._engine.optimize(
            n, backend=backend, budget=budget, max_cost=max_cost, alpha=alpha
        )

    def optimize_many(
        self,
        ns: Sequence[int],
        backend: Optional[str] = None,
        budget: Optional[int] = None,
        max_cost: Optional[float] = None,
        alpha: Optional[float] = None,
    ) -> List[SearchOutcome]:
        """Rank the candidate grid at every size in one batched search —
        the fast path for sweeps and what-if studies."""
        return self._engine.optimize_many(
            ns, backend=backend, budget=budget, max_cost=max_cost, alpha=alpha
        )

    # -- cost axis ----------------------------------------------------------------

    @property
    def cost_model(self) -> Optional["CostModel"]:
        """The rate card in effect: the pipeline config's, else the
        cluster spec's, else ``None`` (unpriced)."""
        if self.config.cost is not None:
            return self.config.cost
        return self.spec.cost

    def pareto(
        self,
        n: int,
        budget: Optional[int] = None,
        max_cost: Optional[float] = None,
    ) -> "FrontierOutcome":
        """The exact (time, dollars) Pareto frontier over the candidate
        grid at order ``n`` (restricted to ``dollars <= max_cost`` when
        given).  Uses the ``budget-frontier`` backend; an unpriced
        pipeline still works — the frontier then degenerates to the
        minimum-time point."""
        return self._engine.pareto(n, budget=budget, max_cost=max_cost)

    def pareto_many(
        self,
        ns: Sequence[int],
        budget: Optional[int] = None,
        max_cost: Optional[float] = None,
    ) -> List["FrontierOutcome"]:
        """One frontier per size (the serve layer's batched ``pareto`` op)."""
        return self._engine.pareto_many(ns, budget=budget, max_cost=max_cost)

    # -- stage 6: verification --------------------------------------------------------------

    def measured_time(self, config: ClusterConfig, n: int) -> float:
        return self.graph.get("verify").measured_time(config, n)

    def actual_best(self, n: int) -> Tuple[ClusterConfig, float]:
        """Ground-truth optimum over the evaluation grid at order ``n``."""
        return self.graph.get("verify").actual_best(n)
