"""The calibration loop's front object: ingest → detect → refit → promote.

:class:`Calibrator` owns one model's loop state: the observation log, the
residual tracker, the drift detector, and (optionally) the version
ledger.  It deliberately does **not** import the serve layer — promotion
talks to the registry through a duck-typed ``promote(name, directory)``
hook, so ``repro.calibrate`` sits beside ``repro.serve`` in the import
graph rather than on top of it, and the loop is equally usable from the
CLI, from tests, or embedded in the estimation service.

The incumbent pipeline is supplied by a ``pipeline_provider`` callable
rather than held directly: when the serve registry hot-swaps its entry,
the provider resolves to the *new* generation and residuals are scored
against what is actually being served.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite
from typing import Callable, Dict, Optional, Tuple

from repro.core.pipeline import EstimationPipeline
from repro.errors import CalibrationError, ReproError
from repro.measure.dataset import Dataset
from repro.measure.record import MeasurementRecord
from repro.perf.report import PerfReport
from repro.calibrate.drift import (
    DriftDetector,
    DriftState,
    ResidualTracker,
)
from repro.calibrate.observations import ObservationLog
from repro.calibrate.recalibrate import Recalibrator, ShadowReport
from repro.calibrate.versions import ModelVersions, VersionInfo


@dataclass(frozen=True)
class IngestResult:
    """What one ingested observation did to the loop state."""

    seq: int
    source: str
    observed: float
    predicted: Optional[float]
    residual: Optional[float]
    per_kind: Dict[str, float]
    drift: DriftState

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "source": self.source,
            "observed": self.observed,
            "predicted": self.predicted,
            "residual": self.residual,
            "per_kind": dict(self.per_kind),
            "drift": self.drift.to_dict(),
        }


class Calibrator:
    """Online calibration loop for one served model."""

    def __init__(
        self,
        name: str,
        pipeline_provider: Callable[[], EstimationPipeline],
        log: Optional[ObservationLog] = None,
        detector: Optional[DriftDetector] = None,
        versions: Optional[ModelVersions] = None,
        recalibrator: Optional[Recalibrator] = None,
        perf: Optional[PerfReport] = None,
        metrics=None,
    ):
        self.name = name
        self._provider = pipeline_provider
        self.log = log if log is not None else ObservationLog()
        self.detector = detector if detector is not None else DriftDetector()
        self.versions = versions
        self.recalibrator = (
            recalibrator if recalibrator is not None else Recalibrator()
        )
        self.perf = perf if perf is not None else PerfReport()
        #: Serve-layer counters (``ServeMetrics``-shaped: attributes
        #: ``observations``/``drift_alarms``/``promotions``/``rollbacks``);
        #: ``None`` outside the service.
        self.metrics = metrics
        self.tracker = ResidualTracker()
        #: Observations that could not be scored (prediction outside the
        #: model domain) — logged but not folded into drift state.
        self.skipped = 0
        #: What the last registry promotion/rollback hook reported.  A
        #: plain ``ModelRegistry`` returns an entry (recorded as its
        #: fingerprint); a ``FleetSupervisor`` returns its fan-out dict
        #: (replicas reached, transaction id), kept verbatim.
        self.last_promotion = None

    @property
    def pipeline(self) -> EstimationPipeline:
        return self._provider()

    # -- ingestion ----------------------------------------------------------

    def ingest(
        self, record: MeasurementRecord, source: str = "live"
    ) -> IngestResult:
        """Score one observed run, log it, and fold its residual into the
        loop.

        Scoring comes first: a run whose residual is not finite raises
        :class:`CalibrationError` before anything reaches the durable log,
        so a bad observation cannot break later replays.  The logged row
        carries the owning pipeline's workload tag, so a replayed log
        knows which family's simulator produced each run."""
        with self.perf.stage("ingest"):
            scored = self._score(record, len(self.log), source)
            self.log.append(
                record, source=source,
                workload=self.pipeline.config.workload,
            )
            result = self._absorb(scored)
        return result

    def replay_dataset(self, dataset: Dataset, source: str = "dataset") -> list:
        """Ingest a whole campaign/replay dataset in record order."""
        return [self.ingest(record, source=source) for record in dataset]

    def replay_log(self) -> list:
        """Rebuild tracker/detector state from an existing log without
        re-appending — how a restarted loop resumes deterministically."""
        self.tracker.reset()
        self.detector.reset()
        self.skipped = 0
        results = []
        with self.perf.stage("ingest"):
            for observation in self.log:
                scored = self._score(
                    observation.record, observation.seq, observation.source
                )
                results.append(self._absorb(scored, count_metric=False))
        return results

    def _score(
        self, record: MeasurementRecord, seq: int, source: str
    ) -> IngestResult:
        pipeline = self.pipeline
        predicted: Optional[float] = None
        residual: Optional[float] = None
        per_kind: Dict[str, float] = {}
        try:
            estimate = pipeline.estimate(record.config(), record.n)
        except ReproError:
            estimate = None
        if estimate is not None and estimate.valid and isfinite(estimate.total):
            predicted = estimate.total
            residual = (record.wall_time_s - predicted) / predicted
            for km in record.per_kind:
                if km.pe_count == 0:
                    continue
                kind_estimate = estimate.kind(km.kind_name)
                if kind_estimate.valid and kind_estimate.total > 0:
                    per_kind[km.kind_name] = (
                        (km.total - kind_estimate.total) / kind_estimate.total
                    )
        residuals = [] if residual is None else [residual, *per_kind.values()]
        if not all(isfinite(value) for value in residuals):
            raise CalibrationError(
                f"observation {seq} ({record.label} at N={record.n}) gives "
                f"a non-finite residual against prediction {predicted!r}"
            )
        return IngestResult(
            seq=seq,
            source=source,
            observed=record.wall_time_s,
            predicted=predicted,
            residual=residual,
            per_kind=per_kind,
            drift=self.detector.state,
        )

    def _absorb(self, result: IngestResult, count_metric: bool = True) -> IngestResult:
        if result.residual is None:
            self.skipped += 1
            if count_metric and self.metrics is not None:
                self.metrics.observations += 1
            return result
        was_drifted = self.detector.drifted
        drift = self.detector.update(result.residual)
        self.tracker.update_total(result.residual)
        record = self.log[result.seq].record
        for km in record.per_kind:
            if km.kind_name in result.per_kind:
                self.tracker.update_family(
                    km.kind_name, km.procs_per_pe, result.per_kind[km.kind_name]
                )
        if count_metric and self.metrics is not None:
            self.metrics.observations += 1
            if drift.drifted and not was_drifted:
                self.metrics.drift_alarms += 1
        return replace(result, drift=drift)

    # -- status -------------------------------------------------------------

    @property
    def drifted(self) -> bool:
        return self.detector.drifted

    def status(self) -> Dict[str, object]:
        info: Dict[str, object] = {
            "name": self.name,
            "workload": self.pipeline.config.workload,
            "fingerprint": self.pipeline.estimate_cache.fingerprint,
            "observations": len(self.log),
            "skipped": self.skipped,
            "sources": self.log.sources(),
            "drift": self.detector.state.to_dict(),
            "residuals": self.tracker.to_dict(),
        }
        if self.versions is not None:
            info["versions"] = {
                "active": self.versions.active_id,
                "previous": self.versions.previous_id,
                "count": len(self.versions),
            }
        if self.last_promotion is not None:
            info["last_promotion"] = self.last_promotion
        return info

    # -- refit / promote / rollback ----------------------------------------

    def _require_versions(self) -> ModelVersions:
        if self.versions is None:
            raise CalibrationError(
                f"calibrator {self.name!r} has no version ledger "
                "(pass versions=ModelVersions(...))"
            )
        return self.versions

    def _ensure_seed_version(self) -> None:
        """Register the currently served pipeline as v0001 (promoted) when
        the ledger is empty, so every later candidate has a parent."""
        versions = self._require_versions()
        if len(versions) == 0:
            versions.add(self.pipeline, parent_fingerprint=None, status="promoted")

    def refit(self) -> Tuple[VersionInfo, ShadowReport]:
        """Build a candidate from the log, shadow-score it against the
        incumbent, and record it in the ledger (as ``candidate`` — the
        promotion decision stays explicit)."""
        versions = self._require_versions()
        self._ensure_seed_version()
        fit_observations, holdout = self.recalibrator.split(self.log.observations)
        incumbent = self.pipeline
        with self.perf.stage("refit"):
            candidate = self.recalibrator.build_candidate(
                incumbent, fit_observations
            )
        with self.perf.stage("shadow"):
            shadow = self.recalibrator.shadow_evaluate(
                candidate.pipeline, incumbent, holdout
            )
        info = versions.add(
            candidate.pipeline,
            parent_fingerprint=candidate.parent_fingerprint,
            fit_window={
                "start_seq": candidate.fit_start_seq,
                "end_seq": candidate.fit_end_seq,
                "observations": candidate.fit_observations,
                "superseded_seed_records": candidate.superseded_seed_records,
            },
            residuals=self.tracker.to_dict(),
            shadow=shadow.to_dict(),
            status="candidate",
        )
        return info, shadow

    def _activate(self, info: VersionInfo, registry=None) -> VersionInfo:
        """Post-(promote|rollback) bookkeeping shared by both directions:
        swap the serving entry and reset drift state (the residual stream
        now describes a dead generation)."""
        versions = self._require_versions()
        if registry is not None:
            outcome = registry.promote(
                self.name, versions.directory(info.version_id)
            )
            # Duck-typed hook: a fleet supervisor reports its fan-out as a
            # dict, a plain registry returns the swapped entry.
            if isinstance(outcome, dict):
                self.last_promotion = outcome
            elif outcome is not None:
                self.last_promotion = {
                    "pipeline": self.name,
                    "fingerprint": getattr(outcome, "fingerprint", None),
                    "replicas": 1,
                }
        self.detector.reset()
        self.tracker.reset()
        self.skipped = 0
        return info

    def promote(self, version_id: Optional[str] = None, registry=None) -> VersionInfo:
        """Activate a ledger version (default: the newest candidate) and,
        when a registry is given, hot-swap the serving entry."""
        versions = self._require_versions()
        if version_id is None:
            candidates = [
                v for v in versions.history() if v.status == "candidate"
            ]
            if not candidates:
                raise CalibrationError("no candidate version to promote")
            version_id = candidates[-1].version_id
        with self.perf.stage("promote"):
            info = self._activate(versions.promote(version_id), registry)
        if self.metrics is not None:
            self.metrics.promotions += 1
        return info

    def rollback(self, registry=None) -> VersionInfo:
        """Re-promote the previous generation (bad promotion escape hatch)."""
        versions = self._require_versions()
        with self.perf.stage("promote"):
            info = self._activate(versions.rollback(), registry)
        if self.metrics is not None:
            self.metrics.rollbacks += 1
        return info
