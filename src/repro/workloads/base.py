"""The type-tagged :class:`Workload` protocol and its registry.

A *workload family* bundles everything the estimation pipeline needs to
know about one phase-structured parallel application:

* the deterministic simulator entry points (scalar + vectorized batch
  runner, same signatures as :func:`repro.hpl.driver.run_hpl` /
  :func:`~repro.hpl.driver.run_hpl_batch`);
* the phase decomposition used for fitting (a phase-vector class, see
  :mod:`repro.workloads.phases`);
* the measurement-grid shape (a :class:`~repro.measure.grids.CampaignPlan`
  per protocol name);
* the memory-footprint model feeding the memory guard;
* the per-workload grid-kernel estimator hook used by the search stage.

Tags are serializable strings stored in pipeline artifacts and served
requests.  The registry mirrors the PR-2 model registry
(:mod:`repro.core.model_api`) and the PR-7 search registry:
``@register_workload("tag")`` on the class, :func:`create_workload` to
resolve, unknown tags raise :class:`~repro.errors.ModelError` naming the
known tags.  Unlike model classes, workloads are stateless singletons —
the registry stores one shared instance per tag.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple, Type

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.errors import ModelError, SimulationError
from repro.measure.grids import CampaignPlan
from repro.rng import stream

_WORKLOADS: Dict[str, "Workload"] = {}


def register_workload(tag: str) -> Callable[[Type["Workload"]], Type["Workload"]]:
    """Class decorator registering a :class:`Workload` under ``tag``.

    Sets ``cls.tag`` and stores a singleton instance.  Re-registering the
    same class is a no-op (idempotent re-imports); a different class under
    an existing tag is an error.
    """

    def decorate(cls: Type["Workload"]) -> Type["Workload"]:
        existing = _WORKLOADS.get(tag)
        if existing is not None and type(existing) is not cls:
            raise ModelError(f"workload tag {tag!r} already registered")
        cls.tag = tag
        _WORKLOADS[tag] = cls()
        return cls

    return decorate


def create_workload(tag: str) -> "Workload":
    """Resolve a workload tag to its shared instance.

    Raises :class:`~repro.errors.ModelError` for unknown tags, listing
    what *is* registered — the error a stale artifact or a typoed
    ``--workload`` surfaces as.
    """
    try:
        return _WORKLOADS[tag]
    except KeyError:
        known = ", ".join(sorted(_WORKLOADS)) or "none"
        raise ModelError(f"unknown workload {tag!r} (known: {known})") from None


def registered_workloads() -> Tuple[str, ...]:
    """Sorted tuple of registered workload tags."""
    return tuple(sorted(_WORKLOADS))


def iter_workloads() -> Tuple[Tuple[str, "Workload"], ...]:
    """``(tag, workload)`` pairs in sorted tag order (CLI inventory)."""
    return tuple(sorted(_WORKLOADS.items()))


class Workload:
    """Base class for workload families.

    Subclasses override the hooks below; the defaults implement the
    behavior shared by every family (no memory pressure, the standard
    grid kernel).  ``tag`` is set by :func:`register_workload`;
    ``display`` is a short human-readable family name.
    """

    tag: str = ""
    display: str = ""
    #: The family's phase-vector class (duck-compatible with
    #: :class:`repro.hpl.timing.PhaseTimes`).
    phase_class: type = None  # type: ignore[assignment]

    # -- phase decomposition ------------------------------------------------

    @property
    def phase_names(self) -> Tuple[str, ...]:
        return tuple(self.phase_class.PHASE_NAMES)

    @property
    def compute_phases(self) -> Tuple[str, ...]:
        return tuple(self.phase_class.COMPUTE_PHASES)

    @property
    def comm_phases(self) -> Tuple[str, ...]:
        return tuple(self.phase_class.COMM_PHASES)

    # -- simulator entry points ---------------------------------------------

    def runner(self) -> Callable:
        """The scalar run function (``run_hpl``-shaped)."""
        raise NotImplementedError

    def batch_runner(self) -> Callable:
        """The vectorized batch run function (``run_hpl_batch``-shaped)."""
        raise NotImplementedError

    # -- measurement grid ---------------------------------------------------

    def plan(self, protocol: str) -> CampaignPlan:
        """The measurement plan for a protocol name (``basic``/``nl``/``ns``)."""
        raise NotImplementedError

    # -- memory model -------------------------------------------------------

    def memory_ratio(
        self,
        spec,
        config: ClusterConfig,
        n: int,
        kind_name: str,
        footprint: float = 1.0,
    ) -> float:
        """Worst-node memory-pressure ratio for the guard; 0.0 = no model."""
        return 0.0

    # -- inventory ----------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        """Serializable inventory entry (``repro workloads``)."""
        plan = self.plan("basic")
        return {
            "tag": self.tag,
            "display": self.display,
            "phases": list(self.phase_names),
            "compute_phases": list(self.compute_phases),
            "comm_phases": list(self.comm_phases),
            "construction_sizes": [int(n) for n in plan.construction_sizes],
            "evaluation_sizes": [int(n) for n in plan.evaluation_sizes],
            "construction_configs": len(plan.construction_configs),
            "evaluation_configs": len(plan.evaluation_configs),
        }


# -- shared simulator helpers --------------------------------------------------


def noise_rows(
    label: str,
    config: ClusterConfig,
    sizes: Sequence[int],
    trials: Sequence[int],
    noise,
    seed: int,
):
    """Per-run log-normal noise rows, one independent stream per row.

    The exact draw order of :func:`repro.hpl.driver.run_hpl` with the
    family's own stream ``label``: compute jitter, comm jitter, then the
    outlier roll — so a batched run is bit-identical to per-run ones.
    Returns ``(compute_rows, comm_rows)`` of shape ``(len(sizes), P)``, or
    ``(None, None)`` when noise is disabled.
    """
    if noise is None or not noise.enabled:
        return None, None
    p = config.total_processes
    compute_rows = np.empty((len(sizes), p))
    comm_rows = np.empty((len(sizes), p))
    for i, (n, trial) in enumerate(zip(sizes, trials)):
        rng = stream(seed, label, config.key(), n, trial)
        compute = np.exp(rng.normal(0.0, noise.sigma_compute, size=p))
        comm = np.exp(rng.normal(0.0, noise.sigma_comm, size=p))
        if noise.outlier_probability > 0 and rng.random() < noise.outlier_probability:
            compute = compute * noise.outlier_factor
            comm = comm * noise.outlier_factor
        compute_rows[i] = compute
        comm_rows[i] = comm
    return compute_rows, comm_rows


def normalize_trials(sizes: Sequence[int], trial) -> List[int]:
    """Expand a batch's ``trial`` argument (int or per-entry sequence)."""
    if isinstance(trial, (int, np.integer)):
        return [int(trial)] * len(sizes)
    trials = [int(t) for t in trial]
    if len(trials) != len(sizes):
        raise SimulationError(f"{len(sizes)} sizes but {len(trials)} trial indices")
    return trials


class WorkloadResult:
    """One simulated measurement of a non-HPL workload family.

    Carries per-process phase arrays plus the rank→kind map, and exposes
    the duck interface the measurement layer consumes
    (:meth:`~repro.measure.record.MeasurementRecord.from_result`):
    ``config`` / ``n`` / ``total_processes`` / ``wall_time_s`` /
    ``gflops`` / ``kind_phases`` / ``kind_names`` / ``bottleneck_kind``.
    """

    def __init__(
        self,
        spec_name: str,
        config: ClusterConfig,
        n: int,
        wall_time_s: float,
        phase_arrays: Dict[str, np.ndarray],
        rank_kinds: Sequence[str],
        phase_class: type,
        benchmark_flops: float,
    ) -> None:
        self.spec_name = spec_name
        self.config = config
        self.n = int(n)
        self.wall_time_s = float(wall_time_s)
        self.phase_arrays = phase_arrays
        self.rank_kinds = tuple(rank_kinds)
        self.phase_class = phase_class
        self.benchmark_flops = float(benchmark_flops)

    @property
    def total_processes(self) -> int:
        return len(self.rank_kinds)

    @property
    def gflops(self) -> float:
        from repro.units import gflops as to_gflops

        return to_gflops(self.benchmark_flops, self.wall_time_s)

    def kind_names(self) -> List[str]:
        seen: List[str] = []
        for name in self.rank_kinds:
            if name not in seen:
                seen.append(name)
        return seen

    def kind_phases(self, kind_name: str):
        """Mean phase breakdown over the processes of one kind."""
        mask = np.array([k == kind_name for k in self.rank_kinds])
        if not mask.any():
            raise SimulationError(
                f"kind {kind_name!r} has no processes in config {self.config.label()}"
            )
        return self.phase_class(
            **{
                name: float(values[mask].mean())
                for name, values in self.phase_arrays.items()
            }
        )

    def bottleneck_kind(self) -> str:
        return max(self.kind_names(), key=lambda k: self.kind_phases(k).total)
