"""Top-level HPL run driver: the simulated ``xhpl`` binary.

:func:`run_hpl` executes one simulated HPL run and returns an
:class:`HPLResult` carrying everything a measurement campaign records:
wall time, the reported Gflops, and the per-process / per-kind detailed
timing breakdown that the estimation models are fitted to.

Noise injection lives here (not in the schedule walker) so that a single
``(seed, config, N, trial)`` tuple reproducibly determines a measurement —
the property the model-fitting layer and all tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.cluster.config import ClusterConfig
from repro.cluster.spec import ClusterSpec
from repro.errors import SimulationError
from repro.hpl.schedule import (
    HPLParameters,
    ScheduleResult,
    simulate_schedule_batch,
)
from repro.hpl.timing import PhaseTimes, ProcessTiming, aggregate_mean
from repro.hpl.workload import hpl_benchmark_flops
from repro.rng import stream
from repro.units import gflops


@dataclass(frozen=True)
class NoiseSpec:
    """Measurement-noise model: log-normal jitter plus rare outliers.

    ``sigma_compute`` perturbs per-process computation rates and
    ``sigma_comm`` the communication costs; both default to the ~1.5%
    run-to-run variation typical of a dedicated paper-era cluster.

    ``outlier_probability`` injects whole-run slowdowns (a cron job, an
    NFS stall, another user's stray process): with this probability a run
    is uniformly ``outlier_factor`` x slower.  Repeated trials with robust
    aggregation (:mod:`repro.measure.trials`) are the standard defence.
    """

    sigma_compute: float = 0.015
    sigma_comm: float = 0.03
    outlier_probability: float = 0.0
    outlier_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.sigma_compute < 0 or self.sigma_comm < 0:
            raise SimulationError("noise sigmas must be >= 0")
        if not (0.0 <= self.outlier_probability <= 1.0):
            raise SimulationError("outlier_probability must be in [0, 1]")
        if self.outlier_factor < 1.0:
            raise SimulationError("outlier_factor must be >= 1")

    @property
    def enabled(self) -> bool:
        return (
            self.sigma_compute > 0
            or self.sigma_comm > 0
            or self.outlier_probability > 0
        )


@dataclass
class HPLResult:
    """One simulated HPL measurement."""

    spec_name: str
    config: ClusterConfig
    n: int
    schedule: ScheduleResult

    @property
    def wall_time_s(self) -> float:
        return self.schedule.wall_time_s

    @property
    def gflops(self) -> float:
        """The figure HPL prints: benchmark flops over wall time."""
        return gflops(hpl_benchmark_flops(self.n), self.wall_time_s)

    @property
    def total_processes(self) -> int:
        return self.schedule.size

    def process_timings(self) -> List[ProcessTiming]:
        return self.schedule.all_timings()

    def kind_names(self) -> List[str]:
        seen: List[str] = []
        for slot in self.schedule.slots:
            if slot.kind.name not in seen:
                seen.append(slot.kind.name)
        return seen

    def kind_phases(self, kind_name: str) -> PhaseTimes:
        """Mean phase breakdown over the processes of one kind.

        The paper models the per-PE time ``Ti`` of each kind; processes of
        a kind are statistically identical under the paper's assumptions,
        so the mean is the natural per-kind measurement.
        """
        phases = [
            t.phases for t in self.process_timings() if t.kind_name == kind_name
        ]
        if not phases:
            raise SimulationError(
                f"kind {kind_name!r} has no processes in config {self.config.label()}"
            )
        return aggregate_mean(phases)

    def kind_ta(self, kind_name: str) -> float:
        return self.kind_phases(kind_name).ta

    def kind_tc(self, kind_name: str) -> float:
        return self.kind_phases(kind_name).tc

    def bottleneck_kind(self) -> str:
        """Kind whose mean busy time is largest (drives the wall time)."""
        return max(self.kind_names(), key=lambda k: self.kind_phases(k).total)


def run_hpl(
    spec: ClusterSpec,
    config: ClusterConfig,
    n: int,
    params: Optional[HPLParameters] = None,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    trial: int = 0,
) -> HPLResult:
    """Run one simulated HPL measurement.

    Parameters
    ----------
    spec, config, n:
        Cluster, run configuration and problem order.
    params:
        HPL build/tuning parameters (block size etc.).
    noise:
        Measurement noise; ``None`` disables it (bit-exact determinism).
    seed, trial:
        Together with the configuration and ``n`` these fully determine
        the noise draw, so campaigns are reproducible and independent
        per measurement.

    This is :func:`run_hpl_batch` on one size; the per-step reference
    walker :func:`~repro.hpl.schedule.simulate_schedule` it replaced
    stays as the oracle the batched walker is tested against.
    """
    return run_hpl_batch(
        spec, config, [n], params=params, noise=noise, seed=seed, trial=trial
    )[0]


def _noise_rows(
    config: ClusterConfig,
    sizes: Sequence[int],
    trials: Sequence[int],
    noise: Optional[NoiseSpec],
    seed: int,
):
    """Per-run noise rows for a batch — one independent
    ``(seed, config, N, trial)`` stream per row, so a run's noise does
    not depend on which batch it was simulated in."""
    if noise is None or not noise.enabled:
        return None, None
    p = config.total_processes
    compute_rows = np.empty((len(sizes), p))
    comm_rows = np.empty((len(sizes), p))
    for i, (n, trial) in enumerate(zip(sizes, trials)):
        rng = stream(seed, "hpl-run", config.key(), n, trial)
        compute = np.exp(rng.normal(0.0, noise.sigma_compute, size=p))
        comm = np.exp(rng.normal(0.0, noise.sigma_comm, size=p))
        if noise.outlier_probability > 0 and rng.random() < noise.outlier_probability:
            compute = compute * noise.outlier_factor
            comm = comm * noise.outlier_factor
        compute_rows[i] = compute
        comm_rows[i] = comm
    return compute_rows, comm_rows


def run_hpl_batch(
    spec: ClusterSpec,
    config: ClusterConfig,
    ns: Sequence[int],
    params: Optional[HPLParameters] = None,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
    trial: Union[int, Sequence[int]] = 0,
) -> List[HPLResult]:
    """Run one configuration at many problem orders in a single batched
    simulation (:func:`~repro.hpl.schedule.simulate_schedule_batch`).

    ``ns`` may repeat sizes; ``trial`` is either one trial index shared by
    every entry or a per-entry sequence (a campaign batches a config's full
    ``sizes x trials`` grid in one call).  Each entry's noise comes from
    its own ``(seed, config, N, trial)`` stream, so entry ``i`` of the
    result is bit-identical to
    ``run_hpl(spec, config, ns[i], ..., trial=trial[i])``.
    """
    sizes = [int(n) for n in ns]
    if isinstance(trial, (int, np.integer)):
        trials = [int(trial)] * len(sizes)
    else:
        trials = [int(t) for t in trial]
        if len(trials) != len(sizes):
            raise SimulationError(
                f"{len(sizes)} sizes but {len(trials)} trial indices"
            )
    compute_rows, comm_rows = _noise_rows(config, sizes, trials, noise, seed)
    schedules = simulate_schedule_batch(
        spec,
        config,
        sizes,
        params=params,
        compute_noise=compute_rows,
        comm_noise=comm_rows,
    )
    return [
        HPLResult(spec_name=spec.name, config=config, n=n, schedule=schedule)
        for n, schedule in zip(sizes, schedules)
    ]


def sweep_sizes(
    spec: ClusterSpec,
    config: ClusterConfig,
    sizes,
    params: Optional[HPLParameters] = None,
    noise: Optional[NoiseSpec] = None,
    seed: int = 0,
) -> Dict[int, HPLResult]:
    """Run one configuration across several problem orders (one batched
    simulation; later duplicates of a size win, as in the dict literal)."""
    results = run_hpl_batch(
        spec, config, [int(n) for n in sizes], params=params, noise=noise, seed=seed
    )
    return {result.n: result for result in results}
