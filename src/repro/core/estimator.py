"""The :class:`Estimator` facade: one query surface over any model backend.

Before this module existed the repository had three overlapping dispatch
layers — :class:`~repro.core.model_store.ModelStore` (the container),
``ModelSelector`` (the paper's Figure-5 binning) and ``UnifiedEstimator``
(the unified-model drop-in) — each with its own estimation loop.  The
facade collapses them: a **backend** knows how to route a
``(kind, P, Mi)`` query to a :class:`~repro.core.model_api.TimeModel`,
and the facade owns everything above routing (memory-pressure bins,
clamping/validity semantics, per-configuration
bottleneck composition, fingerprinting).  The optimizer, the estimate
cache, the pipeline and the analysis code all call models only through
this class.

Two backends ship today:

* :class:`BinnedBackend` — the paper's method: the directly fitted N-T
  model for single-PE configurations (``P == Mi``), the P-T model
  otherwise (Figure 5);
* :class:`UnifiedBackend` — one unified two-variable model per
  ``(kind, Mi)`` (future-work item 1), no binning.

A future backend (e.g. a learned model) only has to implement
:class:`ModelBackend`; nothing else changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.model_api import TimeModel
from repro.errors import ModelError
from repro.perf.cache import model_fingerprint


@dataclass(frozen=True)
class KindEstimate:
    """Per-kind estimation output with its provenance.

    ``valid`` is False when the model produced a non-positive total — a
    polynomial excursion outside the fitted domain.  Such an output carries
    no information (an execution time cannot be <= 0), so consumers must
    treat the configuration as *unestimable* rather than cheap; see
    :meth:`repro.core.pipeline.ConfigEstimate.total`.
    """

    kind_name: str
    ta: float
    tc: float
    model_kind: str  # backend routing label: "nt", "pt" or "unified"
    composed: bool = False
    bin_label: str = "default"
    valid: bool = True

    @property
    def total(self) -> float:
        return self.ta + self.tc


@dataclass(frozen=True)
class MemoryBin:
    """One memory-pressure bin: applies while ``ratio <= max_ratio``.

    ``ta_scale`` / ``tc_scale`` stretch the base model's prediction inside
    the bin — the piecewise-model mechanism of Section 3.4 in its simplest
    usable form (the paper only sketches it).
    """

    max_ratio: float
    ta_scale: float = 1.0
    tc_scale: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if self.max_ratio <= 0:
            raise ModelError("memory bin boundary must be positive")
        if self.ta_scale <= 0 or self.tc_scale <= 0:
            raise ModelError("memory bin scales must be positive")


#: Computes the worst-node memory-pressure ratio of ``(config, n, kind)``;
#: supplied by whoever knows the cluster (the pipeline), consumed by the
#: facade when memory bins are configured.
MemoryRatioFn = Callable[[object, int, str], float]


class ModelBackend(Protocol):
    """Routes a ``(kind, P, Mi)`` query to the model that answers it."""

    name: str

    def route(self, kind: str, p: int, mi: int) -> Tuple[str, TimeModel]:
        """Return ``(label, model)`` or raise :class:`ModelError`."""
        ...

    def models(self) -> Iterator[TimeModel]:
        """Every model the backend can route to, in a stable order."""
        ...


class BinnedBackend:
    """The paper's Figure-5 routing over a fitted :class:`ModelStore`."""

    name = "binned"

    def __init__(self, store):
        self.store = store

    def route(self, kind: str, p: int, mi: int) -> Tuple[str, TimeModel]:
        if mi < 1:
            raise ModelError(f"Mi must be >= 1, got {mi}")
        if p < mi:
            raise ModelError(
                f"impossible query: P={p} < Mi={mi} (the 'X' cells of Fig. 5)"
            )
        if p == mi:
            return "nt", self.store.nt_model(kind, p, mi)
        return "pt", self.store.pt_model(kind, mi)

    def models(self) -> Iterator[TimeModel]:
        yield from self.store.models()


class UnifiedBackend:
    """One unified two-variable model per ``(kind, Mi)``; no binning."""

    name = "unified"

    def __init__(self, models: Dict[Tuple[str, int], TimeModel]):
        if not models:
            raise ModelError("no unified models supplied")
        self.by_key = dict(models)

    def route(self, kind: str, p: int, mi: int) -> Tuple[str, TimeModel]:
        key = (kind, mi)
        if key not in self.by_key:
            raise ModelError(f"no unified model for {key}")
        return "unified", self.by_key[key]

    def models(self) -> Iterator[TimeModel]:
        for _, model in sorted(self.by_key.items()):
            yield model


class Estimator:
    """Uniform model-evaluation surface over one :class:`ModelBackend`.

    Parameters
    ----------
    backend:
        Query router over the fitted (and composed) models.
    memory_bins:
        Optional ascending list of :class:`MemoryBin`; selection uses the
        memory ratio of a query (from ``memory_ratio_fn``, or passed
        explicitly to :meth:`estimate_kind`).  The last bin is open-ended.
    memory_ratio_fn:
        How to compute a configuration's memory-pressure ratio; only
        consulted when ``memory_bins`` are configured.
    """

    def __init__(
        self,
        backend: ModelBackend,
        memory_bins: Optional[Sequence[MemoryBin]] = None,
        memory_ratio_fn: Optional[MemoryRatioFn] = None,
    ):
        self.backend = backend
        self.memory_bins: Tuple[MemoryBin, ...] = tuple(memory_bins or ())
        self.memory_ratio_fn = memory_ratio_fn
        boundaries = [b.max_ratio for b in self.memory_bins]
        if boundaries != sorted(boundaries):
            raise ModelError("memory bins must have ascending boundaries")

    # -- construction -------------------------------------------------------

    @classmethod
    def for_store(
        cls,
        store,
        memory_bins: Optional[Sequence[MemoryBin]] = None,
        memory_ratio_fn: Optional[MemoryRatioFn] = None,
    ) -> "Estimator":
        """The paper's binned method over a fitted model store."""
        return cls(BinnedBackend(store), memory_bins, memory_ratio_fn)

    @classmethod
    def for_unified(cls, models: Dict[Tuple[str, int], TimeModel]) -> "Estimator":
        """The unified-model method (no binning, no memory bins)."""
        return cls(UnifiedBackend(models))

    # -- model routing ------------------------------------------------------

    def select(self, kind: str, p: int, mi: int) -> Tuple[str, TimeModel]:
        """The model answering a query, e.g. ``("nt", NTModel)``."""
        return self.backend.route(kind, p, mi)

    def can_estimate(self, kind: str, p: int, mi: int) -> bool:
        try:
            self.select(kind, p, mi)
            return True
        except ModelError:
            return False

    def models(self) -> Iterator[TimeModel]:
        """Every routable model (stable order), for inventory/fingerprint."""
        return self.backend.models()

    def fingerprint(self) -> str:
        """Hash of everything estimate-determining on the model side:
        the backend identity, every model's own
        :meth:`~repro.core.model_api.TimeModel.fingerprint`, and the
        memory bins.  The single source of truth for cache invalidation."""
        return model_fingerprint(
            self.backend.name,
            tuple(model.fingerprint() for model in self.models()),
            self.memory_bins,
        )

    # -- per-kind estimation ------------------------------------------------

    def estimate_kind(
        self,
        kind: str,
        n: float,
        p: int,
        mi: int,
        memory_ratio: Optional[float] = None,
    ) -> KindEstimate:
        """Estimated (Ta, Tc) of one kind's processes in a configuration
        with ``P`` total processes and ``Mi`` processes per PE of this kind.

        Negative polynomial excursions (possible at the edge of a fitted
        range) are clamped to zero for the phase values — but when the
        *total* goes non-positive the estimate is marked invalid: clamping
        a nonsense prediction to zero would make the configuration look
        optimal to the search instead of untrustworthy.
        """
        label, model = self.select(kind, p, mi)
        ta = float(model.predict_ta(n, p))
        tc = float(model.predict_tc(n, p))

        bin_label = "default"
        if self.memory_bins and memory_ratio is not None:
            chosen = self._bin_for(memory_ratio)
            ta *= chosen.ta_scale
            tc *= chosen.tc_scale
            bin_label = chosen.label or f"ratio<={chosen.max_ratio:g}"

        return KindEstimate(
            kind_name=kind,
            ta=max(ta, 0.0),
            tc=max(tc, 0.0),
            model_kind=label,
            composed=model.is_composed,
            bin_label=bin_label,
            valid=(ta + tc) > 0.0,
        )

    def _bin_for(self, ratio: float) -> MemoryBin:
        for bin_ in self.memory_bins:
            if ratio <= bin_.max_ratio:
                return bin_
        return self.memory_bins[-1]

    @property
    def applies_memory_bins(self) -> bool:
        """Whether configuration estimates pass through memory bins: bins
        are configured and ``memory_ratio_fn`` places queries in them."""
        return bool(self.memory_bins) and self.memory_ratio_fn is not None

    def _ratio_for(self, config, n: int, kind: str) -> Optional[float]:
        if not self.applies_memory_bins:
            return None
        return self.memory_ratio_fn(config, n, kind)

    def bin_scales(
        self, config, kind: str, ns: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-size ``(ta_scale, tc_scale)`` of the memory bin each
        ``(config, n, kind)`` query falls in — the factors
        :meth:`estimate_kinds` applies, for the grid kernel's rows.
        Only meaningful when :attr:`applies_memory_bins`."""
        chosen = [
            self._bin_for(self.memory_ratio_fn(config, int(n), kind)) for n in ns
        ]
        return (
            np.array([b.ta_scale for b in chosen], dtype=float),
            np.array([b.tc_scale for b in chosen], dtype=float),
        )

    # -- per-configuration estimation ---------------------------------------

    def estimate_kinds(self, config, n: int) -> Tuple[KindEstimate, ...]:
        """One :class:`KindEstimate` per active kind of a configuration
        (memory ratios computed via ``memory_ratio_fn`` when bins are on)."""
        p = config.total_processes
        return tuple(
            self.estimate_kind(
                alloc.kind_name,
                n,
                p,
                alloc.procs_per_pe,
                memory_ratio=self._ratio_for(config, n, alloc.kind_name),
            )
            for alloc in config.active
        )

    def estimate_total(self, config, n: int) -> float:
        """Estimated execution time of a configuration (bottleneck kind),
        unadjusted.  Returns ``inf`` when any kind's model is out of its
        domain — an unestimable configuration must not look cheap."""
        per_kind = self.estimate_kinds(config, n)
        if not all(estimate.valid for estimate in per_kind):
            return float("inf")
        return max(estimate.total for estimate in per_kind)

    def objective(self):
        """Objective-function form for the optimizers:
        ``(config, n) -> seconds``."""

        def objective(config, n: int) -> float:
            return self.estimate_total(config, n)

        return objective
