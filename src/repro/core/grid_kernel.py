"""The candidate-axis vectorized estimation kernel.

Every search backend used to pay one Python-level estimator call per
candidate configuration; only the size axis was vectorized.  This module
vectorizes the *candidate* axis too: :class:`GridKernel` packs the
coefficients of every routed N-T / P-T model into tensors (grown lazily
as new ``(kind, P, Mi)`` queries appear, re-packed only when a new model
is routed) and evaluates the polynomial fits, the memory bins, the
max-over-kinds composition and the linear adjustment for a whole
``(C, S)`` block of candidates x sizes in a handful of NumPy passes.  It
is the only vectorized estimator: ``estimate_grid`` and
``estimate_totals`` both evaluate through it.

**Bitwise-equivalence contract.**  Cell ``[i, j]`` of
:meth:`GridKernel.evaluate` is bitwise
``EstimationPipeline.estimate(configs[i], ns[j]).total``:

* polynomial rows use the same Horner recurrence as
  :func:`repro.core.lsq.polyval` (``np.polyval``), evaluated per packed
  row — elementwise float64 ops, identical bits;
* the P-T formulas replicate :meth:`repro.core.pt_model.PTModel.predict_ta`
  / ``predict_tc`` operation-for-operation, association order included;
* with memory bins on, each ``(candidate, kind)`` row is multiplied by
  the per-size ``ta_scale`` / ``tc_scale`` of its bin
  (:meth:`~repro.core.estimator.Estimator.bin_scales`); then per-kind
  validity is checked on the *pre-clamp* sum ``(Ta + Tc) > 0`` and the
  phases are clamped with ``np.maximum(x, 0.0)`` — the operation order of
  :meth:`repro.core.estimator.Estimator.estimate_kind`;
* composition scatters with ``np.maximum.at`` / ``np.logical_and.at``
  from identities (``-inf`` / ``True``) — max over non-negative
  (or NaN/inf) values is order-independent bitwise, so the scatter
  equals the scalar loop's sequential ``np.maximum`` over
  ``config.active``;
* the adjustment multiplies ``scale_for(max Mi)`` per candidate row and
  invalid cells become ``+inf``, the same ``np.where`` the scalar path
  applies.

The kernel evaluates the paper's binned (N-T / P-T) backend; the
unified-model backend is scalar-only
(:class:`~repro.core.unified_model.UnifiedEstimator`).

Errors surface exactly as the scalar loop would: candidates are
validated and routed in block order, so the first failing candidate
raises the same :class:`~repro.errors.ConfigurationError` /
:class:`~repro.errors.ModelError` the scalar estimator would have raised
when it reached that candidate.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import BinnedBackend, Estimator
from repro.errors import ModelError


def polyval_rows(coeffs: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Horner evaluation of many highest-power-first polynomials over one
    shared size axis: row ``k`` is bitwise ``np.polyval(coeffs[k], sizes)``
    (the same ``y = y * x + c`` recurrence, elementwise float64)."""
    out = np.zeros((coeffs.shape[0], sizes.size), dtype=float)
    for k in range(coeffs.shape[1]):
        out = out * sizes[None, :] + coeffs[:, k][:, None]
    return out


class GridKernel:
    """Vectorized ``(configs, sizes) -> (C, S)`` adjusted-estimate block.

    Parameters
    ----------
    facade:
        The :class:`~repro.core.estimator.Estimator` whose models (and
        memory bins) answer the queries; its backend must be a
        :class:`BinnedBackend`.
    adjustment:
        The pipeline's :class:`~repro.core.adjustment.LinearAdjustment`.
    validate:
        Optional per-configuration validation hook (the pipeline passes
        ``config.validate_against(spec)``), called in block order so
        validation errors match the scalar path's.
    stats:
        Optional :class:`~repro.perf.report.GridKernelStats` sink.
    """

    def __init__(
        self,
        facade: Estimator,
        adjustment,
        validate: Optional[Callable[[object], None]] = None,
        stats=None,
    ):
        if not isinstance(facade.backend, BinnedBackend):
            raise ModelError(
                "the grid kernel evaluates the binned backend only, "
                f"not {facade.backend.name!r}"
            )
        self.facade = facade
        self.adjustment = adjustment
        self.validate = validate
        self.stats = stats
        # Routing memo: (kind, P, Mi) -> ("nt" | "pt", packed row index).
        # Routing goes through facade.select once per distinct query, so a
        # routing failure raises the authentic ModelError in block order.
        self._routes: Dict[Tuple[str, int, int], Tuple[str, int]] = {}
        self._pt_keys: Dict[Tuple[str, int], int] = {}
        self._nt_models: List[object] = []
        self._pt_models: List[object] = []
        # Packed coefficient tensors, rebuilt only when a new model routes.
        self._nt_pack: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._pt_pack: Optional[Tuple[np.ndarray, ...]] = None
        self._scales: Dict[int, float] = {}

    # -- routing & packing -------------------------------------------------

    def _route(self, kind: str, p: int, mi: int) -> Tuple[str, int]:
        key = (kind, p, mi)
        hit = self._routes.get(key)
        if hit is not None:
            return hit
        label, model = self.facade.select(kind, p, mi)
        if label == "nt":
            row = len(self._nt_models)
            self._nt_models.append(model)
            self._nt_pack = None
        else:
            # One P-T model serves every P > Mi of a (kind, Mi) pair —
            # share its packed row across those routes.
            pt_key = (kind, mi)
            row = self._pt_keys.get(pt_key, -1)
            if row < 0:
                row = len(self._pt_models)
                self._pt_models.append(model)
                self._pt_keys[pt_key] = row
                self._pt_pack = None
        self._routes[key] = (label, row)
        return label, row

    def _nt_tensors(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._nt_pack is None:
            count = len(self._nt_models)
            self._nt_pack = (
                np.array(
                    [m.ka for m in self._nt_models], dtype=float
                ).reshape(count, 4),
                np.array(
                    [m.kc for m in self._nt_models], dtype=float
                ).reshape(count, 3),
            )
        return self._nt_pack

    def _pt_tensors(self) -> Tuple[np.ndarray, ...]:
        if self._pt_pack is None:
            count = len(self._pt_models)
            self._pt_pack = (
                np.array(
                    [m.ta_ref for m in self._pt_models], dtype=float
                ).reshape(count, 4),
                np.array(
                    [m.tc_ref for m in self._pt_models], dtype=float
                ).reshape(count, 3),
                np.array([m.k7 for m in self._pt_models], dtype=float),
                np.array([m.k8 for m in self._pt_models], dtype=float),
                np.array([m.k9 for m in self._pt_models], dtype=float),
                np.array([m.k10 for m in self._pt_models], dtype=float),
                np.array([m.k11 for m in self._pt_models], dtype=float),
            )
        return self._pt_pack

    def _scale_for(self, max_mi: int) -> float:
        scale = self._scales.get(max_mi)
        if scale is None:
            scale = self.adjustment.scale_for(max_mi)
            self._scales[max_mi] = scale
        return scale

    # -- evaluation --------------------------------------------------------

    def evaluate(self, configs: Sequence[object], ns: Sequence[int]) -> np.ndarray:
        """Adjusted estimates of every ``(config, n)`` cell, ``(C, S)``."""
        sizes = np.asarray([float(n) for n in ns], dtype=float)
        count, width = len(configs), sizes.size
        use_bins = self.facade.applies_memory_bins

        nt_cand: List[int] = []
        nt_row: List[int] = []
        nt_bins: List[Tuple[np.ndarray, np.ndarray]] = []
        pt_cand: List[int] = []
        pt_row: List[int] = []
        pt_p: List[int] = []
        pt_bins: List[Tuple[np.ndarray, np.ndarray]] = []
        scale = np.empty(count, dtype=float)
        for i, config in enumerate(configs):
            if self.validate is not None:
                self.validate(config)
            p = config.total_processes
            max_mi = 0
            for alloc in config.active:
                label, row = self._route(alloc.kind_name, p, alloc.procs_per_pe)
                if label == "nt":
                    nt_cand.append(i)
                    nt_row.append(row)
                    bins = nt_bins
                else:
                    pt_cand.append(i)
                    pt_row.append(row)
                    pt_p.append(p)
                    bins = pt_bins
                if use_bins:
                    bins.append(self.facade.bin_scales(config, alloc.kind_name, ns))
                if alloc.procs_per_pe > max_mi:
                    max_mi = alloc.procs_per_pe
            if not config.active:
                # The scalar path cannot compose a configuration with no
                # active allocations either.
                raise AssertionError(
                    f"configuration {config.label()} has no active kinds"
                )
            scale[i] = self._scale_for(max_mi)

        # Composition identities: max over clamped (>= 0) kind totals and
        # AND over validity — scatter order cannot change a single bit.
        total = np.full((count, width), -np.inf)
        valid = np.ones((count, width), dtype=bool)

        if nt_cand:
            ka, kc = self._nt_tensors()
            uniq, inverse = np.unique(np.asarray(nt_row), return_inverse=True)
            ta = polyval_rows(ka[uniq], sizes)[inverse]
            tc = polyval_rows(kc[uniq], sizes)[inverse]
            _compose(total, valid, nt_cand, ta, tc, nt_bins)

        if pt_cand:
            ta_ref, tc_ref, k7, k8, k9, k10, k11 = self._pt_tensors()
            rows = np.asarray(pt_row)
            uniq, inverse = np.unique(rows, return_inverse=True)
            ta_rows = polyval_rows(ta_ref[uniq], sizes)[inverse]
            tc_rows = polyval_rows(tc_ref[uniq], sizes)[inverse]
            p_col = np.asarray(pt_p, dtype=float)[:, None]
            k7c = k7[rows][:, None]
            k8c = k8[rows][:, None]
            k9c = k9[rows][:, None]
            k10c = k10[rows][:, None]
            k11c = k11[rows][:, None]
            # Operation-for-operation PTModel.predict_ta / predict_tc:
            # ((k7 * ref) / P) + k8 and ((k9 * P) * ref) + ((k10 * ref) / P) + k11.
            ta = k7c * ta_rows / p_col + k8c
            tc = k9c * p_col * tc_rows + k10c * tc_rows / p_col + k11c
            _compose(total, valid, pt_cand, ta, tc, pt_bins)

        adjusted = scale[:, None] * total
        out = np.where(valid, adjusted, np.inf)
        if self.stats is not None:
            self.stats.record_block(count, width)
        return out


def _compose(
    total: np.ndarray,
    valid: np.ndarray,
    cand: List[int],
    ta: np.ndarray,
    tc: np.ndarray,
    bins: List[Tuple[np.ndarray, np.ndarray]],
) -> None:
    """Fold per-``(candidate, kind)`` Ta/Tc rows into the composition:
    memory-bin scaling (``bins`` is empty when bins are off), the
    pre-clamp ``(Ta + Tc) > 0`` validity test, the clamp, then the
    max / AND scatter onto each row's candidate."""
    if bins:
        factors = np.asarray(bins, dtype=float)
        ta = ta * factors[:, 0]
        tc = tc * factors[:, 1]
    kind_valid = (ta + tc) > 0.0
    kind_total = np.maximum(ta, 0.0) + np.maximum(tc, 0.0)
    idx = np.asarray(cand)
    np.maximum.at(total, idx, kind_total)
    np.logical_and.at(valid, idx, kind_valid)
