"""Lower bounds on per-kind execution time for branch-and-bound pruning.

The paper's estimate of a configuration is

    T(config, N) = scale(max_i Mi) * max_i (Ta_i + Tc_i)

where kind ``i``'s time depends only on ``(kind, Mi, N, P)`` — the total
process count ``P`` is the sole cross-kind coupling.  That structure
makes subtree bounding cheap: once some kinds are fixed, every
completion's ``P`` lies in an interval ``[p_lo, p_hi]``, so

    T >= min(scale over reachable max-Mi) * max over fixed active kinds
         of min_{p in [p_lo, p_hi]} t_kind(kind, Mi, N, p)

:class:`KindTimeBound` precomputes, per ``(kind, Mi, N)``, the vector of
clamped model times over every possible ``P`` (one vectorized model
evaluation instead of thousands of scalar calls) and answers interval
minima from it.  :func:`estimator_bounds` builds the oracle from a
fitted :class:`~repro.core.estimator.Estimator` facade + adjustment —
the production path; the synthetic workloads supply their own
``kind_time`` callable.

Conservativeness notes (each keeps the bound a true lower bound):

* clamped phases: ``max(Ta,0) + max(Tc,0) <= actual kind total`` (and an
  *invalid* model total is ``+inf`` in the pipeline, above everything);
* memory bins only ever scale by a known factor — the oracle multiplies
  by ``min(1, min bin scale)``;
* the adjustment scale is minimized over the whole reachable
  ``max(Mi)`` interval;
* a tiny slack factor (``1 - 1e-9``) absorbs any last-ulp difference
  between the vectorized profile evaluation and the scalar estimator, so
  pruning never relies on exact float reproduction across code paths.

The bounds themselves stay scalar and incremental — they are queried
once per tree node with node-specific ``[p_lo, p_hi]`` intervals, which
is exactly the access pattern the per-``(kind, Mi, N)`` profiles answer
in O(1).  Only the *leaves* ride the candidate-axis grid kernel
(:mod:`repro.core.grid_kernel`): branch-and-bound batches each node's
surviving leaf children into one block evaluation while the bound oracle
keeps pruning the interior of the tree unchanged.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.adjustment import LinearAdjustment
from repro.core.estimator import Estimator
from repro.errors import ModelError, SearchError

#: ``kind_time(kind, mi, n, p_array) -> array`` of that kind's clamped
#: (Ta+Tc) model time at each total process count in ``p_array``;
#: ``inf`` marks "no model can answer this query" entries.
KindTimeFn = Callable[[str, int, int, np.ndarray], np.ndarray]

#: Slack multiplier applied to every bound: prune decisions must not
#: hinge on the last ulp of a float computed through a different code
#: path than the objective.
BOUND_SLACK = 1.0 - 1e-9


class KindTimeBound:
    """Interval minima of per-kind model times, memoized per (kind, Mi, N).

    Parameters
    ----------
    kind_time:
        Vectorized per-kind model evaluation (see :data:`KindTimeFn`).
    p_max:
        Largest total process count any configuration of the space can
        reach; profiles cover ``P in [0, p_max]``.
    scale_for:
        The adjustment's effective multiplier ``max_mi -> scale`` (1.0
        below threshold); ``None`` means no adjustment.
    """

    def __init__(
        self,
        kind_time: KindTimeFn,
        p_max: int,
        scale_for: Optional[Callable[[int], float]] = None,
    ):
        if p_max < 1:
            raise SearchError(f"p_max must be >= 1, got {p_max}")
        self._kind_time = kind_time
        self.p_max = int(p_max)
        self._scale_for = scale_for
        self._profiles: Dict[Tuple[str, int, int], np.ndarray] = {}
        self._tables: Dict[Tuple[str, int, int], List[np.ndarray]] = {}
        self._scale_minima: Dict[Tuple[int, int], float] = {}
        #: Profile evaluations performed (for :class:`SearchStats`).
        self.profile_evaluations = 0

    def profile(self, kind: str, mi: int, n: int) -> np.ndarray:
        """Clamped kind time at every total process count ``P`` in
        ``[0, p_max]`` (index = P; impossible slots hold ``inf``)."""
        key = (kind, int(mi), int(n))
        if key not in self._profiles:
            p_arr = np.arange(self.p_max + 1)
            values = np.asarray(
                self._kind_time(kind, int(mi), int(n), p_arr), dtype=float
            )
            if values.shape != p_arr.shape:
                raise SearchError(
                    f"kind_time returned shape {values.shape} for "
                    f"({kind}, Mi={mi}, N={n}), expected {p_arr.shape}"
                )
            # P < Mi is impossible (each participating PE runs Mi
            # processes), as is P < 1.
            values[: max(int(mi), 1)] = math.inf
            self._profiles[key] = values
            self.profile_evaluations += 1
        return self._profiles[key]

    def _sparse_table(self, kind: str, mi: int, n: int) -> List[np.ndarray]:
        """Range-minimum sparse table over the profile: ``table[j][i]``
        is the minimum of ``profile[i : i + 2**j]``.  Built once per
        profile so :meth:`kind_min` answers any interval in O(1) — the
        branch-and-bound hot path asks millions of interval minima."""
        key = (kind, int(mi), int(n))
        if key not in self._tables:
            level = self.profile(kind, mi, n)
            table = [level]
            span = 1
            while span * 2 <= level.size:
                level = np.minimum(level[:-span], level[span:])
                table.append(level)
                span *= 2
            self._tables[key] = table
        return self._tables[key]

    def kind_min(self, kind: str, mi: int, n: int, p_lo: int, p_hi: int) -> float:
        """``min over P in [p_lo, p_hi]`` of the kind's clamped model time
        (``inf`` when no P in the interval is answerable)."""
        lo = max(int(p_lo), 0)
        hi = min(int(p_hi), self.p_max)
        if hi < lo:
            return math.inf
        table = self._sparse_table(kind, mi, n)
        j = (hi - lo + 1).bit_length() - 1
        level = table[j]
        return float(min(level[lo], level[hi - (1 << j) + 1]))

    def scale_min(self, mi_lo: int, mi_hi: int) -> float:
        """Smallest adjustment multiplier over ``max(Mi) in [mi_lo, mi_hi]``."""
        if self._scale_for is None:
            return 1.0
        key = (int(mi_lo), int(mi_hi))
        if key not in self._scale_minima:
            lo, hi = key
            self._scale_minima[key] = min(
                (self._scale_for(mi) for mi in range(lo, hi + 1)), default=1.0
            )
        return self._scale_minima[key]


def estimator_bounds(
    facade: Estimator,
    adjustment: Optional[LinearAdjustment],
    p_max: int,
) -> KindTimeBound:
    """Bound oracle over a fitted estimator facade (the production path).

    Per ``(kind, Mi, N)`` it asks the facade's routing exactly what the
    scalar estimator would ask — the N-T model at ``P == Mi``, the P-T
    model (one vectorized polynomial evaluation) for ``P > Mi`` — and
    clamps phases the same way.  Queries no model can answer yield
    ``inf`` profile entries; when memory bins are configured the whole
    profile is scaled by the most optimistic bin factor.
    """
    bin_factor = 1.0
    for bin_ in facade.memory_bins:
        bin_factor = min(bin_factor, bin_.ta_scale, bin_.tc_scale)

    def kind_time(kind: str, mi: int, n: int, p_arr: np.ndarray) -> np.ndarray:
        values = np.full(p_arr.shape, math.inf)
        # Single-PE-kind slot: P == Mi routes to the N-T model.
        if mi <= p_arr[-1]:
            try:
                _, model = facade.select(kind, mi, mi)
                ta = max(float(model.predict_ta(n, mi)), 0.0)
                tc = max(float(model.predict_tc(n, mi)), 0.0)
                values[mi] = ta + tc
            except ModelError:
                pass
        # P > Mi routes to one P-T (or unified) model for every P, so a
        # single vectorized evaluation fills the rest of the profile.
        p_tail = p_arr[p_arr > mi]
        if p_tail.size:
            try:
                _, model = facade.select(kind, int(p_tail[0]), mi)
                ta = np.asarray(model.predict_ta(float(n), p_tail), dtype=float)
                tc = np.asarray(model.predict_tc(float(n), p_tail), dtype=float)
                values[p_arr > mi] = np.maximum(ta, 0.0) + np.maximum(tc, 0.0)
            except ModelError:
                pass
        return values * bin_factor

    scale_for = None
    if adjustment is not None and not adjustment.is_identity:
        scale_for = adjustment.scale_for
    return KindTimeBound(kind_time, p_max=p_max, scale_for=scale_for)
