"""Estimate caching (perf-engine layer 2).

The optimizer and the sweep/what-if analyses ask the same
``(configuration, N)`` questions over and over — a seed sweep re-ranks
the same 62 candidates at every size, a what-if study re-evaluates whole
grids.  Model evaluation is pure: for a *fixed* set of fitted models the
estimate of ``(config, N)`` never changes.  :class:`EstimateCache`
memoizes those lookups.

**Invalidation rule** (also documented in DESIGN.md): a cache is bound
to a *model fingerprint* — a hash over every fitted/composed model's
coefficients, the adjustment scales, and the estimator-relevant pipeline
knobs.  The fingerprint participates in every key, so entries produced
by one model generation can never answer for another; refit the models
and the pipeline builds a fresh cache with a fresh fingerprint.  Timing
fields (e.g. ``ModelStore.build_seconds``) are deliberately excluded:
two stores holding identical models fingerprint identically.

**Bounding rule**: a long-lived cache (the serving layer keeps one per
registry entry for the lifetime of the process) must not grow without
limit.  Passing ``capacity`` turns the cache into an LRU: both hits and
updates refresh an entry's recency, and inserting beyond capacity evicts
the least-recently-used entry, counted in :attr:`CacheStats.evictions`.
The default (``capacity=None``) keeps the historical unbounded behavior
for the in-pipeline caches, whose working set is the candidate grid.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError


def model_fingerprint(*parts: object) -> str:
    """Stable short hash of the model state that determines estimates.

    Callers pass plain-data renderings (``to_dict()`` outputs, tuples of
    knobs); anything whose ``repr`` is value-determined works.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()[:16]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`EstimateCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Fold another counter set into this one (e.g. when a serving
        registry retires a cache generation but keeps session totals)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions

    def as_tuple(self) -> Tuple[int, int, int]:
        """``(hits, misses, evictions)`` — the wire/shared-memory form.

        Fleet replicas publish exactly these three integers per stats
        row; :meth:`from_tuple` rebuilds the counters on the supervisor
        side for the fleet-wide rollup.
        """
        return (self.hits, self.misses, self.evictions)

    @classmethod
    def from_tuple(cls, values: Tuple[int, int, int]) -> "CacheStats":
        """Inverse of :meth:`as_tuple`."""
        hits, misses, evictions = values
        return cls(hits=int(hits), misses=int(misses), evictions=int(evictions))

    def describe(self) -> str:
        text = (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%} hit rate)"
        )
        if self.evictions:
            text += f", {self.evictions} evictions"
        return text


class EstimateCache:
    """Memo of ``(config, N)`` -> estimated seconds under one fingerprint.

    Keys are ``(config.key(), n, fingerprint)``;
    :meth:`key_of` exposes the config part so hot loops can compute it
    once per configuration instead of once per lookup.  With a
    ``capacity`` the cache is a strict LRU (see module docstring).
    """

    def __init__(self, fingerprint: str = "", capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ReproError(f"cache capacity must be >= 1, got {capacity}")
        self.fingerprint = fingerprint
        self.capacity = capacity
        self.stats = CacheStats()
        self._data: OrderedDict[Tuple[Hashable, int, str], float] = OrderedDict()

    @staticmethod
    def key_of(config) -> Hashable:
        """The per-configuration key component (hashable, canonical)."""
        return config.key()

    def get(self, config_key: Hashable, n: int) -> Optional[float]:
        """Cached estimate, counting the lookup as a hit or miss."""
        key = (config_key, n, self.fingerprint)
        value = self._data.get(key)
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
            if self.capacity is not None:
                self._data.move_to_end(key)
        return value

    def put(self, config_key: Hashable, n: int, value: float) -> None:
        key = (config_key, n, self.fingerprint)
        if key in self._data:
            self._data[key] = value
            if self.capacity is not None:
                self._data.move_to_end(key)
            return
        self._data[key] = value
        if self.capacity is not None and len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def fill(
        self,
        configs: Sequence[object],
        ns: Sequence[int],
        evaluate: Callable[[Sequence[object], Sequence[int]], np.ndarray],
    ) -> np.ndarray:
        """The ``(C, S)`` block of ``configs x ns``, cache first.

        Every cell is looked up; the rows with a miss go through one
        ``evaluate(rows, sizes) -> (R, K)`` call over the sizes any of
        them missed, and only the missing cells are written back (hit
        cells keep their cached values).
        """
        sizes = [int(n) for n in ns]
        out = np.empty((len(configs), len(sizes)), dtype=float)
        keys = [self.key_of(config) for config in configs]
        missing: List[Tuple[int, int]] = []
        for i, key in enumerate(keys):
            for j, n in enumerate(sizes):
                hit = self.get(key, n)
                if hit is None:
                    missing.append((i, j))
                else:
                    out[i, j] = hit
        if missing:
            rows = sorted({i for i, _ in missing})
            cols = sorted({j for _, j in missing})
            block = evaluate([configs[i] for i in rows], [sizes[j] for j in cols])
            row_at = {i: r for r, i in enumerate(rows)}
            col_at = {j: c for c, j in enumerate(cols)}
            for i, j in missing:
                value = float(block[row_at[i], col_at[j]])
                out[i, j] = value
                self.put(keys[i], sizes[j], value)
        return out

    def clear(self) -> None:
        """Drop all entries (counters survive; they describe the session)."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def describe(self) -> str:
        bound = f"/{self.capacity}" if self.capacity is not None else ""
        return (
            f"EstimateCache(fingerprint={self.fingerprint or '(none)'}, "
            f"{len(self._data)}{bound} entries, {self.stats.describe()})"
        )
