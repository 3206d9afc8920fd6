"""Measurement in the loop (perf-engine layer 3).

A speedup nobody can observe is a speedup nobody can trust.
:class:`PerfReport` accumulates wall-clock timings per pipeline stage
(campaign, evaluation, fit, compose, adjust, search) plus the estimate
cache's hit/miss statistics, so every
:class:`~repro.core.pipeline.EstimationPipeline` can say where its time
went — and ``benchmarks/bench_perf_engine.py`` can record the
serial-vs-parallel and looped-vs-batched comparisons from the same
instrumentation the production path uses.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.perf.cache import EstimateCache

#: Canonical stage order for rendering (unknown stages append after).
PIPELINE_STAGES = ("campaign", "evaluation", "fit", "compose", "adjust", "search")

#: Stages of the online-calibration loop (:mod:`repro.calibrate`), timed
#: through the same ledger and rendered after the pipeline stages.
CALIBRATION_STAGES = ("ingest", "refit", "shadow", "promote")


@dataclass
class StageTiming:
    """Accumulated wall time of one pipeline stage."""

    seconds: float = 0.0
    calls: int = 0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.calls += 1


@dataclass
class CostStats:
    """Accumulated Pareto-frontier accounting of one pipeline.

    One entry per :meth:`PerfReport.record_frontier` call; sizes add up
    across runs so a batched ``pareto_many`` sweep reports its total
    frontier yield alongside the search counters that produced it.
    """

    frontiers: int = 0
    points: int = 0
    #: Frontier runs restricted by a ``max_cost`` budget.
    constrained: int = 0
    #: Frontier runs stopped early by an evaluation budget (their points
    #: are exact only over the visited candidates).
    incomplete: int = 0

    def record(self, outcome) -> None:
        """Fold one duck-typed :class:`repro.cost.pareto.FrontierOutcome`."""
        self.frontiers += 1
        self.points += len(outcome.points)
        if getattr(outcome, "max_cost", None) is not None:
            self.constrained += 1
        if not getattr(outcome, "complete", True):
            self.incomplete += 1

    def to_dict(self) -> Dict[str, int]:
        return {
            "frontiers": self.frontiers,
            "points": self.points,
            "constrained": self.constrained,
            "incomplete": self.incomplete,
        }

    def describe(self) -> str:
        detail = f"{self.frontiers} frontiers, {self.points} points"
        if self.constrained:
            detail += f", {self.constrained} cost-constrained"
        if self.incomplete:
            detail += f", {self.incomplete} incomplete"
        return detail


@dataclass
class GridKernelStats:
    """Accounting of the candidate-axis grid estimation kernel.

    One :meth:`record_block` per kernel invocation (a block of candidate
    configurations evaluated in one vectorized pass), rendered in
    ``--profile`` output.
    """

    #: Kernel invocations (one per evaluated candidate block).
    blocks: int = 0
    #: Candidate rows across all blocks (``candidates / blocks`` is the
    #: average block width the search layer achieved).
    block_candidates: int = 0
    #: candidate x size cells the kernel evaluated vectorized.
    cells: int = 0

    def record_block(self, candidates: int, sizes: int) -> None:
        self.blocks += 1
        self.block_candidates += candidates
        self.cells += candidates * sizes

    @property
    def candidates_per_block(self) -> float:
        return self.block_candidates / self.blocks if self.blocks else 0.0

    def to_dict(self) -> Dict[str, int]:
        return {
            "blocks": self.blocks,
            "block_candidates": self.block_candidates,
            "cells": self.cells,
        }

    def describe(self) -> str:
        return (
            f"{self.blocks} blocks, "
            f"{self.candidates_per_block:.1f} candidates/block, "
            f"{self.cells} kernel cells"
        )


class PerfReport:
    """Per-stage wall-clock ledger of one pipeline (plus cache stats)."""

    def __init__(self) -> None:
        self._stages: Dict[str, StageTiming] = {}
        self.cache: Optional[EstimateCache] = None
        #: Schedule-walker counters (duck-typed
        #: :class:`repro.hpl.schedule.WalkerStats` — kept loose so the perf
        #: layer stays below ``hpl`` in the import graph).
        self.walker: Optional[object] = None
        #: Per-backend search counters (duck-typed
        #: :class:`repro.core.search.SearchStats` — same layering rule as
        #: the walker), accumulated across every optimize call.
        self.search_backends: Dict[str, Dict[str, int]] = {}
        #: Pareto-frontier accounting (None until a frontier is computed).
        self.cost: Optional[CostStats] = None
        #: Grid-kernel accounting (None until the engine builds a kernel).
        self.grid: Optional[GridKernelStats] = None

    def record_search(self, stats) -> None:
        """Fold one search run's :class:`SearchStats` into the per-backend
        counters; the search engine calls this per optimize outcome."""
        if stats is None:
            return
        entry = self.search_backends.setdefault(
            stats.backend or "unknown",
            {
                "runs": 0,
                "evaluations": 0,
                "pruned_subtrees": 0,
                "pruned_candidates": 0,
                "bound_evaluations": 0,
                "dedup_hits": 0,
                "exhausted": 0,
                "stuck": 0,
            },
        )
        entry["runs"] += 1
        entry["evaluations"] += stats.evaluations
        entry["pruned_subtrees"] += stats.pruned_subtrees
        entry["pruned_candidates"] += stats.pruned_candidates
        entry["bound_evaluations"] += stats.bound_evaluations
        entry["dedup_hits"] += getattr(stats, "dedup_hits", 0)
        entry["exhausted"] += int(stats.exhausted)
        entry["stuck"] += int(getattr(stats, "stuck", False))

    def record_frontier(self, outcome) -> None:
        """Fold one Pareto-frontier outcome (duck-typed
        :class:`repro.cost.pareto.FrontierOutcome`) into :attr:`cost`."""
        if outcome is None:
            return
        if self.cost is None:
            self.cost = CostStats()
        self.cost.record(outcome)

    def record_walker(self, stats) -> None:
        """Fold a walker-stats delta (``snapshot``/``delta``/``merge``
        protocol of :class:`repro.hpl.schedule.WalkerStats`) into the
        report; the measure and evaluation stages call this with the
        counters their campaign runs accumulated."""
        if self.walker is None:
            self.walker = stats.snapshot()
        else:
            self.walker.merge(stats)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a block and charge it to ``name`` (accumulating)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    def add(self, name: str, seconds: float) -> None:
        self._stages.setdefault(name, StageTiming()).add(seconds)

    def stage_seconds(self, name: str) -> float:
        timing = self._stages.get(name)
        return timing.seconds if timing else 0.0

    def stage_calls(self, name: str) -> int:
        timing = self._stages.get(name)
        return timing.calls if timing else 0

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self._stages.values())

    def stages(self) -> List[str]:
        """Recorded stage names, canonical order first."""
        canonical = PIPELINE_STAGES + CALIBRATION_STAGES
        known = [s for s in canonical if s in self._stages]
        extra = [s for s in self._stages if s not in canonical]
        return known + extra

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            name: {"seconds": t.seconds, "calls": t.calls}
            for name, t in self._stages.items()
        }
        if self.cache is not None:
            out["cache"] = {
                "fingerprint": self.cache.fingerprint,
                "entries": len(self.cache),
                "hits": self.cache.stats.hits,
                "misses": self.cache.stats.misses,
            }
        if self.walker is not None:
            out["walker"] = self.walker.to_dict()
        if self.search_backends:
            out["search_backends"] = {
                name: dict(entry)
                for name, entry in sorted(self.search_backends.items())
            }
        if self.cost is not None:
            out["cost"] = self.cost.to_dict()
        if self.grid is not None:
            out["grid"] = self.grid.to_dict()
        return out

    def render(self) -> str:
        """Human-readable stage table (what the benches persist)."""
        lines = ["stage        calls   seconds"]
        for name in self.stages():
            timing = self._stages[name]
            lines.append(f"{name:<12} {timing.calls:>5}   {timing.seconds:9.4f}")
        lines.append(f"{'total':<12} {'':>5}   {self.total_seconds:9.4f}")
        if self.cache is not None:
            lines.append(f"cache: {self.cache.describe()}")
        if self.walker is not None:
            lines.append(f"walker: {self.walker.describe()}")
        for name, entry in sorted(self.search_backends.items()):
            detail = (
                f"search[{name}]: {entry['runs']} runs, "
                f"{entry['evaluations']} evaluations"
            )
            if entry["pruned_subtrees"]:
                detail += (
                    f", pruned {entry['pruned_candidates']} candidates "
                    f"in {entry['pruned_subtrees']} subtrees"
                )
            if entry["exhausted"]:
                detail += f", {entry['exhausted']} budget-exhausted"
            if entry.get("dedup_hits"):
                detail += f", {entry['dedup_hits']} dedup hits"
            if entry.get("stuck"):
                detail += f", {entry['stuck']} stuck"
            lines.append(detail)
        if self.cost is not None:
            lines.append(f"cost: {self.cost.describe()}")
        if self.grid is not None:
            lines.append(f"grid: {self.grid.describe()}")
        return "\n".join(lines)
