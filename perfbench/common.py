"""Shared pieces of the benchmark: spans, host stamp and host speed,
process memory, the in-checkout work directory and fresh-process timing."""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
T = TypeVar("T")


def child_env() -> Dict[str, str]:
    """Environment for ``python -m repro`` children: the checkout's
    sources first on the path, unbuffered output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


# -- spans --------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None


class Tracer:
    """In-memory spans around calls into the program's layers.

    Disabled tracers hand out a shared no-op context, so the untraced run
    pays one attribute check per call site.  Spans nest by a stack (the
    benchmark is single-threaded where it traces); a span's *self* time
    is its duration minus its direct children's.
    """

    def __init__(self, enabled: bool, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def _open(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        self.spans.append(
            Span(name, self.clock(), parent=self._stack[-1] if self._stack else None)
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def span(self, name: str):
        return self._open(name) if self.enabled else _NULL

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def total(self, name: str) -> float:
        """Summed duration (s) of every span called ``name``."""
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_times(self) -> Dict[str, float]:
        """Summed self time (s) per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: Dict[str, float] = {}
        for index, span in enumerate(self.spans):
            out[span.name] = out.get(span.name, 0.0) + (
                span.end - span.start - child_time[index]
            )
        return out

    def overhead_pct(self, wall_s: float) -> float:
        """Estimated share of ``wall_s`` spent recording spans: the span
        count times the measured cost of one empty span."""
        if not self.enabled or wall_s <= 0:
            return 0.0
        probe = Tracer(True, self.clock)
        reps = 2000
        begin = time.perf_counter()
        for _ in range(reps):
            with probe.span("probe"):
                pass
        per_span = (time.perf_counter() - begin) / reps
        return 100.0 * per_span * len(self.spans) / wall_s


class _NullContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL = _NullContext()


# -- host and process facts ----------------------------------------------------


def host_stamp() -> Dict[str, object]:
    """CPU counts and versions the figures were measured with."""
    from repro.perf.parallel import available_cpu_count
    import numpy

    cpus = available_cpu_count()
    return {
        "nproc": os.cpu_count(),
        "available_cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fleet_scaling": (
            f"skipped ({cpus} CPUs: the load generator needs one core)"
        ),
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """High-water resident set (VmHWM) of ``pid`` (default: this process)."""
    path = Path("/proc") / (str(pid) if pid else "self") / "status"
    for line in path.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


@contextmanager
def work_dir(label: str) -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench_work" / f"{label}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass


def timed_process(argv: Sequence[str], timeout_s: float = 60.0) -> float:
    """Wall time (s) of one fresh child process; raises if it fails."""
    begin = time.perf_counter()
    completed = subprocess.run(
        list(argv), env=child_env(), cwd=ROOT, capture_output=True,
        timeout=timeout_s,
    )
    elapsed = time.perf_counter() - begin
    if completed.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv)} exited {completed.returncode}: "
            f"{completed.stderr.decode(errors='replace')[-2000:]}"
        )
    return elapsed


PYTHON = sys.executable


class HostSpeed:
    """The host's CPU speed around each measurement, from a reference loop.

    On a virtual machine that shares its cores, the same fixed loop of
    Python integer arithmetic can take 15 ms in one second and 23 ms in
    the next, and a pipeline build slows down with it.  So each CPU-bound
    piece of work is timed between two runs of the loop (:meth:`timed`)
    and also reported at the nominal speed, at which the loop takes
    ``NOMINAL_S``: its time divided by the mean of the two loop times
    over ``NOMINAL_S``.  The loop uses no program code, so a change to
    the program moves the figures and leaves the loop alone.
    """

    NOMINAL_S = 0.015
    ITERATIONS = 250_000

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> float:
        """Times the loop once; returns its time (s)."""
        began = time.perf_counter()
        total = 0
        for i in range(self.ITERATIONS):
            total += i * i
        elapsed = time.perf_counter() - began
        self.samples.append(elapsed)
        return elapsed

    def around(self, measure: Callable[[], float]) -> Tuple[float, float]:
        """Runs ``measure``, which returns a time (s) it took, between two
        loop samples: (that time, that time at nominal speed)."""
        before = self.sample()
        seconds = measure()
        return seconds, self.at_nominal(seconds, before, self.sample())

    def timed(self, work: Callable[[], T]) -> Tuple[T, float, float]:
        """Times ``work`` with :meth:`around`: (its result, its time as
        measured, its time at nominal speed)."""
        results = []

        def measure() -> float:
            began = time.perf_counter()
            results.append(work())
            return time.perf_counter() - began

        seconds, nominal = self.around(measure)
        return results[0], seconds, nominal

    def at_nominal(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` of work done between loop samples that took
        ``before`` and ``after`` seconds, at nominal speed."""
        return seconds * 2 * self.NOMINAL_S / (before + after)

    def factor(self) -> float:
        """Mean loop time over nominal: above 1 on a slow host."""
        return sum(self.samples) / len(self.samples) / self.NOMINAL_S


def speed_figures(
    figures: Dict[str, Tuple[float, float, str]], speed: HostSpeed
) -> Tuple[Dict[str, Tuple[float, str]], str]:
    """CPU-bound figures given as ``name: (as measured, at nominal speed,
    unit)``: the nominal ones to report and a note with the measured ones."""
    note = (
        f"host speed factor {speed.factor():.4f} (mean reference loop "
        f"{speed.factor() * HostSpeed.NOMINAL_S * 1e3:.2f} ms over "
        f"{len(speed.samples)} samples, nominal {HostSpeed.NOMINAL_S * 1e3:g} ms); "
        "as measured: "
        + ", ".join(f"{name} {raw:.6g}" for name, (raw, _, _) in figures.items())
    )
    return {name: (nominal, unit) for name, (_, nominal, unit) in figures.items()}, note
