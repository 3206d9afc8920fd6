"""Open-loop load generation against a JSON-lines socket.

A run is a *schedule*: every request line, encoded in advance, with the
offset (seconds from phase start) at which it is due.  Schedules come
from a seeded ``random.Random``, so the same seed gives byte-identical
schedules (:func:`schedule_digest`).

:class:`OpenLoop` plays a schedule over one pipelined TCP connection from
two threads: a sender that paces with ``time.sleep`` plus a short spin
tail (asyncio's epoll timeouts round up to whole milliseconds), and a
reader that stamps each reply as it arrives.  Every request is timed from
its *due* time, not from when it was sent, so a stalled sender or server
charges the wait to every request behind it (no coordinated omission);
how late the sender itself ran is reported separately.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

#: Sleep until this close to a due time, then yield-spin the rest.
SPIN_TAIL_S = 0.0004


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to be meaningful."""


def percentile(values: Sequence[float], q: float, beyond: int = 10) -> float:
    """The ``q``-quantile (nearest rank) of ``values``.

    Refuses (raises :class:`InsufficientSamples`) unless at least
    ``beyond`` samples lie above the reported rank: a p99 of 200
    samples is two values, not a percentile.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    count = len(values)
    rank = max(1, math.ceil(q * count))
    if count - rank < beyond:
        raise InsufficientSamples(
            f"p{q * 100:g} needs {beyond} samples beyond it; "
            f"{count} samples leave {count - rank}"
        )
    return sorted(values)[rank - 1]


def min_samples(q: float, beyond: int = 10) -> int:
    """Smallest sample count for which :func:`percentile` answers."""
    count = beyond + 1
    while count - max(1, math.ceil(q * count)) < beyond:
        count += 1
    return count


# -- arrival processes -------------------------------------------------------


def poisson_offsets(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Arrival offsets of a Poisson process of ``rate`` per second."""
    offsets: List[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


def burst_offsets(
    rng: random.Random, mean_rate: float, burst: int, duration: float
) -> List[float]:
    """Bursts of ``burst`` simultaneous arrivals; the bursts themselves
    form a Poisson process, so requests arrive at ``mean_rate`` on average."""
    offsets: List[float] = []
    for start in poisson_offsets(rng, mean_rate / burst, duration):
        offsets.extend([start] * burst)
    return offsets


@dataclass
class Schedule:
    """Pre-encoded request lines and their due offsets (sorted)."""

    offsets: List[float]
    lines: List[bytes]
    #: Per-request op name.
    tags: List[str]
    #: Per-request payload kept for the correctness check.
    requests: List[dict]
    first_id: int = 0

    def __len__(self) -> int:
        return len(self.offsets)


def build_schedule(
    offsets: Sequence[float],
    make_request: Callable[[int], dict],
    first_id: int = 0,
) -> Schedule:
    """Encode one request per offset; ids run from ``first_id``.

    ``make_request(index)`` returns the request object without its id;
    it must draw any randomness from the caller's seeded generator."""
    lines: List[bytes] = []
    tags: List[str] = []
    requests: List[dict] = []
    for index in range(len(offsets)):
        payload = {"id": first_id + index}
        payload.update(make_request(index))
        requests.append(payload)
        tags.append(payload["op"])
        lines.append(json.dumps(payload).encode("utf-8") + b"\n")
    return Schedule(list(offsets), lines, tags, requests, first_id)


def schedule_digest(schedule: Schedule) -> str:
    """Hash of the exact bytes and due times a schedule will send."""
    digest = hashlib.sha256()
    for offset, line in zip(schedule.offsets, schedule.lines):
        digest.update(repr(offset).encode("ascii"))
        digest.update(line)
    return digest.hexdigest()


# -- due-time accounting ------------------------------------------------------


@dataclass
class PhaseResult:
    """Timings of one played schedule, aligned with its requests."""

    start: float
    offsets: List[float]
    sent: List[Optional[float]]
    received: List[Optional[float]]
    replies: List[Optional[bytes]]
    tags: List[str]
    #: Request id of position 0.
    first_id: int = 0

    @property
    def attempted(self) -> int:
        return sum(1 for t in self.sent if t is not None)

    def unanswered(self) -> int:
        return sum(
            1 for s, r in zip(self.sent, self.received) if s is not None and r is None
        )

    def latencies_ms(self) -> List[float]:
        """Due-to-reply latency of every answered request (ms)."""
        return due_time_latencies_ms(self.start, self.offsets, self.received)

    def lateness_ms(self) -> List[float]:
        """How late the sender put each request on the wire (ms)."""
        return [
            (sent - (self.start + offset)) * 1e3
            for offset, sent in zip(self.offsets, self.sent)
            if sent is not None
        ]


def due_time_latencies_ms(
    start: float, offsets: Sequence[float], received: Sequence[Optional[float]]
) -> List[float]:
    """Latency of each answered request measured from its due time
    ``start + offset`` -- a request queued behind a stall is charged for
    the stall even if it was sent late."""
    return [
        (got - (start + offset)) * 1e3
        for offset, got in zip(offsets, received)
        if got is not None
    ]


def reply_id(line: bytes) -> int:
    """The integer request id of a reply line.  The server writes ``id``
    first, so a slice avoids a full JSON parse on the timing thread."""
    if line.startswith(b'{"id": '):
        end = line.find(b",", 7)
        if end > 7:
            try:
                return int(line[7:end])
            except ValueError:
                pass
    return int(json.loads(line)["id"])


class OpenLoop:
    """Plays schedules over one pipelined connection.

    ``clock``/``sleep`` are injectable so tests can drive the pacing with
    a fake clock.
    """

    def __init__(
        self,
        sock: Optional[socket.socket],
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.sock = sock
        self.clock = clock
        self.sleep = sleep

    def pace(
        self,
        schedule: Schedule,
        start: float,
        send: Callable[[bytes], None],
        sent: List[Optional[float]],
        in_flight: Callable[[int], int],
        max_in_flight: Optional[int] = None,
    ) -> None:
        """Send every line at its due time, recording when it went out.
        Requests due together go out in one write.  ``max_in_flight``
        holds the sender back while that many requests are unanswered
        (a closed loop, used to warm the server up)."""
        offsets = schedule.offsets
        count = len(offsets)
        index = 0
        while index < count:
            due = start + offsets[index]
            now = self.clock()
            remaining = due - now
            if remaining > SPIN_TAIL_S:
                self.sleep(remaining - SPIN_TAIL_S)
                continue
            if remaining > 0 or (
                max_in_flight is not None and in_flight(index) >= max_in_flight
            ):
                self.sleep(0)  # yield the GIL to the reader thread
                continue
            end = index + 1
            while end < count and start + offsets[end] <= now:
                end += 1
            if max_in_flight is not None:
                end = min(end, index + max_in_flight - in_flight(index))
            send(b"".join(schedule.lines[index:end]))
            stamp = self.clock()
            for position in range(index, end):
                sent[position] = stamp
            index = end

    def play(
        self,
        schedule: Schedule,
        max_in_flight: Optional[int] = None,
        drain_timeout_s: float = 20.0,
    ) -> PhaseResult:
        """Send ``schedule`` (see :meth:`pace`) and collect every reply,
        waiting at most ``drain_timeout_s`` after the last send."""
        assert self.sock is not None, "play() needs a connected socket"
        count = len(schedule)
        sent: List[Optional[float]] = [None] * count
        received: List[Optional[float]] = [None] * count
        replies: List[Optional[bytes]] = [None] * count
        state = {"answered": 0, "done": False}
        first_id = schedule.first_id
        sock = self.sock
        clock = self.clock

        def read() -> None:
            buffer = b""
            sock.settimeout(0.2)
            while not state["done"] and state["answered"] < count:
                try:
                    chunk = sock.recv(1 << 16)
                except socket.timeout:
                    continue
                if not chunk:
                    break
                stamp = clock()
                buffer += chunk
                *lines, buffer = buffer.split(b"\n")
                for line in lines:
                    if not line:
                        continue
                    position = reply_id(line) - first_id
                    if 0 <= position < count and received[position] is None:
                        received[position] = stamp
                        replies[position] = line
                        state["answered"] += 1

        reader = threading.Thread(target=read, name="perfbench-reader", daemon=True)
        reader.start()
        start = clock() + 0.01
        try:
            self.pace(
                schedule, start, sock.sendall, sent,
                in_flight=lambda index: index - state["answered"],
                max_in_flight=max_in_flight,
            )
            deadline = clock() + drain_timeout_s
            while state["answered"] < count and clock() < deadline:
                time.sleep(0.002)
        finally:
            state["done"] = True
            reader.join(timeout=5.0)
        return PhaseResult(
            start=start,
            offsets=list(schedule.offsets),
            sent=sent,
            received=received,
            replies=replies,
            tags=list(schedule.tags),
            first_id=first_id,
        )


def connect(host: str, port: int, timeout_s: float = 5.0) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=timeout_s)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def request_reply(sock: socket.socket, payload: dict, timeout_s: float = 30.0) -> dict:
    """One synchronous request on an otherwise idle connection."""
    sock.settimeout(timeout_s)
    sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
    buffer = b""
    while b"\n" not in buffer:
        chunk = sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buffer += chunk
    line, _, rest = buffer.partition(b"\n")
    if rest.strip():
        raise ConnectionError("unexpected extra reply on an idle connection")
    return json.loads(line)

