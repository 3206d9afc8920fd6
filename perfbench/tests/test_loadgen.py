"""Self-tests of the benchmark's load generator and accounting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random

import pytest

import loadgen
import serve


def _served():
    configs = {name: [(1, k, 8, 1) for k in range(1, 5)] for name in serve.FAMILIES}
    sizes = {name: list(range(1000, 1800, 100)) for name in serve.FAMILIES}
    records = {name: [{"n": n} for n in range(5)] for name in serve.FAMILIES}
    return serve.ServedSet({}, configs, sizes, records)


@pytest.mark.parametrize("mix_type", [serve.ReadMix, serve.ObserveMix])
def test_same_seed_gives_byte_identical_schedules(mix_type):
    def digests(seed):
        mix = mix_type(_served(), random.Random(seed))
        plan = serve.make_plan(_served(), mix, seed, seconds=4, trace=False)
        return [loadgen.schedule_digest(s) for s in plan.schedules()]

    assert digests(3) == digests(3)
    assert digests(3) != digests(4)


def test_schedule_ids_run_on_across_phases():
    mix = serve.ReadMix(_served(), random.Random(1))
    plan = serve.make_plan(_served(), mix, 1, seconds=4, trace=False)
    ids = [r["id"] for s in plan.schedules() for r in s.requests]
    assert ids == list(range(len(ids)))


def test_burst_offsets_come_in_groups_at_the_mean_rate():
    offsets = loadgen.burst_offsets(random.Random(0), 160.0, 8, 50.0)
    assert len(offsets) % 8 == 0
    assert all(len(set(offsets[i:i + 8])) == 1 for i in range(0, len(offsets), 8))
    assert 0.9 * 160 * 50 < len(offsets) < 1.1 * 160 * 50


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    values = [float(v) for v in range(100)]
    assert loadgen.percentile(values, 0.90) == 89.0
    with pytest.raises(loadgen.InsufficientSamples):
        loadgen.percentile(values, 0.99)
    with pytest.raises(loadgen.InsufficientSamples):
        loadgen.percentile(values[:99], 0.90)
    assert loadgen.percentile([float(v) for v in range(1000)], 0.99) == 989.0
    assert loadgen.min_samples(0.99) == 1000
    assert loadgen.min_samples(0.5) == 20


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds if seconds > 0 else 1e-6


def test_due_time_accounting_charges_a_stall_to_the_requests_behind_it():
    clock = FakeClock()
    schedule = loadgen.build_schedule(
        [0.0, 0.010, 0.012, 0.050], lambda i: {"op": "estimate"}
    )
    writes = []

    def send(data):
        writes.append((clock(), data.count(b"\n")))
        if len(writes) == 1:
            clock.now += 0.020  # the first write blocks for 20 ms

    sent = [None] * len(schedule)
    start = clock() + 0.001
    loop = loadgen.OpenLoop(None, clock=clock, sleep=clock.sleep)
    loop.pace(schedule, start, send, sent, in_flight=lambda i: 0)
    # Requests 1 and 2 fell due during the stall: one catch-up write.
    assert [count for _, count in writes] == [1, 2, 1]
    received = [t + 0.002 for t in sent]  # the server answers in 2 ms
    latencies = loadgen.due_time_latencies_ms(start, schedule.offsets, received)
    # The blocked write delays its own request, then the two behind it.
    assert latencies[0] == pytest.approx(22.0, abs=0.01)
    assert latencies[1] == pytest.approx(12.0, abs=0.01)
    assert latencies[2] == pytest.approx(10.0, abs=0.01)
    assert latencies[3] == pytest.approx(2.0, abs=0.01)
    result = loadgen.PhaseResult(start, schedule.offsets, sent, received,
                                 [None] * 4, schedule.tags)
    late = result.lateness_ms()
    assert late[:3] == pytest.approx([20.0, 10.0, 8.0], abs=0.01)
    assert late[3] == pytest.approx(0.0, abs=0.01)


def test_in_flight_cap_holds_the_sender_back():
    clock = FakeClock()
    answered = [0]

    def sleep(seconds):
        clock.sleep(seconds)
        answered[0] += 1  # one reply arrives per yield

    schedule = loadgen.build_schedule([0.0] * 10, lambda i: {"op": "ping"})
    sent = [None] * 10
    ahead = []

    def send(data):
        ahead.append(sum(t is not None for t in sent) + data.count(b"\n") - answered[0])

    loop = loadgen.OpenLoop(None, clock=clock, sleep=sleep)
    loop.pace(schedule, clock(), send, sent,
              in_flight=lambda index: index - answered[0], max_in_flight=3)
    assert all(t is not None for t in sent)
    assert max(ahead) == 3


def test_reply_id_reads_the_leading_id_without_parsing():
    assert loadgen.reply_id(b'{"id": 1234, "ok": true, "result": {}}') == 1234
    assert loadgen.reply_id(b'{"ok": true, "id": 7}') == 7


def test_work_is_scaled_by_the_loop_samples_around_it():
    import common

    class Scripted(common.HostSpeed):
        def __init__(self, loops):
            super().__init__()
            self.loops = iter(loops)

        def sample(self):
            self.samples.append(next(self.loops))
            return self.samples[-1]

    nominal = common.HostSpeed.NOMINAL_S
    speed = Scripted([nominal * 1.5, nominal * 2.5, nominal, nominal])
    assert speed.around(lambda: 4.0) == (4.0, pytest.approx(2.0))
    result, seconds, at_nominal = speed.timed(lambda: "done")
    assert result == "done" and at_nominal == pytest.approx(seconds)
    assert speed.factor() == pytest.approx(1.5)
    reported, note = common.speed_figures({"r": (10.0, 20.0, "1/s")}, speed)
    assert reported == {"r": (20.0, "1/s")}
    assert note.endswith("as measured: r 10")
