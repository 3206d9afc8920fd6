"""The ``serve_read`` and ``serve_observe`` workloads: open-loop traffic
against a separate server process.

``serve_read`` starts ``python -m repro serve --workers 1`` over the three
``basic`` pipelines.  ``serve_observe`` starts :mod:`launcher` (the same
server built from the public ``ModelRegistry``/``Calibrator``/
``EstimationServer`` API, because the CLI cannot attach calibration).

Set-up builds and saves the pipelines, starts the server, and warms it up
with one request per pipeline and configuration covering every problem
order the mix uses.  The timed phases then play over one pipelined
connection at fixed rates: ``low`` (Poisson, 40 rps), ``burst`` (Poisson
bursts of 8, 160 rps mean) and ``load`` (Poisson, 1000 rps), during which
the server's CPU time per request gives the rate one server core
sustains.  Afterwards every answer is checked against the same saved
pipelines in-process.
"""

from __future__ import annotations

import json
import random
import select
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import build
import loadgen
from common import (
    PYTHON, ROOT, HostSpeed, Tracer, child_env, speed_figures,
    peak_rss_mb,
)

FAMILIES = build.FAMILIES

#: Phase rates: fixed constants, never derived from a capacity probe.
LOW_RATE = 40.0
BURST_RATE = 160.0
BURST_SIZE = 8
LOAD_RATE = 1000.0
#: Share of ``--seconds`` each untraced phase plays in total.  The
#: phases are cut into ``CYCLES`` segments and played in turn (low,
#: burst, load, low, ...), so that each phase's figures average over the
#: whole run rather than over one stretch of it.
LOW_SHARE, BURST_SHARE, LOAD_SHARE = 0.35, 0.25, 0.2
CYCLES = 6
PHASES = ("low", "burst", "load")
#: Distinct problem orders per pipeline in the read mix: 62 configurations
#: x 80 orders = 4960 keys per pipeline, above the 4096-entry cache.
READ_SIZES = 80
ZIPF_S = 1.0
#: Full set-ups (build, save, spawn, warm up) per run.  The cold-start
#: median also takes one throwaway server spawn after every cycle,
#: spreading its samples over the run.
SETUPS = 3
#: Outstanding requests while warming up.
WARMUP_WINDOW = 16


# -- traffic mixes -------------------------------------------------------------


@dataclass
class ServedSet:
    """The served pipelines and what the mixes draw from them."""

    directories: Dict[str, Path]
    configs: Dict[str, List[Tuple[int, ...]]]
    sizes: Dict[str, List[int]]
    #: serve_observe only: serialized ground-truth records per pipeline.
    records: Dict[str, List[dict]] = field(default_factory=dict)


class ReadMix:
    """85% ``estimate`` (one config, one N), 15% ``optimize`` (top 3);
    keys drawn Zipf-like from a set larger than the estimate cache."""

    def __init__(self, served: ServedSet, rng: random.Random):
        self.rng = rng
        self.keys = [
            (name, config, n)
            for name in sorted(served.configs)
            for config in served.configs[name]
            for n in served.sizes[name]
        ]
        rng.shuffle(self.keys)
        total, self.cum_weights = 0.0, []
        for rank in range(len(self.keys)):
            total += 1.0 / (rank + 1) ** ZIPF_S
            self.cum_weights.append(total)

    def __call__(self, index: int) -> dict:
        rng = self.rng
        name, config, n = rng.choices(self.keys, cum_weights=self.cum_weights)[0]
        if rng.random() < 0.85:
            return {"op": "estimate", "pipeline": name, "config": list(config), "n": n}
        return {"op": "optimize", "pipeline": name, "n": n, "top": 3}


class ObserveMix:
    """70% ``estimate`` on keys never asked before (the cache is bypassed)
    and 30% ``observe`` of pre-generated ground-truth records."""

    def __init__(self, served: ServedSet, rng: random.Random):
        self.rng = rng
        self.served = served
        self.names = sorted(served.configs)
        self.seen: set = set()
        self.next_record = {name: 0 for name in self.names}

    def __call__(self, index: int) -> dict:
        rng = self.rng
        name = self.names[rng.randrange(len(self.names))]
        if rng.random() < 0.30:
            records = self.served.records[name]
            record = records[self.next_record[name] % len(records)]
            self.next_record[name] += 1
            return {"op": "observe", "pipeline": name, "record": record, "source": "bench"}
        configs = self.served.configs[name]
        sizes = self.served.sizes[name]
        while True:
            key = (configs[rng.randrange(len(configs))], rng.randint(sizes[0], sizes[-1]))
            if (name, key) not in self.seen:
                self.seen.add((name, key))
                return {"op": "estimate", "pipeline": name, "config": list(key[0]), "n": key[1]}


def warmup_requests(served: ServedSet) -> List[dict]:
    """One optimize per pipeline over every mix order, and one estimate
    per pipeline and configuration over the same orders."""
    out = []
    for name in sorted(served.configs):
        out.append({"op": "optimize", "pipeline": name, "ns": served.sizes[name], "top": 3})
        for config in served.configs[name]:
            out.append({"op": "estimate", "pipeline": name, "config": list(config),
                        "ns": served.sizes[name]})
    return out


@dataclass
class Plan:
    """Every schedule of one run, built in set-up from the seed."""

    warmup: loadgen.Schedule
    #: ``(phase, schedule)`` segments in the order they are played.
    segments: List[Tuple[str, loadgen.Schedule]]

    def schedules(self) -> List[loadgen.Schedule]:
        return [self.warmup] + [schedule for _, schedule in self.segments]


def make_plan(served: ServedSet, mix, seed: int, seconds: float, trace: bool) -> Plan:
    """Phase lengths follow from ``seconds``; the traced run plays longer
    ``low`` and ``burst`` phases so that their p99 has ten samples beyond
    it."""
    rng = random.Random(seed * 7919 + 17)
    needed = loadgen.min_samples(0.99) if trace else 0
    durations = {
        "low": needed / LOW_RATE if trace else LOW_SHARE * seconds,
        "burst": needed / BURST_RATE if trace else BURST_SHARE * seconds,
        "load": LOAD_SHARE * seconds,
    }

    def offsets(phase: str, duration: float) -> List[float]:
        if phase == "burst":
            return loadgen.burst_offsets(rng, BURST_RATE, BURST_SIZE, duration)
        return loadgen.poisson_offsets(rng, LOW_RATE if phase == "low" else LOAD_RATE, duration)

    warm = warmup_requests(served)
    warmup = loadgen.build_schedule([0.0] * len(warm), warm.__getitem__)
    segments: List[Tuple[str, loadgen.Schedule]] = []
    count = {phase: 0 for phase in PHASES}

    def add(phase: str, duration: float) -> None:
        first = segments[-1][1].first_id + len(segments[-1][1]) if segments else len(warmup)
        schedule = loadgen.build_schedule(offsets(phase, duration), mix, first)
        segments.append((phase, schedule))
        count[phase] += len(schedule)

    for _ in range(CYCLES):
        for phase in PHASES:
            add(phase, durations[phase] / CYCLES)
    for phase in ("low", "burst"):  # Poisson counts vary: top up to `needed`
        while count[phase] < needed:
            add(phase, durations[phase] / CYCLES)
    return Plan(warmup, segments)


# -- server lifecycle ---------------------------------------------------------


class Server:
    """A server child process on an ephemeral port."""

    def __init__(self, argv: Sequence[str]):
        self.began = time.perf_counter()
        self.sock = None
        # Unbuffered, so that select() sees every line readline() has not.
        self.proc = subprocess.Popen(
            list(argv), env=child_env(), cwd=ROOT, bufsize=0,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            self.port = self._read_port()
            self.sock = loadgen.connect("127.0.0.1", self.port)
            reply = loadgen.request_reply(self.sock, {"id": -1, "op": "ping"})
            if not reply.get("ok"):
                raise RuntimeError(f"server did not answer ping: {reply}")
        except BaseException:
            self.stop()
            raise
        #: Spawn to first answered ping (s).
        self.ready_s = time.perf_counter() - self.began

    def _read_port(self, timeout_s: float = 60.0) -> int:
        """The port from the server's ``serving ... on HOST:PORT`` line."""
        stdout = self.proc.stdout
        assert stdout is not None
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([stdout], [], [], remaining)[0]:
                raise RuntimeError(f"server printed no address within {timeout_s:g} s")
            line = stdout.readline().decode(errors="replace")
            if not line:
                raise RuntimeError(f"server exited ({self.proc.wait()}) before listening")
            if line.startswith("serving "):
                return int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def call(self, payload: dict) -> dict:
        return loadgen.request_reply(self.sock, payload)

    def cpu_s(self) -> float:
        """CPU time the server process has used so far (ns resolution)."""
        total = 0
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            total += int((task / "schedstat").read_text().split()[0])
        return total / 1e9

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def server_argv(workload: str, served: ServedSet, logs: Path) -> List[str]:
    dirs = []
    for name, directory in sorted(served.directories.items()):
        dirs += ["--dir", f"{name}={directory}"]
    if workload == "serve_read":
        return [PYTHON, "-m", "repro", "serve", "--port", "0", "--workers", "1", *dirs]
    launcher = Path(__file__).resolve().parent / "launcher.py"
    return [PYTHON, str(launcher), "--port", "0", "--logs", str(logs), *dirs]


# -- set-up ----------------------------------------------------------------------


def prepare(spec, seed: int, out: Path, tracer: Tracer) -> ServedSet:
    """Build and save the three ``basic`` pipelines the server loads."""
    directories, configs, sizes = {}, {}, {}
    for family in FAMILIES:
        pipeline = build.construct(spec, family, "basic", seed, tracer)
        directories[family] = out / family
        build.save(pipeline, directories[family], tracer)
        kinds = pipeline.plan.kinds
        configs[family] = [
            tuple(c.as_flat_tuple(kinds)) for c in pipeline.plan.evaluation_configs
        ]
        eval_sizes = list(pipeline.plan.evaluation_sizes)
        low, high = min(eval_sizes), max(eval_sizes)
        step = (high - low) / (READ_SIZES - 1)
        sizes[family] = sorted({int(round(low + k * step)) for k in range(READ_SIZES)})
    return ServedSet(directories, configs, sizes)


def observation_records(spec, seed: int) -> Dict[str, List[dict]]:
    """Ground-truth runs at a seed distinct from the served pipelines'."""
    from repro.core.pipeline import EstimationPipeline, PipelineConfig

    out = {}
    for family in FAMILIES:
        truth = EstimationPipeline(
            spec, PipelineConfig(protocol="basic", seed=seed + 50_000, workload=family)
        )
        out[family] = [record.to_dict() for record in truth.evaluation]
    return out


def phase_errors(result: loadgen.PhaseResult) -> int:
    """Unanswered requests plus error replies."""
    errors = result.unanswered()
    for line in result.replies:
        if line is not None and b'"ok": true' not in line[:64]:
            errors += 1
    return errors


# -- correctness --------------------------------------------------------------


def check_answers(served: ServedSet, results, requests: Dict[int, dict], tracer: Tracer):
    """Served estimates and optimize winners against in-process calls on
    the same saved pipelines, bit for bit.  Returns (failures, loaded
    pipelines, estimate cells checked, optimize sizes checked)."""
    from repro.cluster.config import ClusterConfig
    from repro.core.persistence import load_pipeline

    failures: List[str] = []
    pipelines = {}
    for name, directory in served.directories.items():
        with tracer.span("core.persistence.load"):
            pipelines[name] = load_pipeline(directory)
    estimates: Dict[Tuple, float] = {}
    optimizes: Dict[Tuple[str, int], list] = {}
    for result in results:
        for line in result.replies:
            if line is None:
                continue
            reply = json.loads(line)
            if not reply.get("ok"):
                continue  # counted by phase_errors
            request, body = requests[reply["id"]], reply["result"]
            if request["op"] == "estimate":
                for n, total in zip(body["ns"], body["totals"]):
                    estimates[(request["pipeline"], tuple(request["config"]), n)] = total
            elif request["op"] == "optimize":
                for size in body["sizes"]:
                    optimizes[(request["pipeline"], size["n"])] = [
                        (tuple(r["config"]), r["estimate_s"]) for r in size["ranking"]
                    ]
    by_config: Dict[Tuple[str, tuple], List[Tuple[int, float]]] = {}
    for (name, config, n), total in estimates.items():
        by_config.setdefault((name, config), []).append((n, total))
    for (name, config), cells in by_config.items():
        pipeline = pipelines[name]
        local = pipeline.estimate_totals(
            ClusterConfig.from_tuple(pipeline.plan.kinds, config), [n for n, _ in cells]
        )
        for (n, served_total), mine in zip(cells, local):
            if repr(float(mine)) != repr(float(served_total)):
                failures.append(f"estimate {name} {config} n={n}: "
                                f"served {served_total!r}, local {float(mine)!r}")
    for name, pipeline in pipelines.items():
        sizes = sorted(n for pname, n in optimizes if pname == name)
        if not sizes:
            continue
        with tracer.span("core.search"):
            outcomes = pipeline.optimize_many(sizes)
        kinds = pipeline.plan.kinds
        for outcome in outcomes:
            tracer.count(
                "core.search.evaluations",
                outcome.stats.evaluations if outcome.stats is not None else 0,
            )
            local = [
                (tuple(e.config.as_flat_tuple(kinds)), e.estimate_s) for e in outcome.top(3)
            ]
            if local != optimizes[(name, outcome.n)]:
                failures.append(f"optimize {name} n={outcome.n}: served winners differ")
        if pipeline.perf.grid is not None:
            tracer.count("core.grid.cells", pipeline.perf.grid.cells)
    return failures, pipelines, len(estimates), len(optimizes)


def check_calibration(server: Server, pipelines, observes: List[dict], tracer: Tracer):
    """The server's final calibration status against an in-process replay
    of the same record stream; returns (failures, ingest µs samples)."""
    from repro.calibrate import Calibrator, ObservationLog
    from repro.measure.record import MeasurementRecord

    calibrators = {
        name: Calibrator(name, (lambda p=pipeline: p), log=ObservationLog())
        for name, pipeline in pipelines.items()
    }
    records = [
        (r["pipeline"], MeasurementRecord.from_dict(r["record"]), r["source"])
        for r in observes
    ]
    samples: List[float] = []
    with tracer.span("calibrate.replay"):
        for name, record, source in records:
            began = time.perf_counter()
            calibrators[name].ingest(record, source=source)
            samples.append((time.perf_counter() - began) * 1e6)
    failures = []
    for name, calibrator in calibrators.items():
        reply = server.call({"id": -2, "op": "calibration", "pipeline": name})
        local = json.loads(json.dumps(calibrator.status()))
        if not reply.get("ok") or reply["result"] != local:
            failures.append(f"calibration status of {name} differs from in-process replay")
    return failures, samples


# -- the workload --------------------------------------------------------------


@dataclass
class Observed:
    """What the timed phases produced; the metrics are computed from it."""

    plan: Plan
    #: ``(phase, result)`` of every segment, in the order played.
    played: List[Tuple[str, loadgen.PhaseResult]]
    #: Server CPU seconds per phase.
    cpu_s: Dict[str, float]
    #: Per phase: summed differences of the server's ``stats`` replies
    #: taken around each segment (batches, batch sizes, groups, cache).
    counters: Dict[str, Dict[str, float]]
    #: The last ``stats`` reply.
    final_stats: dict
    server_rss_mb: float
    log_bytes: int = 0

    def results(self, phase: str) -> List[loadgen.PhaseResult]:
        return [result for name, result in self.played if name == phase]

    def latencies_ms(self, phase: str) -> List[float]:
        return [v for r in self.results(phase) for v in r.latencies_ms()]

    def lateness_ms(self, phase: str) -> List[float]:
        return [v for r in self.results(phase) for v in r.lateness_ms()]

    def attempted(self, phase: str) -> int:
        return sum(r.attempted for r in self.results(phase))


def stats_counters(stats: dict) -> Dict[str, float]:
    """The cumulative counters of one ``stats`` reply that phases diff."""
    def histogram(key):
        hist = stats["batches"][key]["histogram"]
        return sum(int(k) * v for k, v in hist.items()), sum(hist.values())

    size_sum, batches = histogram("sizes")
    group_sum, _ = histogram("groups")
    cache = stats["cache"]["session_cache"]
    return {"batched": size_sum, "batches": batches, "groups": group_sum,
            "hits": cache["hits"], "misses": cache["misses"]}


def play_segments(server: "Server", plan: Plan, tracer: Tracer, spare) -> Observed:
    """Play every segment over the server's connection, diffing its CPU
    time and counters around each one; ``spare()`` runs after every cycle."""
    loop = loadgen.OpenLoop(server.sock)
    played: List[Tuple[str, loadgen.PhaseResult]] = []
    cpu = {p: 0.0 for p in PHASES}
    counters: Dict[str, Dict[str, float]] = {p: {} for p in PHASES}
    before = stats_counters(server.call({"id": -3, "op": "stats"})["result"])
    for index, (phase, schedule) in enumerate(plan.segments):
        began = server.cpu_s()
        with tracer.span(f"phase.{phase}"):
            played.append((phase, loop.play(schedule)))
        cpu[phase] += server.cpu_s() - began
        time.sleep(0.05)
        stats = server.call({"id": -4, "op": "stats"})["result"]
        after = stats_counters(stats)
        for key, value in after.items():
            counters[phase][key] = counters[phase].get(key, 0) + value - before[key]
        before = after
        if index % len(PHASES) == len(PHASES) - 1:
            spare()
            before = stats_counters(server.call({"id": -5, "op": "stats"})["result"])
    return Observed(plan, played, cpu, counters, final_stats=stats,
                    server_rss_mb=server.peak_rss_mb())


def run(workload: str, seed: int, seconds: float, tracer: Tracer, directory: Path):
    from repro.cluster.presets import kishimoto_cluster

    spec = kishimoto_cluster()
    observe = workload == "serve_observe"
    records = observation_records(spec, seed) if observe else {}
    #: (as measured, at nominal host speed), seconds.
    setups: List[Tuple[float, float]] = []
    spawns: List[Tuple[float, float]] = []
    server: Optional[Server] = None
    failures: List[str] = []
    speed = HostSpeed()
    try:
        for attempt in range(SETUPS):
            # Each piece is timed between host-speed samples; stopping the
            # previous server and planning the load are not set-up.
            served, prepare_s, prepare_nominal_s = speed.timed(lambda: prepare(
                spec, seed, directory / f"setup{attempt}",
                tracer if attempt == SETUPS - 1 else Tracer(False)))
            served.records = records
            if attempt == 0:
                rng = random.Random(seed)
                mix = ObserveMix(served, rng) if observe else ReadMix(served, rng)
                plan = make_plan(served, mix, seed, seconds, tracer.enabled)
            if server is not None:
                server.stop()
            logs = directory / f"logs{attempt}"
            server, spawn_s, spawn_nominal_s = speed.timed(
                lambda: Server(server_argv(workload, served, logs)))
            warm, warm_s, warm_nominal_s = speed.timed(lambda: loadgen.OpenLoop(
                server.sock).play(plan.warmup, max_in_flight=WARMUP_WINDOW))
            setups.append((prepare_s + spawn_s + warm_s,
                           prepare_nominal_s + spawn_nominal_s + warm_nominal_s))
            spawns.append((server.ready_s, server.ready_s * spawn_nominal_s / spawn_s))

        requests = {}
        for schedule in plan.schedules():
            for payload in schedule.requests:
                requests[payload["id"]] = payload

        def spare() -> None:
            def spawn() -> float:
                argv = server_argv(workload, served, directory / f"spare{len(spawns)}")
                with Server(argv) as extra:
                    return extra.ready_s

            spawns.append(speed.around(spawn))

        seen = play_segments(server, plan, tracer, spare)
        results = [warm] + [result for _, result in seen.played]
        answer_failures, pipelines, cells, sizes = check_answers(
            served, results, requests, tracer
        )
        failures += answer_failures
        ingest_samples: List[float] = []
        if observe:
            observes = [
                requests[result.first_id + position]
                for result in results
                for position, sent in enumerate(result.sent)
                if sent is not None and result.tags[position] == "observe"
            ]
            cal_failures, ingest_samples = check_calibration(
                server, pipelines, observes, tracer
            )
            failures += cal_failures
            seen.log_bytes = sum(f.stat().st_size for f in logs.glob("*.jsonl"))
    finally:
        if server is not None:
            server.stop()

    attempted = sum(r.attempted for r in results)
    errors = sum(phase_errors(r) for r in results)
    wrong = len(failures)
    if errors:
        failures.append(f"{errors} requests failed or went unanswered")
    low_ms, burst_ms = seen.latencies_ms("low"), seen.latencies_ms("burst")
    load_requests = seen.attempted("load")
    # Set-up and spawns at nominal host speed.  Latencies, which are mostly
    # the batch window and wake-ups, are as measured, and so is throughput:
    # it is the server's CPU time, spent on the other core than the one the
    # speed loop samples, and scaling it made it less steady.
    e2e, speed_note = speed_figures({
        "setup_s": (statistics.median(s for s, _ in setups),
                    statistics.median(n for _, n in setups), "s"),
        "cold_start_s": (statistics.median(s for s, _ in spawns),
                         statistics.median(n for _, n in spawns), "s"),
    }, speed)
    e2e.update({
        "throughput_per_s": (load_requests / seen.cpu_s["load"], "1/s"),
        "peak_rss_mb": (seen.server_rss_mb, "MB"),
        "p50_ms.low": (loadgen.percentile(low_ms, 0.5), "ms"),
        "p50_ms.burst": (loadgen.percentile(burst_ms, 0.5), "ms"),
    })
    notes = [
        f"phases ({CYCLES} segments each): low {len(low_ms)}, burst {len(burst_ms)}, "
        f"load {load_requests} requests",
        f"load phase ({LOAD_RATE:g} rps offered): p50 "
        f"{loadgen.percentile(seen.latencies_ms('load'), 0.5):.3f} ms, server CPU "
        f"{seen.cpu_s['load'] / load_requests * 1e6:.1f} us/request",
        f"checked {cells} estimate cells and {sizes} optimize sizes bit for bit",
        speed_note,
        f"setup_s samples, as measured: {', '.join(f'{s:.3f}' for s, _ in setups)}; "
        f"spawn-to-ping: {', '.join(f'{s:.3f}' for s, _ in spawns)}",
    ]
    layers: Dict[str, Tuple[float, str]] = {}
    if tracer.enabled:
        layers = serve_layers(tracer, seen, served, pipelines, ingest_samples, observe,
                              spec, seed)
    return {
        "e2e": e2e,
        "layers": layers,
        "attempted": attempted,
        "failed": errors + wrong,
        "failures": failures,
        "notes": notes,
    }


def serve_layers(tracer, seen: Observed, served: ServedSet, pipelines, ingest_samples,
                 observe, spec, seed):
    """Per-layer figures of a traced serve run."""
    import probes

    low_ms, burst_ms = seen.latencies_ms("low"), seen.latencies_ms("burst")
    burst = seen.counters["burst"]
    mean_size_burst = burst["batched"] / burst["batches"] if burst["batches"] else 0.0
    groups_burst = burst["groups"] / burst["batches"] if burst["batches"] else 0.0
    loaded = list(pipelines.values())
    layers: Dict[str, Tuple[float, str]] = {
        "measure.campaign_s": (tracer.total("measure.campaign"), "s"),
        "measure.runs": (tracer.counts.get("measure.runs", 0), "count"),
        "core.adjust_s": (tracer.total("core.adjust"), "s"),
        "core.adjust.runs": (tracer.counts.get("core.adjust.runs", 0), "count"),
        "core.fit_s": (tracer.total("core.fit"), "s"),
        "core.search_s": (tracer.total("core.search"), "s"),
        "core.search.evaluations": (tracer.counts.get("core.search.evaluations", 0), "count"),
        "core.grid.cells": (tracer.counts.get("core.grid.cells", 0), "count"),
        "core.persistence.save_s": (tracer.total("core.persistence.save"), "s"),
        "core.persistence.load_s": (tracer.total("core.persistence.load"), "s"),
    }
    taken = {n for sizes in served.sizes.values() for n in sizes}
    for pipeline in loaded:
        taken.update(pipeline.plan.evaluation_sizes)
    layers.update(probes.model_probes(
        loaded, seed, max(1, round(mean_size_burst * 0.15)), taken))
    layers.update(probes.codec_probes(
        [line for phase in ("low", "burst") for r in seen.results(phase) for line in r.replies],
        [line for phase, schedule in seen.plan.segments if phase != "load"
         for line in schedule.lines],
    ))
    layers["workloads.run_us"] = probes.run_us(spec, seed)
    layers["cli.import_s"] = probes.cli_import_s()

    # In-process cost of one request of the mix (µs): parse, compute, encode.
    codec = layers["serve.protocol.parse_us"][0] + layers["serve.protocol.encode_us"][0]
    if observe:
        compute = (0.7 * layers["core.estimate_us"][0]
                   + 0.3 * statistics.median(ingest_samples))
    else:
        compute = (0.85 * layers["core.estimate_us"][0]
                   + 0.15 * layers["core.optimize_us.single"][0])
    layers["serve.wait_ms.low"] = (
        loadgen.percentile(low_ms, 0.5) - (compute + codec) / 1e3, "ms")
    layers["serve.wait_ms.burst"] = (
        loadgen.percentile(burst_ms, 0.5) - (compute + codec) / 1e3, "ms")
    layers["serve.batch.mean_size.burst"] = (mean_size_burst, "requests")
    layers["serve.batch.groups"] = (groups_burst, "groups/batch")
    layers["serve.shed"] = (seen.final_stats["shed"], "count")
    hits = seen.counters["low"]["hits"] + burst["hits"]
    lookups = hits + seen.counters["low"]["misses"] + burst["misses"]
    layers["perf.cache.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    calibration = seen.final_stats["calibration"]
    observations = calibration["observations"]
    layers["calibrate.ingest_us"] = (
        statistics.median(ingest_samples) if ingest_samples else 0.0, "us")
    layers["calibrate.observations"] = (observations, "count")
    layers["calibrate.log_bytes_per_obs"] = (
        seen.log_bytes / observations if observations else 0.0, "bytes")
    layers["calibrate.alarms"] = (calibration["drift_alarms"], "count")
    layers["p90_ms.low"] = (loadgen.percentile(low_ms, 0.90), "ms")
    layers["p99_ms.low"] = (loadgen.percentile(low_ms, 0.99), "ms")
    layers["p90_ms.burst"] = (loadgen.percentile(burst_ms, 0.90), "ms")
    layers["p99_ms.burst"] = (loadgen.percentile(burst_ms, 0.99), "ms")
    layers["gen.late_ms.p99"] = (
        loadgen.percentile(seen.lateness_ms("low") + seen.lateness_ms("burst"), 0.99), "ms")

    errs, losses = [], []
    for pipeline in loaded:
        outcomes = pipeline.optimize_many(list(pipeline.plan.evaluation_sizes))
        err, loss = build.accuracy(pipeline, outcomes)
        errs.append(err)
        losses.append(loss)
    layers["accuracy.est_err_pct"] = (statistics.fmean(errs), "%")
    layers["accuracy.pick_loss_pct"] = (statistics.fmean(losses), "%")
    return layers
