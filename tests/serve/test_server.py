"""End-to-end service tests over a real socket.

These are the acceptance tests of the serving layer: served numbers are
*bitwise* those of direct :class:`~repro.core.estimator.Estimator` calls
on the same loaded pipeline, concurrent traffic coalesces into
micro-batches, overload sheds typed ``Overloaded`` replies instead of
hanging, shutdown drains everything admitted, and a re-saved pipeline
directory hot-swaps without dropping requests.
"""

import asyncio
import json
import shutil
from pathlib import Path

from repro.cluster.config import ClusterConfig
from repro.core.persistence import load_pipeline
from repro.serve import EstimationServer, ModelRegistry, fire_concurrent

FIXTURE = Path(__file__).parent.parent / "golden" / "format1_pipeline"


def serve(coro_factory, **server_kwargs):
    """Start a server on an ephemeral port, run the scenario, shut down."""

    async def main():
        registry = server_kwargs.pop("registry", None)
        if registry is None:
            registry = ModelRegistry()
            registry.add("golden", FIXTURE)
        server_kwargs.setdefault("refresh_interval_s", None)
        server = EstimationServer(registry, port=0, **server_kwargs)
        host, port = await server.start()
        try:
            return await coro_factory(server, host, port)
        finally:
            await server.shutdown()

    return asyncio.run(main())


async def roundtrip(host, port, payload):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    line = await reader.readline()
    writer.close()
    return json.loads(line)


class TestGoldenIdentity:
    def test_served_estimates_bitwise_equal_direct_calls(self):
        """Acceptance: 64 concurrent queries, every total bitwise equal
        to the direct Estimator path on the same loaded pipeline."""
        sizes = [1600 + 80 * i for i in range(64)]
        payloads = [
            {"op": "estimate", "pipeline": "golden", "config": [1, 2, 8, 1], "n": n}
            for n in sizes
        ]

        async def scenario(server, host, port):
            return await fire_concurrent(host, port, payloads, concurrency=64)

        replies, _ = serve(scenario)
        direct = load_pipeline(FIXTURE)
        config = ClusterConfig.from_tuple(direct.plan.kinds, (1, 2, 8, 1))
        want = direct.estimate_totals(config, sizes)
        assert len(replies) == 64
        for reply, n, expected in zip(replies, sizes, want):
            assert reply["ok"], reply
            assert reply["result"]["ns"] == [n]
            assert reply["result"]["totals"] == [float(expected)]  # bitwise

    def test_concurrency_actually_batches(self):
        payloads = [
            {"op": "estimate", "pipeline": "golden", "config": [1, 2, 8, 1],
             "n": 1600 + 80 * i}
            for i in range(32)
        ]

        async def scenario(server, host, port):
            await fire_concurrent(host, port, payloads, concurrency=32)
            return server.metrics

        metrics = serve(scenario, batch_window_s=0.01)
        assert metrics.batch_sizes.max > 1, "no coalescing happened"
        assert metrics.coalesced_requests > 0

    def test_optimize_matches_direct_ranking(self):
        async def scenario(server, host, port):
            return await roundtrip(
                host, port,
                {"id": 1, "op": "optimize", "pipeline": "golden", "n": 3200, "top": 5},
            )

        reply = serve(scenario)
        direct = load_pipeline(FIXTURE)
        outcome = direct.optimize(3200)
        kinds = direct.plan.kinds
        assert reply["ok"]
        assert reply["result"]["sizes"][0]["ranking"] == [
            {"config": list(e.config.as_flat_tuple(kinds)), "estimate_s": e.estimate_s}
            for e in outcome.top(5)
        ]


class TestOverload:
    def test_overload_returns_typed_replies_not_hangs(self):
        """Acceptance: saturating a tiny queue yields Overloaded replies
        with backoff hints; every request is answered, nothing crashes."""
        payloads = [
            {"op": "estimate", "pipeline": "golden", "config": [1, 2, 8, 1],
             "n": 1600 + 80 * i}
            for i in range(48)
        ]

        async def scenario(server, host, port):
            return await fire_concurrent(host, port, payloads, concurrency=48)

        replies, _ = serve(scenario, max_pending=2, batch_window_s=0.05, max_batch=4)
        assert len(replies) == 48  # nothing dropped or hung
        shed = [r for r in replies if not r["ok"]]
        served = [r for r in replies if r["ok"]]
        assert served, "service answered nothing"
        assert shed, "tiny queue never shed under 48-way concurrency"
        for reply in shed:
            assert reply["error"]["type"] == "Overloaded"
            assert reply["error"]["capacity"] == 2
            assert reply["error"]["retry_after_ms"] > 0


class TestControlPlane:
    def test_ping_models_stats(self):
        async def scenario(server, host, port):
            ping = await roundtrip(host, port, {"id": 1, "op": "ping"})
            models = await roundtrip(
                host, port, {"id": 2, "op": "models", "pipeline": "golden"}
            )
            await roundtrip(
                host, port,
                {"id": 3, "op": "estimate", "pipeline": "golden",
                 "config": [1, 2, 8, 1], "n": 3200},
            )
            stats = await roundtrip(host, port, {"id": 4, "op": "stats"})
            return ping, models, stats

        ping, models, stats = serve(scenario)
        assert ping["result"]["pipelines"] == ["golden"]
        assert models["result"]["count"] == 42
        result = stats["result"]
        assert result["endpoints"]["estimate"]["requests"] == 1
        assert result["endpoints"]["estimate"]["latency"]["count"] == 1
        assert result["cache"]["pipelines"]["golden"]["cache"]["misses"] == 1

    def test_bad_request_replies_typed_with_id(self):
        async def scenario(server, host, port):
            bad_json = await roundtrip(host, port, "this is not json")
            bad_op = await roundtrip(host, port, {"id": 42, "op": "frobnicate"})
            unknown = await roundtrip(
                host, port,
                {"id": 43, "op": "estimate", "pipeline": "nope",
                 "config": [1, 1], "n": 400},
            )
            return bad_json, bad_op, unknown

        async def roundtrip(host, port, payload):
            reader, writer = await asyncio.open_connection(host, port)
            text = payload if isinstance(payload, str) else json.dumps(payload)
            writer.write((text + "\n").encode())
            await writer.drain()
            line = await reader.readline()
            writer.close()
            return json.loads(line)

        bad_json, bad_op, unknown = serve(scenario)
        assert bad_json["ok"] is False
        assert bad_json["error"]["type"] == "BadRequest"
        assert bad_op["id"] == 42 and bad_op["error"]["type"] == "BadRequest"
        assert unknown["id"] == 43
        assert unknown["error"]["type"] == "UnknownPipeline"


class TestGracefulShutdown:
    def test_inflight_requests_answered_before_exit(self):
        """Requests admitted before shutdown all get real replies."""

        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            for i in range(16):
                payload = {"id": i, "op": "estimate", "pipeline": "golden",
                           "config": [1, 2, 8, 1], "n": 1600 + 80 * i}
                writer.write((json.dumps(payload) + "\n").encode())
            await writer.drain()
            await asyncio.sleep(0.01)  # let the reader loop admit them
            await server.shutdown()
            replies = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                replies.append(json.loads(line))
            writer.close()
            return replies

        replies = serve(scenario, batch_window_s=0.05)
        assert len(replies) == 16
        answered = [r for r in replies if r["ok"]]
        refused = [r for r in replies if not r["ok"]]
        assert all(r["error"]["type"] == "ShuttingDown" for r in refused)
        assert answered, "shutdown dropped every in-flight request"
        for reply in answered:
            assert reply["result"]["totals"]


class TestHotReload:
    def test_resave_swaps_without_dropping_requests(self, tmp_path):
        """Acceptance: re-saving a served directory atomically swaps the
        entry (new fingerprint, invalidated cache) while requests keep
        being answered."""
        served_dir = tmp_path / "pipeline"
        shutil.copytree(FIXTURE, served_dir)
        registry = ModelRegistry()
        registry.add("golden", served_dir)

        async def scenario(server, host, port):
            payload = {"id": 0, "op": "estimate", "pipeline": "golden",
                       "config": [1, 3, 8, 1], "n": 3200}
            before = await roundtrip(host, port, payload)

            manifest_path = served_dir / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            manifest["adjustment"]["scales"] = [
                [mi, scale * 2.0] for mi, scale in manifest["adjustment"]["scales"]
            ]
            manifest_path.write_text(json.dumps(manifest, indent=1))

            reload_reply = await roundtrip(host, port, {"id": 1, "op": "reload"})
            after = await roundtrip(host, port, payload)
            stats = await roundtrip(host, port, {"id": 2, "op": "stats"})
            return before, reload_reply, after, stats

        before, reload_reply, after, stats = serve(scenario, registry=registry)
        assert reload_reply["result"]["reloaded"] == ["golden"]
        assert before["ok"] and after["ok"]
        assert after["result"]["fingerprint"] != before["result"]["fingerprint"]
        assert after["result"]["totals"][0] == 2.0 * before["result"]["totals"][0]
        pipeline_stats = stats["result"]["cache"]["pipelines"]["golden"]
        assert pipeline_stats["generation"] == 2
        # old generation's cache was retired; new one started cold
        assert pipeline_stats["cache"]["misses"] == 1
        assert stats["result"]["cache"]["session_cache"]["misses"] == 2


class TestCalibrationOps:
    """The observe/calibration ops: the serve side of the feedback loop."""

    @staticmethod
    def _observed_record(pipeline, config_values, n):
        from repro.hpl.driver import run_hpl
        from repro.measure.record import MeasurementRecord

        config = ClusterConfig.from_tuple(pipeline.plan.kinds, config_values)
        result = run_hpl(pipeline.spec, config, n, noise=None, seed=7)
        return MeasurementRecord.from_result(result, pipeline.plan.kinds, seed=7)

    def _serving(self):
        """(registry, calibrator) pair over the golden fixture."""
        from repro.calibrate import Calibrator

        registry = ModelRegistry()
        registry.add("golden", FIXTURE)
        calibrator = Calibrator(
            "golden", pipeline_provider=lambda: registry.get("golden").pipeline
        )
        return registry, calibrator

    def test_observe_ingests_and_reports_drift_state(self):
        registry, calibrator = self._serving()
        record = self._observed_record(
            registry.get("golden").pipeline, [1, 3, 8, 1], 3200
        )

        async def scenario(server, host, port):
            observe = await roundtrip(
                host, port,
                {"id": 1, "op": "observe", "pipeline": "golden",
                 "record": record.to_dict(), "source": "bench"},
            )
            status = await roundtrip(
                host, port, {"id": 2, "op": "calibration", "pipeline": "golden"}
            )
            everyone = await roundtrip(host, port, {"id": 3, "op": "calibration"})
            return observe, status, everyone, server.metrics

        observe, status, everyone, metrics = serve(
            scenario, registry=registry, calibrators={"golden": calibrator}
        )
        assert observe["ok"], observe
        result = observe["result"]
        assert result["seq"] == 0
        assert result["source"] == "bench"
        assert result["predicted"] is not None
        assert result["drift"]["drifted"] is False
        assert status["ok"]
        assert status["result"]["observations"] == 1
        assert status["result"]["sources"] == {"bench": 1}
        assert status["result"]["fingerprint"] == registry.get("golden").fingerprint
        assert list(everyone["result"]["pipelines"]) == ["golden"]
        # The server wired its metrics into the loop: ingests are counted.
        assert metrics.observations == 1
        assert metrics.to_dict()["calibration"]["observations"] == 1
        assert len(calibrator.log) == 1

    def test_malformed_record_is_bad_request(self):
        registry, calibrator = self._serving()

        async def scenario(server, host, port):
            missing = await roundtrip(
                host, port, {"id": 1, "op": "observe", "pipeline": "golden"}
            )
            wrong_shape = await roundtrip(
                host, port,
                {"id": 2, "op": "observe", "pipeline": "golden",
                 "record": {"n": "not-a-record"}},
            )
            bad_source = await roundtrip(
                host, port,
                {"id": 3, "op": "observe", "pipeline": "golden",
                 "record": {"n": 1}, "source": 7},
            )
            return missing, wrong_shape, bad_source

        missing, wrong_shape, bad_source = serve(
            scenario, registry=registry, calibrators={"golden": calibrator}
        )
        for reply in (missing, wrong_shape, bad_source):
            assert reply["ok"] is False
            assert reply["error"]["type"] == "BadRequest"
        assert len(calibrator.log) == 0  # nothing malformed was logged

    def test_non_finite_observe_is_rejected_and_server_keeps_serving(self):
        """A NaN wall time on the wire gets an error reply; nothing is
        logged, and the same server then ingests a good record."""
        registry, calibrator = self._serving()
        record = self._observed_record(
            registry.get("golden").pipeline, [1, 3, 8, 1], 3200
        )
        poisoned = record.to_dict()
        poisoned["wall_s"] = float("nan")  # json.dumps writes a bare NaN

        async def scenario(server, host, port):
            bad = await roundtrip(
                host, port,
                {"id": 1, "op": "observe", "pipeline": "golden",
                 "record": poisoned},
            )
            ping = await roundtrip(host, port, {"id": 2, "op": "ping"})
            good = await roundtrip(
                host, port,
                {"id": 3, "op": "observe", "pipeline": "golden",
                 "record": record.to_dict()},
            )
            return bad, ping, good

        bad, ping, good = serve(
            scenario, registry=registry, calibrators={"golden": calibrator}
        )
        assert bad["ok"] is False
        assert bad["error"]["type"] == "BadRequest"
        assert "wall time" in bad["error"]["message"]
        assert ping["ok"] and ping["result"]["pong"]
        assert good["ok"], good
        assert good["result"]["seq"] == 0
        assert len(calibrator.log) == 1

    def test_observe_without_calibrator_is_bad_request(self):
        async def scenario(server, host, port):
            no_loop = await roundtrip(
                host, port,
                {"id": 1, "op": "observe", "pipeline": "golden", "record": {}},
            )
            unknown = await roundtrip(
                host, port,
                {"id": 2, "op": "observe", "pipeline": "nope", "record": {}},
            )
            status = await roundtrip(host, port, {"id": 3, "op": "calibration"})
            return no_loop, unknown, status

        no_loop, unknown, status = serve(scenario)  # no calibrators wired
        assert no_loop["error"]["type"] == "BadRequest"
        assert "no calibration loop" in no_loop["error"]["message"]
        assert unknown["error"]["type"] == "UnknownPipeline"
        assert status["ok"] and status["result"]["pipelines"] == {}
