"""A calibrating estimation server, assembled from the public API.

``repro serve`` cannot attach calibration loops, so the ``serve_observe``
workload starts this instead: the same :class:`ModelRegistry` and
:class:`EstimationServer` as the CLI, plus one :class:`Calibrator` per
pipeline writing a JSONL :class:`ObservationLog`.

    python perfbench/launcher.py --dir NAME=PATH [...] --logs DIR [--port 0]

Prints ``serving N pipeline(s) on HOST:PORT`` once listening, like the CLI,
and shuts down gracefully on SIGINT or SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path


def main(argv=None) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.calibrate import Calibrator, ObservationLog
    from repro.serve import EstimationServer, ModelRegistry

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", action="append", required=True, metavar="NAME=PATH")
    parser.add_argument("--logs", required=True, help="observation log directory")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)

    registry = ModelRegistry()
    logs = []
    calibrators = {}
    for spec in args.dir:
        name, _, path = spec.partition("=")
        registry.add(name, path)
        log = ObservationLog(Path(args.logs) / f"{name}.jsonl")
        logs.append(log)
        calibrators[name] = Calibrator(
            name, (lambda n=name: registry.get(n).pipeline), log=log
        )

    async def run() -> None:
        server = EstimationServer(
            registry, host=args.host, port=args.port, calibrators=calibrators
        )
        host, port = await server.start()
        print(f"serving {len(registry)} pipeline(s) on {host}:{port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        await server.shutdown()

    try:
        asyncio.run(run())
    finally:
        for log in logs:
            log.close()


if __name__ == "__main__":
    main()
