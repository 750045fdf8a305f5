"""The burst-mixed serving program under test, run in its own process.

Boots registry -> warm process pool -> service -> gateway on a localhost
socket, prints ``READY <port>`` once it accepts requests, and serves until
its standard input closes.  Then it drains, stops the pool and, in a traced
run, writes its spans to ``--trace-out``.

Run by ``run.py``; by hand::

    PYTHONPATH=src python3 perfbench/server.py --registry <dir>
"""
from __future__ import annotations

import argparse
import asyncio
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402
from workloads import BURST, MODEL_NAME  # noqa: E402

# Only the size trigger flushes: one batch per burst.
MAX_DELAY_SECONDS = 30.0


async def serve(args):
    recorder = None
    if args.trace_out:
        recorder = tracer.install(tracer.Recorder())
    from repro import Gateway, GatewayServer, ImputationService, ModelRegistry, WorkerPool

    registry = ModelRegistry(args.registry)
    pool = WorkerPool(2, mode="process")
    pool.prewarm(registry.resolve(MODEL_NAME).path, registry.generation)
    pool.wait_idle()
    service = ImputationService(registry, executor=pool, max_batch_requests=BURST,
                                max_delay_seconds=MAX_DELAY_SECONDS)
    server = await GatewayServer(Gateway(service)).start()
    print(f"READY {server.port}", flush=True)

    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.buffer.read)
    await server.shutdown()
    pool.stop()
    if recorder is not None:
        recorder.dump(args.trace_out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--registry", required=True)
    parser.add_argument("--trace-out", default="")
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
