"""Reference figures: the serial layer ladder and 1 vs 2 process workers.

    python3 perfbench/ladder.py [--requests 400] [--repeats 2]

Not part of the measured benchmark; the README's reference table is its
output.  Part one times one 24-symbol request on the serving pair,
serially (one in flight), at each layer from the bare table kernel up
to an aio frame round trip, and prints the p50 of each repeat.  Part
two runs the ingest-process workload behind a 1-worker and a 2-worker
process fleet and prints both throughputs.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import queue
import random
import struct
import sys
import threading
from concurrent.futures import Future
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from repro import api, obs  # noqa: E402
from repro.aio import IngestServer  # noqa: E402
from repro.exec.backends import TableBackend  # noqa: E402

import common  # noqa: E402
from oracles import PAIR  # noqa: E402
import serving  # noqa: E402

_HEADER = struct.Struct(">I")


def _p50_us(call, words):
    samples = []
    for word in words:
        t0 = perf_counter()
        call(word)
        samples.append(perf_counter() - t0)
    return common.median(samples) * 1e6


def _handoff_floor():
    """A bare queue.Queue + Future handoff to one thread."""
    q = queue.Queue()

    def worker():
        while True:
            item = q.get()
            if item is None:
                return
            word, future = item
            future.set_result(word)

    thread = threading.Thread(target=worker)
    thread.start()

    def call(word):
        future = Future()
        q.put((word, future))
        future.result()

    return call, lambda: (q.put(None), thread.join())


def _fleet(machines, mode):
    client = api.serve(machines[0], n_workers=2,
                       options=api.Options(fleet_mode=mode))
    return (lambda word: client.submit("k", word).result()), client.close


def _aio(machines, mode):
    client = api.serve(machines[0], n_workers=2,
                       options=api.Options(fleet_mode=mode))
    loop = asyncio.new_event_loop()
    server = loop.run_until_complete(IngestServer(client.fleet).start())
    reader, writer = loop.run_until_complete(
        asyncio.open_connection(*server.address))

    async def round_trip(word):
        body = json.dumps({"op": "submit", "id": 0, "key": "k",
                           "symbols": list(word)}).encode()
        writer.write(_HEADER.pack(len(body)) + body)
        (length,) = _HEADER.unpack(await reader.readexactly(4))
        return await reader.readexactly(length)

    def close():
        writer.close()
        loop.run_until_complete(writer.wait_closed())
        loop.run_until_complete(server.close())
        loop.close()
        client.close()

    return (lambda word: loop.run_until_complete(round_trip(word))), close


def ladder(n, repeats):
    machines = serving._machines()
    rng = random.Random("ladder")
    words = [[rng.choice("01") for _ in range(serving.WORD)]
             for _ in range(n)]
    compiled = api.compile_fsm(machines[0],
                               options=api.Options(engine="python"))
    backend = TableBackend.from_fsm(machines[0], backend="python")

    def with_ring(disabled, make):
        def build():
            if disabled:
                os.environ["REPRO_DISABLE_RING"] = "1"
            try:
                return make()
            finally:
                os.environ.pop("REPRO_DISABLE_RING", None)
        return build

    def observed():
        obs.configure(metrics=True, tracing=True, journal=True)
        call, close = _fleet(machines, "thread")
        return call, lambda: (close(), obs.configure())

    rungs = [
        ("CompiledFSM.run_word (python kernel)",
         lambda: (compiled.run_word, lambda: None)),
        ("exec TableBackend.run_batch",
         lambda: (backend.run_batch, lambda: None)),
        ("queue.Queue + Future thread handoff (floor)", _handoff_floor),
        ("thread fleet submit().result()",
         lambda: _fleet(machines, "thread")),
        ("same, obs metrics + tracing + journal on", observed),
        ("process fleet, ring (default)",
         with_ring(False, lambda: _fleet(machines, "process"))),
        ("process fleet, pipe (REPRO_DISABLE_RING=1)",
         with_ring(True, lambda: _fleet(machines, "process"))),
        ("aio frame round trip -> thread fleet",
         lambda: _aio(machines, "thread")),
        ("aio frame round trip -> process fleet",
         lambda: _aio(machines, "process")),
    ]
    print(f"serial p50 of one {serving.WORD}-symbol request on {PAIR}, "
          f"{n} requests per repeat")
    for name, build in rungs:
        figures = []
        for _ in range(repeats):
            call, close = build()
            try:
                for word in words[:20]:  # warm: compile, attach, spawn
                    call(word)
                figures.append(_p50_us(call, words))
            finally:
                close()
        print(f"| {name} | {' / '.join(f'{v:.1f}' for v in figures)} |")


def workers(seconds):
    for n_workers in (1, 2):
        tally, summary, _ = serving.ingest_process(seconds, 1, n_workers)
        print(f"ingest-process, {n_workers} worker(s): "
              f"{summary['ops_per_s']:.0f} req/s, p50 "
              f"{summary['latency_p50_us']:.0f} us, failed "
              f"{tally.failed}/{tally.attempted}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    ladder(args.requests, args.repeats)
    workers(args.seconds)
    common.stop_resource_tracker()
    return 0


if __name__ == "__main__":
    sys.exit(main())
