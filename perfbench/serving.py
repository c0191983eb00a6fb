"""The three serving workloads: rpc-thread, stream-sessions, ingest-process.

Each run has three parts:

1. **set-up** — ``SETUPS`` bring-ups, each timed from building the
   fleet (and, for ingest-process, the server and a connection) to its
   first correct reply.  The earlier fleets are closed at once; the
   last one serves the rest of the run.
2. **steady phase** — ``STEADY_SHARE`` of the run's seconds of closed
   loop traffic in whole rounds of pre-built requests; throughput,
   symbol rate and latencies come from here.
3. **upgrade phase** — the rest of the seconds: a second thread rolls
   the fleet live to the other detector and back, in pairs, under the
   same traffic.  Rollout time and reconfiguration cycles come from
   here.  Requests that overlap a rollout are counted and not checked.

Outputs are checked against :mod:`oracles`, never against the program.
"""

from __future__ import annotations

import asyncio
import json
import random
import struct
import threading
import time
from collections import deque
from time import perf_counter

from common import Tally, median, pin_to_one_cpu
from oracles import PAIR, PATTERNS, detector_outputs, window_outputs, \
    check_rollout

#: Bring-ups per run; set-up time is their median.  The first pays
#: the process's lazy imports, so the median skips it.
SETUPS = 41
PROCESS_SETUPS = 15
STEADY_SHARE = 0.6
#: Pause between rollouts, so some requests run between them and are
#: checked against the machine then committed.
ROLLOUT_GAP_S = 0.01
WORD = 24


class Epoch:
    """Even while one machine is committed, odd while a rollout runs;
    ``epoch // 2 % 2`` indexes the committed pattern."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


class Request:
    """One pre-built request and every answer it may be checked
    against."""

    __slots__ = ("key", "word", "session", "start", "expected", "windows",
                 "body")

    def __init__(self, key, word, session, start, expected):
        self.key = key
        self.word = tuple(word)
        self.session = session
        self.start = start
        self.expected = expected
        self.windows = [window_outputs(p, word) for p in PATTERNS]
        self.body = None


def _machines():
    from repro.workloads.suite import suite_pair

    return suite_pair(PAIR)


def _keys_per_shard(fleet, n_shards):
    """One shard key per shard (the key → shard map is the fleet's)."""
    keys = {}
    index = 0
    while len(keys) < n_shards:
        key = f"k{index}"
        keys.setdefault(fleet.shard_for(key), key)
        index += 1
    return [keys[shard] for shard in range(n_shards)]


def _check(tally, request, outputs, epoch_at_submit, epoch_at_done):
    """Compare one reply with the oracle; count it either way."""
    if epoch_at_submit is None:
        ok = list(outputs[request.start:]) == request.expected
    elif epoch_at_submit == epoch_at_done and epoch_at_done % 2 == 0:
        pattern = epoch_at_done // 2 % 2
        ok = list(outputs[len(PATTERNS[0]) - 1:]) == request.windows[pattern]
    else:
        tally.unchecked += 1
        return
    if not ok:
        tally.fail("wrong output")


# -- thread-fleet closed loop ------------------------------------------------

def _closed_loop(client, rounds, window, keep_going, tally, epoch=None,
                 record=True):
    """One client thread keeping ``window`` requests in flight.

    ``rounds(r)`` gives round ``r``'s requests; a new round starts only
    while ``keep_going()`` holds, so every run serves whole rounds.
    With ``epoch`` the replies are checked by the upgrade rule.
    """
    inflight = deque()
    submit = client.submit

    def stamp(rec):
        def done(_future):
            rec[3] = perf_counter()
            rec[4] = epoch.value if epoch is not None else None
        return done

    def finish(rec):
        request, future, t0 = rec[0], rec[1], rec[2]
        try:
            outputs = future.result()
        except Exception as exc:  # refused or failed in the fleet
            tally.fail(type(exc).__name__, wrong=False)
            return
        t_done = rec[3] if rec[3] is not None else perf_counter()
        if record:
            tally.served(t0, t_done, len(request.word))
        _check(tally, request, outputs, rec[5],
               rec[4] if epoch is not None else None)

    r = 0
    while keep_going():
        for request in rounds(r):
            if len(inflight) >= window:
                finish(inflight.popleft())
            tally.attempted += 1
            rec = [request, None, perf_counter(), None, None,
                   epoch.value if epoch is not None else None]
            try:
                rec[1] = submit(request.key, request.word,
                                session=request.session)
            except Exception as exc:
                tally.fail(type(exc).__name__, wrong=False)
                continue
            rec[1].add_done_callback(stamp(rec))
            inflight.append(rec)
        r += 1
    while inflight:
        finish(inflight.popleft())


def _upgrade_thread(client, machines, epoch, until, reports,
                    journal=None):
    """Roll the fleet to the other machine and back until ``until``.

    Appends each report to ``reports``.  Returns the started thread and
    the tally its rollouts count in (its own, as the client thread counts
    requests at the same time).
    """
    tally = Tally()

    def run():
        try:
            while True:
                for target in (machines[1], machines[0]):
                    seq0 = journal.next_seq if journal is not None else None
                    epoch.value += 1
                    report = client.migrate_live(target)
                    epoch.value += 1
                    events = None
                    if journal is not None:
                        events = [e for e in journal.events()
                                  if e.seq >= seq0]
                        if not events or events[0].seq != seq0:
                            events = []  # the ring dropped this window
                    tally.attempted += 1
                    reason = check_rollout(report, events)
                    if reason is not None:
                        tally.fail(reason)
                    reports.append(report)
                    time.sleep(ROLLOUT_GAP_S)
                if perf_counter() >= until:
                    return
        except Exception as exc:
            tally.fail(f"rollout raised {type(exc).__name__}: {exc}")

    thread = threading.Thread(target=run, name="bench-upgrade")
    thread.start()
    return thread, tally


def _summary(tally, reports, setups):
    ops, symbols = tally.rates()
    return {
        "setup_s": median(setups),
        "ops_per_s": ops,
        "symbols_per_s": symbols,
        "latency_p50_us": tally.latency(0.5) * 1e6,
        "rollout_s": median([report.wall_seconds for report in reports]),
        "reconfig_cycles": (
            sum(report.migration_cycles for report in reports)
            / len(reports)
        ),
    }


def _thread_workload(seconds, make_client, probe, rounds_for, window,
                     journal=None):
    """Set-up, steady phase and upgrade phase on a thread fleet.

    The whole run is pinned to one CPU (:func:`common.pin_to_one_cpu`):
    a thread fleet's requests are GIL handoffs between threads, and
    across two vCPUs the hypervisor's wake-up latency set their pace.
    """
    tally = Tally()
    tally.pinned_cpu = pin_to_one_cpu()
    machines = _machines()
    setups = []
    client = None
    for _ in range(SETUPS):
        if client is not None:
            client.close()
        t0 = perf_counter()
        client = make_client(machines)
        request = probe(client)
        outputs = client.submit(request.key, request.word,
                                session=request.session).result()
        setups.append(perf_counter() - t0)
        tally.attempted += 1
        _check(tally, request, outputs, None, None)
    try:
        rounds = rounds_for(client)
        steady = seconds * STEADY_SHARE
        deadline = perf_counter() + steady
        _closed_loop(client, rounds, window,
                     lambda: perf_counter() < deadline, tally)

        epoch = Epoch()
        reports = []
        thread, rollouts = _upgrade_thread(
            client, machines, epoch, perf_counter() + seconds - steady,
            reports, journal)
        _closed_loop(client, rounds, window, thread.is_alive, tally,
                     epoch=epoch, record=False)
        thread.join()
    finally:
        client.close()
    tally.absorb(rollouts)
    return tally, _summary(tally, reports, setups), len(reports)


# -- rpc-thread --------------------------------------------------------------

RPC_SHARDS = 2
RPC_WINDOW = 32
RPC_ROUND = 512


def rpc_thread(seconds, seed):
    """2 shards x 3 replicas, metrics and journal on, 24-symbol
    datapath-lane requests, one client thread with a fixed window."""
    from repro import api, obs
    from repro.obs.journal import JOURNAL

    rng = random.Random(f"rpc-thread/{seed}")
    words = [[rng.choice("01") for _ in range(WORD)]
             for _ in range(RPC_ROUND)]
    obs.configure(metrics=True, journal=True)

    def make_client(machines):
        return api.serve(machines[0], family=[machines[1]],
                         n_workers=RPC_SHARDS,
                         options=api.Options(replicas=3))

    def probe(client):
        key = _keys_per_shard(client.fleet, RPC_SHARDS)[0]
        return _datapath_request(key, words[0])

    def rounds_for(client):
        keys = _keys_per_shard(client.fleet, RPC_SHARDS)
        batch = [_datapath_request(keys[i % RPC_SHARDS], word)
                 for i, word in enumerate(words)]
        return lambda r: batch

    try:
        return _thread_workload(seconds, make_client, probe, rounds_for,
                                RPC_WINDOW, journal=JOURNAL)
    finally:
        obs.configure()


def _datapath_request(key, word):
    start = len(PATTERNS[0]) - 1
    return Request(key, word, None, start,
                   window_outputs(PATTERNS[0], word))


# -- stream-sessions ---------------------------------------------------------

SESSIONS = 320
WORDS_PER_SESSION = 2
#: Deep enough that each shard's queue holds a full coalesced run.
STREAM_WINDOW = 256
MIN_LEN, MAX_LEN = 16, 256


def stream_sessions(seconds, seed):
    """2 shards, 1 replica, obs off; a wide window of ragged session
    requests (16-256 symbols) over a few hundred independent sessions.
    """
    from repro import api, obs

    rng = random.Random(f"stream-sessions/{seed}")
    n = SESSIONS * WORDS_PER_SESSION
    # A fixed multiset of lengths, so every seed serves the same number
    # of symbols per round; the seed picks who gets which and the bits.
    lengths = [MIN_LEN + (MAX_LEN - MIN_LEN) * i // (n - 1)
               for i in range(n)]
    rng.shuffle(lengths)
    # Each pass visits every session once, in a seeded order: any 32
    # requests in a row on one shard are 32 distinct sessions, so a full
    # coalesced run is 32 lanes and takes the numpy stream kernel.
    sessions = list(range(SESSIONS))
    order = []
    for _ in range(WORDS_PER_SESSION):
        rng.shuffle(sessions)
        order.extend(sessions)
    words = [[rng.choice("01") for _ in range(length)] for length in lengths]
    obs.configure()

    def make_client(machines):
        return api.serve(machines[0], family=[machines[1]], n_workers=2,
                         queue_depth=STREAM_WINDOW)

    def probe(client):
        word = words[0]
        return Request("probe", word, "probe", 0,
                       detector_outputs(PATTERNS[0], word))

    def rounds_for(client):
        # Expected outputs follow each session's whole history: the
        # first round starts from reset, later rounds from the tail
        # the previous round left.
        def build(tails):
            batch = []
            for session, word in zip(order, words):
                tail = tails.get(session, "")
                batch.append(Request(
                    f"s{session}", word, session, 0,
                    detector_outputs(PATTERNS[0], word, tail)))
                tails[session] = (tail + "".join(word))[-3:]
            return batch

        tails = {}
        first = build(tails)
        later = build(tails)
        return lambda r: first if r == 0 else later

    return _thread_workload(seconds, make_client, probe, rounds_for,
                            STREAM_WINDOW)


# -- ingest-process ----------------------------------------------------------

INGEST_CONNECTIONS = 2
INGEST_ROUND = 128
_HEADER = struct.Struct(">I")


def _frame(payload):
    body = json.dumps(payload, separators=(",", ":")).encode()
    return _HEADER.pack(len(body)) + body


async def _read_reply(reader):
    (length,) = _HEADER.unpack(await reader.readexactly(_HEADER.size))
    return json.loads(await reader.readexactly(length))


async def _connection(address, requests, keep_going, tally, epoch=None,
                      record=True):
    """One closed-loop connection: send a frame, await its reply."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        while keep_going():
            for request in requests:
                tally.attempted += 1
                before = epoch.value if epoch is not None else None
                t0 = perf_counter()
                writer.write(request.body)
                reply = await _read_reply(reader)
                t1 = perf_counter()
                if not reply.get("ok"):
                    tally.fail(str(reply.get("error")), wrong=False)
                    continue
                if record:
                    tally.served(t0, t1, len(request.word))
                _check(tally, request, reply["outputs"], before,
                       epoch.value if epoch is not None else None)
    finally:
        writer.close()
        await writer.wait_closed()


def ingest_process(seconds, seed, n_workers=1):
    """IngestServer on this event loop in front of a 2-worker process
    fleet (default transport, 1 replica, obs off); 2 closed-loop
    connections on the same loop send 24-symbol words."""
    from repro import api, obs
    from repro.aio import IngestServer

    rng = random.Random(f"ingest-process/{seed}")
    words = [[rng.choice("01") for _ in range(WORD)]
             for _ in range(INGEST_ROUND)]
    obs.configure()
    machines = _machines()
    return asyncio.run(
        _ingest(seconds, words, machines, n_workers, api, IngestServer))


async def _ingest(seconds, words, machines, n_workers, api, server_cls):
    tally = Tally()
    setups = []
    client = server = None

    async def teardown():
        if server is not None:
            await server.close()
        if client is not None:
            client.close()

    def requests_for(key, chunk):
        out = []
        for index, word in enumerate(chunk):
            request = _datapath_request(key, word)
            request.body = _frame({"op": "submit", "id": index, "key": key,
                                   "symbols": list(word)})
            out.append(request)
        return out

    try:
        for _ in range(PROCESS_SETUPS):
            await teardown()
            client = server = None
            t0 = perf_counter()
            client = api.serve(machines[0], family=[machines[1]],
                               n_workers=n_workers,
                               options=api.Options(fleet_mode="process"))
            server = await server_cls(client.fleet).start()
            keys = _keys_per_shard(client.fleet, n_workers)
            probe = requests_for(keys[0], words[:1])
            await _connection(server.address, probe,
                              iter((True, False)).__next__, tally,
                              record=False)
            setups.append(perf_counter() - t0)
        conns = [
            requests_for(keys[c % n_workers], words[c::INGEST_CONNECTIONS])
            for c in range(INGEST_CONNECTIONS)
        ]
        steady = seconds * STEADY_SHARE
        deadline = perf_counter() + steady
        await asyncio.gather(*[
            _connection(server.address, requests,
                        lambda: perf_counter() < deadline, tally)
            for requests in conns
        ])

        epoch = Epoch()
        reports = []
        thread, rollouts = _upgrade_thread(
            client, machines, epoch, perf_counter() + seconds - steady,
            reports)
        try:
            await asyncio.gather(*[
                _connection(server.address, requests, thread.is_alive,
                            tally, epoch=epoch, record=False)
                for requests in conns
            ])
        finally:
            await asyncio.get_running_loop().run_in_executor(
                None, thread.join)
    finally:
        await teardown()
    tally.absorb(rollouts)
    return tally, _summary(tally, reports, setups), len(reports)

