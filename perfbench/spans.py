"""Span recording for the traced run, from outside the program.

The traced run wraps public entry points of each layer (``install``)
and records one span per call: name, start, end, parent span, request
id.  Spans are kept in memory and written out at the end
(``Tracer.export``); ``layer_metrics`` folds them into the per-layer
metrics that ``BENCHMARK.json`` lists.

A layer's self time is its span minus the part its child spans cover.
Child and parent are found through a per-thread stack, so a span must
open and close on one thread without an ``await`` inside it; the two
spans that do cross awaits (the aio frame and the awaited fleet call)
are keyed by asyncio task instead.

Nothing here is imported by the program; ``install`` patches class and
module attributes and the handle it returns puts every one of them
back.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import threading
from collections import defaultdict
from concurrent.futures import Future
from time import perf_counter_ns

#: Spans kept for the export file; aggregates count every span.
KEEP_SPANS = 100_000


class _Frame:
    __slots__ = ("name", "start", "child", "rid", "parent")

    def __init__(self, name, start, rid, parent):
        self.name = name
        self.start = start
        self.child = 0
        self.rid = rid
        self.parent = parent


class Tracer:
    """In-memory spans plus per-name aggregates (count, total, self)."""

    def __init__(self):
        #: False in a worker process forked while the wrappers are in:
        #: its calls are not ours to trace.
        self.active = True
        os.register_at_fork(after_in_child=self._forked)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread = []  # one aggregate dict per thread
        self.spans = []

    def _forked(self):
        self.active = False

    # -- per-thread state ----------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.stack, local.agg
        except AttributeError:
            local.stack = []
            local.agg = defaultdict(lambda: [0, 0, 0])
            with self._lock:
                self._per_thread.append(local.agg)
            return local.stack, local.agg

    def begin(self, name, rid=None):
        stack, _ = self._state()
        parent = stack[-1] if stack else None
        frame = _Frame(name, perf_counter_ns(), rid, parent)
        stack.append(frame)
        return frame

    def end(self, frame):
        now = perf_counter_ns()
        stack, agg = self._state()
        stack.pop()
        duration = now - frame.start
        parent = frame.parent
        if parent is not None:
            parent.child += duration
        row = agg[frame.name]
        row[0] += 1
        row[1] += duration
        row[2] += duration - frame.child
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((
                frame.name, frame.start, now,
                parent.name if parent is not None else None, frame.rid,
            ))
        return now

    def add_interval(self, name, start, end, child=0, rid=None):
        """Record a span timed by the caller (cross-await spans)."""
        _, agg = self._state()
        row = agg[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child
        if len(self.spans) < KEEP_SPANS:
            self.spans.append((name, start, end, None, rid))

    def count(self, name, n=1):
        """Add ``n`` to a per-thread tally (read back as a call count)."""
        self._state()[1][name][0] += n

    # -- results -------------------------------------------------------
    def aggregates(self):
        out = defaultdict(lambda: [0, 0, 0])
        with self._lock:
            for agg in self._per_thread:
                for name, (n, total, own) in list(agg.items()):
                    row = out[name]
                    row[0] += n
                    row[1] += total
                    row[2] += own
        return out

    def export(self, path):
        """Write the kept spans as JSON lines (times in ns)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "request": rid,
                }) + "\n")


# -- wrapping ----------------------------------------------------------------

class _Patches:
    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


def _spanned(tracer, name, fn, on_end=None):
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = tracer.end(frame)
        if on_end is not None:
            on_end(args, result, end)
        return result

    return wrapper


def install(tracer):
    """Wrap every traced entry point; returns the undo handle."""
    from repro.aio import frames as aio_frames
    from repro.aio import server as aio_server
    from repro.analysis import tsp
    from repro.core import ea, greedy, incremental, jsr
    from repro.core.passes import pipeline
    from repro.engine.compiled import CompiledFSM
    from repro.engine.streams import StreamRun
    from repro.exec.backends import CycleBackend, TableBackend
    from repro.exec.dispatcher import Dispatcher
    from repro.fleet.migration import MigrationScheduler
    from repro.fleet.plancache import PlanCache
    from repro.fleet.pool import FSMFleet
    from repro.hw.machine import HardwareFSM
    from repro.obs.journal import Journal
    from repro.procfleet.backend import ShmTableBackend
    from repro.procfleet.session import WorkerSession
    from repro.replica.group import ReplicaGroup

    patches = _Patches()
    local = threading.local()
    count = tracer.count

    def span(owner, attr, name, on_end=None):
        patches.set(owner, attr, _spanned(
            tracer, name, owner.__dict__[attr], on_end))

    # fleet: submit, then the future's admission and resolution, as
    # spans carrying the request's number.
    submit = FSMFleet.__dict__["submit"]
    numbers = itertools.count()

    def fleet_submit(self, *args, **kwargs):
        if not tracer.active:
            return submit(self, *args, **kwargs)
        rid = next(numbers)
        frame = tracer.begin("fleet.submit", rid)
        try:
            future = submit(self, *args, **kwargs)
        finally:
            end = tracer.end(frame)
        future._pb_request = (end, rid)
        return future

    running = Future.__dict__["set_running_or_notify_cancel"]
    set_result = Future.__dict__["set_result"]

    def set_running_or_notify_cancel(self):
        request = getattr(self, "_pb_request", None)
        if request is not None:
            tracer.add_interval("fleet.queue_wait", request[0],
                                perf_counter_ns(), rid=request[1])
        return running(self)

    def future_set_result(self, result):
        set_result(self, result)
        request = getattr(self, "_pb_request", None)
        backend_end = getattr(local, "backend_end", None)
        if request is not None and backend_end is not None:
            tracer.add_interval("fleet.resolve", backend_end,
                                perf_counter_ns(), rid=request[1])

    patches.set(FSMFleet, "submit", fleet_submit)
    patches.set(Future, "set_running_or_notify_cancel",
                set_running_or_notify_cancel)
    patches.set(Future, "set_result", future_set_result)

    # exec: dispatcher verdicts and backend runs.
    def backend_done(args, result, end):
        local.backend_end = end

    span(Dispatcher, "select", "exec.select")
    span(CycleBackend, "run_batch", "exec.backend.cycle", backend_done)
    span(TableBackend, "run_batch", "exec.backend", backend_done)
    span(TableBackend, "run_streams", "exec.backend", backend_done)
    span(ShmTableBackend, "run_batch", "exec.backend", backend_done)
    span(ShmTableBackend, "run_streams", "exec.backend", backend_done)

    # engine: kernel calls, lazy decode, table compiles.
    def lanes(args, result, end):
        count("engine.lanes", len(args[1]))

    span(CompiledFSM, "run_word", "engine.kernel")
    span(CompiledFSM, "run_streams", "engine.kernel.streams", lanes)
    span(StreamRun, "word_runs", "engine.decode")
    span(CompiledFSM, "__init__", "engine.compile")

    # procfleet: parent-side requests and worker spawns.
    span(WorkerSession, "request", "procfleet.request")
    span(WorkerSession, "start", "procfleet.spawn")

    # replica: log application on the followers.
    span(ReplicaGroup, "on_serve", "replica.on_serve")
    span(ReplicaGroup, "on_chunk", "replica.on_chunk")

    # migration: plans, stalls in batch gaps, rollouts.
    def stall_used(args, used, end):
        if used:
            count("migration.gaps")

    span(PlanCache, "chunks", "migration.plan")
    span(incremental.IncrementalMigrator, "stall", "migration.stall",
         stall_used)
    span(MigrationScheduler, "rollout", "migration.rollout")

    # obs: journal records that were kept.
    record = Journal.__dict__["record"]

    def journal_record(self, *args, **kwargs):
        if not self.enabled or not tracer.active:
            return record(self, *args, **kwargs)
        frame = tracer.begin("obs.record")
        try:
            return record(self, *args, **kwargs)
        finally:
            tracer.end(frame)

    patches.set(Journal, "record", journal_record)

    # aio: codec calls and the server's own time per frame.  The frame
    # span runs from decoding a request to encoding its reply on one
    # connection task; the awaited fleet call inside it is its child.
    tasks = {}  # connection task -> [start, awaited fleet time, frame id]
    decode = aio_frames.__dict__["decode_frame"]
    encode = aio_frames.__dict__["encode_frame"]
    submit_async = aio_server.__dict__["submit_async"]

    def decode_frame(body):
        start = perf_counter_ns()
        frame = tracer.begin("aio.decode")
        try:
            payload = decode(body)
        finally:
            tracer.end(frame)
        rid = payload.get("id") if isinstance(payload, dict) else None
        tasks[asyncio.current_task()] = [start, 0, rid]
        return payload

    def encode_frame(payload):
        frame = tracer.begin("aio.encode")
        try:
            return encode(payload)
        finally:
            end = tracer.end(frame)
            open_frame = tasks.pop(asyncio.current_task(), None)
            if open_frame is not None:
                tracer.add_interval("aio.frame", open_frame[0], end,
                                    child=open_frame[1], rid=open_frame[2])

    async def traced_submit_async(*args, **kwargs):
        start = perf_counter_ns()
        try:
            return await submit_async(*args, **kwargs)
        finally:
            open_frame = tasks.get(asyncio.current_task())
            if open_frame is not None:
                open_frame[1] += perf_counter_ns() - start

    patches.set(aio_frames, "decode_frame", decode_frame)
    patches.set(aio_frames, "encode_frame", encode_frame)
    patches.set(aio_server, "submit_async", traced_submit_async)

    # core / passes / hw: the synthesis pipeline.
    def evaluations(args, result, end):
        count("core.ea_evaluations", result.evaluations)

    def removed(args, result, end):
        count("passes.steps_removed", len(args[1]) - len(result[0]))

    span(jsr, "jsr_program", "core.jsr")
    span(greedy, "greedy_program", "core.greedy")
    span(tsp, "tsp_program", "core.tsp")
    span(ea, "ea_program", "core.ea")
    span(ea, "evolve_program", "core.ea.evolve", evaluations)
    span(pipeline.PassPipeline, "run", "passes.optimise", removed)
    span(HardwareFSM, "run_program", "hw.replay")
    return patches


# -- per-layer metrics ------------------------------------------------------

def _mean(total_ns, n, scale):
    return total_ns / n / scale if n else 0.0


def layer_metrics(tracer, requests, rollouts):
    """Fold spans and counts into the metrics BENCHMARK.json lists.

    ``requests`` is the number of operations the traced run attempted
    and ``rollouts`` the live migrations it ran; a layer that did not
    run reads 0.
    """
    agg = tracer.aggregates()
    us, ms = 1e3, 1e6
    empty = (0, 0, 0)

    def calls(*names):
        return sum(agg.get(name, empty)[0] for name in names)

    def per_call(name, scale=us):
        return _mean(agg.get(name, empty)[1], calls(name), scale)

    def self_per_call(*names):
        own = sum(agg.get(name, empty)[2] for name in names)
        return _mean(own, calls(*names), us)

    def ratio(a, b):
        return a / b if b else 0.0

    selects = calls("exec.select")
    return {
        "aio.decode_us": per_call("aio.decode"),
        "aio.encode_us": per_call("aio.encode"),
        "aio.server_self_us": self_per_call("aio.frame"),
        "fleet.submit_us": per_call("fleet.submit"),
        "fleet.queue_wait_us": per_call("fleet.queue_wait"),
        "fleet.resolve_us": per_call("fleet.resolve"),
        "fleet.requests_per_run": ratio(calls("fleet.submit"), selects),
        "exec.select_us": per_call("exec.select"),
        "exec.selects_per_run": float(selects),
        "exec.backend_self_us": self_per_call(
            "exec.backend", "exec.backend.cycle"),
        "exec.fallback_runs": float(calls("exec.backend.cycle")),
        "engine.kernel_us": self_per_call(
            "engine.kernel", "engine.kernel.streams"),
        "engine.decode_us": per_call("engine.decode"),
        "engine.lanes_per_run": ratio(
            calls("engine.lanes"), calls("engine.kernel.streams")),
        "engine.compiles": float(calls("engine.compile")),
        "procfleet.request_us": per_call("procfleet.request"),
        "procfleet.frames": float(calls("procfleet.request")),
        "procfleet.spawn_s": per_call("procfleet.spawn", 1e9),
        "replica.on_serve_us": per_call("replica.on_serve"),
        "replica.on_chunk_us": per_call("replica.on_chunk"),
        "replica.log_entries": float(
            calls("replica.on_serve", "replica.on_chunk")),
        "migration.plan_ms": per_call("migration.plan", ms),
        "migration.stall_us": per_call("migration.stall"),
        "migration.gaps_per_rollout": ratio(
            calls("migration.gaps"), rollouts),
        "obs.record_us": per_call("obs.record"),
        "obs.events_per_request": ratio(calls("obs.record"), requests),
        "core.jsr_ms": per_call("core.jsr", ms),
        "core.greedy_ms": per_call("core.greedy", ms),
        "core.tsp_ms": per_call("core.tsp", ms),
        "core.ea_ms": per_call("core.ea", ms),
        "core.ea_evaluations": ratio(
            calls("core.ea_evaluations"), calls("core.ea.evolve")),
        "passes.optimise_ms": per_call("passes.optimise", ms),
        "passes.steps_removed": ratio(
            calls("passes.steps_removed"), calls("passes.optimise")),
        "hw.replay_ms": per_call("hw.replay", ms),
    }
