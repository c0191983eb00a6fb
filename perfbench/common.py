"""Accounting, statistics and the host record shared by the workloads."""

from __future__ import annotations

import math
import os
import platform
import resource
from statistics import median

#: Width of the windows the serving rates are taken over.
RATE_WINDOW_S = 0.2
#: Latencies are counted in buckets 0.1% wide on a log scale.
LATENCY_STEP = math.log(1.001)


class Tally:
    """Operations attempted / failed, plus what the measured phase saw.

    ``failed`` counts wrong outputs, refused requests and error frames
    alike.  ``unchecked`` counts requests served while a rollout was in
    progress: they are attempted and must not fail, but their outputs
    belong to neither machine and are not compared.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.unchecked = 0
        self.reasons = {}
        # Measured phase only, counted as the requests complete: the
        # peak resident set is a metric, so the harness keeps nothing
        # per request (a sample per request grew it with throughput).
        self.phase_start = None  # first request's submit time
        self.last_done = None
        self.window_ops = []  # requests completed per rate window
        self.window_symbols = []  # their symbols
        self.latency_buckets = {}  # log-scale bucket -> requests
        self.slowdown = None  # synth-suite: the run's host slowdown
        self.pinned_cpu = None  # rpc-thread: the one CPU it runs on

    def served(self, started, finished, size):
        """Record one request of the measured phase."""
        if self.phase_start is None:
            self.phase_start = started
        if self.last_done is None or finished > self.last_done:
            self.last_done = finished
        k = max(int((finished - self.phase_start) / RATE_WINDOW_S), 0)
        while len(self.window_ops) <= k:
            self.window_ops.append(0)
            self.window_symbols.append(0)
        self.window_ops[k] += 1
        self.window_symbols[k] += size
        bucket = math.floor(
            math.log(max(finished - started, 1e-9)) / LATENCY_STEP)
        self.latency_buckets[bucket] = (
            self.latency_buckets.get(bucket, 0) + 1)

    def rates(self):
        """Median requests/s and symbols/s over the rate windows of the
        measured phase.

        The median over windows reads the rate the program keeps, where a
        whole-run mean would carry a burst on the shared host.  The last,
        partial window is dropped.
        """
        if self.phase_start is None:
            raise ValueError("no requests completed")
        n = int((self.last_done - self.phase_start) / RATE_WINDOW_S)
        if n < 1:
            raise ValueError("measured phase shorter than one rate window")
        return (median(self.window_ops[:n]) / RATE_WINDOW_S,
                median(self.window_symbols[:n]) / RATE_WINDOW_S)

    def latency(self, q):
        """The ``q``-quantile (0..1) of the measured latencies in
        seconds, to within a bucket's 0.1%."""
        total = sum(self.latency_buckets.values())
        if not total:
            raise ValueError("no requests completed")
        rank = (total - 1) * q
        below = 0
        for bucket in sorted(self.latency_buckets):
            count = self.latency_buckets[bucket]
            if below + count > rank:
                inside = (rank - below + 0.5) / count
                return math.exp((bucket + inside) * LATENCY_STEP)
            below += count
        raise AssertionError("rank past the last bucket")

    def fail(self, reason, wrong=True):
        """Count one failed operation; ``wrong`` marks a result the
        oracle rejected, as against a request refused or raised."""
        self.failed += 1
        self.wrong += wrong
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def absorb(self, other):
        """Add another tally's operations (not its measurements)."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.unchecked += other.unchecked
        for reason, n in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + n


def percentile(values, q):
    """The ``q``-quantile (0..1) of ``values`` by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def peak_rss_mb():
    """Peak resident set of this process in MiB (``ru_maxrss`` is KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steal_ticks():
    """Steal ticks of all CPUs from ``/proc/stat`` (read only), or
    ``None`` where the file or field is absent."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    return int(fields[8])


def host_record(cpus):
    """``cpus``, the CPUs this process could run on at its start, and
    the interpreter and numpy.

    Called after the run: importing numpy here grows the resident set,
    which ``rss_mb`` measures.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def pin_to_one_cpu():
    """Confine this thread, and every thread it starts from now on, to
    the highest-numbered CPU it may run on; return that CPU.

    A thread fleet's work is pure Python under one GIL, so one CPU is
    all it can use.  Spread over two vCPUs, each GIL handoff between
    the client and shard threads wakes the other vCPU, and the
    hypervisor's wake-up latency, not the program, sets the pace.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def stop_resource_tracker():
    """Stop multiprocessing's resource tracker and wait for it to end.

    The process fleet's shared-memory tables start that helper process;
    it is this run's to stop, and without this it outlives the run.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()
