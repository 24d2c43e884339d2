"""Shared pieces of the benchmark: statistics, spans, memory, results.

Nothing here imports the compiler; the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import resource
import statistics
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
TRACE_DIR = os.path.join(ROOT, "perfbench", "traces")

# Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 7


class CheckFailed(Exception):
    """An output of the program under test is wrong: the run is void."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation.

    Refuses to answer unless at least ten samples lie beyond it, so a
    reported tail is never one slow sample.
    """
    ordered = sorted(values)
    if len(ordered) * (100.0 - q) / 100.0 < 10:
        raise ValueError(f"p{q:g} needs ten samples beyond it; have "
                         f"{len(ordered)} samples (run longer)")
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def geomean_of_medians(samples: dict) -> float:
    """Geomean over inputs of each input's median sample."""
    return geomean(median(v) for v in samples.values())


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

# This machine's speed wanders by tens of percent over minutes (see
# drift.py), and it moves every run-level figure with it.  So every
# time the benchmark reports is scaled by the speed of a fixed gauge
# workload measured in the same run, between operations: a reported
# millisecond is a millisecond on a machine where one gauge pass takes
# exactly GAUGE_REFERENCE_S, about its median on the 2-vCPU machine
# the benchmark was written on.  The gauge is pure Python that shares
# no code with the program, so a change to the program cannot move it.
GAUGE_REFERENCE_S = 0.0006
GAUGE_PASSES = 15
GAUGE_EVERY_S = 0.25


def gauge_pass() -> float:
    started = time.perf_counter()
    table = {}
    for i in range(3000):
        table[i] = (i, i * 2)
    sum(pair[1] for pair in table.values())
    return time.perf_counter() - started


def speed_factor() -> float:
    """Reference seconds per measured second, right now."""
    return GAUGE_REFERENCE_S / median(gauge_pass()
                                      for _ in range(GAUGE_PASSES))


class SetupClock:
    """Normalised time of one in-process set-up made of steps.

    Each step is timed alone, after a gauge reading of its own, and the
    summed step time is scaled by the median of the readings: one
    reading of a few ms says little about a set-up of a second or more
    on a machine whose speed changes from one moment to the next.  The
    readings take no part in the time.
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.factors: list = []

    @contextlib.contextmanager
    def step(self):
        self.factors.append(speed_factor())
        started = time.perf_counter()
        try:
            yield
        finally:
            self.elapsed += time.perf_counter() - started

    def seconds(self) -> float:
        return self.elapsed * median(self.factors)


class SpeedClock:
    """Normalised time: wall time scaled by the last gauged speed.

    :meth:`regauge` must run while no operation is in flight; the time
    it takes itself is not counted.
    """

    def __init__(self) -> None:
        self.factor = self.gauge()
        self.factors = [self.factor]
        self.normalized = 0.0
        self._since = time.perf_counter()

    def gauge(self) -> float:
        return speed_factor()

    def due(self) -> bool:
        return time.perf_counter() - self._since >= GAUGE_EVERY_S

    def regauge(self) -> None:
        self.normalized += (time.perf_counter() - self._since) * self.factor
        self.factor = self.gauge()
        self.factors.append(self.factor)
        self._since = time.perf_counter()

    def stop(self) -> float:
        """Total normalised seconds since the clock was made."""
        self.normalized += (time.perf_counter() - self._since) * self.factor
        self._since = time.perf_counter()
        return self.normalized


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A span is ``(name, start, end, parent index, operation id)``; spans
    of one operation share the operation id.  Each thread keeps its own
    span stack and operation id.  Nothing is written until :meth:`dump`
    at the end of the run.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def op(self):
        return getattr(self._local, "op", None)

    @op.setter
    def op(self, value) -> None:
        self._local.op = value

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def self_times(self) -> dict:
        """Per span: its duration minus the time its children cover,
        as ``{(operation id, name): seconds}`` summed per operation."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for index, (name, start, end, _parent, op) in enumerate(self.spans):
            key = (op, name)
            out[key] = out.get(key, 0.0) + (end - start - child_time[index])
        return out

    def layer_totals(self) -> dict:
        """Total self time per layer name, in seconds."""
        totals: dict = {}
        for (_op, name), seconds in self.self_times().items():
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, handle)


class NullTracer:
    """Tracing switched off: a span is a shared no-op context."""

    enabled = False
    _null = contextlib.nullcontext()
    op = None

    def span(self, _name: str):
        return self._null


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def tree_cpu_ns(pids) -> int:
    """CPU time the threads of *pids* have used, in ns (schedstat).

    A thread or process that has gone counts as 0."""
    total = 0
    for pid in pids:
        try:
            threads = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in threads:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except OSError:
                pass
    return total


def proc_start_time(pid: int):
    """Kernel start time of *pid* (field 22 of stat), or None if gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return None
    fields = stat[stat.rindex(")") + 2:].split()
    if fields[0] == "Z":
        return None  # a zombie holds no resources; its parent reaps it
    return int(fields[19])


def descendants(root: int) -> list[int]:
    """Every live process below *root*, found through /proc ppids."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, []):
            found.append(child)
            frontier.append(child)
    return found


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


class Result:
    """What one run reports: operation counts and named metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict = {}
        self.notes: list[str] = []

    def add(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def note(self, line: str) -> None:
        self.notes.append(line)
