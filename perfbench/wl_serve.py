"""Workload ``serve-misses``: a two-shard fleet compiling new keys.

The fleet is ``python -m repro.serve --shards 2`` on ephemeral ports
with a store in a fresh directory under ``.perfbench_tmp``; compile
workers total at most ``nproc``.  Load is a closed loop of ``nproc``
client threads, one connection each (each request waits for its
reply), over the 14 suite sources, round-robin in a seeded order, all
at ``opt=static``.

The store starts empty and every request is a distinct key (the
suite source plus a unique trailing comment), so every request
compiles in a worker and writes the store.  Each client thread sends
only keys that the shard it keeps to owns, by a frozen copy of the
router's hash ring (``FrozenRing``), so each worker serves one client.  The traced run then
stores the 14 plain sources and probes the hit path for a few seconds
(``Load`` in ``hits`` mode): every request is answered from the cache,
so the router, reply encode/decode and cache reads do the work.

Every reply must be ``ok`` and its ``ir``, ``c`` and ``bytecode``
artifacts byte-identical to an in-process compile of the same source
made at set-up.  The fleet is stopped with SIGTERM, and a router,
shard or worker process left behind fails the run.

The speed gauge runs in this process while the fleet is alive, so it
only counts when the fleet's processes used (almost) no CPU while it
ran; a fleet that keeps using CPU with no request in flight fails the
run (``QuietFleetClock``).
"""

from __future__ import annotations

import bisect
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from common import (ROOT, SCRATCH, CheckFailed, NullTracer, Result,
                    SpeedClock, check, descendants, geomean_of_medians,
                    median, percentile, proc_start_time, proc_vm_hwm_mb,
                    speed_factor, tree_cpu_ns)
import inputs
from layers import code_size, compile_one, probe_layers

from repro.programs.suite import ALL_PROGRAMS
from repro.serve.cache import cache_key
from repro.serve.client import ServeClient
from repro.serve.protocol import decode_line, encode_message
from repro.serve.worker import compile_request

SHARDS = 2
# Client threads, one connection each: at most nproc requests in flight.
CLIENTS = os.cpu_count() or 1
ARTIFACTS = ("ir", "c", "bytecode")
BOOT_DEADLINE_S = 60.0
# Fleet boots per run; setup_s is their median.  A boot is mostly
# child interpreters starting and the fleet's own 50-100 ms polls for
# its shards, so single boots vary by tens of percent.
FLEET_BOOTS = 11
# Trailing comments tried per request before the run is given up.
MAX_SALTS = 64
# A gauge reading counts only if the fleet used at most this share of
# its wall time in CPU; otherwise it is retried, at most QUIET_TRIES
# times in a row.
QUIET_SHARE = 0.02
QUIET_TRIES = 20
# Length of the traced run's hit-path probe, and of the miss phase
# of the service probe in the traced runs of the other workloads.
HIT_PROBE_S = 4.0
MISS_PROBE_S = 4.0


class Fleet:
    """One ``python -m repro.serve --shards 2`` process tree."""

    def __init__(self) -> None:
        os.makedirs(SCRATCH, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="fleet-", dir=SCRATCH)
        self.store = os.path.join(self.dir, "store")
        port_file = os.path.join(self.dir, "router.port")
        workers = max(1, (os.cpu_count() or 1) // SHARDS)
        self.log = open(os.path.join(self.dir, "fleet.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--shards", str(SHARDS),
             "--workers", str(workers), "--port", "0",
             "--port-file", port_file, "--cache-dir", self.store,
             "--crash-dir", os.path.join(self.dir, "crashes"),
             "--no-native"],
            cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
        self.client = None
        try:
            self.port = self._wait_for_port(port_file)
            self.client = ServeClient(port=self.port, timeout=120.0)
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self, port_file: str) -> int:
        deadline = time.monotonic() + BOOT_DEADLINE_S
        while time.monotonic() < deadline:
            check(self.proc.poll() is None,
                  f"fleet exited during start-up: {self.proc.returncode}")
            try:
                with open(port_file) as handle:
                    return int(handle.read())
            except (OSError, ValueError):
                time.sleep(0.02)
        raise CheckFailed("fleet did not report its port")

    def _wait_ready(self) -> None:
        reply = self.client.ping()
        check(reply.get("ok") and reply.get("shards_live") == SHARDS,
              f"fleet not ready: {reply}")

    def stats(self) -> dict:
        reply = self.client.stats()
        check(reply.get("ok"), f"stats failed: {reply}")
        return reply

    def shard_ports(self) -> dict:
        procs = self.stats()["fleet"]["shard_procs"]
        return {name: info["port"] for name, info in procs.items()}

    def tree(self) -> list[int]:
        return [self.proc.pid] + descendants(self.proc.pid)

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of the router, the shards and their workers."""
        return sum(proc_vm_hwm_mb(pid) for pid in self.tree())

    def store_bytes(self) -> int:
        total = 0
        for dirpath, dirnames, filenames in os.walk(self.store):
            dirnames[:] = [d for d in dirnames if d != "fleet"]
            for name in filenames:
                total += os.path.getsize(os.path.join(dirpath, name))
        return total

    def stop(self) -> None:
        """SIGTERM the fleet; any process of its tree left over fails."""
        if self.client is not None:
            self.client.close()
        tree = [(pid, proc_start_time(pid)) for pid in self.tree()]
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + 5.0
        leftover = tree
        while leftover and time.monotonic() < deadline:
            leftover = [(pid, start) for pid, start in leftover
                        if start is not None
                        and proc_start_time(pid) == start]
            if leftover:
                time.sleep(0.05)
        for pid, _start in leftover:
            os.kill(pid, signal.SIGKILL)
        self.log.close()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass  # another fleet's directory is still there
        check(not leftover, f"processes left after SIGTERM: "
              f"{[pid for pid, _ in leftover]}")
        check(self.proc.returncode == 0,
              f"fleet exit status {self.proc.returncode} after SIGTERM")


class FrozenRing:
    """A copy of ``repro.serve.router.HashRing`` as it routes today:
    ``RING_REPLICAS`` points per shard at the first 8 bytes of
    ``sha256(f"{name}#{i}")``; a key belongs to the first point
    clockwise from its own hash.

    The benchmark chooses its requests with this copy, not with the
    program's ring, so a seed names the same requests whatever the
    router does.  A router that routes differently shows as requests
    queueing on one shard's worker, and as
    ``serve.router.off_ring_requests`` in the traced run.
    """

    RING_REPLICAS = 96

    def __init__(self, names) -> None:
        points = sorted((self._hash(f"{name}#{i}"), name) for name in names
                        for i in range(self.RING_REPLICAS))
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    @staticmethod
    def _hash(material: str) -> int:
        return int.from_bytes(
            hashlib.sha256(material.encode("utf-8")).digest()[:8], "big")

    def owner(self, key: str) -> str:
        index = bisect.bisect(self._points, self._hash(key))
        return self._owners[index % len(self._owners)]


class QuietFleetClock(SpeedClock):
    """A speed clock whose gauge readings count only while the fleet
    is idle.

    The gauge runs in this process with no request in flight, but the
    fleet's processes live on: CPU they burn would slow the gauge and
    make every normalised figure look better.  Each reading measures
    the fleet's CPU time over its own window and is retried while that
    exceeds ``QUIET_SHARE`` of the window; ``QUIET_TRIES`` busy
    readings in a row fail the run.  The fleet's process tree is read
    afresh for each reading, so a respawned worker is watched too.
    """

    def __init__(self, fleet) -> None:
        self.fleet = fleet
        self.retries = 0
        super().__init__()

    def gauge(self) -> float:
        for _ in range(QUIET_TRIES):
            pids = self.fleet.tree()
            before = tree_cpu_ns(pids)
            started = time.perf_counter()
            factor = speed_factor()
            window = time.perf_counter() - started
            busy = tree_cpu_ns(pids) - before
            if busy <= QUIET_SHARE * window * 1e9:
                return factor
            self.retries += 1
        raise CheckFailed(
            f"the fleet used {busy / 1e6:.2f} ms of CPU in a "
            f"{window * 1e3:.2f} ms gauge window with no request in "
            f"flight, {QUIET_TRIES} times in a row")


def _request(source: str) -> dict:
    return {"op": "compile", "source": source, "opt": "static"}


def _check_reply(reply: dict, reference: dict, name: str) -> bool:
    """True when the reply is a failed operation (pipeline incident)."""
    check(reply.get("ok"), f"{name}: reply not ok: {reply.get('error')}")
    artifacts = reply["artifacts"]
    for artifact in ARTIFACTS:
        check(artifacts.get(artifact) == reference[artifact],
              f"{name}: artifact {artifact!r} differs from an in-process "
              f"compile of the same source")
    return bool(artifacts["stats"]["incidents"])


def _warm(fleet: Fleet, sources: dict) -> None:
    """Store every source's artifacts (one batch, both shards)."""
    replies, _summary = fleet.client.batch(
        [_request(s) for s in sources.values()])
    check(len(replies) == len(sources)
          and all(r.get("ok") for r in replies.values()),
          "a warm-up compile failed")


def _counter_delta(before: dict, after: dict, name: str) -> int:
    return (after["fleet"]["counters"].get(name, 0)
            - before["fleet"]["counters"].get(name, 0))


def _cache_delta(before: dict, after: dict, name: str) -> int:
    return after["fleet"]["cache"][name] - before["fleet"]["cache"][name]


def _references(sources: dict, samples: int):
    """In-process compiles of every source: the reply each request must
    match, its median time in ms over *samples* compiles, and the VM
    code size of the sources."""
    reference, compile_ms, code_instrs = {}, {}, 0
    null = NullTracer()
    for name, source in sources.items():
        times = []
        for _ in range(samples):
            factor = speed_factor()
            t0 = time.perf_counter()
            reference[name] = compile_request(_request(source))
            times.append((time.perf_counter() - t0) * factor)
        compile_ms[name] = median(times) * 1000.0
        compiled = compile_one(source, null)[2]
        check(compiled.program.disassemble()
              == reference[name]["bytecode"],
              f"{name}: compile_request and an in-process compile give "
              f"different code")
        code_instrs += code_size(compiled)
    return reference, compile_ms, code_instrs


def _serve(seed: int, seconds: float, tracer, boots: int):
    """Boot the fleet *boots* times, keep the last and run the miss
    load for *seconds*, then, traced, the hit probe.  Returns the
    result, the code size of the sources and the misses' median speed
    factor."""
    sources = {p.name: p.source for p in ALL_PROGRAMS}
    reference, compile_ms, code_instrs = _references(
        sources, 3 if tracer.enabled else 1)

    setup_times = []
    fleet = None
    try:
        for _ in range(boots):
            if fleet is not None:
                fleet.stop()
                fleet = None
            started = time.perf_counter()
            fleet = Fleet()
            setup_times.append(time.perf_counter() - started)
        misses = Load(fleet, "misses", seed, seconds, tracer, sources,
                      reference, compile_ms)
        result = misses.measure(setup_times)
        if tracer.enabled:
            _warm(fleet, sources)
            hits = Load(fleet, "hits", seed, HIT_PROBE_S, tracer, sources,
                        reference, compile_ms).measure(setup_times)
            result.attempted += hits.attempted
            result.failed += hits.failed
            result.metrics.update(hits.metrics)
            result.notes.extend(hits.notes)
        return result, code_instrs, median(misses.clock.factors)
    finally:
        if fleet is not None:
            fleet.stop()


def run(seed: int, seconds: float, tracer) -> Result:
    # setup_s is not reported by a traced run, so it boots once.
    result, code_instrs, scale = _serve(
        seed, seconds, tracer, 1 if tracer.enabled else FLEET_BOOTS)
    if tracer.enabled:
        # The workers' compiles cannot be traced from here; the
        # in-process layers come from the probe.
        probe_layers(tracer, result, scale)
        for name, secs in sorted(tracer.layer_totals().items(),
                                 key=lambda kv: -kv[1]):
            result.note(f"  self time {name:<22} {secs * 1e3:10.1f} ms")
    else:
        result.add("code_instrs", code_instrs, "count")
    return result


def serve_layers(seed: int, tracer, result: Result) -> None:
    """Add the service's per-layer metrics to the traced *result* of a
    workload that does not go through the service: one fleet, a miss
    phase of ``MISS_PROBE_S`` and the hit probe.  Its requests are not
    operations of that workload, so they are not counted."""
    probe, _code_instrs, _scale = _serve(seed, MISS_PROBE_S, tracer, 1)
    for name, metric in probe.metrics.items():
        if name.startswith("serve."):
            result.metrics[name] = metric
    result.notes.extend(probe.notes)


class Load:
    """Closed-loop load: ``CLIENTS`` threads, one connection each.

    The threads take requests from one shared sequence of whole rounds,
    so a run ends after the round in flight when time is up and every
    run attempts whole rounds.  At a round boundary, when the speed
    gauge is due, the next request waits until none is in flight and
    the gauge has run.  That wait depends on which request of the
    seeded order is the last of a round, so ``ops_per_s`` leaves it
    out: it is ``CLIENTS`` over the mean normalised time a client
    spends on one request, reply checks included.  In a traced run
    every other round is traced; in hits mode a traced request is
    followed by the same request sent straight to the shard that owns
    its key.
    """

    def __init__(self, fleet, mode, seed, seconds, tracer, sources,
                 reference, compile_ms):
        self.fleet, self.mode, self.seed = fleet, mode, seed
        self.seconds, self.tracer = seconds, tracer
        self.sources, self.reference = sources, reference
        self.compile_ms = compile_ms
        self.order = inputs.round_order(list(sources), seed)
        self.result = Result()
        self._cond = threading.Condition()
        self._next = 0
        self._inflight = 0
        self.busy = 0.0
        self._started = 0.0
        self.clock = None
        self.ring = None
        self.sent = {}
        self.routed = []
        self.routed_by_name = {name: [] for name in self.order}
        self.traced_routed = []
        self.direct_ms = []
        self.overhead_ms = []
        self.replies = {}

    def _take(self):
        """The next (round, position, speed factor), or None once time
        is up."""
        with self._cond:
            while True:
                rnd, pos = divmod(self._next, len(self.order))
                if pos != 0:
                    break
                if (time.perf_counter() - self._started >= self.seconds
                        and (not self.tracer.enabled or rnd % 2 == 0)):
                    return None
                if not self.clock.due():
                    break
                if self._inflight == 0:
                    self.clock.regauge()
                    break
                self._cond.wait()
            self._next += 1
            self._inflight += 1
            return rnd, pos, self.clock.factor

    def _done(self, busy: float) -> None:
        with self._cond:
            self._inflight -= 1
            self.busy += busy
            self._cond.notify_all()

    def _count(self, failed: bool) -> None:
        with self._cond:
            self.result.attempted += 1
            self.result.failed += failed

    def _client_loop(self, client, direct, home, errors) -> None:
        try:
            while True:
                step = self._take()
                if step is None:
                    return
                t0 = time.perf_counter()
                try:
                    self._one(client, direct, home, *step)
                finally:
                    self._done((time.perf_counter() - t0) * step[2])
        except BaseException as exc:  # reported by measure()
            errors.append(exc)

    def _distinct(self, source: str, rnd: int, pos: int, home: str) -> str:
        """*source* plus a comment unique to this request, chosen so its
        key belongs to shard *home* by the frozen ring: each client
        thread keeps its own shard's worker busy, and no two requests
        queue on one worker more often with one seed than with
        another."""
        for salt in range(MAX_SALTS):
            candidate = (source + f"\n// perfbench seed {self.seed} "
                         f"round {rnd} #{pos}.{salt}\n")
            if self.ring.owner(cache_key(_request(candidate))) == home:
                return candidate
        raise CheckFailed(f"no key of shard {home} in {MAX_SALTS} "
                          f"trailing comments")

    def _one(self, client, direct, home, rnd, pos, factor) -> None:
        name = self.order[pos]
        source = self.sources[name]
        if self.mode == "misses":
            source = self._distinct(source, rnd, pos, home)
        request = _request(source)
        traced = self.tracer.enabled and rnd % 2 == 0
        self.tracer.op = (self.mode, rnd, name)
        t0 = time.perf_counter()
        if traced:
            with self.tracer.span("serve.client"):
                reply = client.request(request)
        else:
            reply = client.request(request)
        elapsed = (time.perf_counter() - t0) * 1000.0 * factor
        if traced:
            self.traced_routed.append(elapsed)
        else:
            with self._cond:
                self.routed.append(elapsed)
                self.routed_by_name[name].append(elapsed)
        self._count(_check_reply(reply, self.reference[name], name))
        if self.mode == "hits":
            check(reply.get("cached") in ("memory", "disk"),
                  f"{name}: hit expected, reply cached="
                  f"{reply.get('cached')!r}")
        else:
            check(reply.get("cached") is False
                  and reply["key"] == cache_key(request),
                  f"{name}: uncached reply under the expected key wanted, "
                  f"got cached={reply.get('cached')!r}")
            self.overhead_ms.append(elapsed - self.compile_ms[name])
            with self._cond:
                self.sent[home] = self.sent.get(home, 0) + 1
        if traced and self.mode == "hits":
            self.replies.setdefault(name, reply)
            owner = direct[self.ring.owner(reply["key"])]
            t0 = time.perf_counter()
            with self.tracer.span("serve.server"):
                reply = owner.request(request)
            self.direct_ms.append((time.perf_counter() - t0) * 1000.0
                                  * factor)
            self._count(_check_reply(reply, self.reference[name], name))

    def measure(self, setup_times) -> Result:
        fleet, result, tracer = self.fleet, self.result, self.tracer
        clients = [ServeClient(port=fleet.port, timeout=120.0)
                   for _ in range(CLIENTS)]
        ports = fleet.shard_ports()
        shards = sorted(ports)
        self.ring = FrozenRing(shards)
        directs = [{} for _ in clients]
        if tracer.enabled and self.mode == "hits":
            for direct in directs:
                for name, port in ports.items():
                    direct[name] = ServeClient(port=port, timeout=120.0)
        errors: list = []
        threads = [threading.Thread(
            daemon=True, target=self._client_loop,
            args=(client, direct, shards[i % len(shards)], errors))
            for i, (client, direct) in enumerate(zip(clients, directs))]
        before = fleet.stats()
        self._started = time.perf_counter()
        self.clock = QuietFleetClock(fleet)
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - self._started
        retries = sum(client.retries for client in clients)
        for client in clients + [c for d in directs for c in d.values()]:
            client.close()
        if errors:
            raise errors[0]
        after = fleet.stats()
        peak_rss = fleet.peak_rss_mb()

        lookups = sum(_cache_delta(before, after, k)
                      for k in ("hits_memory", "hits_disk", "misses"))
        misses = _cache_delta(before, after, "misses")
        if self.mode == "hits":
            check(misses == 0 and _counter_delta(before, after,
                                                 "cache_misses") == 0,
                  f"{misses} compiles ran during the timed phase")
        else:
            check(misses == result.attempted,
                  f"{misses} misses for {result.attempted} distinct "
                  f"requests")
            # Load shifted between shards against the frozen ring: each
            # shard's surplus of compiles over the requests whose key
            # the frozen ring gives it.  Per-shard counts cannot tell
            # moves in opposite directions apart, so they net out.
            off_ring = sum(max(0, after["shards"][name]["cache"]["misses"]
                               - before["shards"][name]["cache"]["misses"]
                               - self.sent.get(name, 0))
                           for name in shards)

        rounds = self._next // len(self.order)
        routed = self.routed
        factors = self.clock.factors
        result.note(f"serve-{self.mode}: {SHARDS} shards, {CLIENTS} "
                    f"clients, {len(self.order)} sources, {rounds} rounds, "
                    f"{result.attempted} requests in {wall:.2f} s; speed "
                    f"factor {min(factors):.3f}..{max(factors):.3f}, "
                    f"{len(factors)} gauge readings, {self.clock.retries} "
                    f"retried while the fleet was busy")
        if not tracer.enabled:
            # A boot is mostly other processes starting and sleeping
            # in polls, which the gauge does not track: the median raw
            # boot of eight runs read 0.45-0.54 s, while scaled by the
            # median of the run's readings, which fall in two modes
            # here, it read 0.50-0.84 s.  So it is not scaled.
            result.add("setup_s", median(setup_times), "s")
            result.add("ops_per_s", CLIENTS * len(routed) / self.busy, "1/s")
            result.add("latency_ms_geomean",
                       geomean_of_medians(self.routed_by_name), "ms")
            result.add("latency_ms_p50", median(routed), "ms")
            result.add("latency_ms_p90", percentile(routed, 90), "ms")
            result.add("peak_rss_mb", peak_rss, "MB")
            return result

        plain, with_spans = median(routed), median(self.traced_routed)
        result.note(f"tracing overhead: latency_ms_p50 {with_spans:.3f} "
                    f"traced vs {plain:.3f} untraced "
                    f"({(with_spans / plain - 1) * 100:+.2f}%)")
        if self.mode == "hits":
            self._protocol_metrics(with_spans, before, after, lookups)
        else:
            result.add("serve.worker.overhead_ms_p50",
                       median(self.overhead_ms), "ms")
            result.add("serve.cache.store_bytes",
                       fleet.store_bytes() / misses, "bytes")
            result.add("serve.client.retries", retries, "count")
            result.add("serve.worker.crashes",
                       after["fleet"]["worker_crashes"], "count")
            result.add("serve.router.redispatches",
                       after["router"]["counters"].get("redispatches", 0),
                       "count")
            result.add("serve.router.off_ring_requests", off_ring, "count")
        return result

    def _protocol_metrics(self, routed_p50, before, after, lookups) -> None:
        result = self.result
        hit_p50 = median(self.direct_ms)
        result.add("serve.server.hit_ms_p50", hit_p50, "ms")
        result.add("serve.router.hop_ms_p50", routed_p50 - hit_p50, "ms")
        replies = [self.replies[name] for name in self.order]
        encoded = [encode_message(reply) for reply in replies]
        result.add("serve.protocol.reply_bytes",
                   sum(map(len, encoded)) / len(encoded), "bytes")
        encode_s, decode_s = [], []
        factor = speed_factor()
        for _ in range(20):
            for reply, line in zip(replies, encoded):
                t0 = time.perf_counter()
                encode_message(reply)
                t1 = time.perf_counter()
                decode_line(line)
                t2 = time.perf_counter()
                encode_s.append((t1 - t0) * factor)
                decode_s.append((t2 - t1) * factor)
        result.add("serve.protocol.encode_ms", median(encode_s) * 1e3, "ms")
        result.add("serve.protocol.decode_ms", median(decode_s) * 1e3, "ms")
        memory_hits = _cache_delta(before, after, "hits_memory")
        hits = memory_hits + _cache_delta(before, after, "hits_disk")
        result.add("serve.cache.hit_ratio", hits / lookups, "ratio")
        result.add("serve.cache.memory_hit_ratio", memory_hits / lookups,
                   "ratio")
