"""Workload ``execute``: timed VM samples of the compiled suite.

The 14 suite programs are compiled in set-up.  An operation is one VM
sample of one program: ``calls`` calls of its entry on ``args``, on a
fresh VM, with the sizes of ``layers.SAMPLES``, which keep every
sample near 20 ms so that no program's sample dwarfs the others.
Programs run round-robin in a seeded order.
"""

from __future__ import annotations

import time

from common import (SETUP_REPEATS, NullTracer, Result, SetupClock,
                    SpeedClock, check, geomean_of_medians, median,
                    own_peak_rss_mb, percentile)
import inputs
from layers import (SAMPLES, add_vm_metrics, code_size, probe_layers,
                    vm_sample)
import refs
import wl_serve

from repro import compile_source
from repro.backend import bytecode as bc
from repro.backend.codegen import compile_world
from repro.programs.suite import ALL_PROGRAMS


def run(seed: int, seconds: float, tracer) -> Result:
    null = NullTracer()
    result = Result()
    programs = {p.name: p for p in ALL_PROGRAMS}

    setup_times = []
    for _ in range(SETUP_REPEATS):
        setup = SetupClock()
        compiled = {}
        for name, program in programs.items():
            with setup.step():
                compiled[name] = compile_world(compile_source(program.source))
        setup_times.append(setup.seconds())

    expected = {name: refs.REFERENCES[name](*SAMPLES[name][0])
                for name in programs}
    instrs = {}
    for name, image in compiled.items():
        args, calls = SAMPLES[name]
        image.vm = bc.VM(image.program)
        for _ in range(calls):
            got = image.call(programs[name].entry, *args)
            check(refs.matches(expected[name], got),
                  f"{name}{args}: got {got!r}, reference "
                  f"{expected[name]!r}")
        instrs[name] = image.vm.executed

    order = inputs.round_order(list(programs), seed)
    latencies = {name: [] for name in order}
    traced_latencies = {name: [] for name in order}
    vm_seconds = 0.0
    rounds = 0
    traced_rounds = 0
    started = time.perf_counter()
    clock = SpeedClock()
    while True:
        if clock.due():
            clock.regauge()
        traced = tracer.enabled and rounds % 2 == 0
        layer = tracer if traced else null
        for name in order:
            image = compiled[name]
            layer.op = ("execute", rounds, name)
            got, elapsed = vm_sample(image, name, layer)
            elapsed *= clock.factor
            (traced_latencies if traced else latencies)[name].append(elapsed)
            result.attempted += 1
            check(all(refs.matches(expected[name], value) for value in got)
                  and image.vm.executed == instrs[name],
                  f"{name}: wrong result or instruction count")
            if traced:
                vm_seconds += elapsed
        traced_rounds += traced
        rounds += 1
        wall = time.perf_counter() - started
        if wall >= seconds and (not tracer.enabled or rounds % 2 == 0):
            break

    normalized = clock.stop()
    ops = sum(len(v) for v in latencies.values())
    result.note(f"execute: {len(order)} programs, {rounds} rounds, "
                f"{result.attempted} samples in {wall:.2f} s; speed "
                f"factor {min(clock.factors):.3f}..{max(clock.factors):.3f}")
    if not tracer.enabled:
        every = [v for samples in latencies.values() for v in samples]
        result.add("setup_s", median(setup_times), "s")
        result.add("ops_per_s", ops / normalized, "1/s")
        result.add("latency_ms_geomean",
                   geomean_of_medians(latencies) * 1000.0, "ms")
        result.add("latency_ms_p50", median(every) * 1000.0, "ms")
        result.add("latency_ms_p90", percentile(every, 90) * 1000.0, "ms")
        result.add("peak_rss_mb", own_peak_rss_mb(), "MB")
        result.add("code_instrs", sum(code_size(image)
                                      for image in compiled.values()),
                   "count")
        return result

    # The timed phase goes through the VM alone; the compile layers are
    # those of compiling the same programs, and the service's come
    # from a probe.
    add_vm_metrics(result, sum(instrs.values()), vm_seconds / traced_rounds)
    probe_layers(tracer, result, median(clock.factors), vm_layer=False)
    wl_serve.serve_layers(seed, tracer, result)
    plain = geomean_of_medians(latencies)
    with_spans = geomean_of_medians(traced_latencies)
    result.note(f"tracing overhead: latency_ms_geomean {with_spans * 1e3:.3f}"
                f" traced vs {plain * 1e3:.3f} untraced "
                f"({(with_spans / plain - 1) * 100:+.2f}%)")
    for name, secs in tracer.layer_totals().items():
        result.note(f"  self time {name:<22} {secs * 1e3:10.1f} ms")
    for name in order:
        result.note(f"  {name:<14} {median(traced_latencies[name]) * 1e3:8.3f}"
                    f" ms  {instrs[name]:8d} instrs")
    return result
