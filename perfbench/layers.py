"""The benchmark's calls into the compiler and VM layers, with spans.

Every workload's traced run reports the same per-layer metrics: those
of the in-process layers (``frontend``, ``frontend.emit``,
``transform.pipeline``, ``backend.codegen``, ``backend.c_emitter``,
``core.printer``, ``backend.bytecode``) and those of the service
(``wl_serve.serve_layers``).  A workload measures a layer in its own
timed phase where it goes through it; the rest come from a probe whose
operations are not counted as the workload's.  :func:`probe_layers` is
the probe of the in-process layers: each suite program is compiled
``PROBE_REPEATS`` times and its compiled code run on the VM for one
``SAMPLES`` sample, its results checked against ``refs``.
"""

from __future__ import annotations

import time

from common import NullTracer, check, geomean, median
import refs

from repro.backend import bytecode as bc
from repro.backend.c_emitter import emit_c
from repro.backend.codegen import compile_world
from repro.core.printer import print_world
from repro.core.world import World
from repro.eval import collect_world_stats
from repro.frontend.emit import emit_module
from repro.frontend.parser import parse
from repro.frontend.sema import analyze
from repro.programs.suite import ALL_PROGRAMS
from repro.transform.pipeline import optimize

# span name -> per-layer metric (geomean over inputs of the median
# self time per operation)
COMPILE_LAYERS = (("frontend.parse", "frontend.parse_ms"),
                  ("frontend.sema", "frontend.sema_ms"),
                  ("frontend.emit", "frontend.emit_ms"),
                  ("transform.optimize", "transform.optimize_ms"),
                  ("backend.codegen", "backend.codegen_ms"),
                  ("backend.c_emitter", "backend.c_emitter_ms"),
                  ("core.printer", "core.printer_ms"))

# VM samples of the suite: program -> (entry args, calls per sample).
# The sizes keep every sample near 20 ms on a 2-core x86 container, so
# no program's sample dwarfs the others; they are fixed, so the
# retired instruction count of a sample repeats exactly.
SAMPLES = {
    "fannkuch": ((5,), 4),
    "nbody": ((24,), 1),
    "spectral_norm": ((5,), 1),
    "mandelbrot": ((6,), 1),
    "nqueens": ((7,), 3),
    "ackermann": ((3, 3), 2),
    "sieve": ((4000,), 1),
    "quicksort": ((400,), 1),
    "matmul": ((12,), 3),
    "pow": ((3,), 150),
    "dot_generic": ((800,), 2),
    "filter_image": ((500,), 1),
    "sort_hof": ((150,), 1),
    "compose": ((4000,), 1),
}

ENTRIES = {p.name: p.entry for p in ALL_PROGRAMS}

PROBE_REPEATS = 3


def compile_one(source: str, tracer):
    """One full compile; every layer call sits in its own span."""
    with tracer.span("frontend.parse"):
        module = parse(source)
    with tracer.span("frontend.sema"):
        module = analyze(module)
    world = World("module")
    with tracer.span("frontend.emit"):
        emit_module(module, world)
    emitted = world.stats.gvn_hits + world.stats.gvn_misses
    with tracer.span("transform.optimize"):
        stats = optimize(world)
    with tracer.span("backend.codegen"):
        compiled = compile_world(world)
    with tracer.span("backend.c_emitter"):
        c_text = emit_c(world)
    with tracer.span("core.printer"):
        ir_text = print_world(world)
    return world, stats, compiled, c_text, ir_text, emitted


def code_size(compiled) -> int:
    return sum(len(fn.code) for fn in compiled.program.functions)


def vm_sample(compiled, name: str, tracer):
    """One VM sample of suite program *name* on a fresh VM, in a span.

    Returns the results of its calls and the seconds they took."""
    args, calls = SAMPLES[name]
    entry = ENTRIES[name]
    compiled.vm = bc.VM(compiled.program)
    got = []
    t0 = time.perf_counter()
    with tracer.span("backend.bytecode"):
        for _ in range(calls):
            got.append(compiled.call(entry, *args))
    return got, time.perf_counter() - t0


def compile_layer_metrics(tracer, scale: float, tag: str) -> dict:
    """Per-layer compile times, in ms, of the operations tagged *tag*
    (an operation id is ``(tag, round, input name)``)."""
    per_input: dict = {}
    for (op, name), secs in tracer.self_times().items():
        if op is not None and op[0] == tag:
            per_input.setdefault(name, {}).setdefault(op[-1], []).append(
                secs * scale)
    return {metric: geomean(median(v) for v in per_input[layer].values())
            * 1000.0 for layer, metric in COMPILE_LAYERS}


def add_compile_counts(result, counts: dict) -> None:
    """The exact per-layer sizes of one round of compiles."""
    result.add("frontend.emit_nodes", counts["emit_nodes"], "count")
    result.add("transform.ir_nodes", counts["ir_nodes"], "count")
    result.add("transform.incidents", counts["incidents"], "count")
    result.add("backend.c_bytes", counts["c_bytes"], "bytes")
    result.add("core.printer_bytes", counts["printer_bytes"], "bytes")


def add_compile_output(counts: dict, world, stats, c_text, ir_text,
                       emitted) -> None:
    counts["emit_nodes"] = counts.get("emit_nodes", 0) + emitted
    counts["incidents"] = counts.get("incidents", 0) + len(stats.incidents)
    counts["c_bytes"] = counts.get("c_bytes", 0) + len(c_text)
    counts["printer_bytes"] = counts.get("printer_bytes", 0) + len(ir_text)
    live = collect_world_stats(world)
    counts["ir_nodes"] = (counts.get("ir_nodes", 0) + live.continuations
                          + live.primops)


def add_vm_metrics(result, instrs: int, seconds: float) -> None:
    result.add("backend.bytecode.vm_instrs", instrs, "count")
    result.add("backend.bytecode.instrs_per_us", instrs / (seconds * 1e6),
               "1/us")


def probe_layers(tracer, result, scale: float, compile_layers: bool = True,
                 vm_layer: bool = True) -> None:
    """Per-layer metrics of the in-process layers from the suite.

    Compiles every suite program ``PROBE_REPEATS`` times, with spans
    when *compile_layers*, and runs one VM sample of each compile in a
    span when *vm_layer*; every sample's results must match ``refs``.
    Times are scaled by *scale*, the run's speed factor.
    """
    null = NullTracer()
    counts: dict = {}
    instrs, vm_seconds = 0, 0.0
    expected = {name: refs.REFERENCES[name](*SAMPLES[name][0])
                for name in SAMPLES}
    for repeat in range(PROBE_REPEATS):
        for program in ALL_PROGRAMS:
            name = program.name
            tracer.op = ("probe", repeat, name)
            outputs = compile_one(program.source,
                                  tracer if compile_layers else null)
            if repeat == 0:
                add_compile_output(counts, outputs[0], outputs[1],
                                   *outputs[3:])
            if not vm_layer:
                continue
            compiled = outputs[2]
            got, seconds = vm_sample(compiled, name, tracer)
            check(all(refs.matches(expected[name], v) for v in got),
                  f"{name}{SAMPLES[name][0]}: got {got[0]!r}, reference "
                  f"{expected[name]!r}")
            if repeat == 0:
                instrs += compiled.vm.executed
            vm_seconds += seconds * scale
    tracer.op = None
    if compile_layers:
        for metric, value in compile_layer_metrics(tracer, scale,
                                                   "probe").items():
            result.add(metric, value, "ms")
        add_compile_counts(result, counts)
    if vm_layer:
        add_vm_metrics(result, instrs, vm_seconds / PROBE_REPEATS)
