"""Workload ``compile``: one full in-process compile per operation.

Closed loop, one thread.  An operation is parse + sema -> emit_module
-> optimize -> compile_world + emit_c + print_world, the artifact set a
compile request to the service returns.  Inputs run round-robin in a
seeded order: the 14 suite programs, the chain-N program and eight
fuzz-generated programs (see ``inputs.py``).
"""

from __future__ import annotations

import gc
import time

from common import (SETUP_REPEATS, NullTracer, Result, SetupClock,
                    SpeedClock, check, geomean_of_medians, median,
                    own_peak_rss_mb, percentile)
import inputs
from layers import (add_compile_counts, add_compile_output, code_size,
                    compile_layer_metrics, compile_one, probe_layers)
import refs
import wl_serve

from repro.backend import bytecode as bc
from repro.backend.interp import Interpreter, InterpError
from repro.core import fold
from repro.core.limits import ResourceLimitError
from repro.core.verify import cff_violations, verify
from repro.frontend import compile_source
from repro.fuzz.gen import generate_program
from repro.programs.suite import ALL_PROGRAMS

CHAIN_ARGS = [(0,), (3,), (1000,)]


class Input:
    def __init__(self, name, source, kind, payload):
        self.name = name
        self.source = source
        self.kind = kind          # "suite", "chain" or "fuzz"
        self.payload = payload    # the suite Program or the FuzzProgram


def make_inputs(seed: int) -> list[Input]:
    out = [Input(p.name, p.source, "suite", p) for p in ALL_PROGRAMS]
    out.append(Input(f"chain-{inputs.CHAIN_FUNCTIONS}",
                     inputs.chain_source(), "chain", None))
    for fuzz_seed in inputs.fuzz_draw(seed):
        program = generate_program(fuzz_seed)
        out.append(Input(f"fuzz-{fuzz_seed}", program.render(), "fuzz",
                         program))
    return out


# ---------------------------------------------------------------------------
# correctness: references and properties
# ---------------------------------------------------------------------------


# An observation is (result, printed output); a trap is the result
# ("trap", step limit or not), so both engines trapping agrees.


def _observe_interp(world, entry, args):
    interp = Interpreter(world, max_steps=2_000_000)
    try:
        result = interp.call(entry, *args)
    except (InterpError, fold.EvalError, ResourceLimitError) as exc:
        result = ("trap", isinstance(exc, ResourceLimitError))
    return result, "".join(interp.output)


def _observe_vm(compiled, entry, args):
    compiled.vm = bc.VM(compiled.program, max_steps=20_000_000)
    try:
        result = compiled.call(entry, *args)
    except (bc.VMError, ResourceLimitError) as exc:
        result = ("trap", isinstance(exc, ResourceLimitError))
    return result, compiled.vm.output_text()


def check_input(item: Input, world, compiled) -> None:
    """The references and properties every optimised compile must meet."""
    verify(world)
    violations = cff_violations(world)
    check(not violations, f"{item.name}: not in control-flow form after "
          f"optimize: {violations[:3]}")
    if item.kind == "suite":
        program = item.payload
        expected = refs.REFERENCES[program.name](*program.test_args)
        if program.test_expect is not None:
            check(refs.matches(program.test_expect, expected),
                  f"{item.name}: reference disagrees with test_expect")
        compiled.vm = bc.VM(compiled.program)
        got = compiled.call(program.entry, *program.test_args)
        check(refs.matches(expected, got),
              f"{item.name}{program.test_args}: got {got!r}, "
              f"reference {expected!r}")
    elif item.kind == "chain":
        for args in CHAIN_ARGS:
            compiled.vm = bc.VM(compiled.program)
            got = compiled.call("main", *args)
            want = inputs.chain_reference(*args)
            check(got == want, f"{item.name}{args}: got {got}, want {want}")
    else:
        program = item.payload
        plain = compile_source(item.source, optimize=False)
        for args in program.arg_sets:
            want = _observe_interp(plain, program.entry, args)
            got = _observe_vm(compiled, program.entry, args)
            check(got == want, f"{item.name}{args}: optimised VM observed "
                  f"{got!r}, interpreter on the unoptimised world {want!r}")


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run(seed: int, seconds: float, tracer) -> Result:
    null = NullTracer()
    result = Result()

    # Set-up makes the inputs and compiles each once; the last set-up
    # also checks every compile and keeps its artifacts as the reference
    # for the timed phase.  Checks are not part of set-up time.
    setup_times = []
    reference = {}
    for repeat in range(SETUP_REPEATS):
        setup = SetupClock()
        with setup.step():
            items = make_inputs(seed)
        for item in items:
            with setup.step():
                world, stats, compiled, c_text, ir_text, emitted = (
                    compile_one(item.source, null))
            if repeat == SETUP_REPEATS - 1:
                check_input(item, world, compiled)
                reference[item.name] = (ir_text, c_text, code_size(compiled),
                                        emitted)
            del world, compiled
            gc.collect()
        setup_times.append(setup.seconds())

    order = inputs.round_order([item.name for item in items], seed)
    by_name = {item.name: item for item in items}
    latencies = {name: [] for name in order}
    traced_latencies = {name: [] for name in order}
    round_counts = None
    rounds = 0
    started = time.perf_counter()
    clock = SpeedClock()
    while True:
        traced = tracer.enabled and rounds % 2 == 0
        layer = tracer if traced else null
        counts: dict = {}
        code_instrs = 0
        for name in order:
            # A round takes over a second and the machine's speed moves
            # within it, so the gauge is read before every compile, not
            # only at the start of a round.
            clock.regauge()
            item = by_name[name]
            layer.op = ("compile", rounds, name)
            t0 = time.perf_counter()
            world, stats, compiled, c_text, ir_text, emitted = compile_one(
                item.source, layer)
            elapsed = (time.perf_counter() - t0) * clock.factor
            (traced_latencies if traced else latencies)[name].append(elapsed)
            result.attempted += 1
            if stats.incidents:
                result.failed += 1
            ref_ir, ref_c, ref_code, ref_emitted = reference[name]
            size = code_size(compiled)
            check(ir_text == ref_ir and c_text == ref_c and size == ref_code
                  and emitted == ref_emitted,
                  f"{name}: artifacts differ from the set-up compile")
            if item.kind != "fuzz":
                code_instrs += size
            if traced and round_counts is None:
                add_compile_output(counts, world, stats, c_text, ir_text,
                                   emitted)
            # Collect this compile's cyclic garbage outside its latency,
            # so no operation pays for the one before it.
            del world, compiled
            gc.collect()
        if traced and round_counts is None:
            round_counts = counts
        rounds += 1
        wall = time.perf_counter() - started
        if wall >= seconds and (not tracer.enabled or rounds % 2 == 0):
            break

    normalized = clock.stop()
    ops = sum(len(v) for v in latencies.values())
    result.note(f"compile: {len(order)} inputs, {rounds} rounds, "
                f"{result.attempted} compiles in {wall:.2f} s; speed "
                f"factor {min(clock.factors):.3f}..{max(clock.factors):.3f}")
    if not tracer.enabled:
        # The percentiles leave out the fuzz programs, like
        # code_instrs: the seed decides which of them lie in the tail.
        every = [v for name, samples in latencies.items()
                 if by_name[name].kind != "fuzz" for v in samples]
        result.add("setup_s", median(setup_times), "s")
        result.add("ops_per_s", ops / normalized, "1/s")
        result.add("latency_ms_geomean",
                   geomean_of_medians(latencies) * 1000.0, "ms")
        result.add("latency_ms_p50", median(every) * 1000.0, "ms")
        result.add("latency_ms_p90", percentile(every, 90) * 1000.0, "ms")
        result.add("peak_rss_mb", own_peak_rss_mb(), "MB")
        result.add("code_instrs", code_instrs, "count")
        return result

    # The timed phase goes through every compile layer; the VM and the
    # service come from probes.
    scale = median(clock.factors)
    for metric, value in compile_layer_metrics(tracer, scale,
                                               "compile").items():
        result.add(metric, value, "ms")
    add_compile_counts(result, round_counts)
    probe_layers(tracer, result, scale, compile_layers=False)
    wl_serve.serve_layers(seed, tracer, result)
    plain = geomean_of_medians(latencies)
    with_spans = geomean_of_medians(traced_latencies)
    result.note(f"tracing overhead: latency_ms_geomean {with_spans * 1e3:.3f}"
                f" traced vs {plain * 1e3:.3f} untraced "
                f"({(with_spans / plain - 1) * 100:+.2f}%)")
    for name, secs in sorted(tracer.layer_totals().items(),
                             key=lambda kv: -kv[1]):
        result.note(f"  self time {name:<22} {secs * 1e3:10.1f} ms")
    return result
