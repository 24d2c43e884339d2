"""Benchmark entry point.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Runs one workload against the checkout's ``src`` tree for about
``--seconds`` seconds of whole rounds, checks every output, and prints
notes followed by one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  With ``--trace 1`` the spans
are also written to ``perfbench/traces/<workload>-seed<seed>.json``.
Exits non-zero when an output is wrong or the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("compile", "execute", "serve-misses")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    from common import TRACE_DIR, CheckFailed, NullTracer, Tracer
    import wl_compile
    import wl_execute
    import wl_serve

    runners = {
        "compile": wl_compile.run,
        "execute": wl_execute.run,
        "serve-misses": wl_serve.run,
    }
    # SIGTERM unwinds like an exception, so a fleet is stopped on the
    # way out instead of being left running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tracer = Tracer() if args.trace else NullTracer()
    try:
        result = runners[args.workload](args.seed, args.seconds, tracer)
    except CheckFailed as exc:
        print(f"WRONG OUTPUT: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}))
        return 1

    for line in result.notes:
        print(line)
    if args.trace:
        path = os.path.join(TRACE_DIR,
                            f"{args.workload}-seed{args.seed}.json")
        tracer.dump(path)
        print(f"spans: {len(tracer.spans)} written to "
              f"{os.path.relpath(path, os.path.dirname(HERE))}")
    print(json.dumps({"correct": True, "attempted": result.attempted,
                      "failed": result.failed, "metrics": result.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
