"""Rebuild ``fuzz_pool.json``: generator seeds sorted into size strata.

Run from the root of the repository:

    python3 perfbench/make_pool.py

Each generator seed in ``range(SEARCH)`` is compiled once with the
default pipeline; its size is ``World.generation`` after ``optimize``,
the number of IR mutations the compile made, which tracks compile time
closely (correlation 0.98 in log space over 150 programs) and, being a
count, does not depend on the machine.  A seed joins the first stratum
whose range holds its size, until the stratum has ``PER_STRATUM``
seeds.  A seed whose compile records a pipeline incident is left out
and printed, because an operation that fails on some seeds only cannot
be counted steadily.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro import compile_source  # noqa: E402
from repro.fuzz.gen import generate_program  # noqa: E402
from repro.transform.pipeline import optimize  # noqa: E402

STRATA = [(500, 700), (1000, 1400), (2000, 2800), (4000, 5600)]
PER_STRATUM = 24
SEARCH = 2000


def main() -> int:
    strata = [{"generation": list(bounds), "seeds": []} for bounds in STRATA]
    for seed in range(SEARCH):
        if all(len(s["seeds"]) >= PER_STRATUM for s in strata):
            break
        world = compile_source(generate_program(seed).render(),
                               optimize=False)
        stats = optimize(world)
        if stats.incidents:
            print(f"seed {seed}: incident {stats.incidents[0].as_dict()}")
            continue
        for stratum in strata:
            low, high = stratum["generation"]
            if low <= world.generation < high:
                if len(stratum["seeds"]) < PER_STRATUM:
                    stratum["seeds"].append(seed)
                break
    for stratum in strata:
        if len(stratum["seeds"]) < PER_STRATUM:
            print(f"stratum {stratum['generation']} short: "
                  f"{len(stratum['seeds'])} seeds")
            return 1
    with open(os.path.join(HERE, "fuzz_pool.json"), "w") as handle:
        json.dump({"generator": "repro.fuzz.gen.generate_program(seed)",
                   "size": "World.generation after optimize()",
                   "strata": strata}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
