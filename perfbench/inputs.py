"""The benchmark's input programs, all derived from ``--seed``.

* the 14 suite programs (``repro.programs.suite``), fixed;
* one program of the F3 chain-N family (N functions in a call chain,
  each with a loop), fixed;
* a seeded draw of ``repro.fuzz.gen`` programs: two generator seeds
  from each size stratum of ``fuzz_pool.json``.

The strata exist because generated programs vary by two orders of
magnitude in compile cost; an unstratified draw of a few programs
would make the figures depend on the seed far more than on the code.
``fuzz_pool.json`` lists generator seeds by the total number of IR
mutations their compile made when the pool was built (a count, so the
pool does not depend on the machine); ``make_pool.py`` rebuilds it.
The pool is read, never re-measured, during a run, so the inputs of a
seed stay the same whatever the program under test does.
"""

from __future__ import annotations

import json
import os
import random

POOL_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "fuzz_pool.json")
CHAIN_FUNCTIONS = 32
FUZZ_PER_STRATUM = 2


def chain_source(n_functions: int = CHAIN_FUNCTIONS) -> str:
    """The F3 chain-N program: f_i calls f_{i-1}, each with a loop.

    The same family as ``benchmarks/bench_f3_compile_time.py``, written
    out here so that an edit to that experiment cannot move this
    benchmark's inputs.
    """
    parts = []
    for i in range(n_functions):
        callee = f"f{i - 1}(acc, {i})" if i > 0 else "acc + seed"
        parts.append(f"""
fn f{i}(seed: i64, salt: i64) -> i64 {{
    let mut acc = seed * {i + 3} + salt;
    for k in 0..8 {{
        acc = (acc * 31 + k) % 1000003;
        if acc % 2 == 0 {{ acc += {i}; }} else {{ acc -= 1; }}
    }}
    {callee}
}}
""")
    parts.append(f"fn main(x: i64) -> i64 {{ f{n_functions - 1}(x, 1) }}")
    return "\n".join(parts)


def chain_reference(x: int, n_functions: int = CHAIN_FUNCTIONS) -> int:
    """What ``main(x)`` of :func:`chain_source` returns."""
    def f(i, seed, salt):
        acc = seed * (i + 3) + salt
        for k in range(8):
            acc = _c_mod(acc * 31 + k, 1000003)
            if _c_mod(acc, 2) == 0:
                acc += i
            else:
                acc -= 1
        return f(i - 1, acc, i) if i > 0 else acc + seed
    return f(n_functions - 1, x, 1)


def _c_mod(a: int, b: int) -> int:
    """Remainder with the sign of the dividend (i64 ``%``)."""
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def load_pool() -> dict:
    with open(POOL_PATH) as handle:
        return json.load(handle)


def fuzz_draw(seed: int, pool: dict | None = None) -> list[int]:
    """Generator seeds for run seed *seed*: two per stratum, in order."""
    pool = pool if pool is not None else load_pool()
    rng = random.Random(f"fuzz-draw-{seed}")
    drawn = []
    for stratum in pool["strata"]:
        drawn.extend(rng.sample(stratum["seeds"], FUZZ_PER_STRATUM))
    return drawn


def round_order(names: list, seed: int) -> list:
    """The fixed round-robin order of one run: a seeded permutation."""
    order = list(names)
    random.Random(f"order-{seed}").shuffle(order)
    return order
