"""Drift of the benchmark's speed gauge on this machine.

    python3 perfbench/drift.py

Times ``common.gauge_pass``, the fixed loop every run normalises its
times by, back to back for about 20 s, and prints the median pass, the
extremes, and the spread of the gauge readings a run would take (the
median of each block of ``GAUGE_PASSES`` passes), which shows how far
the machine's speed wanders while a benchmark runs.  It measures the
machine, not the program.
"""

from __future__ import annotations

import statistics

from common import GAUGE_PASSES, GAUGE_REFERENCE_S, gauge_pass

PASSES = 33_000


def main() -> int:
    samples = [gauge_pass() * 1e3 for _ in range(PASSES)]
    blocks = [statistics.median(samples[i:i + GAUGE_PASSES])
              for i in range(0, len(samples) - GAUGE_PASSES + 1,
                             GAUGE_PASSES)]
    q1, _, q3 = statistics.quantiles(blocks, n=4)
    print(f"{len(samples)} gauge passes: median "
          f"{statistics.median(samples):.3f} ms (reference "
          f"{GAUGE_REFERENCE_S * 1e3:.3f} ms), min {min(samples):.3f}, "
          f"max {max(samples):.3f}")
    print(f"{len(blocks)} gauge readings (median of {GAUGE_PASSES} "
          f"passes): min {min(blocks):.3f} ms, max {max(blocks):.3f} ms, "
          f"max/min {(max(blocks) / min(blocks) - 1) * 100:.0f}%, "
          f"interquartile {(q3 - q1) / statistics.median(blocks) * 100:.1f}%"
          f" of the median")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
