"""The benchmark command BENCHMARK.json names.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
runs one workload once and prints, as the last line of its output, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics`` --
every end-to-end metric untraced, every per-layer metric traced.  Exits
non-zero, printing no result, when the run could not be made (for one,
outside a checkout that has ``src/``).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from benchmarks.e2e.cli import driver_main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(driver_main(sys.argv[1:]))
