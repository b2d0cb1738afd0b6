"""Set-up probe: a fresh interpreter that stops at the first simulated event.

Usage: ``python3 perfbench/probe.py <workload> <seed>``.  Imports the
simulator, builds the workload's system, dispatches one event at cycle 0
and prints the ``time.monotonic()`` reading taken inside it; the caller
subtracts its own reading from just before the launch.  ``sweep``
imports the runner too and builds the system of a fig05 cell, which has
the ``stream`` workload's shape.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads as wl

    if workload == "sweep":
        from repro.runner import pool  # noqa: F401 - the runner is part of its set-up

        workload = "stream"
    system = wl.build(wl.SIM_WORKLOADS[workload], seed)
    stamps: list[float] = []
    system.engine.post(0, lambda: stamps.append(time.monotonic()))
    system.run(1)
    print(stamps[0])
    return 0


if __name__ == "__main__":
    sys.exit(main())
