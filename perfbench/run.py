"""Repository benchmark: one workload, one seed, one JSON result line.

Usage::

    python3 perfbench/run.py --workload {stream,chaser,sweep}
        --seed N --seconds S --trace {0,1}

Run from the repository root; the simulator is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics (pure backend, no
tracing); ``--trace 1`` measures the per-layer metrics from traced runs
plus an untraced compiled-backend run.  The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; every metric comes
with its unit (see ``catalog.py``).  An operation is one simulated run
(a short sanitized run included), set-up probe or sweep cell; it fails
if it raises, or if its results differ from a repeat, from the untraced
run, from the other backend, or (for a sweep cell) from a cold
in-process run of the same cell.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("stream", "chaser", "sweep")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # every run not explicitly on the compiled backend uses the default
    # pure one, whatever the caller's environment selects
    os.environ["REPRO_ACCEL"] = "pure"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import catalog, measure

    if args.trace:
        metrics, ops = measure.trace(args.workload, args.seed, args.seconds)
        declared = catalog.PER_LAYER
    else:
        metrics, ops = measure.measure(args.workload, args.seed, args.seconds)
        declared = catalog.END_TO_END
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
