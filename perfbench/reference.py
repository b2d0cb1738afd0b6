"""Record the model metrics at the default seed and at a held-out seed.

Usage (from the repository root)::

    python3 perfbench/reference.py > perfbench/model_reference.json

Model metrics are in simulated time and repeat exactly for a seed, so
the file is a reference a later change can be checked against.  The
held-out seed was never used while the benchmark was tuned; a claim
about the model should also hold there.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
HELDOUT_SEED = 104729


def model_at(workload: str, seed: int) -> dict:
    from repro.experiments.common import run_system

    from perfbench import measure
    from perfbench import workloads as wl

    if workload == "sweep":
        _, model, _ = measure.cold_cell(wl.sweep_specs(seed)[-1], measure.Ops())
    else:
        spec = wl.SIM_WORKLOADS[workload]
        system = wl.build(spec, seed)
        result = run_system(system, spec.epochs, spec.warmup)
        model = wl.model_metrics(
            system, result.share(0), result.total_utilization(),
            spec.hi_weight, spec.lo_weight,
        )
    model.pop("instructions")
    return model


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads as wl

    document = {
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "model": {
            workload: {
                str(seed): model_at(workload, seed)
                for seed in (DEFAULT_SEED, HELDOUT_SEED)
            }
            for workload in wl.WORKLOAD_NAMES
        },
    }
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
