"""Native event-kind registration for the compiled wheel core.

The C extension executes a closed set of hot callbacks ("native
kinds") without re-entering the interpreter.  The extension only knows
kind *tags*; :func:`kind_table` binds each tag to the concrete Python
function/class pair, and :func:`install_native_kinds` hands that table
to ``_wheelcore._install_kinds`` together with the helper objects the C
handlers need (sort keys, the ``deque`` type, the exact ``Stats`` /
``ClassStats`` / ``Bank`` / ``DataBus`` classes used for type guards).

:func:`kind_table` is the single inventory of mirrored functions.  The
C side refuses a table with the wrong number of kinds or a missing tag,
and every mirrored function carries a trailing ``repro: native-kernel``
comment on its ``def`` line (a warning to reviewers that a C handler
mirrors it; ``tests/accel/test_native_table.py`` keeps the markers
and the table in step).  Growing the mirrored set is therefore a
three-sided change: C handler, table entry, source marker.
"""

from __future__ import annotations

__all__ = ["install_native_kinds", "kind_table"]


def kind_table() -> dict[str, tuple[object, type]]:
    """Kind tag -> (plain function, exact owner class) for every mirror.

    Needs no toolchain: it only imports the pure-Python model.
    """
    from repro.core.arbiter import PriorityArbiter
    from repro.core.pacer import Pacer
    from repro.dram.controller import MemoryController
    from repro.sim.system import System

    return {
        "pacer_release_head": (Pacer._release_head, Pacer),
        "mc_run_pass": (MemoryController._run_pass, MemoryController),
        "mc_complete": (MemoryController._complete, MemoryController),
        "mc_complete_fused": (MemoryController._complete_fused, MemoryController),
        "sys_deliver": (System._deliver, System),
        "sys_pump_mc": (System._pump_mc, System),
        "sys_enqueue_response": (System._enqueue_response, System),
        "sys_flush_responses": (System._flush_responses, System),
        # Synchronous mirrors: recognized at their C call sites (listener
        # fan-out, arbiter pick/accept), not via wheel dispatch.
        "sys_on_mc_space": (System._on_mc_space, System),
        "mc_policy_on_accept": (PriorityArbiter.on_accept, PriorityArbiter),
        "mc_policy_pick": (PriorityArbiter.pick, PriorityArbiter),
    }


def install_native_kinds(core) -> None:
    """Register :func:`kind_table` with a loaded core.

    A table the C side rejects (wrong size, missing tag) raises
    :class:`~repro.accel.AccelUnavailable`, so ``--backend=auto`` falls
    back to the pure engine instead of crashing.
    """
    from collections import deque

    from repro.accel import AccelUnavailable
    from repro.dram.bank import Bank
    from repro.dram.channel import DataBus
    from repro.sim.stats import ClassStats, Stats
    from repro.sim.system import _BY_KEY, _BY_NOC_SEQ

    helpers = {
        "bank": Bank,
        "databus": DataBus,
        "stats": Stats,
        "class_stats": ClassStats,
        "deque": deque,
        "by_key": _BY_KEY,
        "by_noc_seq": _BY_NOC_SEQ,
    }
    try:
        core._install_kinds(kind_table(), helpers)
    except (KeyError, ValueError) as exc:
        raise AccelUnavailable(
            f"compiled core rejected the native kind table: {exc}; "
            "repro.accel.native.kind_table and _wheelcore.c must list "
            "the same kinds"
        ) from exc
