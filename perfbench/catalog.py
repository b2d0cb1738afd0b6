"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` declares the same names; ``test_arith.py`` checks the
two agree and that every name and unit fits the metric grammar.
"""

from __future__ import annotations

__all__ = ["END_TO_END", "NATIVE_KINDS", "PER_LAYER", "RUNNER_METRICS"]

#: Reported with ``--trace 0``.  Host times are calibrated to a fixed
#: host speed (see ``measure.Calibrator``); model metrics are in
#: simulated time and repeat exactly for a seed.
END_TO_END = {
    "wall_s": "s",
    "sim_kips": "kinst/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "share_err": "frac",
    "util": "frac",
    "hi_p50_lat_cyc": "cyc",
    "hi_p99_lat_cyc": "cyc",
    "hi_lat_samples": "count",
    "sim_ipc": "inst/cyc",
}

#: Kind tags of the compiled core's native event table.
NATIVE_KINDS = (
    "mc_run_pass",
    "mc_complete",
    "mc_complete_fused",
    "mc_policy_on_accept",
    "mc_policy_pick",
    "pacer_release_head",
    "sys_deliver",
    "sys_pump_mc",
    "sys_enqueue_response",
    "sys_flush_responses",
    "sys_on_mc_space",
)

#: Per-layer metrics only the sweep moves; the simulator workloads,
#: which never enter the runner, report them as 0.
RUNNER_METRICS = {
    "runner.cell_s": "s",
    "runner.overhead_s": "s",
    "runner.ckpt_save_s": "s",
    "runner.ckpt_load_s": "s",
    "runner.ckpt_bytes": "bytes",
    "runner.cache_store_s": "s",
    "runner.warm_forks": "count",
}

#: Reported with ``--trace 1``.  Times (``*_s``) are self times of the
#: traced run; counts are exact and repeat for a seed.  The ``engine.c_*``
#: and ``engine.kind.*`` metrics come from an untraced run on the
#: compiled backend and are absent when it cannot be built.  For
#: ``sweep``, simulated counts are summed over the cells' finished
#: systems, so a cell forked from the warm-up checkpoint counts the
#: warm-up it inherited.
PER_LAYER = {
    "engine.events": "count",
    "engine.events_per_read": "events/read",
    "sim.self_s": "s",
    "trace.overhead": "x",
    "engine.c_speedup": "x",
    "engine.c_hit_rate": "frac",
    **{f"engine.kind.{kind}": "count" for kind in NATIVE_KINDS},
    "dram.reads": "count",
    "dram.writes": "count",
    "dram.rejects": "count",
    "dram.enqueue_s": "s",
    "dram.enqueue_calls": "count",
    "dram.pass_yield": "picks/pass",
    "dram.bus_eff": "frac",
    "dram.queue_cyc": "cyc/read",
    "dram.service_cyc": "cyc/read",
    "qos.release_s": "s",
    "qos.release_calls": "count",
    "qos.response_s": "s",
    "qos.epoch_s": "s",
    "qos.pick_s": "s",
    "qos.releases_denied": "count",
    "qos.uncharges": "count",
    "qos.pacer_wait_cyc": "cyc/read",
    "cache.access_s": "s",
    "cache.access_calls": "count",
    "cache.l2_hits": "count",
    "cache.l2_misses": "count",
    "cache.l3_hits": "count",
    "cache.l3_misses": "count",
    "workloads.next_access_s": "s",
    "workloads.next_access_calls": "count",
    "cpu.accesses": "count",
    "cpu.instructions": "count",
    "system.noc_cyc": "cyc/read",
    "stats.record_s": "s",
    "stats.close_epoch_s": "s",
    **RUNNER_METRICS,
}
