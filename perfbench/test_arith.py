"""Tests for the benchmark's own arithmetic and metric catalogue.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import catalog
from perfbench.arith import (
    NAME_RE,
    UNIT_RE,
    SpanLedger,
    ratio,
    share_err,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_nested_span_self_time():
    clock = FakeClock()
    ledger = SpanLedger(clock)
    ledger.enter("dram.enqueue")  # t=0
    clock.now = 1.0
    ledger.enter("qos.pick")
    clock.now = 3.0
    ledger.exit()  # pick: 2 s
    clock.now = 4.0
    ledger.enter("qos.pick")
    clock.now = 4.5
    ledger.exit()  # pick: 0.5 s
    clock.now = 5.0
    ledger.exit()  # enqueue: 5 s inclusive
    assert ledger.calls == {"dram.enqueue": 1, "qos.pick": 2}
    assert ledger.self_s["dram.enqueue"] == 2.5
    assert ledger.self_s["qos.pick"] == 2.5
    # only the outer span counts towards the time covered by spans
    assert ledger.top_s == 5.0


def test_sibling_spans_add_to_top_time_and_counts_are_untimed():
    clock = FakeClock()
    ledger = SpanLedger(clock)
    for start, end in ((0.0, 1.0), (2.0, 2.25)):
        clock.now = start
        ledger.enter("cache.access")
        clock.now = end
        ledger.exit()
    ledger.count("dram.passes")
    assert ledger.top_s == 1.25
    assert ledger.self_s["cache.access"] == 1.25
    assert ledger.calls["dram.passes"] == 1
    assert "dram.passes" not in ledger.self_s


def test_percentile_reports_its_sample_count():
    samples = list(range(1, 1001))  # 10 samples lie beyond p99
    value, count = tail_percentile(samples, 99)
    assert count == 1000
    assert value == pytest.approx(990.01)
    assert tail_percentile(samples, 50) == (pytest.approx(500.5), 1000)


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples():
    with pytest.raises(ValueError, match="fewer than 10"):
        tail_percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        tail_percentile([], 50)
    # p50 of 20 samples has 10 beyond it
    assert tail_percentile(list(range(20)), 50)[1] == 20


def test_share_err():
    assert share_err(0.7, 7, 3) == pytest.approx(0.0)
    assert share_err(0.6, 7, 3) == pytest.approx(0.1 / 0.7)
    assert share_err(0.9, 3, 1) == pytest.approx(0.2)
    assert share_err(0.0, 3, 1) == pytest.approx(1.0)


def test_events_per_read():
    assert ratio(233434, 21718) == pytest.approx(10.748, abs=1e-3)
    # no read reached DRAM: no per-read figure, and no division error
    assert ratio(1000, 0) == 0.0
    assert ratio(0, 0) == 0.0


@pytest.mark.parametrize(
    "name, ok",
    [
        ("wall_s", True),
        ("engine.kind.mc_run_pass", True),
        ("9lives", True),
        ("a" * 64, True),
        ("a" * 65, False),
        ("_wall", False),
        (".wall", False),
        ("wall s", False),
        ("wall/s", False),
        ("", False),
    ],
)
def test_name_grammar(name, ok):
    assert bool(NAME_RE.fullmatch(name)) is ok


@pytest.mark.parametrize(
    "unit, ok",
    [("s", True), ("1/s", True), ("%", True), ("events/read", True),
     ("a" * 17, False), ("", False), ("m s", False)],
)
def test_unit_grammar(unit, ok):
    assert bool(UNIT_RE.fullmatch(unit)) is ok


def test_benchmark_json_matches_catalog_and_grammar():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    for group, declared in (("end_to_end", catalog.END_TO_END),
                            ("per_layer", catalog.PER_LAYER)):
        entries = spec[group]
        assert {e["name"]: e["unit"] for e in entries} == declared
        for entry in entries:
            assert NAME_RE.fullmatch(entry["name"]), entry
            assert UNIT_RE.fullmatch(entry["unit"]), entry
            assert entry["better"] in ("higher", "lower")
    names = [e["name"] for group in ("workloads", "end_to_end", "per_layer")
             for e in spec[group]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == ["stream", "chaser", "sweep"]
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])
    assert all(0 < e["bound"] <= 0.25 for e in spec["end_to_end"])


def test_traced_run_matches_untraced_and_unwraps():
    from repro.dram.controller import MemoryController
    from repro.experiments.common import run_system

    from perfbench import workloads as wl
    from perfbench.ledger import layer_metrics, sum_counts, traced_layers

    original = MemoryController.try_enqueue
    stream = wl.SIM_WORKLOADS["stream"]
    plain = wl.build(stream, 0)
    run_system(plain, 6, 2)
    ledger, captured = SpanLedger(), []
    with traced_layers(ledger, captured):
        traced = wl.build(stream, 0)
        run_system(traced, 6, 2)
    assert MemoryController.try_enqueue is original
    assert wl.digest(traced) == wl.digest(plain)
    metrics = layer_metrics(sum_counts(captured), ledger, 1.0, 1.0)
    assert metrics["engine.events"] == plain.engine.dispatched
    assert metrics["dram.enqueue_calls"] >= metrics["dram.reads"] > 0
    assert 0 < metrics["dram.pass_yield"] <= 1
