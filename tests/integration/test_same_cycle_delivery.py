"""Same-cycle NoC deliveries admit in ``noc_seq`` order, whatever their posting order.

``System._deliver`` only buffers an arrival; the late-phase ingress pump
sorts the cycle's arrivals on ``noc_seq`` before admitting them.  So the
order in which same-cycle delivery events happen to be inserted must
never reach a report: posting the same set of deliveries in any two
permutations has to produce the same admission sequence and the same
final statistics.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import TRACE_STAGES, RequestTracer
from tests.integration.test_backpressure import make_system, read_for

_ARRIVED = TRACE_STAGES.index("arrived_mc")


def _run_permuted(sources, order):
    """Deliver one read per entry of ``sources`` in ``order``; run to idle.

    Requests are created (and ``noc_seq``-stamped) in ``sources`` order,
    so two runs differ only in the order their deliveries are posted.
    Returns the admission sequence as indices into ``sources`` and the
    finished system.
    """
    system = make_system()
    tracer = RequestTracer()
    system.engine.tracer = tracer
    per_core = {}
    requests = []
    for core in sources:
        requests.append(read_for(system, core, per_core.get(core, 0)))
        per_core[core] = per_core.get(core, 0) + 1
    index_of = {req.req_id: index for index, req in enumerate(requests)}
    for index in order:
        system._deliver(requests[index])
    system.engine.run()
    system.finalize()
    admitted = [
        (index_of[transition[1]], transition[2])
        for transition in tracer.transitions()
        if transition[0] == _ARRIVED
    ]
    return admitted, system


def _digest(system):
    stats = system.stats
    return (
        system.engine.now,
        [asdict(stats.classes[qos_id]) for qos_id in sorted(stats.classes)],
        [asdict(sample) for sample in stats.epochs],
        stats.requests_enqueued,
        stats.requests_rejected,
        stats.bus_busy_cycles,
        stats.mc_active_cycles,
    )


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_property_delivery_order_is_invisible(data):
    # more reads than the front-end queue holds, so the overflow FIFOs
    # and the round-robin backlog admission take part too
    sources = data.draw(
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=24),
        label="sources",
    )
    indices = range(len(sources))
    first = data.draw(st.permutations(indices), label="first")
    second = data.draw(st.permutations(indices), label="second")

    admitted_a, system_a = _run_permuted(sources, first)
    admitted_b, system_b = _run_permuted(sources, second)

    assert len(admitted_a) == len(sources)
    assert admitted_a == admitted_b
    assert _digest(system_a) == _digest(system_b)
