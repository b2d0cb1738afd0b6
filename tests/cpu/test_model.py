"""Unit tests for the core model's context state machine."""

from repro.cpu.model import Core
from repro.sim.engine import Engine
from repro.workloads.base import Access, Workload


class ScriptedWorkload(Workload):
    """Deterministic per-context scripts for driving a core in tests."""

    def __init__(self, scripts):
        super().__init__()
        self.name = "scripted"
        self.contexts = len(scripts)
        self._scripts = [list(s) for s in scripts]
        self.completions = []

    def next_access(self, context):
        if not self._scripts[context]:
            return None
        return self._scripts[context].pop(0)

    def on_complete(self, context, access, now):
        self.completions.append((context, access.addr, now))


def make_core(scripts, latency=10):
    engine = Engine()

    def access_fn(core, access, done):
        engine.post(latency, done)

    recorded = []

    def on_instructions(qos_id, count):
        recorded.append((qos_id, count))

    core = Core(
        engine=engine,
        core_id=0,
        qos_id=7,
        workload=ScriptedWorkload(scripts),
        access_fn=access_fn,
        on_instructions=on_instructions,
    )
    return engine, core, recorded


class TestContexts:
    def test_single_context_runs_script_sequentially(self):
        script = [Access(addr=i * 64, gap=5, instructions=2) for i in range(3)]
        engine, core, recorded = make_core([script])
        core.start()
        engine.run()
        assert core.accesses_completed == 3
        assert core.instructions == 6
        assert core.done
        # each access: 5 gap + 10 latency
        assert engine.now == 3 * 15

    def test_contexts_overlap(self):
        scripts = [[Access(addr=0, gap=0)], [Access(addr=64, gap=0)]]
        engine, core, _ = make_core(scripts, latency=10)
        core.start()
        engine.run()
        assert engine.now == 10  # both contexts in flight concurrently

    def test_gap_defers_issue(self):
        engine, core, _ = make_core([[Access(addr=0, gap=25)]], latency=10)
        core.start()
        engine.run()
        assert engine.now == 35

    def test_instruction_callbacks_carry_qos(self):
        engine, core, recorded = make_core([[Access(addr=0, instructions=9)]])
        core.start()
        engine.run()
        assert recorded == [(7, 9)]

    def test_zero_instruction_access_not_reported(self):
        engine, core, recorded = make_core([[Access(addr=0, instructions=0)]])
        core.start()
        engine.run()
        assert recorded == []
        assert core.accesses_completed == 1

    def test_on_complete_hook_sees_completion_time(self):
        script = [Access(addr=0x40, gap=0)]
        engine, core, _ = make_core([script], latency=10)
        core.start()
        engine.run()
        assert core.workload.completions == [(0, 0x40, 10)]

    def test_start_is_idempotent(self):
        engine, core, _ = make_core([[Access(addr=0)]])
        core.start()
        core.start()
        engine.run()
        assert core.accesses_completed == 1

    def test_done_only_after_all_contexts_retire(self):
        scripts = [[Access(addr=0)], [Access(addr=64), Access(addr=128)]]
        engine, core, _ = make_core(scripts)
        core.start()
        assert not core.done
        engine.run()
        assert core.done
