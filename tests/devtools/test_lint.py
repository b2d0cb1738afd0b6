"""Determinism-linter rule fixtures.

Each rule gets a deliberately-seeded bad fixture (must fire), a noqa'd
variant (must be suppressed), and where the rule is path-scoped, an
out-of-scope variant (must stay silent).  Fixtures are inline source
strings so linting the real ``tests/`` tree stays clean.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import CONFINEMENT, RULES, lint_source, main

SIM_PATH = "src/repro/sim/fake.py"        # inside repro, inside a timed layer
REPRO_PATH = "src/repro/analysis/fake.py"  # inside repro, outside timed layers
TEST_PATH = "tests/sim/fake_test.py"       # outside the repro package


def codes(source: str, path: str = SIM_PATH) -> list[str]:
    return [diag.code for diag in lint_source(source, path)]


class TestDet001BuiltinHash:
    def test_hash_fires(self):
        assert codes("seed = hash(name)\n") == ["DET001"]

    def test_id_fires(self):
        assert codes("key = id(obj)\n") == ["DET001"]

    def test_fires_outside_repro_too(self):
        assert codes("seed = hash(name)\n", TEST_PATH) == ["DET001"]

    def test_method_named_hash_ok(self):
        assert codes("digest = hasher.hash(name)\n") == []

    def test_noqa_suppresses(self):
        assert codes("seed = hash(name)  # repro: noqa[DET001]\n") == []


class TestDet002AmbientRandomness:
    def test_import_random_fires(self):
        assert codes("import random\n") == ["DET002"]

    def test_from_random_fires(self):
        assert codes("from random import choice\n") == ["DET002"]

    def test_np_seed_fires(self):
        assert codes("np.random.seed(0)\n") == ["DET002"]

    def test_unseeded_default_rng_fires(self):
        assert codes("g = np.random.default_rng()\n") == ["DET002"]

    def test_seeded_default_rng_ok(self):
        assert codes("g = np.random.default_rng(1234)\n") == []

    def test_global_helper_fires(self):
        assert codes("x = np.random.randint(0, 10)\n") == ["DET002"]

    def test_randomstate_fires(self):
        assert codes("rs = np.random.RandomState(0)\n") == ["DET002"]

    def test_constructors_ok(self):
        source = (
            "seq = np.random.SeedSequence(entropy=0)\n"
            "gen = np.random.Generator(np.random.PCG64(seq))\n"
        )
        assert codes(source) == []

    def test_scoped_to_repro_package(self):
        assert codes("import random\n", TEST_PATH) == []

    def test_noqa_suppresses(self):
        assert codes("import random  # repro: noqa[DET002]\n") == []


class TestDet003WallClock:
    def test_time_time_fires(self):
        assert codes("t = time.time()\n") == ["DET003"]

    def test_perf_counter_fires(self):
        assert codes("t = time.perf_counter()\n") == ["DET003"]

    def test_datetime_now_fires(self):
        assert codes("t = datetime.now()\n") == ["DET003"]

    def test_from_import_fires(self):
        assert codes("from time import perf_counter\n") == ["DET003"]

    def test_scoped_to_timed_layers(self):
        assert codes("t = time.time()\n", REPRO_PATH) == []
        assert codes("t = time.time()\n", TEST_PATH) == []

    def test_time_sleep_ok(self):
        assert codes("time.sleep(1)\n") == []

    def test_noqa_suppresses(self):
        assert codes("t = time.time()  # repro: noqa[DET003]\n") == []


class TestDet004FloatCycleArithmetic:
    def test_division_on_when_fires(self):
        assert codes("half = when / 2\n") == ["DET004"]

    def test_division_on_deadline_attr_fires(self):
        assert codes("x = req.virtual_deadline / stride\n") == ["DET004"]

    def test_division_on_timestamp_suffix_fires(self):
        assert codes("lat = (req.completed_at - req.created_at) / 2\n") != []

    def test_floor_division_ok(self):
        assert codes("half = when // 2\n") == []

    def test_unrelated_division_ok(self):
        assert codes("ratio = bytes_total / cycles\n") == []

    def test_rate_division_by_time_ok(self):
        assert codes("bw = stats.total_bytes() / engine.now\n") == []

    def test_call_of_timestamp_ok(self):
        assert codes("x = stats.ipc(0, engine.now) / cores\n") == []

    def test_noqa_suppresses(self):
        assert codes("half = when / 2  # repro: noqa[DET004]\n") == []


class TestDet005BareSetIteration:
    def test_for_over_set_literal_fires(self):
        assert codes("for x in {1, 2, 3}:\n    pass\n") == ["DET005"]

    def test_comprehension_over_setcomp_fires(self):
        assert codes("ys = [y for y in {x for x in xs}]\n") == ["DET005"]

    def test_sorted_set_ok(self):
        assert codes("for x in sorted({3, 1, 2}):\n    pass\n") == []

    def test_membership_test_ok(self):
        assert codes("ok = x in {1, 2, 3}\n") == []

    def test_noqa_suppresses(self):
        source = "for x in {1, 2}:  # repro: noqa[DET005]\n    pass\n"
        assert codes(source) == []


class TestSim001ScheduleDelay:
    def test_float_literal_fires(self):
        assert codes("engine.post(0.5, cb)\n") == ["SIM001"]

    def test_true_division_fires(self):
        assert codes("engine.post(total / 2, cb)\n") == ["SIM001"]

    def test_float_cast_fires(self):
        assert codes("engine.post_at(float(when), cb)\n") == ["SIM001"]

    def test_int_expression_ok(self):
        assert codes("engine.post(2 * latency + 1, cb)\n") == []

    def test_floor_division_ok(self):
        assert codes("engine.post(total // 2, cb)\n") == []

    def test_keyword_delay_checked(self):
        assert codes("engine.post(delay=0.5, callback=cb)\n") == ["SIM001"]

    def test_noqa_suppresses(self):
        assert codes("engine.post(0.5, cb)  # repro: noqa[SIM001]\n") == []

    def test_late_post_timestamp_checked(self):
        assert codes("engine.post_late_at(now + 0.5, cb)\n") == ["SIM001"]

    def test_chain_link_delay_checked(self):
        source = "engine.post_chain_at(when, cb, (), latency / 2, cb2, ())\n"
        assert codes(source) == ["SIM001"]

    def test_chain_keyword_link_delay_checked(self):
        source = "engine.post_chain_at(when, cb, (), link_delay=1.0, link_callback=cb2, link_args=())\n"
        assert codes(source) == ["SIM001"]

    def test_int_chain_ok(self):
        assert codes("engine.post_chain_at(when, cb, (), 2, cb2, ())\n") == []


class TestPerf001NetworkxConfinement:
    def test_import_in_sim_module_fires(self):
        assert codes("import networkx as nx\n") == ["PERF001"]

    def test_from_import_fires(self):
        assert codes("from networkx import grid_2d_graph\n") == ["PERF001"]

    def test_submodule_import_fires(self):
        assert codes(
            "import networkx.algorithms\n", REPRO_PATH
        ) == ["PERF001"]

    def test_topology_module_is_allowed(self):
        assert codes(
            "import networkx as nx\n", "src/repro/sim/topology.py"
        ) == []

    def test_tests_are_out_of_scope(self):
        assert codes("import networkx as nx\n", TEST_PATH) == []

    def test_unrelated_import_ok(self):
        assert codes("import bisect\n") == []

    def test_noqa_suppresses(self):
        assert codes(
            "import networkx as nx  # repro: noqa[PERF001]\n"
        ) == []


class TestPerf002HeapqConfinement:
    def test_import_in_sim_module_fires(self):
        assert codes("import heapq\n") == ["PERF001"]

    def test_from_import_fires(self):
        assert codes("from heapq import heappush\n") == ["PERF001"]

    def test_import_elsewhere_in_repro_fires(self):
        assert codes("import heapq\n", REPRO_PATH) == ["PERF001"]

    def test_engine_module_is_allowed(self):
        assert codes("import heapq\n", "src/repro/sim/engine.py") == []

    def test_tests_are_out_of_scope(self):
        assert codes("import heapq\n", TEST_PATH) == []

    def test_unrelated_import_ok(self):
        assert codes("import bisect\n") == []

    def test_noqa_suppresses(self):
        assert codes("import heapq  # repro: noqa[PERF001]\n") == []


class TestPerf003SerializationConfinement:
    def test_pickle_import_in_sim_module_fires(self):
        assert codes("import pickle\n") == ["PERF001"]

    def test_from_import_fires(self):
        assert codes("from pickle import dumps\n") == ["PERF001"]

    def test_other_serializers_fire(self):
        assert codes("import marshal\n", REPRO_PATH) == ["PERF001"]
        assert codes("import shelve\n", REPRO_PATH) == ["PERF001"]
        assert codes("import dill\n", REPRO_PATH) == ["PERF001"]

    def test_checkpoint_module_is_allowed(self):
        assert codes(
            "import pickle\n", "src/repro/runner/checkpoint.py"
        ) == []

    def test_other_runner_modules_fire(self):
        assert codes(
            "import pickle\n", "src/repro/runner/pool.py"
        ) == ["PERF001"]

    def test_tests_are_out_of_scope(self):
        assert codes("import pickle\n", TEST_PATH) == []

    def test_json_is_exempt(self):
        assert codes("import json\n", REPRO_PATH) == []

    def test_noqa_suppresses(self):
        assert codes("import pickle  # repro: noqa[PERF001]\n") == []


class TestPerf004ProcessParallelismConfinement:
    def test_import_in_sim_module_fires(self):
        assert codes("import multiprocessing\n") == ["PERF001"]

    def test_from_import_fires(self):
        assert codes("from multiprocessing import Pipe\n") == ["PERF001"]

    def test_concurrent_futures_fires(self):
        assert codes("import concurrent.futures\n", REPRO_PATH) == ["PERF001"]
        assert codes(
            "from concurrent.futures import ProcessPoolExecutor\n", REPRO_PATH
        ) == ["PERF001"]
        assert codes(
            "from concurrent import futures\n", REPRO_PATH
        ) == ["PERF001"]

    def test_submodule_import_fires(self):
        assert codes(
            "from multiprocessing.connection import Connection\n", REPRO_PATH
        ) == ["PERF001"]

    def test_runner_modules_are_allowed(self):
        assert codes(
            "import multiprocessing\n", "src/repro/runner/worker.py"
        ) == []
        assert codes(
            "from concurrent.futures import ProcessPoolExecutor\n",
            "src/repro/runner/pool.py",
        ) == []

    def test_no_sim_module_is_allowed(self):
        for name in ("engine.py", "system.py", "partition.py", "window.py"):
            assert codes(
                "import multiprocessing\n", f"src/repro/sim/{name}"
            ) == ["PERF001"], name

    def test_tests_are_out_of_scope(self):
        assert codes("import multiprocessing\n", TEST_PATH) == []

    def test_unrelated_concurrent_name_ok(self):
        assert codes("from concurrent import interpreters\n", REPRO_PATH) == []

    def test_noqa_suppresses(self):
        assert codes(
            "import multiprocessing  # repro: noqa[PERF001]\n"
        ) == []


class TestPerf005NativeCodeConfinement:
    def test_ctypes_import_in_sim_module_fires(self):
        assert codes("import ctypes\n") == ["PERF001"]

    def test_from_import_fires(self):
        assert codes("from ctypes import CDLL\n", REPRO_PATH) == ["PERF001"]

    def test_machinery_fires(self):
        assert codes("import importlib.machinery\n", REPRO_PATH) == ["PERF001"]
        assert codes(
            "from importlib.machinery import ExtensionFileLoader\n", REPRO_PATH
        ) == ["PERF001"]
        assert codes(
            "from importlib import machinery\n", REPRO_PATH
        ) == ["PERF001"]

    def test_plain_importlib_is_fine(self):
        assert codes("import importlib\n", REPRO_PATH) == []
        assert codes("from importlib import import_module\n", REPRO_PATH) == []

    def test_accel_modules_are_allowed(self):
        assert codes("import ctypes\n", "src/repro/accel/build.py") == []
        assert codes(
            "from importlib.machinery import ExtensionFileLoader\n",
            "src/repro/accel/build.py",
        ) == []

    def test_tests_are_out_of_scope(self):
        assert codes("import ctypes\n", TEST_PATH) == []

    def test_noqa_suppresses(self):
        assert codes("import ctypes  # repro: noqa[PERF001]\n") == []


def _import_forms(module: str) -> list[str]:
    forms = [
        f"import {module}\n",
        f"import {module}.sub\n",
        f"import {module} as x\n",
        f"from {module} import y\n",
    ]
    if "." in module:
        parent, child = module.rsplit(".", 1)
        forms.append(f"from {parent} import {child}\n")
    return forms


@pytest.mark.parametrize(
    ("row", "module"),
    [(row, module) for row in CONFINEMENT for module in row.banned],
    ids=[module for row in CONFINEMENT for module in row.banned],
)
def test_confinement_row_covers_every_import_form(row, module):
    inside = "src/repro/" + "/".join(row.allowed)
    if not inside.endswith(".py"):
        inside += "/x.py"
    for source in _import_forms(module):
        for outside in (SIM_PATH, REPRO_PATH):
            diags = lint_source(source, outside)
            assert [d.code for d in diags] == ["PERF001"], (source, outside)
            assert diags[0].message.startswith(
                f"{module} import outside {row.where}; "
            ), diags[0].message
        assert codes(source, inside) == [], (source, inside)


def test_c_accelerator_modules_are_confined():
    # the C halves of pickle and heapq expose the same loads/dumps and
    # heap primitives as their wrappers
    assert codes("import _pickle\n", "src/repro/sim/x.py") == ["PERF001"]
    assert codes("import _heapq\n", "src/repro/sim/x.py") == ["PERF001"]
    assert codes("import _heapq\n", "src/repro/sim/engine.py") == []
    assert codes(
        "from _pickle import loads\n", "src/repro/runner/checkpoint.py"
    ) == []


class TestNoqaForms:
    def test_bare_noqa_suppresses_everything(self):
        assert codes("seed = hash(when / 2)  # repro: noqa\n") == []

    def test_multi_code_list(self):
        source = "seed = hash(when / 2)  # repro: noqa[DET001, DET004]\n"
        assert codes(source) == []

    def test_wrong_code_keeps_finding(self):
        assert codes("seed = hash(x)  # repro: noqa[DET005]\n") == ["DET001"]


class TestDriver:
    def test_syntax_error_reported_not_raised(self):
        diags = lint_source("def broken(:\n", SIM_PATH)
        assert [d.code for d in diags] == ["E999"]

    def test_diagnostic_format_is_clickable(self):
        diag = lint_source("seed = hash(x)\n", SIM_PATH)[0]
        assert diag.format().startswith(f"{SIM_PATH}:1:")
        assert "DET001" in diag.format()

    def test_registry_covers_documented_rules(self):
        assert set(RULES) == {
            "DET001", "DET002", "DET003", "DET004", "DET005", "SIM001",
            "PERF001",
        }

    def test_main_exit_codes(self, tmp_path: Path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("seed = hash(x)\n")
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_module_entry_point(self):
        """``python -m repro.devtools.lint`` must work (and not warn)."""
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", "--list-rules"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "DET001" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr
