"""Backend registry semantics: selection, fallback, and accounting."""

import pytest

from repro import accel
from repro.accel import build as build_mod
from repro.sim.engine import Engine


def test_unknown_backend_name_is_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        accel.resolve_backend("fortran")


def test_pure_resolves_without_loading_anything():
    assert accel.resolve_backend("pure") == "pure"


def test_auto_degrades_to_pure_without_a_prebuilt_artifact(
    monkeypatch, tmp_path
):
    # Simulate a fresh process in a tree with no built extension: auto
    # must fall back to pure without attempting a compile.
    monkeypatch.setattr(accel, "_core", None)
    monkeypatch.setattr(
        build_mod, "artifact_path", lambda cache_dir=None: tmp_path / "no.so"
    )
    assert accel.resolve_backend("auto") == "pure"


def test_backend_context_restores_previous_selection(c_backend):
    before = accel.active_backend()
    with accel.backend("c"):
        assert accel.active_backend() == "c"
        with accel.backend("pure"):
            assert accel.active_backend() == "pure"
        assert accel.active_backend() == "c"
    assert accel.active_backend() == before


def test_engine_class_follows_selection(c_backend):
    with accel.backend("pure"):
        assert accel.engine_class() is Engine
    with accel.backend("c"):
        cls = accel.engine_class()
        assert cls is not Engine
        assert cls.__name__ == "CEngine"
        # the compiled engine presents the same scheduling API
        engine = accel.make_engine(seed=7)
        assert engine.now == 0
        assert engine.pending_events == 0


def test_c_core_counts_dispatches_even_after_switching_back(c_backend):
    with accel.backend("c"):
        engine = accel.make_engine()
    before = accel.core_dispatched_total()
    fired = []
    engine.post(5, fired.append, 1)
    # engine keeps its backend after selection reverts to pure
    engine.run_until(10)
    assert fired == [1]
    assert accel.core_dispatched_total() == before + 1


def test_build_is_idempotent(c_backend):
    # the artifact already exists (the session fixture built it); a
    # second build must return the same path without recompiling
    path = build_mod.build()
    assert path.exists()
    assert build_mod.build() == path
