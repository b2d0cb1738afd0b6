"""The native-kind table: source markers and the C install handshake.

``repro.accel.native.kind_table()`` is the one inventory of Python
functions the compiled core mirrors in C.  Each of those functions
carries a trailing ``repro: native-kernel`` comment on its ``def`` line
so a reviewer editing it knows a C handler must change too.  The marker
tests need no toolchain; the handshake tests use the ``c_backend``
fixture and skip without one.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

from repro import accel
from repro.accel import native

MARKER = "repro: native-kernel"
PACKAGE_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def _def_line(func) -> str:
    lines, _start = inspect.getsourcelines(func)
    return next(
        line for line in lines if line.lstrip().startswith(("def ", "async def "))
    )


def _marked_functions() -> set[str]:
    """``module.qualname`` of every def under ``src/repro`` with the marker."""
    marked: set[str] = set()
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        module = ".".join(("repro",) + path.relative_to(PACKAGE_ROOT).with_suffix("").parts)

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if MARKER in lines[child.lineno - 1]:
                        marked.add(f"{module}.{prefix}{child.name}")
                    visit(child, f"{prefix}{child.name}.<locals>.")

        visit(ast.parse(source, filename=str(path)), "")
    return marked


def _table_functions() -> set[str]:
    return {
        f"{func.__module__}.{func.__qualname__}"
        for func, _cls in native.kind_table().values()
    }


@pytest.mark.parametrize("tag", sorted(native.kind_table()))
def test_every_table_function_carries_the_marker(tag):
    func, _cls = native.kind_table()[tag]
    assert MARKER in _def_line(func), f"{tag}: {func.__qualname__} is unmarked"


def test_every_marked_def_is_in_the_table():
    assert _marked_functions() == _table_functions()


def test_table_and_compiled_core_list_the_same_kinds(c_backend):
    assert set(native.kind_table()) == set(accel.core().native_kinds())


def test_install_refuses_a_table_missing_one_kind(c_backend, monkeypatch):
    core = accel.core()
    full = native.kind_table()
    short = dict(full)
    short.pop(sorted(short)[0])
    monkeypatch.setattr(native, "kind_table", lambda: short)
    try:
        with pytest.raises(accel.AccelUnavailable, match="kind table"):
            native.install_native_kinds(core)
    finally:
        monkeypatch.undo()
        native.install_native_kinds(core)
    assert set(core.native_kinds()) == set(full)
