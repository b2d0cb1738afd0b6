"""AST-based determinism linter for the simulator tree.

The engine's core promise is bit-deterministic replay: two runs with the
same seed must produce identical epoch bandwidth series.  Whole classes of
bugs silently break that promise — builtin ``hash()`` feeding seeds,
ambient ``random`` state, wall-clock reads inside the timed layers, float
cycle arithmetic, and iteration order leaking out of ``set``s.  This
module catches them mechanically.

Rules (each can be suppressed per line with ``# repro: noqa[CODE]`` or,
for every rule at once, ``# repro: noqa``):

========  ==============================================================
DET001    no builtin ``hash()``/``id()`` — their values vary per process
          (``PYTHONHASHSEED``, allocator layout) and must never feed
          simulation state.
DET002    no ambient randomness inside ``src/repro``: the stdlib
          ``random`` module, ``np.random.seed``, legacy
          ``np.random.RandomState``/global-state helpers, and unseeded
          ``np.random.default_rng()`` are all banned.  Randomness flows
          through ``Engine.rng(name)`` or an injected ``Generator``.
DET003    no wall-clock reads (``time.time``, ``perf_counter``,
          ``datetime.now``, ...) inside the timed layers (``sim/``,
          ``core/``, ``dram/``, ``cache/``, ``cpu/``, ``qos/``).
DET004    no true division on timestamp-like operands (``when``,
          ``now``, ``deadline``, ``*_at``, ``*_until``); cycle
          arithmetic must use ``//`` so it stays integral.
DET005    no iteration over bare ``set`` literals/comprehensions —
          element order can leak into scheduling decisions.
SIM001    ``Engine.post``/``post_at``/``post_late_at``/``post_chain_at``
          callsites must pass int-typed cycle expressions (no float
          literals, ``float()`` casts, or ``/``) as the delay or
          timestamp, and as ``post_chain_at``'s ``link_delay``.
PERF001   import confinement: each row of :data:`CONFINEMENT` names
          modules that only one file or subpackage may import —
          ``networkx`` (``sim/topology.py``: build-time latency tables),
          ``heapq``/``_heapq`` (``sim/engine.py``: the wheel's overflow
          heap), ``pickle``/``_pickle``/``marshal``/``shelve``/``dill``
          (``runner/checkpoint.py``: the versioned checkpoint format),
          ``multiprocessing``/``concurrent.futures`` (``runner/``: the
          sweep pool) and ``ctypes``/``cffi``/``importlib.machinery``
          (``accel/``: the compiled backend).  ``import m.sub`` counts
          as importing ``m``; ``from a import b`` as importing ``a`` and
          ``a.b``.
========  ==============================================================

Beyond the per-file rules above, ``main`` also runs the whole-program
pass (:mod:`repro.devtools.analysis`) whenever a lint path contains the
``repro`` package: determinism taint (DET1xx), checkpoint pickle-safety
(CKPT), and observability providers (OBS).  ``--list-rules`` shows both
registries.

Usage::

    python -m repro.devtools.lint [--list-rules] [--format=text|json|sarif]
                                  [--fix] [paths ...]
    repro lint [paths ...]

Exit status is 1 when any diagnostic survives suppression; 2 on usage
errors (nonexistent or non-Python paths).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import ClassVar, Iterable, Iterator

__all__ = [
    "CONFINEMENT",
    "Diagnostic",
    "LintUsageError",
    "RULES",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
]

#: Subpackages of ``repro`` whose code runs inside simulated time.
TIMED_LAYERS = ("sim", "core", "dram", "cache", "cpu", "qos")

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)


class LintUsageError(Exception):
    """A path argument the linter cannot act on (exit status 2)."""


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violated at a file/line/column.

    ``end_line`` is the last line of the offending construct (0 when
    unknown); suppression honours a ``# repro: noqa`` on any line of a
    multi-line statement's span, not just the first.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    end_line: int = field(default=0, compare=False)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class FileContext:
    """Where a source buffer sits relative to the ``repro`` package."""

    path: str
    lines: tuple[str, ...]

    @property
    def repro_parts(self) -> tuple[str, ...] | None:
        """Path components below the ``repro`` package dir, or None."""
        parts = PurePosixPath(self.path.replace("\\", "/")).parts
        for index, part in enumerate(parts[:-1]):
            if part == "repro":
                return parts[index + 1 :]
        return None

    @property
    def in_repro_package(self) -> bool:
        return self.repro_parts is not None

    @property
    def in_timed_layer(self) -> bool:
        parts = self.repro_parts
        return parts is not None and len(parts) > 1 and parts[0] in TIMED_LAYERS


class Rule(ast.NodeVisitor):
    """Base class for lint rules: an AST visitor with a code and scope.

    Subclasses set ``code``/``summary``, optionally narrow ``applies``,
    and call :meth:`report` from their ``visit_*`` methods.  Register
    with :func:`register` so the CLI and test harness discover them.
    """

    code: ClassVar[str]
    summary: ClassVar[str]

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.diagnostics: list[Diagnostic] = []

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        """Whether this rule runs on the file at all (path scoping)."""
        return True

    def report(self, node: ast.AST, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=self.code,
                message=message,
                end_line=getattr(node, "end_lineno", 0) or 0,
            )
        )


RULES: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Add a rule class to the registry (decorator)."""
    if rule_cls.code in RULES:
        raise ValueError(f"duplicate rule code {rule_cls.code!r}")
    RULES[rule_cls.code] = rule_cls
    return rule_cls


# ----------------------------------------------------------------------
# expression helpers shared by several rules
# ----------------------------------------------------------------------
def _terminal_name(node: ast.expr) -> str | None:
    """The rightmost identifier of a Name or attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _base_chain(node: ast.expr) -> list[str]:
    """Identifier chain of nested attributes, e.g. ``np.random.seed``."""
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
    chain.reverse()
    return chain


_TIMESTAMP_EXACT = {"when", "now", "deadline", "_now"}
_TIMESTAMP_SUFFIXES = ("_at", "_deadline", "_until")


def _is_timestamp_name(name: str | None) -> bool:
    if name is None:
        return False
    if name in _TIMESTAMP_EXACT:
        return True
    return name.endswith(_TIMESTAMP_SUFFIXES)


def _definitely_float(node: ast.expr) -> bool:
    """True when the expression statically cannot be an int."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return True
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
            return True
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "float"
        ):
            return True
    return False


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
@register
class NoBuiltinHash(Rule):
    code = "DET001"
    summary = "builtin hash()/id() values vary per process"

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id in ("hash", "id"):
            self.report(
                node,
                f"builtin {node.func.id}() is process-dependent "
                "(PYTHONHASHSEED / allocator layout); derive stable values "
                "from a digest such as hashlib.sha256 instead",
            )
        self.generic_visit(node)


@register
class NoAmbientRandomness(Rule):
    code = "DET002"
    summary = "randomness must flow through Engine.rng or an injected Generator"

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        return ctx.in_repro_package

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.report(
                    node,
                    "stdlib random module carries ambient global state; "
                    "use Engine.rng(name) or an injected np.random.Generator",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self.report(
                node,
                "stdlib random module carries ambient global state; "
                "use Engine.rng(name) or an injected np.random.Generator",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        chain = _base_chain(node.func)
        if len(chain) >= 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
            fn = chain[2]
            if fn == "seed":
                self.report(node, "np.random.seed mutates hidden global state")
            elif fn == "RandomState":
                self.report(
                    node, "legacy np.random.RandomState; use Engine.rng(name)"
                )
            elif fn == "default_rng" and not node.args and not node.keywords:
                self.report(
                    node,
                    "unseeded np.random.default_rng() draws OS entropy; "
                    "seed it explicitly or use Engine.rng(name)",
                )
            elif fn[:1].islower() and fn not in ("default_rng",):
                self.report(
                    node,
                    f"np.random.{fn} uses the hidden global generator; "
                    "use Engine.rng(name) or an injected Generator",
                )
        self.generic_visit(node)


_WALLCLOCK_TIME_FUNCS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "clock_gettime",
}
_WALLCLOCK_DATETIME_FUNCS = {"now", "utcnow", "today"}


@register
class NoWallClock(Rule):
    code = "DET003"
    summary = "no wall-clock reads inside the timed layers"

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        return ctx.in_timed_layer

    def _flag(self, node: ast.AST, what: str) -> None:
        self.report(
            node,
            f"{what} reads the wall clock inside a timed layer; simulated "
            "components must only observe engine.now",
        )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _WALLCLOCK_TIME_FUNCS:
                    self._flag(node, f"time.{alias.name}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        chain = _base_chain(node.func)
        if len(chain) >= 2:
            base, fn = chain[-2], chain[-1]
            if base == "time" and fn in _WALLCLOCK_TIME_FUNCS:
                self._flag(node, f"time.{fn}")
            elif base in ("datetime", "date") and fn in _WALLCLOCK_DATETIME_FUNCS:
                self._flag(node, f"{base}.{fn}")
        self.generic_visit(node)


@register
class NoFloatCycleArithmetic(Rule):
    code = "DET004"
    summary = "cycle/timestamp arithmetic must stay integral (use //)"

    @classmethod
    def _timestamp_in(cls, expr: ast.AST) -> str | None:
        """Timestamp-named value inside ``expr``, skipping call results.

        A function *of* a timestamp (``stats.ipc(0, engine.now)``) returns
        some other quantity, so calls are not descended into.
        """
        if isinstance(expr, ast.Call):
            return None
        name = _terminal_name(expr)  # type: ignore[arg-type]
        if _is_timestamp_name(name):
            return name
        for child in ast.iter_child_nodes(expr):
            found = cls._timestamp_in(child)
            if found is not None:
                return found
        return None

    def visit_BinOp(self, node: ast.BinOp) -> None:
        # Only the numerator matters: dividing a timestamp produces float
        # cycles, while dividing *by* one (``bytes / engine.now``) produces
        # a rate, which is legitimately float.
        if isinstance(node.op, ast.Div):
            name = self._timestamp_in(node.left)
            if name is not None:
                self.report(
                    node,
                    f"true division of timestamp operand {name!r} "
                    "produces float cycles; use floor division (//)",
                )
        self.generic_visit(node)


@register
class NoBareSetIteration(Rule):
    code = "DET005"
    summary = "iteration order of a bare set can leak into scheduling"

    def _check_iter(self, iterable: ast.expr) -> None:
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            kind = "set literal" if isinstance(iterable, ast.Set) else "set comprehension"
            self.report(
                iterable,
                f"iterating a bare {kind}; wrap it in sorted(...) or use a "
                "tuple/list so the order is deterministic",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _check_comprehensions(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", ()):
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _check_comprehensions
    visit_SetComp = _check_comprehensions
    visit_DictComp = _check_comprehensions
    visit_GeneratorExp = _check_comprehensions


#: Engine scheduling call -> the (positional index, keyword) of each
#: argument that must be an int cycle count.
_CYCLE_ARGS = {
    "post": ((0, "delay"),),
    "post_at": ((0, "when"),),
    "post_late_at": ((0, "when"),),
    "post_chain_at": ((0, "when"), (3, "link_delay")),
}


@register
class IntegerScheduleDelay(Rule):
    code = "SIM001"
    summary = "Engine post/post_at/post_late_at/post_chain_at need int-typed cycle expressions"

    def visit_Call(self, node: ast.Call) -> None:
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
        for index, keyword in _CYCLE_ARGS.get(attr, ()):
            value: ast.expr | None = None
            if index < len(node.args):
                value = node.args[index]
            else:
                for kw in node.keywords:
                    if kw.arg == keyword:
                        value = kw.value
                        break
            if value is not None and _definitely_float(value):
                self.report(
                    value,
                    f"{attr}() {keyword} expression is float-typed (float "
                    "literal, float() cast, or true division); cycle "
                    "counts must be ints",
                )
        self.generic_visit(node)


@dataclass(frozen=True)
class Confinement:
    """One row of the import-confinement table (rule PERF001).

    ``banned`` modules may only be imported by files whose path below the
    ``repro`` package starts with ``allowed`` (a file, or a directory when
    the last part has no ``.py`` suffix).
    """

    banned: tuple[str, ...]
    allowed: tuple[str, ...]
    reason: str

    @property
    def where(self) -> str:
        where = "/".join(self.allowed)
        return where if where.endswith(".py") else where + "/"

    def match(self, name: str) -> str | None:
        """The banned module ``name`` is, or lies inside; else None."""
        for banned in self.banned:
            if name == banned or name.startswith(banned + "."):
                return banned
        return None


#: Modules whose import is confined to one file or subpackage of
#: ``repro``.  The C accelerators (``_pickle``, ``_heapq``) are listed
#: beside their wrappers: they expose the same ``loads``/``dumps`` and
#: heap primitives.
CONFINEMENT: tuple[Confinement, ...] = (
    Confinement(
        ("networkx",),
        ("sim", "topology.py"),
        "graph algorithms belong in the build-time latency-table "
        "precompute, not in per-event simulation code (consume the dense "
        "tables on MeshTopology instead)",
    ),
    Confinement(
        ("heapq", "_heapq"),
        ("sim", "engine.py"),
        "event ordering belongs to the engine's timing wheel "
        "(post/post_at/post_chain_at), and a separate priority queue in "
        "simulation code sidesteps the (when, seq) dispatch-order "
        "guarantee or reintroduces the per-event heap traffic the wheel "
        "removes",
    ),
    Confinement(
        # json is exempt: it cannot encode object graphs.
        ("pickle", "_pickle", "marshal", "shelve", "dill"),
        ("runner", "checkpoint.py"),
        "simulator state serialization is a versioned checkpoint format "
        "with restore validation — route snapshots through "
        "repro.runner.checkpoint instead of ad-hoc pickling",
    ),
    Confinement(
        ("multiprocessing", "concurrent.futures"),
        ("runner",),
        "worker processes are an orchestration concern — route "
        "parallelism through repro.runner (the sweep pool) so "
        "nondeterministic OS scheduling never sits next to the "
        "bit-deterministic event loop",
    ),
    Confinement(
        ("ctypes", "cffi", "importlib.machinery"),
        ("accel",),
        "native-code loading is the compiled backend's concern — "
        "repro.accel owns the build, the ABI handshake, and the "
        "pure-Python fallback, so a stray .so load elsewhere bypasses "
        "backend selection and the byte-identity contract",
    ),
)


@register
class ImportConfinement(Rule):
    code = "PERF001"
    summary = (
        "networkx/heapq/pickle/process-pool/native-loader imports are "
        "confined to their owning module (see lint.CONFINEMENT)"
    )

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        return ctx.in_repro_package

    def _check(self, node: ast.AST, names: list[str]) -> None:
        parts = self.ctx.repro_parts or ()
        for row in CONFINEMENT:
            if parts[: len(row.allowed)] == row.allowed:
                continue
            for name in names:
                banned = row.match(name)
                if banned is not None:
                    self.report(
                        node, f"{banned} import outside {row.where}; {row.reason}"
                    )
                    break

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check(node, [alias.name])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # ``from a import b`` may bind submodule ``a.b``
        # (``from concurrent import futures``), so both names are checked.
        if node.module:
            self._check(
                node,
                [node.module] + [f"{node.module}.{a.name}" for a in node.names],
            )


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def _suppressed_codes(line: str) -> set[str] | None:
    """Codes silenced on this line; empty set means 'all'; None means none."""
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    codes = match.group("codes")
    if codes is None:
        return set()
    return {code.strip().upper() for code in codes.split(",") if code.strip()}


#: Statements with no nested statement list: a noqa anywhere in their
#: multi-line span suppresses findings anywhere in the same span.
_SIMPLE_STMTS = (
    ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Return, ast.Expr,
    ast.Raise, ast.Assert, ast.Delete, ast.Import, ast.ImportFrom,
)


def _noqa_scopes(
    tree: ast.Module,
) -> tuple[tuple[tuple[int, int, int], ...], tuple[tuple[int, int], ...]]:
    """Suppression scopes: function bodies and simple-statement spans.

    A ``# repro: noqa`` on a ``def`` line suppresses findings anywhere in
    that function's body — decorated defs included (the decorator lines
    are outside the span, the ``def`` line anchors it).  A noqa on any
    line of a multi-line *simple* statement covers the whole statement,
    so the comment can trail the closing parenthesis.
    """
    scopes: list[tuple[int, int, int]] = []
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((node.lineno, node.end_lineno or node.lineno, node.lineno))
        elif isinstance(node, _SIMPLE_STMTS):
            end = node.end_lineno or node.lineno
            if end > node.lineno:
                spans.append((node.lineno, end))
    return tuple(scopes), tuple(spans)


def _apply_noqa(
    diagnostics: Iterable[Diagnostic],
    lines: tuple[str, ...],
    scopes: tuple[tuple[int, int, int], ...] = (),
    spans: tuple[tuple[int, int], ...] = (),
) -> list[Diagnostic]:
    def suppressed_at(lineno: int, code: str) -> bool:
        line = lines[lineno - 1] if 0 < lineno <= len(lines) else ""
        codes = _suppressed_codes(line)
        return codes is not None and (not codes or code in codes)

    kept: list[Diagnostic] = []
    for diag in diagnostics:
        span_end = max(diag.line, diag.end_line)
        candidates = list(range(diag.line, span_end + 1))
        for start, end in spans:
            if start <= diag.line <= end:
                candidates.extend(range(start, end + 1))
        for start, end, def_line in scopes:
            if start <= diag.line <= end:
                candidates.append(def_line)
        if any(suppressed_at(lineno, diag.code) for lineno in candidates):
            continue
        kept.append(diag)
    return kept


def lint_source(source: str, path: str = "<string>") -> list[Diagnostic]:
    """Lint one source buffer; ``path`` drives the path-scoped rules."""
    ctx = FileContext(path=path, lines=tuple(source.splitlines()))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Diagnostic(
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                code="E999",
                message=f"syntax error: {exc.msg}",
            )
        ]
    diagnostics: list[Diagnostic] = []
    for rule_cls in RULES.values():
        if not rule_cls.applies(ctx):
            continue
        rule = rule_cls(ctx)
        rule.visit(tree)
        diagnostics.extend(rule.diagnostics)
    diagnostics.sort(key=lambda d: (d.line, d.col, d.code))
    scopes, spans = _noqa_scopes(tree)
    return _apply_noqa(diagnostics, ctx.lines, scopes, spans)


def apply_noqa_to_source(
    diagnostics: Iterable[Diagnostic], source: str
) -> list[Diagnostic]:
    """Noqa-filter externally produced diagnostics against one buffer.

    Used by the whole-program pass, whose diagnostics are created outside
    :func:`lint_source` but must honour the same suppression comments.
    """
    lines = tuple(source.splitlines())
    try:
        scopes, spans = _noqa_scopes(ast.parse(source))
    except SyntaxError:
        scopes, spans = (), ()
    return _apply_noqa(diagnostics, lines, scopes, spans)


def lint_file(path: Path | str) -> list[Diagnostic]:
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def _iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Expand path arguments to ``*.py`` files, validating as we go.

    Raises :class:`LintUsageError` for nonexistent paths and for
    explicit file arguments that are not Python source.  The same file
    reached twice via overlapping arguments (``src src/repro``) is
    yielded once.
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintUsageError(f"no such file or directory: {path}")
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix != ".py":
            raise LintUsageError(
                f"not a Python file: {path} (only *.py files can be linted)"
            )
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def lint_paths(paths: Iterable[Path | str]) -> list[Diagnostic]:
    """Lint every ``*.py`` file under the given files/directories."""
    diagnostics: list[Diagnostic] = []
    for path in _iter_python_files(paths):
        diagnostics.extend(lint_file(path))
    return diagnostics


_FAMILIES = {
    "DET": "determinism",
    "SIM": "simulation",
    "PERF": "performance",
    "CKPT": "checkpoint",
    "OBS": "observability",
}


def _family_of(code: str) -> str:
    prefix = code.rstrip("0123456789")
    return _FAMILIES.get(prefix, "general")


def _list_rules() -> str:
    from repro.devtools.analysis import WHOLE_PROGRAM_RULES
    from repro.devtools.fixes import AUTOFIXES

    rows: list[tuple[str, str, str, str, str]] = []
    for code in sorted(RULES):
        rows.append(
            (
                code,
                _family_of(code),
                "per-file",
                "yes" if code in AUTOFIXES else "no",
                RULES[code].summary,
            )
        )
    for code in sorted(WHOLE_PROGRAM_RULES):
        summary, family = WHOLE_PROGRAM_RULES[code]
        rows.append((code, family, "whole-program", "no", summary))
    headers = ("CODE", "FAMILY", "SCOPE", "FIX", "SUMMARY")
    widths = [
        max(len(headers[i]), max(len(row[i]) for row in rows)) for i in range(4)
    ]
    lines = [
        "  ".join(headers[i].ljust(widths[i]) for i in range(4)) + "  SUMMARY"
    ]
    lines.append("  ".join("-" * widths[i] for i in range(4)) + "  " + "-" * 7)
    for row in rows:
        lines.append(
            "  ".join(row[i].ljust(widths[i]) for i in range(4)) + "  " + row[4]
        )
    return "\n".join(lines)


def _find_package_roots(paths: Iterable[Path | str]) -> list[Path]:
    """``repro`` package directories reachable from the lint paths."""
    roots: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        candidates = []
        if path.is_dir():
            if path.name == "repro" and (path / "__init__.py").exists():
                candidates.append(path)
            candidates.extend(
                parent for parent in sorted(path.glob("**/repro"))
                if (parent / "__init__.py").exists()
            )
        else:
            for parent in path.parents:
                if parent.name == "repro" and (parent / "__init__.py").exists():
                    candidates.append(parent)
                    break
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                roots.append(candidate)
    return roots


def _whole_program_diagnostics(
    roots: Iterable[Path],
    cache_dir: str | None,
    use_cache: bool,
    timings: list[str],
) -> list[Diagnostic]:
    from repro.devtools.analysis import analyze_project

    diagnostics: list[Diagnostic] = []
    for root in roots:
        found, info = analyze_project(root, cache_dir=cache_dir, use_cache=use_cache)
        timings.append(
            f"whole-program {root}: {info['elapsed_s'] * 1000.0:.0f} ms "
            f"({'warm, cache hit' if info['cache_hit'] else 'cold'}; "
            f"fingerprint {info['fingerprint']})"
        )
        # honour # repro: noqa in the analyzed sources
        by_path: dict[str, list[Diagnostic]] = {}
        for diag in found:
            by_path.setdefault(diag.path, []).append(diag)
        for path, diags in by_path.items():
            try:
                source = Path(path).read_text(encoding="utf-8")
            except OSError:
                diagnostics.extend(diags)
                continue
            diagnostics.extend(apply_noqa_to_source(diags, source))
    return diagnostics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.devtools.lint",
        description="Determinism linter for the PABST simulator tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table (family, scope, autofix) and exit",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="diagnostic output format (default: text)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write formatted diagnostics to this file instead of stdout",
    )
    parser.add_argument(
        "--fix", action="store_true",
        help="apply autofixes for the mechanical rules (DET004, DET005)",
    )
    parser.add_argument(
        "--no-whole-program", action="store_true",
        help="skip the whole-program analysis pass (DET1xx/CKPT/OBS)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="analysis cache directory (default: .repro-cache/analysis)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the fingerprint-keyed analysis cache",
    )
    parser.add_argument(
        "--timings", action="store_true",
        help="print analyzer timing lines to stderr",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0

    timings: list[str] = []
    try:
        if args.fix:
            from repro.devtools.fixes import fix_paths

            changed = fix_paths(args.paths)
            for path, count in changed:
                print(f"fixed {count} finding(s) in {path}")
        diagnostics = lint_paths(args.paths)
    except LintUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not args.no_whole_program:
        roots = _find_package_roots(args.paths)
        if roots:
            from repro.devtools.analysis.cache import DEFAULT_CACHE_DIR

            cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
            diagnostics.extend(
                _whole_program_diagnostics(
                    roots, cache_dir, not args.no_cache, timings
                )
            )
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.code))

    from repro.devtools.formats import render

    rendered = render(diagnostics, args.format)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    elif rendered:
        print(rendered)
    for line in timings if args.timings else ():
        print(line, file=sys.stderr)
    if diagnostics:
        print(f"{len(diagnostics)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
