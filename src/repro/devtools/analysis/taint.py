"""Cross-module determinism taint analysis (DET1xx family).

The per-file rules answer "is ``time.time`` called inside a timed
layer?".  This pass answers the whole-program question: **can a
nondeterministic value reach the event queue or a seed derivation via
any call path?**  A helper in ``analysis/`` that returns
``time.perf_counter()`` is harmless on its own — until simulation code
posts the result as an event timestamp two calls later.

Mechanics: every indexed function gets a summary — which taint labels
its return value carries, and which of its parameters flow into a sink
(directly or through callees).  Summaries propagate over the call graph
to a fixed point; diagnostics are emitted at the callsite where a
tainted value finally meets a sink, with the call path in the message.

Rules:

========  ==============================================================
DET101    a nondeterministic value (wall clock, ambient RNG, builtin
          ``hash()``/``id()``, OS entropy) can reach an event-queue
          timestamp (``post``/``post_at``/``post_late_at``/
          ``post_chain_at``/``run_until``).
DET102    a nondeterministic value can reach a seed derivation
          (``SeedSequence``/``PCG64``/``default_rng`` or any ``seed=``
          argument).
========  ==============================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.devtools.analysis.callgraph import local_type_env, resolve_call
from repro.devtools.analysis.symbols import FunctionInfo, ModuleInfo, ProjectIndex
from repro.devtools.lint import Diagnostic

__all__ = ["analyze_taint"]

#: label -> shortest call chain that produced it
Taint = dict[tuple[str, object], tuple[str, ...]]

_WALLCLOCK = {
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "clock_gettime",
}
_DATETIME = {"now", "utcnow", "today"}
_TIME_SINKS = {"post", "post_at", "post_late_at", "post_chain_at", "run_until"}
_SEED_CONSTRUCTORS = {"SeedSequence", "PCG64", "Philox", "MT19937", "default_rng"}
_MAX_CHAIN = 6
_MAX_PASSES = 10


def _source_of(external: str | None) -> str | None:
    """Human-readable source description if this external call is one."""
    if external is None:
        return None
    if external in ("hash", "id"):
        return f"builtin {external}()"
    parts = external.split(".")
    if parts[0] == "time" and parts[-1] in _WALLCLOCK:
        return f"wall clock time.{parts[-1]}()"
    if len(parts) >= 2 and parts[-2] in ("datetime", "date") and parts[-1] in _DATETIME:
        return f"wall clock {parts[-2]}.{parts[-1]}()"
    if parts[0] == "random" and len(parts) > 1:
        return f"ambient random.{parts[-1]}()"
    if parts[0] == "numpy" and len(parts) >= 3 and parts[1] == "random":
        fn = parts[-1]
        if fn[:1].islower() and fn not in ("default_rng",):
            return f"ambient numpy.random.{fn}()"
        return None
    if external == "os.urandom":
        return "os.urandom()"
    if parts[0] == "uuid" and parts[-1] in ("uuid1", "uuid4"):
        return f"uuid.{parts[-1]}()"
    if parts[0] == "secrets":
        return f"secrets.{parts[-1]}()"
    return None


@dataclass
class _Summary:
    returns: Taint = field(default_factory=dict)
    # param index -> {(code, sink description): chain}
    param_sinks: dict[int, dict[tuple[str, str], tuple[str, ...]]] = field(
        default_factory=dict
    )

    def snapshot(self) -> tuple:
        return (
            tuple(sorted(self.returns)),
            tuple(
                (index, tuple(sorted(sinks)))
                for index, sinks in sorted(self.param_sinks.items())
            ),
        )


def _merge(into: Taint, labels: Taint) -> None:
    for label, chain in labels.items():
        existing = into.get(label)
        if existing is None or len(chain) < len(existing):
            into[label] = chain


def _extended(chain: tuple[str, ...], hop: str) -> tuple[str, ...]:
    if len(chain) >= _MAX_CHAIN:
        return chain
    return (hop,) + chain


class _FunctionPass(ast.NodeVisitor):
    """One flow pass over a function body, in statement order."""

    def __init__(
        self,
        index: ProjectIndex,
        module: ModuleInfo,
        fn: FunctionInfo,
        summaries: dict[str, _Summary],
        emit,
    ) -> None:
        self.index = index
        self.module = module
        self.fn = fn
        self.summaries = summaries
        self.emit = emit
        self.env: dict[str, Taint] = {
            name: {("param", position): ()}
            for position, name in enumerate(fn.params)
        }
        self.type_env = local_type_env(index, module, fn)
        self.summary = _Summary()

    # -- expression evaluation -----------------------------------------
    def eval(self, node: ast.expr | None) -> Taint:
        if node is None:
            return {}
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Name):
            return dict(self.env.get(node.id, ()))
        if isinstance(node, (ast.BinOp,)):
            taint: Taint = {}
            _merge(taint, self.eval(node.left))
            _merge(taint, self.eval(node.right))
            return taint
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.BoolOp):
            taint = {}
            for value in node.values:
                _merge(taint, self.eval(value))
            return taint
        if isinstance(node, ast.IfExp):
            taint = {}
            _merge(taint, self.eval(node.body))
            _merge(taint, self.eval(node.orelse))
            return taint
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            return self.eval(node.value)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            taint = {}
            for elt in node.elts:
                _merge(taint, self.eval(elt))
            return taint
        if isinstance(node, ast.NamedExpr):
            taint = self.eval(node.value)
            if isinstance(node.target, ast.Name):
                self.env[node.target.id] = dict(taint)
            return taint
        return {}

    def _eval_call(self, node: ast.Call) -> Taint:
        site = resolve_call(self.index, self.module, node, self.type_env)
        arg_taints = [self.eval(arg) for arg in node.args]
        kw_taints = {kw.arg: self.eval(kw.value) for kw in node.keywords}
        self._check_sinks(node, arg_taints, kw_taints)

        result: Taint = {}
        source = _source_of(site.external)
        if source is not None:
            result[("src", source)] = ()
            return result

        if site.callee is None:
            # Unresolved/external call (``int(x)``, ``min(a, b)``, an
            # unknown receiver): conservatively pass argument taint
            # through — a wrapper must not launder a tainted value.
            for taint in arg_taints:
                _merge(result, taint)
            for taint in kw_taints.values():
                _merge(result, taint)
            return result

        if site.callee is not None:
            callee_summary = self.summaries.get(site.callee)
            if callee_summary is not None:
                callee_fn = self.index.functions.get(site.callee)
                offset = 1 if (callee_fn is not None and callee_fn.is_method
                               and callee_fn.params[:1] == ("self",)) else 0
                # return-value labels flow out of the call
                for label, chain in callee_summary.returns.items():
                    kind, payload = label
                    if kind == "src":
                        result[label] = _extended(chain, site.callee)
                    elif kind == "param":
                        position = payload - offset
                        if 0 <= position < len(arg_taints):
                            for inner, inner_chain in arg_taints[position].items():
                                _merge(result, {inner: inner_chain})
                        elif callee_fn is not None:
                            name = (
                                callee_fn.params[payload]
                                if payload < len(callee_fn.params)
                                else None
                            )
                            if name is not None and name in kw_taints:
                                _merge(result, kw_taints[name])
                # tainted arguments meeting sinks inside the callee
                for position, sinks in callee_summary.param_sinks.items():
                    arg_taint = self._arg_taint(
                        callee_fn, position, offset, arg_taints, kw_taints
                    )
                    if not arg_taint:
                        continue
                    for (code, sink_desc), chain in sinks.items():
                        via = _extended(chain, site.callee)
                        for label, label_chain in arg_taint.items():
                            kind, payload = label
                            if kind == "src":
                                self.emit(
                                    self.fn, node, code, payload, sink_desc,
                                    label_chain, via,
                                )
                            else:
                                slot = self.summary.param_sinks.setdefault(
                                    payload, {}
                                )
                                key = (code, sink_desc)
                                if key not in slot or len(via) < len(slot[key]):
                                    slot[key] = via
        return result

    @staticmethod
    def _arg_taint(callee_fn, position, offset, arg_taints, kw_taints) -> Taint:
        call_position = position - offset
        if 0 <= call_position < len(arg_taints):
            return arg_taints[call_position]
        if callee_fn is not None and position < len(callee_fn.params):
            return kw_taints.get(callee_fn.params[position], {})
        return {}

    # -- sinks ---------------------------------------------------------
    def _check_sinks(
        self,
        node: ast.Call,
        arg_taints: list[Taint],
        kw_taints: dict[str | None, Taint],
    ) -> None:
        func = node.func
        attr = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if attr is None:
            return
        checks: list[tuple[Taint, str, str]] = []
        if isinstance(func, ast.Attribute) and attr in _TIME_SINKS:
            sink = f"{attr}() timestamp"
            if arg_taints:
                checks.append((arg_taints[0], "DET101", sink))
            if attr == "post_chain_at" and len(arg_taints) > 3:
                checks.append((arg_taints[3], "DET101", f"{attr}() link delay"))
            for kw_name in ("when", "delay", "deadline"):
                if kw_name in kw_taints:
                    checks.append((kw_taints[kw_name], "DET101", sink))
        if attr in _SEED_CONSTRUCTORS:
            if arg_taints:
                checks.append((arg_taints[0], "DET102", f"{attr}() seed"))
        for kw_name in ("seed", "entropy"):
            if kw_name in kw_taints:
                checks.append(
                    (kw_taints[kw_name], "DET102", f"{attr}({kw_name}=...)")
                )
        for taint, code, sink_desc in checks:
            for label, chain in taint.items():
                kind, payload = label
                if kind == "src":
                    self.emit(self.fn, node, code, payload, sink_desc, chain, ())
                else:
                    slot = self.summary.param_sinks.setdefault(payload, {})
                    key = (code, sink_desc)
                    if key not in slot or len(chain) < len(slot[key]):
                        slot[key] = chain

    # -- statements ----------------------------------------------------
    def run(self) -> _Summary:
        if self.fn.node is not None:
            self._block(self.fn.node.body)
        return self.summary

    def _block(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, taint)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taint = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                merged = dict(self.env.get(stmt.target.id, ()))
                _merge(merged, taint)
                self.env[stmt.target.id] = merged
        elif isinstance(stmt, ast.Return):
            _merge(self.summary.returns, self.eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            self.eval(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind(stmt.target, self.eval(stmt.iter))
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint)
            self._block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested scopes get their own summaries
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
        elif isinstance(stmt, (ast.Assert,)):
            self.eval(stmt.test)

    def _bind(self, target: ast.expr, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = dict(taint)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, taint)
        # attribute/subscript stores are dropped (field taint not tracked)


def analyze_taint(index: ProjectIndex) -> list[Diagnostic]:
    """Run the DET1xx fixed-point pass over the whole index."""
    functions: list[tuple[ModuleInfo, FunctionInfo]] = []
    for module in index.modules.values():
        for fn in module.functions.values():
            functions.append((module, fn))
        for cls in module.classes.values():
            for fn in cls.methods.values():
                functions.append((module, fn))

    summaries: dict[str, _Summary] = {
        fn.qualname: _Summary() for _, fn in functions
    }
    diagnostics: dict[tuple, Diagnostic] = {}

    def emit(fn, node, code, source, sink_desc, source_chain, sink_chain):
        module = index.modules[fn.module]
        hops = [hop for hop in tuple(sink_chain) + tuple(source_chain)]
        path = ""
        if hops:
            shown = " -> ".join(_short(hop) for hop in hops[:_MAX_CHAIN])
            path = f" (call path: {shown})"
        verb = (
            "can reach the event queue as"
            if code == "DET101"
            else "can reach seed derivation"
        )
        message = f"{source} {verb} {sink_desc}{path}"
        key = (module.path, node.lineno, node.col_offset, code, message)
        if key not in diagnostics:
            diagnostics[key] = Diagnostic(
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                code=code,
                message=message,
                end_line=node.end_lineno or node.lineno,
            )

    for _ in range(_MAX_PASSES):
        diagnostics.clear()
        changed = False
        for module, fn in functions:
            before = summaries[fn.qualname].snapshot()
            pass_ = _FunctionPass(index, module, fn, summaries, emit)
            summary = pass_.run()
            summaries[fn.qualname] = summary
            if summary.snapshot() != before:
                changed = True
        if not changed:
            break
    return sorted(
        diagnostics.values(), key=lambda d: (d.path, d.line, d.col, d.code)
    )


def _short(qualname: str) -> str:
    """Trim the package prefix so call paths stay readable."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qualname
