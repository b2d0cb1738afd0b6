"""Whole-program static analysis for the repro package.

This package grows ``repro.devtools`` beyond per-file AST matching: it
builds one shared symbol table + call graph over the package tree
(:mod:`.symbols`, :mod:`.callgraph`) and runs three whole-program rule
families against it:

* **DET1xx** (:mod:`.taint`) — cross-module determinism taint: can a
  wall-clock/RNG/``hash()`` value *reach* the event queue or seed
  derivation via any call path?
* **CKPT** (:mod:`.pickle_safety`) — static pickle-safety reachability
  from the ``System`` field graph.
* **OBS** (:mod:`.obs_rules`) — every registered observability provider
  names a statically-existing, data-like attribute.

Results are cached on disk keyed by the runner source fingerprint
(:mod:`.cache`), so a clean warm run skips parsing entirely.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.devtools.analysis.cache import (
    DEFAULT_CACHE_DIR,
    load_analysis,
    store_analysis,
)
from repro.devtools.analysis.callgraph import build_call_graph
from repro.devtools.analysis.obs_rules import analyze_obs_providers
from repro.devtools.analysis.pickle_safety import analyze_pickle_safety
from repro.devtools.analysis.symbols import ProjectIndex, build_index
from repro.devtools.analysis.taint import analyze_taint
from repro.devtools.lint import Diagnostic

__all__ = [
    "WHOLE_PROGRAM_RULES",
    "analyze_project",
    "build_call_graph",
    "build_index",
    "ProjectIndex",
]

#: Rule metadata for ``--list-rules``: code -> (summary, family).
#: Whole-program rules live here, not in ``lint.RULES`` — they need the
#: project index and cannot run per-file.
WHOLE_PROGRAM_RULES: dict[str, tuple[str, str]] = {
    "DET101": (
        "nondeterministic value can reach an event-queue timestamp "
        "(post/post_at/post_late_at/post_chain_at/run_until) via some call path",
        "determinism",
    ),
    "DET102": (
        "nondeterministic value can reach RNG seed derivation "
        "(SeedSequence/PCG64/default_rng or a seed=/entropy= kwarg)",
        "determinism",
    ),
    "CKPT001": (
        "checkpoint-reachable field holds an OS resource "
        "(file handle/lock/thread/socket/module/weakref)",
        "checkpoint",
    ),
    "CKPT002": (
        "checkpoint-reachable field bound to a lambda/nested def/generator "
        "literal",
        "checkpoint",
    ),
    "OBS001": (
        "registered obs provider attribute does not statically exist on "
        "the provider class",
        "observability",
    ),
    "OBS002": (
        "registered obs provider attribute is a plain method, not a "
        "field or property",
        "observability",
    ),
}


def analyze_index(index: ProjectIndex) -> list[Diagnostic]:
    """Run every whole-program family against an already-built index."""
    diagnostics: list[Diagnostic] = []
    diagnostics.extend(analyze_taint(index))
    diagnostics.extend(analyze_pickle_safety(index))
    diagnostics.extend(analyze_obs_providers(index))
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.code))
    return diagnostics


def analyze_project(
    root: Path | str,
    package: str | None = None,
    cache_dir: Path | str | None = DEFAULT_CACHE_DIR,
    use_cache: bool = True,
) -> tuple[list[Diagnostic], dict]:
    """Whole-program pass over one package directory.

    Returns ``(diagnostics, info)`` where ``info`` carries the source
    fingerprint, elapsed wall time, and whether the disk cache was hit.
    Pass ``cache_dir=None`` (or ``use_cache=False``) to force a cold run.
    """
    from repro.runner.fingerprint import source_fingerprint

    root = Path(root)
    started = time.perf_counter()
    fingerprint = source_fingerprint(root)
    if use_cache and cache_dir is not None:
        cached = load_analysis(cache_dir, fingerprint)
        if cached is not None:
            diagnostics, _symbols = cached
            return diagnostics, {
                "fingerprint": fingerprint,
                "cache_hit": True,
                "elapsed_s": time.perf_counter() - started,
            }
    index = build_index(root, package=package)
    diagnostics = analyze_index(index)
    if use_cache and cache_dir is not None:
        store_analysis(cache_dir, fingerprint, diagnostics, index.summary())
    return diagnostics, {
        "fingerprint": fingerprint,
        "cache_hit": False,
        "elapsed_s": time.perf_counter() - started,
        "modules": len(index.modules),
        "functions": len(index.functions),
    }
