"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro list
    python -m repro run fig05 [--quick] [--seed N] [--sanitize]
    python -m repro run-all [--quick]
    python -m repro sweep fig07 [--quick] [--workers N] [--no-cache]
                          [--warm-start] [--backend {pure,c,auto}]
    python -m repro arena [--quick] [--mechanisms a,b] [--scenarios x,y]
                          [--workers N] [--output PATH]
                          [--backend {pure,c,auto}]
    python -m repro checkpoint fig05 [--quick] [--seed N] | --stats | --clear
    python -m repro cache [--stats] [--clear]
    python -m repro trace fig05 [--quick] [--seed N] [--output PATH]
                          [--buffer N] [--metrics PATH] [--sanitize]
                          [--backend {pure,c,auto}]
    python -m repro bench [figs ...] [--quick] [--check BASELINE]
                          [--repeat N] [--update] [--no-history]
                          [--backend {pure,c,auto}]
    python -m repro profile fig05 [--quick] [--top N] [--output PATH]
                          [--backend {pure,c,auto}]
    python -m repro accel [info|build]
    python -m repro info
    python -m repro lint [paths ...] [--format {text,json,sarif}] [--fix]
                         [--list-rules] [--timings] [--no-cache]

``--sanitize`` attaches the runtime invariant checker
(:mod:`repro.sim.sanitizer`) to every system the experiment builds;
``lint`` runs the determinism linter — per-file rules plus the
whole-program analysis pass (:mod:`repro.devtools.lint`,
:mod:`repro.devtools.analysis`); all flags after ``lint`` are forwarded
to the linter.
``sweep --warm-start`` simulates each warm-up prefix once and forks the
remaining cells from the longest link of its checkpoint chain
(:mod:`repro.runner.checkpoint`);
``checkpoint`` pre-populates those snapshots, and ``cache`` reports or
clears everything under ``.repro-cache/`` (plus any tolerated cache I/O
warnings counted by :mod:`repro.obs.warnings`).  ``trace`` re-runs one
experiment with the request tracer attached (:mod:`repro.obs.trace`) and
writes Chrome trace-event JSON viewable in Perfetto or chrome://tracing.
``--backend`` selects the engine implementation (:mod:`repro.accel`):
``pure`` is the always-available reference, ``c`` compiles and loads the
extension (an error when no toolchain is present), and ``auto`` uses a
prebuilt extension when one exists and degrades to ``pure`` otherwise;
``accel`` builds the extension or reports its status.

Each experiment prints the same report table/series its benchmark asserts
against; see EXPERIMENTS.md for the paper-vs-measured record.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.experiments import (
    arena,
    fig01_motivation,
    fig05_proportional,
    fig06_work_conserving,
    fig07_source_and_target,
    fig08_excess,
    fig09_memcached,
    fig10_isolation,
    fig11_iaas,
    fig12_efficiency,
)

__all__ = ["EXPERIMENTS", "main"]

EXPERIMENTS: dict[str, tuple[Callable, str]] = {
    "fig01": (fig01_motivation.run,
              "source- vs target-only regulation on both mixes"),
    "fig05": (fig05_proportional.run,
              "proportional allocation: two stream classes at 7:3"),
    "fig06": (fig06_work_conserving.run,
              "work conservation with a phase-alternating streamer"),
    "fig07": (fig07_source_and_target.run,
              "PABST vs its source-only and target-only halves"),
    "fig08": (fig08_excess.run,
              "proportional redistribution of unused bandwidth"),
    "fig09": (fig09_memcached.run,
              "memcached service-time distribution under co-location"),
    "fig10": (fig10_isolation.run,
              "SPEC weighted slowdown vs a streaming aggressor"),
    "fig11": (fig11_iaas.run,
              "IaaS consolidation vs a static bandwidth partition"),
    "fig12": (fig12_efficiency.run,
              "memory-efficiency cost of bandwidth QoS"),
    "arena": (arena.run,
              "every QoS mechanism head-to-head over the scenario matrix"),
}


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, (_, description) in EXPERIMENTS.items():
        print(f"{name:<{width}}  {description}")
    return 0


def _run_experiment(name: str, quick: bool, seed: int, sanitize: bool = False) -> None:
    from repro.experiments.common import sanitized

    runner, description = EXPERIMENTS[name]
    mode = "quick" if quick else "full"
    suffix = ", sanitized" if sanitize else ""
    print(f"== {name} ({mode}{suffix}): {description}")
    started = time.perf_counter()
    with sanitized(sanitize):
        result = runner(quick=quick, seed=seed)
    elapsed = time.perf_counter() - started
    print(result.report())
    print(f"[{elapsed:.1f}s]")


def _cmd_run(args: argparse.Namespace) -> int:
    if args.experiment not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {args.experiment!r}; known: {known}",
              file=sys.stderr)
        return 2
    _run_experiment(args.experiment, args.quick, args.seed, args.sanitize)
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    for index, name in enumerate(EXPERIMENTS):
        if index:
            print()
        _run_experiment(name, args.quick, args.seed, args.sanitize)
    return 0


def _checkpoint_dir(cache_dir: str) -> str:
    from pathlib import Path

    return str(Path(cache_dir) / "checkpoints")


def _resolve_backend(name: str) -> str | None:
    """Resolve ``--backend`` at the CLI boundary; None (+stderr) on failure.

    Specs carry the *resolved* name, so cache entries and bench records
    never say "auto" — they say which backend actually ran.
    """
    from repro import accel

    try:
        return accel.resolve_backend(name)
    except accel.AccelUnavailable as exc:
        print(f"--backend={name} unavailable: {exc}", file=sys.stderr)
        return None


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.runner import ResultCache, run_specs, specs_for_figure

    if args.experiment not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {args.experiment!r}; known: {known}",
              file=sys.stderr)
        return 2
    backend = _resolve_backend(args.backend)
    if backend is None:
        return 2
    specs = specs_for_figure(
        args.experiment, quick=args.quick, seed=args.seed, backend=backend,
    )
    cache = ResultCache(args.cache_dir)
    started = time.perf_counter()
    outcomes = run_specs(
        specs,
        workers=args.workers,
        timeout=args.timeout,
        cache=cache,
        use_cache=not args.no_cache,
        progress=print,
        warm_start_dir=(
            _checkpoint_dir(args.cache_dir) if args.warm_start else None
        ),
    )
    elapsed = time.perf_counter() - started

    failures = 0
    for outcome in outcomes:
        print()
        origin = "cached" if outcome.cached else "fresh"
        if outcome.ok:
            rate = outcome.result.get("events_per_sec", 0.0)
            print(f"== {outcome.spec.label()} ({origin}, "
                  f"{rate:,.0f} events/s)")
            print(outcome.result["report"])
        else:
            failures += 1
            print(f"== {outcome.spec.label()} FAILED: {outcome.error}")
    hits = sum(1 for o in outcomes if o.cached)
    print()
    print(f"[{len(outcomes)} cell(s), {hits} cached, {failures} failed, "
          f"{elapsed:.1f}s, workers={args.workers}, backend={backend}]")
    return 1 if failures else 0


def _split_csv(value: str | None, default: tuple[str, ...]) -> tuple[str, ...]:
    if value is None:
        return default
    return tuple(name.strip() for name in value.split(",") if name.strip())


def _cmd_arena(args: argparse.Namespace) -> int:
    import json

    from repro.mechanisms import ALL_MECHANISMS
    from repro.runner import ResultCache, run_specs
    from repro.runner.spec import RunSpec

    mechanisms = _split_csv(args.mechanisms, ALL_MECHANISMS)
    scenarios = _split_csv(args.scenarios, arena.SCENARIOS)
    unknown = [name for name in mechanisms if name not in ALL_MECHANISMS]
    if unknown:
        known = ", ".join(ALL_MECHANISMS)
        print(f"unknown mechanism(s) {unknown}; known: {known}",
              file=sys.stderr)
        return 2
    unknown = [name for name in scenarios if name not in arena.SCENARIOS]
    if unknown:
        known = ", ".join(arena.SCENARIOS)
        print(f"unknown scenario(s) {unknown}; known: {known}",
              file=sys.stderr)
        return 2
    backend = _resolve_backend(args.backend)
    if backend is None:
        return 2
    # One (scenario, mechanism) cell per spec so the pool parallelizes the
    # matrix and the cache re-serves individual head-to-heads.
    specs = [
        RunSpec(
            figure="arena",
            cell={"scenarios": (scenario,), "mechanisms": (mechanism,)},
            seed=args.seed,
            quick=args.quick,
            backend=backend,
        )
        for scenario in scenarios
        for mechanism in mechanisms
    ]
    cache = ResultCache(args.cache_dir)
    started = time.perf_counter()
    outcomes = run_specs(
        specs,
        workers=args.workers,
        timeout=args.timeout,
        cache=cache,
        use_cache=not args.no_cache,
        progress=print,
    )
    elapsed = time.perf_counter() - started
    failures = 0
    documents = []
    for outcome in outcomes:
        if not outcome.ok:
            failures += 1
            print(f"== {outcome.spec.label()} FAILED: {outcome.error}",
                  file=sys.stderr)
            continue
        document = outcome.result.get("metrics")
        if document is None:
            failures += 1
            print(f"== {outcome.spec.label()} returned no metrics document",
                  file=sys.stderr)
            continue
        documents.append(document)
    if not documents:
        print("no arena cells completed", file=sys.stderr)
        return 1
    merged = arena.merge_documents(documents)
    cells = arena.validate_report(merged)
    print(arena.comparative_report(merged))
    hits = sum(1 for o in outcomes if o.cached)
    print()
    print(f"[{cells} cell(s): {len(merged['mechanisms'])} mechanism(s) x "
          f"{len(merged['scenarios'])} scenario(s), {hits} cached, "
          f"{failures} failed, {elapsed:.1f}s, workers={args.workers}, "
          f"backend={backend}]")
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[wrote {args.output}]")
    return 1 if failures else 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.runner import specs_for_figure
    from repro.runner.checkpoint import CheckpointStore
    from repro.runner.worker import execute_spec

    store = CheckpointStore(_checkpoint_dir(args.cache_dir))
    if args.stats or args.clear:
        if args.clear:
            print(f"[removed {store.clear()} checkpoint(s)]")
        if args.stats:
            stats = store.stats()
            print(f"{stats['directory']}: {stats['entries']} checkpoint(s), "
                  f"{stats['bytes']:,} bytes (cap {stats['max_entries']})")
        return 0
    if args.experiment is None:
        print("checkpoint needs an experiment name (or --stats/--clear)",
              file=sys.stderr)
        return 2
    if args.experiment not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {args.experiment!r}; known: {known}",
              file=sys.stderr)
        return 2
    specs = specs_for_figure(args.experiment, quick=args.quick, seed=args.seed)
    leaders = {spec.warmup_group_key(): spec for spec in specs}
    started = time.perf_counter()
    failures = 0
    for spec in leaders.values():
        result = execute_spec(spec, warm_start_dir=str(store.directory))
        if result.get("ok"):
            print(f"ok   {spec.label()}")
        else:
            failures += 1
            print(f"FAIL {spec.label()}: {result.get('error')}")
    elapsed = time.perf_counter() - started
    print(f"[{len(leaders)} warm-up prefix(es) for {len(specs)} cell(s), "
          f"{len(store)} stored, {failures} failed, {elapsed:.1f}s]")
    return 1 if failures else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.obs.warnings import warning_counts
    from repro.runner import ResultCache
    from repro.runner.checkpoint import CheckpointStore

    cache = ResultCache(args.cache_dir)
    store = CheckpointStore(_checkpoint_dir(args.cache_dir))
    if args.clear:
        print(f"[removed {cache.clear()} result(s), "
              f"{store.clear()} checkpoint(s)]")
    # default (and --stats): report both stores' footprints
    for stats, kind in ((cache.stats(), "result(s)"),
                        (store.stats(), "checkpoint(s)")):
        print(f"{stats['directory']}: {stats['entries']} {kind}, "
              f"{stats['bytes']:,} bytes (cap {stats['max_entries']})")
    warnings = warning_counts()
    if warnings:
        print("warnings (tolerated I/O failures this process):")
        for name in sorted(warnings):
            print(f"  {name}: {warnings[name]}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import JsonlSink, RequestTracer, write_chrome_trace
    from repro.experiments.common import sanitized, traced

    if args.experiment not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {args.experiment!r}; known: {known}",
              file=sys.stderr)
        return 2
    from repro import accel

    backend = _resolve_backend(args.backend)
    if backend is None:
        return 2
    runner, description = EXPERIMENTS[args.experiment]
    mode = "quick" if args.quick else "full"
    print(f"== {args.experiment} ({mode}, traced, backend={backend}): "
          f"{description}")
    tracer = RequestTracer(capacity=args.buffer)
    sinks = []
    metrics_sink = None
    if args.metrics is not None:
        metrics_sink = JsonlSink(args.metrics)
        sinks.append(metrics_sink)
    started = time.perf_counter()
    try:
        with accel.backend(backend), sanitized(args.sanitize), \
                traced(tracer, sinks):
            result = runner(quick=args.quick, seed=args.seed)
    finally:
        if metrics_sink is not None:
            metrics_sink.close()
    elapsed = time.perf_counter() - started
    print(result.report())
    output = (
        Path(args.output)
        if args.output is not None
        else Path(f"trace_{args.experiment}.json")
    )
    document = tracer.to_chrome_trace()
    write_chrome_trace(output, document)
    print(f"[{elapsed:.1f}s]")
    print(f"[{tracer.recorded:,} transitions recorded, "
          f"{tracer.dropped:,} dropped by the ring, "
          f"{len(document['traceEvents']):,} trace events]")
    print(f"[wrote {output} — open in Perfetto or chrome://tracing]")
    if metrics_sink is not None:
        print(f"[wrote {metrics_sink.published} epoch record(s) "
              f"to {args.metrics}]")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.runner.bench import (
        BASELINE_PATH,
        append_history,
        check_against_baseline,
        default_bench_path,
        run_bench,
        run_warm_start_bench,
        write_bench,
    )

    figures = args.figures or list(EXPERIMENTS)
    unknown = [name for name in figures if name not in EXPERIMENTS]
    if unknown:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment(s) {unknown}; known: {known}",
              file=sys.stderr)
        return 2
    backend = _resolve_backend(args.backend)
    if backend is None:
        return 2
    document = run_bench(
        figures, quick=args.quick, seed=args.seed, repeat=args.repeat,
        backend=backend,
    )
    fingerprint = document.get("accel_fingerprint")
    tag = f", build {fingerprint}" if fingerprint else ""
    print(f"[backend: {document['backend']}{tag}]")
    failures = 0
    for figure, entry in document["figures"].items():
        if entry.get("ok"):
            print(f"{figure:<8} {entry['wall_seconds']:>8.2f}s  "
                  f"{entry['events']:>12,} events  "
                  f"{entry['events_per_sec']:>12,.0f} events/s")
            compiled = entry.get("compiled")
            if compiled is not None:
                if compiled.get("ok"):
                    rate = compiled.get("fastpath_hit_rate")
                    coverage = (
                        f", fast-path {rate:.2%}" if rate is not None else ""
                    )
                    print(f"{'':<8} vs pure: "
                          f"{compiled['pure_wall_seconds']:.2f}s pure  "
                          f"({compiled['speedup_vs_pure']:.2f}x compiled, "
                          f"byte-identical{coverage})")
                else:
                    failures += 1
                    print(f"{'':<8} vs pure FAILED: {compiled.get('error')}")
        else:
            print(f"{figure:<8} FAILED: {entry.get('error')}")

    if not args.no_warm_start:
        warm = run_warm_start_bench(
            "fig05", quick=True, seed=args.seed, repeat=args.repeat
        )
        document["warm_start"] = warm
        if warm.get("ok"):
            print(f"warm-start fig05 sweep: cold {warm['cold_seconds']:.2f}s"
                  f" -> warm {warm['warm_seconds']:.2f}s"
                  f"  ({warm['speedup']:.2f}x, {warm['cells']} cells)")
        else:
            print(f"warm-start fig05 sweep FAILED: {warm.get('error')}")

    if args.check is not None:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = check_against_baseline(
            document, baseline, tolerance=args.tolerance
        )
        for problem in problems:
            print(f"REGRESSION {problem}", file=sys.stderr)
        if problems:
            return 1
        print(f"[within {args.tolerance:.0%} of {args.check}]")

    if args.update:
        output = BASELINE_PATH
    elif args.output is not None:
        output = args.output
    else:
        output = default_bench_path()
    path = write_bench(document, output)
    print(f"[wrote {path}]")
    if not args.no_history:
        history = append_history(document)
        print(f"[appended to {history}]")
    return 1 if failures else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.runner.bench import run_profile, write_bench

    if args.experiment not in EXPERIMENTS:
        known = ", ".join(EXPERIMENTS)
        print(f"unknown experiment {args.experiment!r}; known: {known}",
              file=sys.stderr)
        return 2
    backend = _resolve_backend(args.backend)
    if backend is None:
        return 2
    report = run_profile(
        args.experiment, quick=args.quick, seed=args.seed, top=args.top,
        backend=backend,
    )
    if not report["ok"]:
        print(f"{args.experiment} FAILED: {report.get('error')}", file=sys.stderr)
        return 1
    fingerprint = report.get("accel_fingerprint")
    tag = f", build {fingerprint}" if fingerprint else ""
    print(f"[backend: {report['backend']}{tag}]")
    print(f"{args.experiment:<8} {report['wall_seconds']:>8.2f}s (profiled)  "
          f"{report['events']:>12,} events  "
          f"{report['events_per_sec']:>12,.0f} events/s")
    fastpath = report.get("fastpath")
    if fastpath is not None:
        print(f"  fast-path: {fastpath['hits']:,} hits / "
              f"{fastpath['misses']:,} misses "
              f"({fastpath['hit_rate']:.2%} native dispatch)")
        kinds = sorted(
            fastpath.get("kinds", {}).items(), key=lambda kv: -kv[1]
        )
        for tag, count in kinds:
            print(f"    {tag:<24} {count:>12,}")
    for spot in report["hotspots"][:10]:
        location = f"{spot['file']}:{spot['line']}"
        print(f"  {spot['tottime']:>8.3f}s  {spot['function']:<28} {location}")
    if args.output is not None:
        path = write_bench(report, args.output)
        print(f"[wrote {path}]")
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools import lint

    # An explicit argv list: passing None would make lint.main re-parse
    # sys.argv and mistake the "lint" verb for a path.  Everything after
    # the verb (paths and lint flags alike) forwards verbatim, so
    # ``repro lint --format=sarif src`` works without mirroring the
    # linter's option surface here.
    return lint.main(args.lint_args or ["src", "tests"])


def _cmd_accel(args: argparse.Namespace) -> int:
    from repro import accel
    from repro.accel import build as build_mod

    if args.action == "build":
        try:
            path = build_mod.build()
        except accel.AccelUnavailable as exc:
            print(f"accel build failed: {exc}", file=sys.stderr)
            return 1
        print(f"[built {path}]")
        return 0
    # info (the default): status without side effects — never compiles
    path = build_mod.artifact_path()
    cc = build_mod.compiler()
    print(f"source:      {build_mod.SOURCE_PATH}")
    print(f"fingerprint: {build_mod.source_fingerprint()}")
    print(f"compiler:    {cc if cc else 'none found (tried gcc, cc, clang)'}")
    print(f"artifact:    {path} "
          f"({'present' if path.exists() else 'not built'})")
    print(f"auto resolves to: {accel.resolve_backend('auto')}")
    from repro.accel import native

    kinds = native.kind_table()
    print(f"native kinds ({len(kinds)}):")
    for tag, (func, _cls) in sorted(kinds.items()):
        print(f"  {tag:<24} {func.__module__}.{func.__qualname__}")
    stats = accel.fastpath_stats()
    total = stats["hits"] + stats["misses"]
    if total:
        print(f"fast-path this process: {stats['hits']:,} hits / "
              f"{stats['misses']:,} misses "
              f"({stats['hits'] / total:.2%})")
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    from repro import SPEC_PROFILES, SystemConfig, __version__

    config = SystemConfig.default_experiment()
    paper = SystemConfig.paper_32core()
    print(f"repro {__version__} - PABST (HPCA 2017) reproduction")
    print()
    print("default experiment machine:")
    print(f"  cores={config.cores}  mcs={config.num_mcs}  "
          f"peak={config.peak_bandwidth:.0f} B/cycle  "
          f"epoch={config.epoch_cycles} cycles")
    print("paper Table III machine:")
    print(f"  cores={paper.cores}  mcs={paper.num_mcs}  "
          f"peak={paper.peak_bandwidth:.0f} B/cycle  "
          f"epoch={paper.epoch_cycles} cycles")
    print()
    print("SPEC CPU2006 proxies:", ", ".join(sorted(SPEC_PROFILES)))
    return 0


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend", choices=("pure", "c", "auto"), default="pure",
        help="engine implementation: the pure-Python reference, the "
             "compiled C extension (built on demand; errors without a "
             "toolchain), or auto (a prebuilt extension when present, "
             "else pure)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the PABST (HPCA 2017) evaluation figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", help="experiment name, e.g. fig05")
    run.add_argument("--quick", action="store_true",
                     help="reduced scale (seconds instead of minutes)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--sanitize", action="store_true",
                     help="enable the runtime invariant sanitizer")
    run.set_defaults(func=_cmd_run)

    run_all = sub.add_parser("run-all", help="run every experiment")
    run_all.add_argument("--quick", action="store_true")
    run_all.add_argument("--seed", type=int, default=0)
    run_all.add_argument("--sanitize", action="store_true",
                         help="enable the runtime invariant sanitizer")
    run_all.set_defaults(func=_cmd_run_all)

    sweep = sub.add_parser(
        "sweep", help="run one experiment's grid cells in parallel"
    )
    sweep.add_argument("experiment", help="experiment name, e.g. fig07")
    sweep.add_argument("--quick", action="store_true",
                       help="reduced scale (seconds instead of minutes)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = run in-process)")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-cell timeout in seconds")
    sweep.add_argument("--no-cache", action="store_true",
                       help="ignore cached results (still refreshes them)")
    sweep.add_argument("--cache-dir", default=".repro-cache",
                       help="result cache directory (default: .repro-cache)")
    sweep.add_argument("--warm-start", action="store_true",
                       help="simulate each warm-up prefix once and fork the "
                            "remaining cells from the longest stored link "
                            "of its checkpoint chain")
    _add_backend_argument(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    arena_cmd = sub.add_parser(
        "arena",
        help="run every QoS mechanism head-to-head over the scenario "
             "matrix and print a comparative report",
    )
    arena_cmd.add_argument("--quick", action="store_true",
                           help="reduced scale (seconds instead of minutes)")
    arena_cmd.add_argument("--seed", type=int, default=0)
    arena_cmd.add_argument("--mechanisms", default=None,
                           help="comma-separated mechanism subset "
                                "(default: every registered mechanism)")
    arena_cmd.add_argument("--scenarios", default=None,
                           help="comma-separated scenario subset "
                                "(default: the full matrix)")
    arena_cmd.add_argument("--workers", type=int, default=1,
                           help="worker processes (1 = run in-process)")
    arena_cmd.add_argument("--timeout", type=float, default=None,
                           help="per-cell timeout in seconds")
    arena_cmd.add_argument("--no-cache", action="store_true",
                           help="ignore cached results (still refreshes them)")
    arena_cmd.add_argument("--cache-dir", default=".repro-cache",
                           help="result cache directory "
                                "(default: .repro-cache)")
    arena_cmd.add_argument("--output", default=None,
                           help="also write the merged repro.arena/v1 JSON "
                                "document to this path")
    _add_backend_argument(arena_cmd)
    arena_cmd.set_defaults(func=_cmd_arena)

    checkpoint = sub.add_parser(
        "checkpoint",
        help="pre-populate warm-up checkpoints for a figure's sweep grid",
    )
    checkpoint.add_argument("experiment", nargs="?", default=None,
                            help="experiment name, e.g. fig05")
    checkpoint.add_argument("--quick", action="store_true",
                            help="reduced scale (seconds instead of minutes)")
    checkpoint.add_argument("--seed", type=int, default=0)
    checkpoint.add_argument("--cache-dir", default=".repro-cache",
                            help="cache directory holding checkpoints/ "
                                 "(default: .repro-cache)")
    checkpoint.add_argument("--stats", action="store_true",
                            help="report the checkpoint store's footprint")
    checkpoint.add_argument("--clear", action="store_true",
                            help="delete every stored checkpoint")
    checkpoint.set_defaults(func=_cmd_checkpoint)

    cache = sub.add_parser(
        "cache", help="report or clear the result + checkpoint caches"
    )
    cache.add_argument("--cache-dir", default=".repro-cache",
                       help="cache directory (default: .repro-cache)")
    cache.add_argument("--stats", action="store_true",
                       help="report cache footprints (the default action)")
    cache.add_argument("--clear", action="store_true",
                       help="delete every cached result and checkpoint")
    cache.set_defaults(func=_cmd_cache)

    trace = sub.add_parser(
        "trace",
        help="run one experiment with the request tracer attached and "
             "export Chrome trace-event JSON",
    )
    trace.add_argument("experiment", help="experiment name, e.g. fig05")
    trace.add_argument("--quick", action="store_true",
                       help="reduced scale (seconds instead of minutes)")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--output", default=None,
                       help="trace JSON path (default: trace_<fig>.json)")
    trace.add_argument("--buffer", type=int, default=65536,
                       help="ring-buffer capacity in transitions; the trace "
                            "keeps the last N (default 65536)")
    trace.add_argument("--metrics", default=None,
                       help="also stream per-epoch metric records to this "
                            "JSONL file")
    trace.add_argument("--sanitize", action="store_true",
                       help="enable the runtime invariant sanitizer")
    _add_backend_argument(trace)
    trace.set_defaults(func=_cmd_trace)

    bench = sub.add_parser(
        "bench", help="measure wall-clock and events/sec per figure"
    )
    bench.add_argument("figures", nargs="*",
                       help="figures to benchmark (default: all)")
    bench.add_argument("--quick", action="store_true",
                       help="reduced scale (seconds instead of minutes)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--output", default=None,
                       help="output JSON path (default: BENCH_<timestamp>.json)")
    bench.add_argument("--check", default=None,
                       help="baseline JSON to compare events/sec against")
    bench.add_argument("--tolerance", type=float, default=0.30,
                       help="allowed events/sec drop vs baseline (default 0.30)")
    bench.add_argument("--repeat", type=int, default=3,
                       help="runs per figure; median wall time is reported "
                            "(default 3)")
    bench.add_argument("--update", action="store_true",
                       help="rewrite BENCH_baseline.json in place")
    bench.add_argument("--no-warm-start", action="store_true",
                       help="skip the cold-vs-warm-started sweep comparison")
    bench.add_argument("--no-history", action="store_true",
                       help="skip appending this run to BENCH_history.jsonl")
    _add_backend_argument(bench)
    bench.set_defaults(func=_cmd_bench)

    profile = sub.add_parser(
        "profile", help="run one figure under cProfile, emit a JSON hotspot report"
    )
    profile.add_argument("experiment", help="experiment name, e.g. fig05")
    profile.add_argument("--quick", action="store_true",
                         help="reduced scale (seconds instead of minutes)")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--top", type=int, default=25,
                         help="hotspots to keep, ranked by tottime (default 25)")
    profile.add_argument("--output", default=None,
                         help="write the JSON report here (default: stdout)")
    _add_backend_argument(profile)
    profile.set_defaults(func=_cmd_profile)

    accel = sub.add_parser(
        "accel",
        help="build the compiled backend or report its status",
    )
    accel.add_argument("action", nargs="?", choices=("info", "build"),
                       default="info",
                       help="info: report toolchain/artifact status "
                            "(default); build: compile the extension now")
    accel.set_defaults(func=_cmd_accel)

    lint = sub.add_parser(
        "lint",
        help="run the determinism linter and whole-program analyzer",
    )
    lint.add_argument(
        "lint_args", nargs=argparse.REMAINDER, metavar="args",
        help="paths and linter flags, forwarded to repro.devtools.lint "
             "(default: src tests; see 'repro lint --help' there)",
    )
    lint.set_defaults(func=_cmd_lint)

    sub.add_parser("info", help="show machine presets and workloads").set_defaults(
        func=_cmd_info
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # argparse's REMAINDER refuses a leading option token, so flag-first
    # invocations like ``repro lint --list-rules`` forward directly.
    if argv and argv[0] == "lint":
        from repro.devtools import lint

        return lint.main(argv[1:] or ["src", "tests"])
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
