"""Process-pool fan-out over run specs with caching and failure isolation.

:func:`run_specs` is the one entry point: it resolves cache hits first,
fans the misses out over a ``ProcessPoolExecutor`` (or runs them inline
for ``workers <= 1``), enforces a per-spec timeout, and stores fresh
successes back into the cache.  A worker crash or a broken pool degrades
to sequential in-process execution rather than failing the sweep.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, process
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.runner.cache import ResultCache
from repro.runner.fingerprint import source_fingerprint
from repro.runner.spec import RunSpec
from repro.runner.worker import execute_payload

__all__ = ["SweepOutcome", "run_specs"]


@dataclass
class SweepOutcome:
    """One spec's result: where it came from and what happened."""

    spec: RunSpec
    result: dict
    cached: bool = False

    @property
    def ok(self) -> bool:
        return bool(self.result.get("ok"))

    @property
    def error(self) -> str | None:
        return None if self.ok else str(self.result.get("error", "unknown"))


def _failure(kind: str, detail: str) -> dict:
    return {"ok": False, "error": f"{kind}: {detail}"}


def _payload(
    spec: RunSpec, warm_start_dir: str | None, snapshot_end: bool = False
) -> dict:
    payload = spec.to_payload()
    if warm_start_dir is not None:
        payload["warm_start_dir"] = warm_start_dir
        if snapshot_end:
            payload["snapshot_end"] = True
    return payload


def _run_sequential(
    specs: Sequence[RunSpec],
    payloads: Sequence[dict],
    progress: Callable[[str], None] | None,
) -> list[dict]:
    results = []
    for spec, payload in zip(specs, payloads):
        if progress is not None:
            progress(f"run  {spec.label()}")
        results.append(execute_payload(payload))
    return results


def _run_pool(
    specs: Sequence[RunSpec],
    payloads: Sequence[dict],
    workers: int,
    timeout: float | None,
    progress: Callable[[str], None] | None,
) -> list[dict]:
    results: list[dict | None] = [None] * len(specs)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(execute_payload, payload) for payload in payloads]
            for index, (spec, future) in enumerate(zip(specs, futures)):
                try:
                    results[index] = future.result(timeout=timeout)
                except FutureTimeoutError:
                    future.cancel()
                    results[index] = _failure(
                        "timeout", f"{spec.label()} exceeded {timeout}s"
                    )
                except process.BrokenProcessPool:
                    raise
                except Exception as exc:  # worker died mid-task
                    results[index] = _failure(type(exc).__name__, str(exc))
                if progress is not None and results[index] is not None:
                    status = "ok" if results[index].get("ok") else "FAIL"
                    progress(f"{status:<4} {spec.label()}")
    except process.BrokenProcessPool:
        # Pool is unusable (a worker was killed, fork failed, ...): finish
        # the unresolved specs sequentially in this process.
        if progress is not None:
            progress("process pool broke; falling back to sequential execution")
        for index, payload in enumerate(payloads):
            if results[index] is None:
                results[index] = execute_payload(payload)
    return [
        result if result is not None else _failure("internal", "no result")
        for result in results
    ]


def _run_batch(
    specs: Sequence[RunSpec],
    payloads: Sequence[dict],
    workers: int,
    timeout: float | None,
    progress: Callable[[str], None] | None,
) -> list[dict]:
    if workers > 1 and len(specs) > 1:
        return _run_pool(specs, payloads, workers, timeout, progress)
    return _run_sequential(specs, payloads, progress)


def _run_warm_batched(
    misses: Sequence[tuple[int, RunSpec]],
    workers: int,
    timeout: float | None,
    progress: Callable[[str], None] | None,
    warm_start_dir: str,
) -> list[dict]:
    """Run misses in two waves so warm-up prefixes are simulated once.

    The first spec of each warm-up group (the *leader*) runs in wave
    one, simulating its warm-up prefix and writing the checkpoint; the
    remaining specs (*followers*) run in wave two and fork from the
    now-populated store.  Without the barrier between waves, followers
    racing their leader would each cold-simulate the same prefix and
    the sweep would pay warm-up N times after all.

    Every run that still has a later cell of its group to run also
    snapshots its end, so cells fork from the longest link of the chain
    that fits them, not just from the warm-up.  Running a group's cells
    shortest first (as ``sweep_cells`` grids list them) makes every
    cell simulate only the epochs beyond its predecessor's.
    """
    groups = [spec.warmup_group_key() for _, spec in misses]
    leaders: list[int] = []
    followers: list[int] = []
    seen_groups: set[str] = set()
    for position, group in enumerate(groups):
        if group in seen_groups:
            followers.append(position)
        else:
            seen_groups.add(group)
            leaders.append(position)
    if progress is not None and followers:
        progress(
            f"warm-start: {len(leaders)} warm-up prefix(es) for "
            f"{len(misses)} cells"
        )
    # a run snapshots its end iff a cell of its group runs after it
    snapshot_end = [False] * len(misses)
    later: set[str] = set()
    for position in reversed(leaders + followers):
        snapshot_end[position] = groups[position] in later
        later.add(groups[position])
    results: list[dict | None] = [None] * len(misses)
    for wave in (leaders, followers):
        if not wave:
            continue
        specs = [misses[position][1] for position in wave]
        payloads = [
            _payload(spec, warm_start_dir, snapshot_end[position])
            for spec, position in zip(specs, wave)
        ]
        wave_results = _run_batch(specs, payloads, workers, timeout, progress)
        for position, result in zip(wave, wave_results):
            results[position] = result
    return [
        result if result is not None else _failure("internal", "no result")
        for result in results
    ]


def run_specs(
    specs: Sequence[RunSpec],
    workers: int = 1,
    timeout: float | None = None,
    cache: ResultCache | None = None,
    use_cache: bool = True,
    progress: Callable[[str], None] | None = None,
    warm_start_dir: str | None = None,
) -> list[SweepOutcome]:
    """Run every spec, reusing cached results where possible.

    Returns outcomes in spec order.  Only successful runs are cached;
    failures (including timeouts) are returned but never persisted.

    With ``warm_start_dir``, cache misses run through the checkpoint
    store in that directory: one leader per warm-up group simulates and
    snapshots its warm-up prefix, then the group's remaining cells fork
    from the longest stored link of that prefix's chain (see
    :meth:`RunSpec.warmup_group_key`).
    """
    fingerprint = source_fingerprint()
    outcomes: dict[int, SweepOutcome] = {}
    misses: list[tuple[int, RunSpec]] = []

    for index, spec in enumerate(specs):
        cached = (
            cache.load(spec.spec_hash(), fingerprint)
            if (cache is not None and use_cache)
            else None
        )
        if cached is not None:
            if progress is not None:
                progress(f"hit  {spec.label()}")
            outcomes[index] = SweepOutcome(spec=spec, result=cached, cached=True)
        else:
            misses.append((index, spec))

    miss_specs = [spec for _, spec in misses]
    if miss_specs:
        if warm_start_dir is not None and len(miss_specs) > 1:
            results = _run_warm_batched(
                misses, workers, timeout, progress, warm_start_dir
            )
        else:
            payloads = [_payload(spec, warm_start_dir) for spec in miss_specs]
            results = _run_batch(miss_specs, payloads, workers, timeout, progress)
        for (index, spec), result in zip(misses, results):
            outcomes[index] = SweepOutcome(spec=spec, result=result, cached=False)
            if cache is not None and result.get("ok"):
                cache.store(
                    spec.spec_hash(), fingerprint, spec.canonical_json(), result
                )

    return [outcomes[index] for index in range(len(specs))]
