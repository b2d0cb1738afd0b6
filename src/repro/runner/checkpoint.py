"""Deterministic simulation checkpoints with warm-start forking.

Every figure experiment runs a warm-up window before its measurement
window, and sweep cells that differ only in measurement-phase knobs
re-simulate the *identical* warm-up prefix from scratch.  This module
removes that redundancy the way cycle-level simulators do (gem5-style
SimPoint checkpointing): snapshot the full simulator state at the
warm-up/measurement boundary once, then fork every measurement run from
the snapshot.  Cells that differ only in how long they run go further:
a shorter cell's run is an exact prefix of a longer one's, so a run can
also snapshot its own end, and the next cell forks from that *link* of
the chain instead of from the warm-up.

The snapshot is a versioned pickle of the entire :class:`~repro.sim.system.System`
object graph — timing-wheel buckets + overflow heap + sequence counter,
derived RNG streams, cache tag stores, MSHR files, governor/arbiter/pacer
virtual clocks, in-flight :class:`~repro.sim.records.MemoryRequest`s, and
stats accumulators.  Because the simulator is pure Python with integer
time and named RNG streams, unpickling reproduces the machine *exactly*;
the one piece of process-global state — the request-id counter that
scheduler tie-breaks read — is carried as a watermark and re-established
on restore (see :func:`restore_system`).  A restored run is therefore
byte-identical to a cold run that simulated the warm-up itself; the
golden tests in ``tests/experiments/test_warm_start.py`` pin that.

Checkpoints are keyed by a **warm-up prefix hash** plus the number of
epochs simulated.  The hash covers everything that determines the
trajectory of a freshly built system: the full
:class:`~repro.sim.config.SystemConfig`, QoS classes and core
assignments, per-core workload parameters, mechanism parameters, master
seed, warm-up epoch count, and the source fingerprint.  Two sweep cells
whose prefixes hash equal share every stored link; any source change
invalidates every checkpoint, exactly like the result cache.

This is the **only** module in the package allowed to import ``pickle``
(lint rule PERF001): serialization of simulator state is a versioned,
validated format, and confining it here keeps every producer and
consumer on that format.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.warnings import obs_warn
from repro.runner.fingerprint import source_fingerprint
from repro.sim.records import advance_request_ids, request_id_watermark

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.system import System

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointStore",
    "DEFAULT_CHECKPOINT_DIR",
    "describe_component",
    "restore_system",
    "snapshot_system",
    "warmup_prefix_hash",
    "warmup_prefix_key",
]

#: Bump when the envelope layout or the semantics of restored state
#: change; old checkpoints then read as misses instead of garbage.
#: v2: System grew the obs registry (``system.obs``) and the tracer
#: engine slot — v1 snapshots unpickle without them, so they must miss.
#: v3: checkpoints are chain links keyed by (prefix hash, epochs); the
#: metadata's ``warmup_epochs`` became ``epochs``.
#: v4: the engine state lost its live-event counter (``_live``) and the
#: controller its compiled-kernel binding (``_ckern``).
CHECKPOINT_VERSION = 4

DEFAULT_CHECKPOINT_DIR = ".repro-cache/checkpoints"

#: Checkpoints are far larger than result-cache entries (a full system
#: snapshot is ~0.7 MB), so the store's LRU cap defaults much lower.
DEFAULT_MAX_CHECKPOINTS = 64


# ----------------------------------------------------------------------
# warm-up prefix identity
# ----------------------------------------------------------------------
def _scalar(value: Any) -> bool:
    return isinstance(value, (bool, int, float, str, type(None)))


def describe_component(obj: Any) -> dict[str, Any]:
    """JSON-able description of one component's *configuration* state.

    Captures the class qualname plus every scalar instance attribute
    (and scalar-only tuples/lists, and nested dataclasses).  Non-scalar
    attributes — engine references, derived caches, bound cores — are
    build products of the described parameters, so omitting them loses
    no identity.  Called on workloads and mechanisms *before* any cycle
    runs, so the description is the constructor-equivalent state.
    """
    fields: dict[str, Any] = {}
    for name in sorted(vars(obj)):
        value = vars(obj)[name]
        if _scalar(value):
            fields[name] = value
        elif isinstance(value, (tuple, list)) and all(_scalar(v) for v in value):
            fields[name] = list(value)
        elif is_dataclass(value) and not isinstance(value, type):
            fields[name] = asdict(value)
    return {
        "type": f"{type(obj).__module__}.{type(obj).__qualname__}",
        "fields": fields,
    }


def warmup_prefix_key(system: "System", warmup_epochs: int) -> dict[str, Any]:
    """Everything that determines the warm-up trajectory, as a JSON doc.

    Must be computed on a built-but-unrun system: the workload and
    mechanism descriptions double as their initial state.
    """
    registry = system.registry
    return {
        "version": CHECKPOINT_VERSION,
        "fingerprint": source_fingerprint(),
        "warmup_epochs": warmup_epochs,
        "seed": system.engine._seed,
        "config": asdict(system.config),
        "classes": [
            {
                "qos_id": qos_class.qos_id,
                "name": qos_class.name,
                "weight": qos_class.weight,
                "stride": qos_class.stride,
                "l3_ways": qos_class.l3_ways,
            }
            for qos_class in registry.classes
        ],
        "cores": {
            str(core_id): registry.class_of_core(core_id)
            for core_id in sorted(system.cores)
        },
        "workloads": {
            str(core_id): describe_component(core.workload)
            for core_id, core in sorted(system.cores.items())
        },
        "mechanism": describe_component(system.mechanism),
        "sample_latencies": system.stats.sample_latencies,
        "sanitize": system.engine.sanitizer is not None,
        # a tracer records during warm-up, so traced and untraced warm-ups
        # are different prefixes even though the simulated state matches
        "traced": system.engine.tracer is not None,
    }


def warmup_prefix_hash(system: "System", warmup_epochs: int) -> str:
    """Content hash (16 hex chars) of :func:`warmup_prefix_key`."""
    payload = json.dumps(
        warmup_prefix_key(system, warmup_epochs),
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# snapshot / restore
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Checkpoint:
    """One chain link: metadata plus the pickled system graph.

    A link is keyed by ``(prefix_hash, epochs)``: the system a fresh
    build of that prefix reaches after ``epochs`` whole QoS epochs.  The
    warm-up snapshot is the first link of its chain; a run that
    snapshots its own end adds a longer one.

    ``payload`` holds only the pickled :class:`System` graph; the
    metadata (version, prefix hash, epochs, request-id watermark,
    boundary cycle) lives in the dataclass fields, and on disk in a
    small separate pickle stream *ahead of* the payload.  Keeping them
    apart means a store lookup decodes a few dozen bytes of metadata,
    not the ~0.7 MB object graph — restoring is the only full decode,
    and every :func:`restore_system` call unpickles the payload afresh,
    so a single link forks any number of independent runs.
    """

    prefix_hash: str
    payload: bytes
    version: int
    fingerprint: str
    epochs: int
    boundary_cycle: int
    request_id_watermark: int

    def meta(self) -> dict[str, Any]:
        """The on-disk metadata header, as a plain dict."""
        return {
            "version": self.version,
            "prefix_hash": self.prefix_hash,
            "fingerprint": self.fingerprint,
            "epochs": self.epochs,
            "boundary_cycle": self.boundary_cycle,
            "request_id_watermark": self.request_id_watermark,
        }


def snapshot_system(
    system: "System", epochs: int, prefix_hash: str | None = None
) -> Checkpoint:
    """Snapshot a system standing on the boundary after ``epochs`` epochs.

    Pickling captures the complete object graph (pickle's memo preserves
    the shared references — the same Core object reachable from the
    system dict and a controller's fusion table stays one object on
    restore).  The request-id watermark is recorded so the restoring
    process can re-establish the global id order scheduler tie-breaks
    depend on.  Take the snapshot before ``finalize()``: a link is
    mid-run state that a longer run continues from.
    """
    if prefix_hash is None:
        raise ValueError(
            "snapshot_system needs the prefix hash computed on the "
            "built-but-unrun system (warmup_prefix_hash before run_epochs)"
        )
    watermark = request_id_watermark()
    payload = pickle.dumps(system, protocol=pickle.HIGHEST_PROTOCOL)
    return Checkpoint(
        prefix_hash=prefix_hash,
        payload=payload,
        version=CHECKPOINT_VERSION,
        fingerprint=source_fingerprint(),
        epochs=epochs,
        boundary_cycle=system.engine.now,
        request_id_watermark=watermark,
    )


def restore_system(checkpoint: Checkpoint) -> "System":
    """Resurrect an independent :class:`System` from a checkpoint.

    Three steps make fork-equals-cold hold:

    * unpickle the payload (a fresh object graph per call — restores
      never alias each other or the snapshotted original);
    * advance the process-global request-id counter past the snapshot's
      watermark, so ids minted by the measurement phase sort after every
      warm-up id exactly as they would have in a cold run (FR-FCFS and
      the PABST arbiter break ties by ``req_id``);
    * run the sanitizer's restore-validation pass over the resurrected
      state (clock/window consistency, live-event conservation, request
      deadline sanity) so a corrupt or version-skewed snapshot fails
      loudly here instead of producing a silently wrong figure.
    """
    from repro.sim.engine import SimulationError
    from repro.sim.sanitizer import SimSanitizer

    if checkpoint.version != CHECKPOINT_VERSION:
        raise SimulationError(
            f"checkpoint version {checkpoint.version!r} does not match "
            f"this build's {CHECKPOINT_VERSION}"
        )
    try:
        system = pickle.loads(checkpoint.payload)
    except Exception as exc:
        raise SimulationError(f"checkpoint payload does not unpickle: {exc}") from exc
    advance_request_ids(checkpoint.request_id_watermark)
    if system.engine.now != checkpoint.boundary_cycle:
        raise SimulationError(
            f"restored clock {system.engine.now} does not match the "
            f"checkpoint's boundary cycle {checkpoint.boundary_cycle}"
        )
    sanitizer = system.engine.sanitizer
    if sanitizer is None:
        # one-shot validation pass; not attached, so the dispatch loop
        # stays on its unsanitized fast path afterwards
        sanitizer = SimSanitizer()
    sanitizer.on_restore(system)
    return system


# ----------------------------------------------------------------------
# on-disk store
# ----------------------------------------------------------------------
class CheckpointStore:
    """Store of chain links, one file per ``(prefix hash, epochs)``.

    Layout mirrors :class:`~repro.runner.cache.ResultCache`: one file
    per entry, atomic rename on save, corruption reads as a miss, LRU
    cap.  The source fingerprint lives *inside* the prefix hash, so
    stale checkpoints simply never match and are eventually evicted.
    """

    def __init__(
        self,
        directory: Path | str = DEFAULT_CHECKPOINT_DIR,
        max_entries: int | None = DEFAULT_MAX_CHECKPOINTS,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive (or None)")
        self.directory = Path(directory)
        self.max_entries = max_entries

    def _path(self, prefix_hash: str, epochs: int) -> Path:
        return self.directory / f"{prefix_hash}-{epochs}.ckpt"

    def _link_epochs(self, prefix_hash: str) -> list[int]:
        """Epoch counts of the stored links of one prefix, longest first."""
        epochs = []
        for path in self.directory.glob(f"{prefix_hash}-*.ckpt"):
            count = path.stem.rpartition("-")[2]
            if count.isdigit():
                epochs.append(int(count))
        return sorted(epochs, reverse=True)

    def load(
        self, prefix_hash: str, max_epochs: int | None = None
    ) -> Checkpoint | None:
        """The longest valid link of a prefix with at most ``max_epochs``
        epochs (any length when None), or None.

        A link that is unreadable, corrupt, version-skewed or stale
        reads as a miss and the next shorter link is tried.  Only the
        small metadata header is decoded here (the system payload stays
        opaque bytes until :func:`restore_system`), so a validating
        lookup costs microseconds, not a full graph decode.
        """
        for epochs in self._link_epochs(prefix_hash):
            if max_epochs is not None and epochs > max_epochs:
                continue
            checkpoint = self._load_link(prefix_hash, epochs)
            if checkpoint is not None:
                return checkpoint
        return None

    def _load_link(self, prefix_hash: str, epochs: int) -> Checkpoint | None:
        path = self._path(prefix_hash, epochs)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            stream = io.BytesIO(raw)
            meta = pickle.load(stream)
            payload = raw[stream.tell() :]
            version = meta["version"]
            fingerprint = meta["fingerprint"]
            stored_epochs = meta["epochs"]
            boundary_cycle = meta["boundary_cycle"]
            watermark = meta["request_id_watermark"]
            stored_hash = meta["prefix_hash"]
        except Exception:
            return None
        if version != CHECKPOINT_VERSION or stored_hash != prefix_hash:
            return None
        if stored_epochs != epochs or fingerprint != source_fingerprint():
            return None
        if not payload:
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError as exc:
            obs_warn(
                "checkpoint.utime_failed",
                "checkpoint store could not refresh recency of %s: %s",
                path,
                exc,
            )
        return Checkpoint(
            prefix_hash=prefix_hash,
            payload=payload,
            version=version,
            fingerprint=fingerprint,
            epochs=epochs,
            boundary_cycle=boundary_cycle,
            request_id_watermark=watermark,
        )

    def save(self, checkpoint: Checkpoint) -> Path:
        """Persist one link; atomic via rename; evicts LRU extras.

        File layout: a pickled metadata dict immediately followed by
        the pickled system graph (two concatenated pickle streams).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(checkpoint.prefix_hash, checkpoint.epochs)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        with tmp.open("wb") as handle:
            handle.write(
                pickle.dumps(checkpoint.meta(), protocol=pickle.HIGHEST_PROTOCOL)
            )
            handle.write(checkpoint.payload)
        tmp.replace(path)
        self._evict()
        return path

    def _evict(self) -> int:
        """Drop least-recently-used entries beyond ``max_entries``."""
        if self.max_entries is None:
            return 0
        entries = self._entries()
        removed = 0
        if len(entries) <= self.max_entries:
            return 0
        by_age = sorted(entries, key=lambda p: (p.stat().st_mtime, p.name))
        for path in by_age[: len(entries) - self.max_entries]:
            try:
                path.unlink()
                removed += 1
            except OSError as exc:
                obs_warn(
                    "checkpoint.evict_unlink_failed",
                    "checkpoint store could not evict %s: %s",
                    path,
                    exc,
                )
        return removed

    def _entries(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.ckpt"))

    def clear(self) -> int:
        """Delete every checkpoint; returns the number removed."""
        removed = 0
        for path in self._entries():
            path.unlink()
            removed += 1
        return removed

    def stats(self) -> dict[str, Any]:
        """Entry count and on-disk footprint for ``repro cache --stats``."""
        entries = self._entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": sum(path.stat().st_size for path in entries),
            "max_entries": self.max_entries,
        }

    def __len__(self) -> int:
        return len(self._entries())
