"""Local build + load of the ``_wheelcore`` C extension.

The extension ships as one C source file next to this module and is
compiled on demand with the host toolchain (``gcc``/``cc``/``clang``,
``-O2 -fPIC -shared`` against this interpreter's headers) — no network,
no setuptools build isolation, no wheel.  Artifacts land under
``.repro-cache/accel/<fingerprint>/`` where the fingerprint pins the C
source *and* the interpreter ABI (version, platform, extension suffix),
so a source edit or an interpreter switch can never pick up a stale
``.so``.

Loading performs two handshakes before the module is handed out:

* ``WHEEL_BITS`` must match the pure engine's wheel geometry (the C
  dispatch loop hard-codes the bucket mask); and
* the engine's :class:`~repro.sim.engine.SimulationError` is injected so
  compiled error paths raise the exact exception type callers catch.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

__all__ = [
    "SOURCE_PATH",
    "artifact_path",
    "build",
    "compiler",
    "load",
    "source_fingerprint",
]

#: The one C source file of the accelerator.
SOURCE_PATH = Path(__file__).resolve().with_name("_wheelcore.c")

#: Platform-specific shared-object suffix (e.g. ``.cpython-311-x86_64-...so``).
_EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"


def source_fingerprint() -> str:
    """Digest pinning the C source and the interpreter ABI (16 hex chars).

    The Python side of the native-kind table is bound at every load, so
    it is not part of the artifact's identity.
    """
    payload = "|".join(
        (
            hashlib.sha256(SOURCE_PATH.read_bytes()).hexdigest(),
            "cpython-{}.{}.{}".format(*sys.version_info[:3]),
            sysconfig.get_platform(),
            _EXT_SUFFIX,
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def artifact_path(cache_dir: str | Path = ".repro-cache") -> Path:
    """Where the compiled extension for this source+ABI lives (or will)."""
    return (
        Path(cache_dir)
        / "accel"
        / source_fingerprint()
        / f"_wheelcore{_EXT_SUFFIX}"
    )


def compiler() -> str | None:
    """Path of the first available C compiler, or None."""
    for name in ("gcc", "cc", "clang"):
        found = shutil.which(name)
        if found is not None:
            return found
    return None


def build(cache_dir: str | Path = ".repro-cache") -> Path:
    """Compile the extension (idempotent) and return the artifact path.

    Raises :class:`~repro.accel.AccelUnavailable` when no toolchain or
    headers are present, or when compilation fails — with the compiler
    diagnostics attached, so a broken edit is debuggable from the error.
    """
    from repro.accel import AccelUnavailable

    target = artifact_path(cache_dir)
    if target.exists():
        return target
    cc = compiler()
    if cc is None:
        raise AccelUnavailable(
            "no C compiler (tried gcc, cc, clang) on PATH; the pure-Python "
            "backend remains fully functional — rerun with --backend=pure "
            "or install a toolchain"
        )
    include = sysconfig.get_path("include")
    if include is None or not Path(include, "Python.h").exists():
        raise AccelUnavailable(
            f"Python.h not found under {include!r}; install the Python "
            "development headers or use --backend=pure"
        )
    target.parent.mkdir(parents=True, exist_ok=True)
    # Build into a temp name and publish with an atomic rename so a
    # concurrent builder (sweep workers racing on a cold cache) can never
    # load a half-written object.
    scratch = target.with_name(target.name + ".tmp")
    command = [
        cc,
        "-O2",
        "-fPIC",
        "-shared",
        f"-I{include}",
        str(SOURCE_PATH),
        "-o",
        str(scratch),
    ]
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        scratch.unlink(missing_ok=True)
        raise AccelUnavailable(
            "compiling _wheelcore failed "
            f"(command: {' '.join(command)}):\n{proc.stderr.strip()}"
        )
    scratch.replace(target)
    return target


def load(path: str | Path):
    """Import the compiled extension from ``path`` and handshake it.

    The module object is returned; callers (``repro.accel``) cache it —
    a CPython extension can only be initialized once per process anyway.
    """
    from repro.accel import AccelUnavailable
    from repro.sim import engine as pure_engine

    path = Path(path)
    loader = importlib.machinery.ExtensionFileLoader("_wheelcore", str(path))
    spec = importlib.util.spec_from_file_location(
        "_wheelcore", str(path), loader=loader
    )
    if spec is None:  # pragma: no cover - spec creation cannot fail here
        raise AccelUnavailable(f"cannot create an import spec for {path}")
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    if module.WHEEL_BITS != pure_engine._WHEEL_BITS:
        raise AccelUnavailable(
            f"ABI mismatch: compiled wheel has {module.WHEEL_BITS} bucket "
            f"bits, the engine expects {pure_engine._WHEEL_BITS}; rebuild "
            "the extension (repro accel build)"
        )
    # Compiled error paths must raise the engine's exception type.
    module._install(pure_engine.SimulationError)
    # Bind the native event-kind table (function/class pairs + helper
    # classes) so the dispatch loop can run recognized callbacks in C.
    from repro.accel import native

    native.install_native_kinds(module)
    return module
