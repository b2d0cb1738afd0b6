"""Seeded PERF001 violations: native-code loading outside accel/.

The corpus harness lints each case's ``proj`` tree as if it were the
``repro`` package, so ``obs/sampler.py`` here is subject to the same
confinement rule as the real observability layer: compiling, loading,
or calling into a native extension is ``accel/``'s job — a stray
``.so`` bypasses backend selection and the byte-identity contract.
"""

import ctypes
from importlib.machinery import ExtensionFileLoader


def load_fast_sampler(path):
    return ExtensionFileLoader("_sampler", path).load_module()


def read_hw_counter(library):
    lib = ctypes.CDLL(library)
    return lib.read_counter()
