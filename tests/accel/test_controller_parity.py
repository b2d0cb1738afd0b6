"""Compiled-backend twins of controller tests whose path runs natively.

Under ``c`` the controller's scheduling pass is a native kind, so its
issue path (including the overflow-heap completion insert) runs in C.
"""

from repro import accel

from tests.dram.test_controller import check_read_completing_beyond_the_wheel_window


def test_read_completing_beyond_the_wheel_window(c_backend):
    with accel.backend("c"):
        engine = accel.make_engine(0)
    check_read_completing_beyond_the_wheel_window(engine)
    # the pass that issued the read ran in C, not through the fallback
    assert engine.fastpath_hits > 0
