"""The benchmark's span tracer (bench/spans.py) patches functions and
methods of semcom by name. These tests install and uninstall it, so a
renamed or removed hook fails here rather than in a benchmark run."""
import os
import sys

import pytest

from semcom import accel, controller, simulate

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "bench")


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, BENCH)
    try:
        import spans
    finally:
        sys.path.remove(BENCH)
    return spans


def test_install_then_uninstall_restores_every_patch(spans):
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr
    hooks = {(owner, attr) for owner, attr, _ in patched}
    # the accel chain and the ACK fan-out, as the simulation looks them up
    assert {(simulate, "encode_raw"), (simulate, "decode_raw"),
            (simulate, "gravity_feature"), (accel.GravityFilter, "process"),
            (simulate, "dispatch")} <= hooks
    assert simulate.dispatch is controller.dispatch
