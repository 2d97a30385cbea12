"""The benchmark's span tracer (bench/spans.py) patches functions and
methods of semcom by name. These tests install and uninstall it, so a
renamed or removed hook fails here rather than in a benchmark run."""
import os
import sys

import pytest

from semcom import accel, controller, simulate
from semcom.codec import CodecModel
from semcom.config import SimConfig
from semcom.forest import train_forest
from semcom.synthdata import make_posture_dataset

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
    # the accel chain, the controller and the ACK fan-out, as the
    # simulation looks them up
    assert {(simulate, "encode_raw"), (simulate, "decode_raw"),
            (simulate, "gravity_feature"), (accel.GravityFilter, "process"),
            (controller.TransmissionController, "observe"),
            (simulate, "dispatch")} <= hooks
    assert simulate.dispatch is controller.dispatch


def test_traced_simulation_observes_once(spans):
    """The controller reads the whole posture array in one observe call,
    and every ACK it returns is dispatched under its own span."""
    u, y = make_posture_dataset(80, seed=1)
    forest = train_forest(u, y, seed=2)
    cfg = SimConfig(seed=3, scenario="sleeping:8,eating:8",
                    video_snr_db=25.0, accel_snr_db=25.0)
    tracer = spans.Tracer()
    try:
        tracer.install()
        report = simulate.run_simulation(cfg, CodecModel(seed=5), forest)
    finally:
        tracer.uninstall()
    names = [name for name, _, _, _ in tracer.spans]
    assert report.n_events > 0
    assert names.count("controller.observe") == 1
    assert names.count("controller.dispatch") == report.n_events
