"""Golden outputs: SHA-256 digests of the bytes that training, evaluation
and a gated simulation produce, so a refactor that should not move any
output can prove that it did not.

The digests in ``golden.json`` were recorded on one numpy and BLAS build.
Another build may round differently by an ulp, so on a different stack
every test here skips and its message names both the recorded and the
running numpy and BLAS versions. Regenerate the file only for a change
that is meant to move outputs, and say in the change log which results
moved and why, with the numbers before and after::

    PYTHONPATH=src python tests/test_golden.py
"""
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from semcom import codec, forest, simulate, synthdata
from semcom.config import SimConfig

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
CHECKPOINT = os.path.join(HERE, os.pardir, "bench", "codec_checkpoint.semw")

EVAL_SNRS_DB = (math.inf, 25.0, 7.0)
EVAL_NOISE_SEEDS = (0, 1)
SIM_SCENARIO = "sleeping:20,resting:20,dress-up:20,eating:20,calling:20"
# 898 s: several of the simulator's accel blocks, the last one partial
LONG_SIM_SCENARIO = "sleeping:300,calling:290,dress-up:300"


def stack():
    """numpy and BLAS versions of the running interpreter."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form of its build config
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def train_digest():
    """Per-epoch loss and accuracy, then every final parameter, of a
    3-epoch run on 10 segments with a partial last batch."""
    segments, labels = synthdata.make_codec_dataset(2, seed=0)
    model = codec.CodecModel(seed=3)
    history = codec.train(model, segments, labels, 25.0,
                          codec.TrainConfig(epochs=3, batch_size=4))
    digest = hashlib.sha256()
    for stats in history:
        digest.update(np.float64([stats.loss, stats.accuracy]).tobytes())
    for p in model.params():
        digest.update(p.tobytes())
    return digest.hexdigest()


def evaluate_digest():
    """Accuracy, logits and deep feature of every decode that evaluate
    runs over 3 SNRs x 2 noise seeds on 10 segments."""
    model = codec.load_model(CHECKPOINT)
    segments, labels = synthdata.make_codec_dataset(2, seed=1)
    digest = hashlib.sha256()
    decode = codec.decode

    def recording_decode(model, frame, tape=None):
        logits, deep = decode(model, frame, tape)
        digest.update(logits.tobytes())
        digest.update(deep.tobytes())
        return logits, deep

    codec.decode = recording_decode
    try:
        for snr_db in EVAL_SNRS_DB:
            for noise_seed in EVAL_NOISE_SEEDS:
                accuracy = codec.evaluate(model, segments, labels, snr_db,
                                          noise_seed=noise_seed)
                digest.update(np.float64(accuracy).tobytes())
    finally:
        codec.decode = decode
    return digest.hexdigest()


def posture_forest_digest():
    """Every array of the posture forest that all the simulations above
    train, in its SEMW order: names, then bytes."""
    u, y = synthdata.make_posture_dataset(80, seed=1)
    digest = hashlib.sha256()
    for name, array in forest.forest_to_arrays(
            forest.train_forest(u, y, seed=2)).items():
        digest.update(name.encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _simulation_digest(seed, scenario):
    u, y = synthdata.make_posture_dataset(80, seed=1)
    posture_forest = forest.train_forest(u, y, seed=2)
    report = simulate.run_simulation(SimConfig(seed=seed, scenario=scenario),
                                     codec.load_model(CHECKPOINT),
                                     posture_forest)
    digest = hashlib.sha256(report.to_json().encode())
    digest.update("\n".join(report.event_lines).encode())
    return digest.hexdigest()


def simulation_digest():
    """Report JSON and event lines of a 100-s gated simulation."""
    return _simulation_digest(4, SIM_SCENARIO)


def long_simulation_digest():
    """Report JSON and event lines of an 898-s quiet simulation: long
    dwells, few uploads, so the per-second accel chain dominates."""
    return _simulation_digest(6, LONG_SIM_SCENARIO)


@functools.lru_cache(maxsize=None)
def _simulation_internals(seed, scenario):
    """Digests of what a simulation's report does not show: (the per-second
    u bytes and posture codes of the accel uplink, the noisy frame and
    logits of every upload from the room of its activity, in order).

    Only active-room uploads are hashed: an upload is tagged by the ground
    truth of the grid segment its camera is asked for, and the decode that
    follows is recorded only when that room films the activity."""
    u, y = synthdata.make_posture_dataset(80, seed=1)
    posture_forest = forest.train_forest(u, y, seed=2)
    stream = hashlib.sha256()
    uploads = hashlib.sha256()
    active = [False]
    posture_stream = simulate.posture_stream
    segment_at_grid = synthdata.RoomCamera.segment_at_grid
    decode = simulate.decode

    def recording_stream(*args):
        u, postures, clamped = posture_stream(*args)
        stream.update(u.tobytes())
        stream.update(bytes(int(p) for p in postures))
        return u, postures, clamped

    def tagging_segment_at_grid(camera, grid_index):
        active[0] = camera.activity_at_grid(grid_index) is not None
        return segment_at_grid(camera, grid_index)

    def recording_decode(model, frame, tape=None):
        logits, deep = decode(model, frame, tape)
        if active[0]:
            uploads.update(frame.symbols.tobytes())
            uploads.update(np.float64(frame.scale).tobytes())
            uploads.update(logits.tobytes())
        active[0] = False
        return logits, deep

    with mock.patch.object(simulate, "posture_stream", recording_stream), \
            mock.patch.object(synthdata.RoomCamera, "segment_at_grid",
                              tagging_segment_at_grid), \
            mock.patch.object(simulate, "decode", recording_decode):
        simulate.run_simulation(SimConfig(seed=seed, scenario=scenario),
                                codec.load_model(CHECKPOINT), posture_forest)
    return stream.hexdigest(), uploads.hexdigest()


DIGESTS = {"train": train_digest, "evaluate": evaluate_digest,
           "posture_forest": posture_forest_digest,
           "simulation": simulation_digest,
           "simulation_long": long_simulation_digest,
           "simulation_posture_stream":
               lambda: _simulation_internals(4, SIM_SCENARIO)[0],
           "simulation_long_posture_stream":
               lambda: _simulation_internals(6, LONG_SIM_SCENARIO)[0],
           "simulation_active_uploads":
               lambda: _simulation_internals(4, SIM_SCENARIO)[1],
           "simulation_long_active_uploads":
               lambda: _simulation_internals(6, LONG_SIM_SCENARIO)[1]}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)
    running = stack()
    if recorded["stack"] != running:
        pytest.skip(f"golden digests recorded on {recorded['stack']}, "
                    f"running on {running}")
    return recorded["digests"]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes_unchanged(golden, name):
    assert DIGESTS[name]() == golden[name]


def test_long_simulation_spans_several_blocks():
    """The long simulation crosses the accel uplink's block edges and ends
    in a partial block."""
    seconds = len(synthdata.step_timeline(
        SimConfig(scenario=LONG_SIM_SCENARIO).parse_scenario()))
    assert seconds > 3 * simulate.ACCEL_BLOCK_S
    assert seconds % simulate.ACCEL_BLOCK_S


# Digest of the encoder's bytes at the codec's shapes: a fresh fused layer
# on a random clip, then codec.encode of one checkpoint segment.
ENCODER_PROBE = """
import hashlib, sys
import numpy as np
from semcom import codec, synthdata
from semcom.tensor import ConvReLUPool3d
rng = np.random.default_rng(9)
layer = ConvReLUPool3d(3, 4, (3, 5, 5), rng)
digest = hashlib.sha256(layer.forward(rng.uniform(0.0, 1.0, (3, 16, 112, 112))).tobytes())
segment = synthdata.make_codec_dataset(1, seed=3)[0][0]
frame = codec.encode(codec.load_model(sys.argv[1]), segment)
digest.update(frame.symbols.tobytes())
digest.update(np.float64(frame.scale).tobytes())
print(digest.hexdigest())
"""


def encoder_digest(blas_threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    src = os.path.join(HERE, os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", ENCODER_PROBE, CHECKPOINT],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_encoder_bytes_independent_of_blas_threads():
    """The digests above are recorded once but checked under any BLAS
    thread count (the benchmark pins one thread, a plain pytest run uses
    the default), so the encoder must give the same bytes under both."""
    one_thread = encoder_digest(1)
    assert len(one_thread) == 64
    assert encoder_digest(2) == one_thread


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"stack": stack(),
                   "digests": {name: fn() for name, fn in DIGESTS.items()}},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
