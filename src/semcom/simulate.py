"""End-to-end simulation: acceleration uplink, posture recovery, ACK
gating, video feature uploads, and the overhead ledger.

Each simulated second sends one 75-symbol raw acceleration frame through
the accel channel, recovers it, updates the streaming gravity filter, and
feeds the windowed cosine feature to the posture forest and transmission
controller. Nothing on that accel path reads the controller, so the
posture stream is computed first, ``ACCEL_BLOCK_S`` seconds at a time:
each block is packed, sent, decoded, filtered and classified in one call
per stage. Every stage works frame by frame inside the block (per-frame
noise power, channel draws in frame order, filter state carried across
blocks, one cosine feature and forest vote per window), so the
per-second results are bitwise those of one-second steps. The predicted
postures fill one int64 code array, the same kind as the ground truth
that ``gen_accel_trace`` reads from the scenario's step timeline; the
controller then walks the predictions second by second as plain ints.
A validated postural transition dispatches upload commands; every
commanded camera uploads the current segment from its stride-16 grid, and
the ledger bills each upload as N_t (ACKs with overlapping segments
upload a segment again, so N_t can exceed N_f). An upload whose 16 frames would run past the end of
the scenario is skipped: it is counted in ``skipped_uploads`` and not
billed.

An active-room upload (the room films its own activity in that segment)
is rendered, encoded, sent through the video channel and decoded, and
its classification goes into the Table-3-style activity matrix. An
idle-room upload (walking, or the activity is in another room) films
background, which has no activity label: it is counted in
``background_uploads`` and takes the video channel's draws for one
feature frame, so every later upload gets the noise it would get if the
clip had been sent, but it is not rendered, encoded or decoded. So the
channel's all-zero-frame error at finite SNR can come only from an
active-room upload.

Posture accuracy is reported both raw and over "settled" windows, i.e.
excluding a configurable margin after each ground-truth posture change
where the 0.3 Hz gravity filter is still converging.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import overhead
from .accel import (SYMBOLS_PER_FRAME, WINDOW_SAMPLES, GravityFilter,
                    decode_raw, encode_raw, gravity_feature)
from .channel import Channel
from .codec import (SEGMENT_FRAMES, SYMBOLS_PER_SEGMENT, Activity,
                    ACTIVITY_NAMES, classify, decode, encode)
from .controller import (AckPolicy, TransmissionController, dispatch,
                         format_event)
from .synthdata import FPS, ROOMS, RoomCamera, gen_accel_trace


@dataclass
class SimReport:
    overhead: dict
    posture: dict
    activity_table: dict
    activity_accuracy: object
    n_events: int
    uploads: int
    background_uploads: int
    clamped_samples: int
    event_lines: list
    skipped_uploads: int

    def to_dict(self):
        out = {
            "overhead": self.overhead,
            "posture": self.posture,
            "activity_table": self.activity_table,
            "activity_accuracy": self.activity_accuracy,
            "n_events": self.n_events,
            "uploads": self.uploads,
            "background_uploads": self.background_uploads,
            "clamped_samples": self.clamped_samples,
            "events": self.event_lines,
        }
        # only runs that skip show the key, so other reports keep their bytes
        if self.skipped_uploads:
            out["skipped_uploads"] = self.skipped_uploads
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


# Seconds of accel uplink per block: long enough to amortize each stage's
# per-call cost, short enough to keep the block's arrays small.
ACCEL_BLOCK_S = 256


def _derived_seed(master, tag):
    return int(np.random.SeedSequence([master & 0xFFFFFFFF, tag]).generate_state(1)[0])


def _settled_mask(truth, settle_windows):
    """True where the ground-truth posture has held for settle_windows
    windows (the first run is settled from the start: the filter
    warm-starts there)."""
    truth = np.asarray(truth)
    changes = np.flatnonzero(truth[1:] != truth[:-1]) + 1
    run_start = np.zeros(len(truth), dtype=np.int64)
    run_start[changes] = changes
    run_start = np.maximum.accumulate(run_start)
    age = np.arange(len(truth)) - run_start
    return (run_start == 0) | (age >= settle_windows)


def posture_stream(xyz, accel_channel, forest):
    """The accel uplink over a whole trace of (n, 3) samples: returns (u,
    postures, clamped), the per-second cosine features, the forest's
    int64 posture code for each second and the number of clamped
    samples."""
    seconds = len(xyz) // WINDOW_SAMPLES
    gravity = GravityFilter()
    u = np.empty(seconds)
    postures = np.empty(seconds, dtype=np.int64)
    clamped = 0
    for start in range(0, seconds, ACCEL_BLOCK_S):
        stop = min(start + ACCEL_BLOCK_S, seconds)
        rows = slice(start * WINDOW_SAMPLES, stop * WINDOW_SAMPLES)
        symbols, block_clamped = encode_raw(xyz[rows])
        clamped += block_clamped
        received = decode_raw(accel_channel.send(symbols))
        block_u = gravity_feature(gravity.process(received), start)
        u[start:stop] = block_u
        postures[start:stop] = forest.predict(block_u)
    return u, postures, clamped


def run_simulation(cfg, codec_model, forest):
    """Run one scenario; returns a SimReport (pure function of cfg+models)."""
    scenario = cfg.parse_scenario()
    policy = AckPolicy(cfg.validation_windows, cfg.parse_targets(),
                       cfg.segments_per_ack)
    cameras = {room: RoomCamera(scenario, room) for room in ROOMS}
    xyz, posture_truth = gen_accel_trace(scenario)
    accel_channel = Channel(cfg.accel_snr_db, _derived_seed(cfg.seed, 1))
    _, posture_pred, clamped = posture_stream(xyz, accel_channel, forest)

    video_channel = Channel(cfg.video_snr_db, _derived_seed(cfg.seed, 2))
    controller = TransmissionController(policy)

    # Table-3-style matrix over active-room uploads
    table = {ACTIVITY_NAMES[a]: {room: {"count": 0, "correct": 0}
                                 for room in ROOMS} for a in Activity}
    uploads = 0
    background = 0
    truthed_correct = 0
    skipped = 0
    event_lines = []
    for sec, predicted in enumerate(posture_pred.tolist()):
        event = controller.observe(predicted, sec)
        if event is None:
            continue
        commands = dispatch(event, policy, ROOMS)
        event_lines.append(format_event(event))
        for command in commands:
            base_grid = (command.t * FPS) // SEGMENT_FRAMES
            camera = cameras[command.camera]
            for k in range(command.segments):
                grid = base_grid + k
                if (grid + 1) * SEGMENT_FRAMES > camera.total_frames:
                    skipped += 1
                    continue
                uploads += 1
                truth = camera.activity_at_grid(grid)
                if truth is None:
                    # nothing reads a background clip's class: take its
                    # channel draws so later uploads keep their noise
                    background += 1
                    video_channel.skip(SYMBOLS_PER_SEGMENT)
                    continue
                segment = camera.segment_at_grid(grid)
                sent = video_channel.send(encode(codec_model, segment))
                logits, _ = decode(codec_model, sent)
                activity = classify(logits)
                cell = table[ACTIVITY_NAMES[activity]][command.camera]
                cell["count"] += 1
                if activity == truth:
                    cell["correct"] += 1
                    truthed_correct += 1

    ledger = overhead.OverheadLedger(
        n_f=len(ROOMS) * (cameras[ROOMS[0]].total_frames // SEGMENT_FRAMES),
        n_t=uploads, raw_symbols=SYMBOLS_PER_FRAME * len(posture_pred))

    # posture bookkeeping
    settled = _settled_mask(posture_truth, cfg.settle_windows)
    correct = posture_truth == posture_pred
    n_settled = int(settled.sum())
    posture_stats = {
        "total_windows": len(posture_truth),
        "settled_windows": n_settled,
        "raw_accuracy": float(correct.mean()) if correct.size else None,
        "settled_accuracy": (float(correct[settled].mean())
                             if n_settled else None),
    }

    truthed = uploads - background
    return SimReport(
        overhead=overhead.report(ledger, scenario="simulation"),
        posture=posture_stats,
        activity_table=table,
        activity_accuracy=(truthed_correct / truthed) if truthed else None,
        n_events=len(controller.events),
        uploads=uploads,
        background_uploads=background,
        clamped_samples=clamped,
        event_lines=event_lines,
        skipped_uploads=skipped,
    )
