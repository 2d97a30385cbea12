"""End-to-end simulation: acceleration uplink, posture recovery, ACK
gating, video feature uploads, and the overhead ledger.

Each simulated second sends one 75-symbol raw acceleration frame through
the accel channel, recovers it, updates the streaming gravity filter, and
feeds the windowed cosine feature to the posture forest and transmission
controller. A validated postural transition dispatches upload commands;
every commanded camera uploads the current segment from its stride-16
grid through the video channel, and the decoded classification is
recorded against ground truth. An upload whose 16 frames would run past
the end of the scenario is skipped: it is counted in ``skipped_uploads``
and not billed to N_t.

The Table-3-style activity matrix counts only uploads from the room where
the activity truly occurred (idle rooms film background, which has no
activity label); uploads themselves are all billed to the ledger as N_t.
Posture accuracy is reported both raw and over "settled" windows, i.e.
excluding a configurable margin after each ground-truth posture change
where the 0.3 Hz gravity filter is still converging.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import overhead
from .accel import (SYMBOLS_PER_FRAME, AccelWindow, GravityFilter,
                    decode_raw, encode_raw, gravity_feature)
from .channel import Channel
from .codec import (SEGMENT_FRAMES, Activity, ACTIVITY_NAMES, classify,
                    decode, encode)
from .controller import (AckPolicy, TransmissionController, dispatch,
                         format_event)
from .synthdata import FPS, ROOMS, RoomCamera, gen_accel_trace


@dataclass
class UploadRecord:
    t: int
    room: str
    grid_index: int
    predicted: Activity
    truth_activity: object
    truth_room: object


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


def _derived_seed(master, tag):
    return int(np.random.SeedSequence([master & 0xFFFFFFFF, tag]).generate_state(1)[0])


def _settled_mask(truth, settle_windows):
    """True where the ground-truth posture has held for settle_windows
    windows (the first run is settled from the start: the filter
    warm-starts there)."""
    mask = np.zeros(len(truth), dtype=bool)
    run_start = 0
    first_run = True
    for i in range(len(truth)):
        if i > 0 and truth[i] != truth[i - 1]:
            run_start = i
            first_run = False
        mask[i] = first_run or (i - run_start) >= settle_windows
    return mask


def run_simulation(cfg, codec_model, forest):
    """Run one scenario; returns a SimReport (pure function of cfg+models)."""
    scenario = cfg.parse_scenario()
    policy = AckPolicy(cfg.validation_windows, cfg.parse_targets(),
                       cfg.segments_per_ack)
    cameras = {room: RoomCamera(scenario, room) for room in ROOMS}
    trace, posture_truth = gen_accel_trace(scenario)
    frames, clamped = encode_raw(trace)

    accel_channel = Channel(cfg.accel_snr_db, _derived_seed(cfg.seed, 1))
    video_channel = Channel(cfg.video_snr_db, _derived_seed(cfg.seed, 2))
    gravity = GravityFilter()
    controller = TransmissionController(policy)
    ledger = overhead.OverheadLedger(L=overhead.SYMBOLS_PER_FEATURE)

    posture_pred = []
    uploads = []
    skipped = 0
    event_lines = []
    for sec, frame in enumerate(frames):
        noisy = accel_channel.send(frame)
        ledger.raw_symbols += SYMBOLS_PER_FRAME
        chunk = decode_raw([noisy])
        filtered = gravity.process(chunk.xyz)
        feature = gravity_feature(AccelWindow(sec, filtered.T))
        predicted = forest.predict(feature.u)
        posture_pred.append(predicted)
        event = controller.observe(predicted, sec)
        if event is None:
            continue
        commands = dispatch(event, policy, ROOMS, ledger)
        event_lines.append(format_event(event))
        for command in commands:
            base_grid = (command.t * FPS) // SEGMENT_FRAMES
            camera = cameras[command.camera]
            for k in range(command.segments):
                grid = base_grid + k
                if (grid + 1) * SEGMENT_FRAMES > camera.total_frames:
                    skipped += 1
                    ledger.n_t -= 1
                    continue
                segment = camera.segment_at_grid(grid)
                sent = video_channel.send(encode(codec_model, segment))
                logits, _ = decode(codec_model, sent)
                label = camera.segment_label(grid)
                uploads.append(UploadRecord(
                    t=command.t, room=command.camera, grid_index=grid,
                    predicted=classify(logits),
                    truth_activity=None if label is None else label[0],
                    truth_room=None if label is None else label[1]))

    ledger.n_f = len(ROOMS) * (cameras[ROOMS[0]].total_frames // SEGMENT_FRAMES)

    # posture bookkeeping
    truth_arr = [int(p) for p in posture_truth]
    pred_arr = [int(p) for p in posture_pred]
    settled = _settled_mask(truth_arr, cfg.settle_windows)
    correct = np.array([t == p for t, p in zip(truth_arr, pred_arr)])
    n_settled = int(settled.sum())
    posture_stats = {
        "total_windows": len(truth_arr),
        "settled_windows": n_settled,
        "raw_accuracy": float(correct.mean()) if truth_arr else None,
        "settled_accuracy": (float(correct[settled].mean())
                             if n_settled else None),
    }

    # Table-3-style matrix over ground-truthed uploads
    table = {ACTIVITY_NAMES[a]: {room: {"count": 0, "correct": 0}
                                 for room in ROOMS} for a in Activity}
    truthed = 0
    truthed_correct = 0
    background = 0
    for rec in uploads:
        if rec.truth_activity is None or rec.truth_room != rec.room:
            background += 1
            continue
        truthed += 1
        cell = table[ACTIVITY_NAMES[rec.predicted]][rec.room]
        cell["count"] += 1
        if rec.predicted == rec.truth_activity:
            cell["correct"] += 1
            truthed_correct += 1

    return SimReport(
        overhead=overhead.report(ledger, scenario="simulation"),
        posture=posture_stats,
        activity_table=table,
        activity_accuracy=(truthed_correct / truthed) if truthed else None,
        n_events=len(controller.events),
        uploads=len(uploads),
        background_uploads=background,
        clamped_samples=clamped,
        event_lines=event_lines,
        skipped_uploads=skipped,
    )
