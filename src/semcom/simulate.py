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
controller then reads that array in one call and returns its ACKs. Each
ACK's plan (``dispatch``) has each target room upload
``segments_per_ack`` segments of its stride-16 grid from the ACK
second's one (``grid_at_second``) on; the ledger bills each upload as N_t
at the codec's L (ACKs with overlapping segments upload a segment again,
so N_t can exceed N_f, the cameras' summed ``n_segments``). An upload
past a camera's ``n_segments`` is skipped: it is counted in
``skipped_uploads`` and not billed.

An active-room upload (the room films its own activity in that segment)
is rendered, encoded, sent through the video channel and decoded, and
its classification goes into the Table-3-style activity matrix. An
idle-room upload (walking, or the activity is in another room) films
background, which has no activity label: it is billed but not in the
table (the report derives ``background_uploads`` from the two), and it
takes the video channel's draws for one feature frame, so every later
upload gets the noise it would get if the clip had been sent, but it is
not rendered, encoded or decoded. So the channel's all-zero-frame error
at finite SNR can come only from an active-room upload.

The whole upload plan is known once the controller has read the posture
stream, so active-room clips are rendered one upload ahead: while the
calling thread builds, encodes, sends and decodes upload k, one worker
thread (opened and shut down inside ``run_simulation``) renders upload
k+1's frames. The channel draws, decoding, classification, the activity
table and the ledger stay on the calling thread, in plan order, so the
report has the bytes of a sequential run. The worker only renders
(Philox pixel noise and numpy fills, no dgemm) and is the only user of
the cameras' lazy caches during a run. The lookahead stays at one clip:
on the gated benchmark (2 vCPUs), two encodes at once peaked at 71.4 MB
against 57.5 MB for one render ahead, at no higher rate (1,189 against
1,206 op/s), and rendering one clip's frames on two threads gained
nothing over the sequential loop (873 against 870 op/s) while adding 2-4
MB of peak RSS.

Posture accuracy is reported both raw and over "settled" windows, i.e.
excluding a configurable margin after each ground-truth posture change
where the 0.3 Hz gravity filter is still converging.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import overhead
from .accel import (SYMBOLS_PER_FRAME, WINDOW_SAMPLES, GravityFilter,
                    decode_raw, encode_raw, gravity_feature)
from .channel import Channel
from .codec import (SEGMENT_FRAMES, SYMBOLS_PER_SEGMENT, Activity,
                    ACTIVITY_NAMES, VideoSegment, classify, decode, encode)
from .controller import (AckPolicy, TransmissionController, dispatch,
                         format_event)
from .synthdata import ROOMS, RoomCamera, gen_accel_trace


@dataclass
class SimReport:
    overhead: dict
    posture: dict
    activity_table: dict
    clamped_samples: int
    event_lines: list
    skipped_uploads: int

    @property
    def n_events(self):
        return len(self.event_lines)

    @property
    def uploads(self):
        """The billed uploads: N_t."""
        return self.overhead["N_t"]

    def _table_sums(self):
        """(summed count, summed correct) of the activity table."""
        cells = [cell for rooms in self.activity_table.values()
                 for cell in rooms.values()]
        return (sum(cell["count"] for cell in cells),
                sum(cell["correct"] for cell in cells))

    @property
    def background_uploads(self):
        """The billed uploads that are not in the activity table."""
        return self.uploads - self._table_sums()[0]

    @property
    def activity_accuracy(self):
        """Correct over all active-room uploads in the activity table, or
        None when there was none."""
        count, correct = self._table_sums()
        return correct / count if count else None

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
    return int(np.random.SeedSequence([master, tag]).generate_state(1)[0])


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


def _clips_one_ahead(worker, uploads):
    """Yield the uint8 frames of each (camera, grid) upload in order. Each
    clip renders on the worker, and the next one's render starts as this
    one is handed over, so at most one render is in flight."""
    def render(camera, grid):
        return worker.submit(camera.frames, grid * SEGMENT_FRAMES,
                             SEGMENT_FRAMES)

    uploads = iter(uploads)
    first = next(uploads, None)
    if first is None:
        return
    pending = render(*first)
    for upload in uploads:
        frames = pending.result()
        pending = render(*upload)
        yield frames
    yield pending.result()


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

    # the whole upload plan, fixed once the posture stream is known:
    # (camera, grid, the activity it films or None) per billed upload
    plan = []
    skipped = 0
    event_lines = []
    for event in controller.observe(posture_pred):
        event_lines.append(format_event(event, policy.targets))
        for room, grid in dispatch(event, policy):
            camera = cameras[room]
            if grid >= camera.n_segments:
                skipped += 1
                continue
            plan.append((camera, grid, camera.activity_at_grid(grid)))

    # Table-3-style matrix over active-room uploads
    table = {ACTIVITY_NAMES[a]: {room: {"count": 0, "correct": 0}
                                 for room in ROOMS} for a in Activity}
    active = [(camera, grid) for camera, grid, truth in plan
              if truth is not None]
    with ThreadPoolExecutor(max_workers=1) as worker:
        clips = _clips_one_ahead(worker, active)
        for camera, _, truth in plan:
            if truth is None:
                # nothing reads a background clip's class: take its
                # channel draws so later uploads keep their noise
                video_channel.skip(SYMBOLS_PER_SEGMENT)
                continue
            # no name holds the float64 segment: it is freed when its
            # encode returns, before the next upload's is built
            sent = video_channel.send(encode(
                codec_model, VideoSegment.from_rgb_frames(next(clips))))
            logits, _ = decode(codec_model, sent)
            activity = classify(logits)
            cell = table[ACTIVITY_NAMES[activity]][camera.room]
            cell["count"] += 1
            if activity == truth:
                cell["correct"] += 1

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

    return SimReport(
        overhead=overhead.report(
            sum(camera.n_segments for camera in cameras.values()),
            n_t=len(plan), L=SYMBOLS_PER_SEGMENT,
            raw_symbols=SYMBOLS_PER_FRAME * len(posture_pred)),
        posture=posture_stats,
        activity_table=table,
        clamped_samples=clamped,
        event_lines=event_lines,
        skipped_uploads=skipped,
    )
