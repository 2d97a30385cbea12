"""Synthetic scenario, video, and accelerometer generators.

The smart-home layout is three rooms with one camera each; activities map
to fixed rooms and body postures. Transitions between scenario steps pass
through 4 s of walking (the person moves between rooms), during which no
room shows an activity. ``step_timeline`` is the one per-second timeline
(each second's index into the scenario's steps, -1 while walking); the
posture truth, the camera frames and the segment labels are all read
from it. Each camera's stream is a stride-16 grid of
``RoomCamera.n_segments`` whole 16-frame segments (N_f per camera); a grid
lookup outside it raises ``IndexError``.

Video: the active room renders its activity's blob at a class-specific
position, drifting with a class-specific velocity that loops every 16
frames; inactive rooms render dim background. Each blob is filled with a
frozen class-specific random RGB binary texture at 2 px granularity
(anchored to the blob, so it moves with it): fine high-contrast texture
drives the encoder's random conv filters across their whole response
range, which the max-pool then harvests -- solid single-color fills only
excite each filter's DC component and train far more slowly. Pixel noise,
per-activity-instance position jitter, and brightness jitter are the only
random elements, all drawn from seed-derived Philox streams, so identical
seeds reproduce identical frames. Frames are 8-bit RGB.

Acceleration: each posture has a fixed mean cosine against [0,0,1]; the
generator emits that gravity direction plus per-sample motion noise at
50 Hz, with the per-second truth as int64 posture codes. With zero noise
the windowed cosine feature equals the configured mean exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accel import (SAMPLE_RATE_HZ, WINDOW_SAMPLES, GravityFilter, Posture,
                    gravity_feature)
from .codec import (FRAME_HEIGHT, FRAME_WIDTH, SEGMENT_FRAMES, Activity,
                    VideoSegment)

ROOMS = ("bedroom", "living_room", "kitchen")

ACTIVITY_ROOM = {
    Activity.SLEEPING: "bedroom",
    Activity.RESTING: "living_room",
    Activity.DRESS_UP: "bedroom",
    Activity.EATING: "kitchen",
    Activity.CALLING: "living_room",
}

ACTIVITY_POSTURE = {
    Activity.SLEEPING: Posture.LYING,
    Activity.RESTING: Posture.SITTING,
    Activity.DRESS_UP: Posture.STANDING,
    Activity.EATING: Posture.SITTING,
    Activity.CALLING: Posture.SITTING,
}

POSTURE_MEAN_COSINE = {
    Posture.LYING: 0.05,
    Posture.SITTING: 0.60,
    Posture.STANDING: 0.95,
    Posture.WALKING: 0.85,
}

WALK_SECONDS = 4
# Longest scenario a run may simulate: one day. The accel trace alone takes
# 1.2 KB per simulated second, so a longer one is refused at load.
MAX_SCENARIO_S = 86_400
FPS = int(SAMPLE_RATE_HZ)          # video frame rate matches the 50 Hz accel
BACKGROUND_LEVEL = 0.02            # dim gray so idle frames keep nonzero power

# per-activity blob: (row, col, height, width, row_vel, col_vel)
BLOB_SPECS = {
    Activity.SLEEPING: (10, 10, 40, 40, 0.5, 0.5),
    Activity.RESTING: (10, 62, 40, 40, 0.5, -0.5),
    Activity.DRESS_UP: (62, 10, 40, 40, -0.5, 0.5),
    Activity.EATING: (62, 62, 40, 40, -0.5, -0.5),
    Activity.CALLING: (36, 36, 40, 40, 0.0, 1.0),
}

BASE_AMPLITUDE = 0.95
TEXTURE_CELL_PX = 2

_ACCEL_STREAM = 0x41
_VIDEO_NOISE_STREAM = 0x56
_JITTER_STREAM = 0x4A
_DATASET_STREAM = 0x44
_TEXTURE_STREAM = 0x54

_texture_cache = {}


def class_texture(activity):
    """Frozen random RGB binary texture for one activity's blob.

    The texture is a fixed part of the class pattern (independent of any
    scenario seed), generated once from a per-activity Philox stream.
    """
    if activity not in _texture_cache:
        _, _, height, width, _, _ = BLOB_SPECS[activity]
        rng = _rng(_TEXTURE_STREAM, int(activity))
        cells = rng.integers(0, 2, (3,
                                    -(-height // TEXTURE_CELL_PX),
                                    -(-width // TEXTURE_CELL_PX))).astype(float)
        tex = np.repeat(np.repeat(cells, TEXTURE_CELL_PX, axis=1),
                        TEXTURE_CELL_PX, axis=2)
        _texture_cache[activity] = tex[:, :height, :width]
    return _texture_cache[activity]


@dataclass(frozen=True)
class ScenarioStep:
    activity: Activity
    duration_s: int


@dataclass(frozen=True)
class Scenario:
    """An ordered activity timeline plus generator noise settings."""

    steps: tuple
    seed: int = 0
    accel_noise_g: float = 0.05
    pixel_noise: float = 0.005
    position_jitter: int = 4

    @property
    def seconds(self):
        """Length of the timeline: the steps plus the walks between them."""
        return (sum(step.duration_s for step in self.steps)
                + WALK_SECONDS * (len(self.steps) - 1))

    def validate(self, min_duration_s=3):
        """Refuse, before any array is built, a scenario no run can use.
        Its position jitter may not exceed the frame: _blob_geometry would
        clamp every blob past it anyway."""
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.steps:
            raise ValueError("scenario needs at least one step")
        for i, step in enumerate(self.steps):
            if step.duration_s < min_duration_s:
                raise ValueError(
                    f"step {i} duration {step.duration_s}s is below the "
                    f"validation period ({min_duration_s}s)")
            if i > 0 and step.activity == self.steps[i - 1].activity:
                raise ValueError(f"steps {i - 1} and {i} repeat the same activity")
        if self.seconds > MAX_SCENARIO_S:
            raise ValueError(f"scenario lasts {self.seconds}s, more than the "
                             f"{MAX_SCENARIO_S}s (one day) a run may simulate")
        frame_px = max(FRAME_HEIGHT, FRAME_WIDTH)
        if self.position_jitter > frame_px:
            raise ValueError(f"position_jitter {self.position_jitter} exceeds "
                             f"the {frame_px}-px frame")
        return self


def _rng(*key):
    """A Philox generator keyed by integers >= 0, each used whole."""
    key = [int(k) for k in key]
    if min(key) < 0:
        raise ValueError(f"seed must be >= 0, got {min(key)}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def demo_scenario(seed=0, dwell_s=20):
    """A timeline that visits every activity once."""
    steps = tuple(ScenarioStep(a, dwell_s) for a in Activity)
    return Scenario(steps, seed=seed).validate()


def step_timeline(scenario):
    """The scenario's one per-second timeline: an int64 array holding, for
    each second, the index of the step in ``scenario.steps``, or -1 during
    the WALK_SECONDS of walking before every step after the first."""
    n = len(scenario.steps)
    index = np.full(2 * n, -1, dtype=np.int64)
    index[1::2] = np.arange(n)
    seconds = np.full(2 * n, WALK_SECONDS)
    seconds[:1] = 0
    seconds[1::2] = [step.duration_s for step in scenario.steps]
    return np.repeat(index, seconds)


def grid_at_second(t):
    """The stride-16 grid segment that holds second t's first frame."""
    return (t * FPS) // SEGMENT_FRAMES


def gravity_direction(posture):
    """Unit vector whose cosine against [0,0,1] is the posture's mean."""
    c = POSTURE_MEAN_COSINE[posture]
    return np.array([np.sqrt(1.0 - c * c), 0.0, c])


def gen_accel_trace(scenario):
    """(xyz, postures): the (n, 3) 50 Hz acceleration samples and the
    per-second ground-truth posture codes as an int64 array."""
    # each step's posture, then WALKING, which the timeline's -1 reads
    step_postures = np.array(
        [ACTIVITY_POSTURE[step.activity] for step in scenario.steps]
        + [Posture.WALKING], dtype=np.int64)
    postures = step_postures[step_timeline(scenario)]
    rng = _rng(scenario.seed, _ACCEL_STREAM)
    n = len(postures) * WINDOW_SAMPLES
    noise_g = scenario.accel_noise_g
    # one draw for the whole trace: the same stream as a draw per second
    xyz = rng.normal(0.0, noise_g, (n, 3)) if noise_g > 0 else np.zeros((n, 3))
    per_second = xyz.reshape(-1, WINDOW_SAMPLES, 3)   # a view of xyz
    directions = np.array([gravity_direction(p) for p in Posture])
    per_second += directions[postures].reshape(-1, 1, 3)
    return xyz, postures


def _blob_geometry(activity, frame_phase, jitter_rc):
    r0, c0, height, width, vr, vc = BLOB_SPECS[activity]
    r = int(round(r0 + jitter_rc[0] + vr * frame_phase))
    c = int(round(c0 + jitter_rc[1] + vc * frame_phase))
    r = max(0, min(FRAME_HEIGHT - height, r))
    c = max(0, min(FRAME_WIDTH - width, c))
    return r, c, height, width


def render_frame(activity, frame_phase, jitter_rc, amplitude, noise_rng,
                 pixel_noise):
    """One (H, W, 3) uint8 frame; activity None renders background only."""
    img = np.full((FRAME_HEIGHT, FRAME_WIDTH, 3), BACKGROUND_LEVEL)
    if activity is not None:
        r, c, height, width = _blob_geometry(activity, frame_phase, jitter_rc)
        texture = class_texture(activity)
        for ch in range(3):
            img[r:r + height, c:c + width, ch] = amplitude * texture[ch]
    if pixel_noise > 0:
        img += noise_rng.normal(0.0, pixel_noise, img.shape)
    # quantize in place: round() at 0 decimals is rint, ties to even
    np.clip(img, 0.0, 1.0, out=img)
    img *= 255.0
    np.rint(img, out=img)
    return img.astype(np.uint8)


def render_clip(activity, rng):
    """A 16-frame clip of one activity with the default Scenario's pixel
    noise, and position and brightness jitter drawn from rng."""
    jitter = Scenario.position_jitter
    jitter_rc = rng.integers(-jitter, jitter + 1, 2)
    amplitude = BASE_AMPLITUDE + rng.uniform(-0.05, 0.05)
    return np.stack([
        render_frame(activity, i, jitter_rc, amplitude, rng,
                     Scenario.pixel_noise)
        for i in range(SEGMENT_FRAMES)
    ])


def make_codec_dataset(n_per_class, seed=0):
    """Labeled VideoSegments, n per activity class, class-major order."""
    segments, labels = [], []
    rng = _rng(seed, _DATASET_STREAM)
    for i in range(n_per_class):
        for activity in Activity:
            frames = render_clip(activity, rng)
            segments.append(VideoSegment.from_rgb_frames(frames))
            labels.append(int(activity))
    return segments, labels


def make_posture_dataset(n_per_class, seed=0):
    """(u, label) pairs from steady single-posture traces with the default
    Scenario's accel noise, via the gravity filter and the windowed
    feature the simulated uplink runs."""
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    us = []
    rng = _rng(seed, _ACCEL_STREAM, _DATASET_STREAM)
    for posture in Posture:
        direction = gravity_direction(posture)
        xyz = np.tile(direction, (n_per_class * WINDOW_SAMPLES, 1))
        xyz = xyz + rng.normal(0.0, Scenario.accel_noise_g, xyz.shape)
        us.append(gravity_feature(GravityFilter().process(xyz)))
    labels = np.repeat(np.arange(len(Posture), dtype=np.int64), n_per_class)
    return np.concatenate(us), labels


class RoomCamera:
    """Lazy per-room frame source for one scenario.

    Blob phase is the absolute frame index mod 16 and position jitter is
    fixed per activity instance (per scenario step), so any 16-frame
    window of the stream is deterministic given the scenario seed.
    """

    def __init__(self, scenario, room):
        if room not in ROOMS:
            raise ValueError(f"unknown room {room!r}")
        self.scenario = scenario
        self.room = room
        self._steps = step_timeline(scenario)
        self._step_jitter = {}

    def _jitter_for_step(self, step_idx):
        if step_idx not in self._step_jitter:
            j = self.scenario.position_jitter
            if j > 0:
                rng = _rng(self.scenario.seed, _JITTER_STREAM, step_idx,
                           ROOMS.index(self.room))
                self._step_jitter[step_idx] = (
                    rng.integers(-j, j + 1, 2),
                    BASE_AMPLITUDE + rng.uniform(-0.05, 0.05))
            else:
                self._step_jitter[step_idx] = ((0, 0), BASE_AMPLITUDE)
        return self._step_jitter[step_idx]

    @property
    def total_frames(self):
        return len(self._steps) * FPS

    def frame(self, frame_index):
        """(H, W, 3) uint8 frame at an absolute stream index."""
        if not 0 <= frame_index < self.total_frames:
            raise IndexError(f"frame {frame_index} outside the scenario's "
                             f"{self.total_frames} frames")
        step_idx = int(self._steps[frame_index // FPS])
        noise_rng = _rng(self.scenario.seed, _VIDEO_NOISE_STREAM,
                         ROOMS.index(self.room), frame_index)
        if step_idx >= 0:
            activity = self.scenario.steps[step_idx].activity
            if ACTIVITY_ROOM[activity] == self.room:
                jitter_rc, amplitude = self._jitter_for_step(step_idx)
                return render_frame(activity, frame_index % SEGMENT_FRAMES,
                                    jitter_rc, amplitude, noise_rng,
                                    self.scenario.pixel_noise)
        return render_frame(None, 0, (0, 0), 0.0, noise_rng,
                            self.scenario.pixel_noise)

    def frames(self, start, count):
        """(count, H, W, 3) uint8 frames from an absolute stream index."""
        out = np.empty((count, FRAME_HEIGHT, FRAME_WIDTH, 3), dtype=np.uint8)
        for i in range(count):
            out[i] = self.frame(start + i)
        return out

    @property
    def n_segments(self):
        """Whole 16-frame segments in the stream: N_f for this camera."""
        return self.total_frames // SEGMENT_FRAMES

    def segment_at_grid(self, grid_index):
        """VideoSegment grid_index from the stride-16 segmentation."""
        return VideoSegment.from_rgb_frames(
            self.frames(grid_index * SEGMENT_FRAMES, SEGMENT_FRAMES))

    def activity_at_grid(self, grid_index):
        """The activity this room films in grid segment grid_index, or None
        when the segment shows background: walking, or the activity is in
        another room. Read at the segment's first frame."""
        if not 0 <= grid_index < self.n_segments:
            raise IndexError(f"segment {grid_index} outside the scenario's "
                             f"{self.n_segments} segments")
        step_idx = self._steps[grid_index * SEGMENT_FRAMES // FPS]
        if step_idx < 0:
            return None
        activity = self.scenario.steps[step_idx].activity
        return activity if ACTIVITY_ROOM[activity] == self.room else None
