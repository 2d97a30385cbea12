"""Simulation configuration: dataclass plus flat ``key = value`` file parser.

Config files are plain text, one assignment per line, ``#`` starts a
comment. The scenario is given inline as comma-separated
``activity:duration_s`` pairs, e.g. ``sleeping:20,resting:20``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .channel import _noiseless
from .codec import parse_activity
from .controller import AckPolicy
from .synthdata import ROOMS, RoomCamera, Scenario, ScenarioStep


@dataclass
class SimConfig:
    seed: int = 0
    video_snr_db: float = 25.0
    accel_snr_db: float = 25.0
    validation_windows: int = AckPolicy.validation_windows
    segments_per_ack: int = AckPolicy.segments_per_ack
    ack_targets: str = "broadcast"          # or comma-separated room names
    settle_windows: int = 3                 # posture-accuracy margin after a PT
    accel_noise_g: float = Scenario.accel_noise_g
    pixel_noise: float = Scenario.pixel_noise
    position_jitter: int = Scenario.position_jitter
    scenario: str = "sleeping:20,resting:20,dress-up:20,eating:20,calling:20"
    codec_model: str = ""
    forest_model: str = ""
    out_report: str = "sim_report.json"
    out_events: str = "sim_events.log"

    def __post_init__(self):
        for name in ("video_snr_db", "accel_snr_db"):
            try:
                _noiseless(getattr(self, name))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        for name in ("settle_windows", "accel_noise_g", "pixel_noise",
                     "position_jitter"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        AckPolicy(self.validation_windows, self.parse_targets(),
                  self.segments_per_ack)
        # an ACK commands at most every segment a camera films
        n_segments = RoomCamera(self.parse_scenario(), ROOMS[0]).n_segments
        if self.segments_per_ack > n_segments:
            raise ValueError(
                f"segments_per_ack {self.segments_per_ack} exceeds the "
                f"scenario's {n_segments} segments per camera")

    def parse_scenario(self):
        steps = []
        for part in self.scenario.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                name, duration = part.split(":")
            except ValueError:
                raise ValueError(
                    f"scenario entry {part!r} is not activity:duration") from None
            steps.append(ScenarioStep(parse_activity(name), int(duration)))
        return Scenario(tuple(steps), seed=self.seed,
                        accel_noise_g=self.accel_noise_g,
                        pixel_noise=self.pixel_noise,
                        position_jitter=self.position_jitter).validate(
                            min_duration_s=self.validation_windows)

    def parse_targets(self):
        """The tuple of room names; broadcast names every room."""
        if self.ack_targets.strip().lower() == "broadcast":
            return ROOMS
        return tuple(t.strip() for t in self.ack_targets.split(",") if t.strip())


_FIELD_TYPES = {f.name: f.type for f in fields(SimConfig)}


def _convert(name, raw):
    kind = _FIELD_TYPES[name]
    if kind == "int":
        return int(raw)
    if kind == "float":
        if raw.strip().lower() in ("inf", "+inf", "noiseless"):
            return math.inf
        return float(raw)
    return raw


def parse_config_text(text, source="<config>"):
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{source}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _FIELD_TYPES:
            raise ValueError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _convert(key, raw)
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: bad value for {key!r}: {exc}")
    try:
        return SimConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), source=str(path))
