"""Server-side transmission controller: postural-transition validation and
positive-ACK emission toward the cameras.

A new posture becomes valid only after it has been observed in
``validation_windows`` consecutive 1 s windows (default 3: the change
window plus two confirmations). Shorter blips fall back to the previous
stable posture without emitting anything. The controller reads a whole
per-second array of posture codes (``accel.Posture`` values) at once and
walks its runs of equal codes, not its seconds; event lines name the
postures through POSTURE_NAMES.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accel import POSTURE_NAMES
from .synthdata import ROOMS, grid_at_second


@dataclass(frozen=True)
class AckPolicy:
    """validation_windows >= 1; targets are the rooms each ACK commands,
    each named once (default: broadcast to every room)."""

    validation_windows: int = 3
    targets: tuple = ROOMS
    segments_per_ack: int = 1

    def __post_init__(self):
        if self.validation_windows < 1:
            raise ValueError(
                f"validation_windows must be >= 1, got {self.validation_windows}")
        if self.segments_per_ack < 1:
            raise ValueError(
                f"segments_per_ack must be >= 1, got {self.segments_per_ack}")
        if not self.targets:
            raise ValueError("ack_targets names no room")
        for i, room in enumerate(self.targets):
            if room not in ROOMS:
                raise ValueError(f"ack_targets: unknown room {room!r} "
                                 f"(rooms: {', '.join(ROOMS)})")
            if room in self.targets[:i]:
                raise ValueError(f"ack_targets: room {room!r} is named twice")


@dataclass(frozen=True)
class ControlEvent:
    """A validated postural transition, which triggers a positive ACK."""

    t: int
    from_posture: int
    to_posture: int


def dispatch(event, policy):
    """The (room, grid) uploads an ACK commands: each target room in policy
    order uploads segments_per_ack grid segments from the one that holds
    the ACK second's first frame on."""
    first = grid_at_second(event.t)
    grids = range(first, first + policy.segments_per_ack)
    return [(room, grid) for room in policy.targets for grid in grids]


def format_event(event, targets):
    """One event-log line: "ACK" and key=value fields for t, from, to
    (posture names) and targets (comma-separated rooms)."""
    fields = (("t", event.t), ("from", POSTURE_NAMES[event.from_posture]),
              ("to", POSTURE_NAMES[event.to_posture]),
              ("targets", ",".join(targets)))
    return "ACK " + " ".join(f"{key}={value}" for key, value in fields)


class TransmissionController:
    """Validates the postural transitions of one scenario."""

    def __init__(self, policy=None):
        self.policy = policy or AckPolicy()

    def observe(self, postures):
        """The list of events of the scenario's per-second posture codes.

        The first window's posture is stable. A maximal run of a posture q
        other than the stable one that lasts at least validation_windows
        windows fires one event at run_start + validation_windows - 1, and
        q becomes stable. Other runs fire nothing.
        """
        codes = np.asarray(postures, dtype=np.int64)
        events = []
        if not codes.size:
            return events
        vw = self.policy.validation_windows
        starts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
        lengths = np.diff(starts, append=codes.size)
        stable = int(codes[0])
        for start, length, code in zip(starts.tolist(), lengths.tolist(),
                                       codes[starts].tolist()):
            if code != stable and length >= vw:
                events.append(ControlEvent(start + vw - 1, stable, code))
                stable = code
        return events
