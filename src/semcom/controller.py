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
from typing import Optional

import numpy as np

from .accel import POSTURE_NAMES


@dataclass(frozen=True)
class AckPolicy:
    """validation_windows >= 1; targets None means broadcast to all cameras."""

    validation_windows: int = 3
    targets: Optional[tuple] = None
    segments_per_ack: int = 1

    def __post_init__(self):
        if self.validation_windows < 1:
            raise ValueError(
                f"validation_windows must be >= 1, got {self.validation_windows}")
        if self.segments_per_ack < 1:
            raise ValueError(
                f"segments_per_ack must be >= 1, got {self.segments_per_ack}")


@dataclass
class ControlEvent:
    """A validated postural transition and the positive ACK it triggers."""

    t: int
    from_posture: int
    to_posture: int
    targets: tuple = ()


def dispatch(event, policy, cameras):
    """The cameras an ACK commands to upload, also recorded on the event.

    Broadcast policies target every camera; subset policies must name
    known cameras.
    """
    cameras = tuple(cameras)
    if policy.targets is None:
        targets = cameras
    else:
        unknown = [t for t in policy.targets if t not in cameras]
        if unknown:
            raise ValueError(f"unknown camera id(s): {unknown}")
        targets = tuple(policy.targets)
    event.targets = targets
    return targets


def format_event(event):
    """One event-log line: ACK t=<idx> from=<p> to=<p> targets=<list>."""
    return (f"ACK t={event.t}"
            f" from={POSTURE_NAMES[event.from_posture]}"
            f" to={POSTURE_NAMES[event.to_posture]}"
            f" targets={','.join(event.targets)}")


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
