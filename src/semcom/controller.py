"""Server-side transmission controller: postural-transition validation and
positive-ACK emission toward the cameras.

A new posture becomes valid only after it has been observed in
``validation_windows`` consecutive 1 s windows (default 3: the change
window plus two confirmations). Shorter blips fall back to the previous
stable posture without emitting anything.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .accel import Posture, POSTURE_NAMES


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


class ControllerState(NamedTuple):
    """Stable(current) when pending is None, else Pending(candidate, count).

    ``stable`` keeps the last validated posture while a candidate is
    pending; ``last_index`` enforces consecutive window indices.
    """

    stable: Optional[Posture]
    pending: Optional[Posture]
    pending_count: int
    last_index: Optional[int]


INITIAL_STATE = ControllerState(None, None, 0, None)


@dataclass
class ControlEvent:
    """A validated postural transition and the positive ACK it triggers."""

    t: int
    from_posture: Posture
    to_posture: Posture
    targets: tuple = ()


class UploadCommand(NamedTuple):
    camera: str
    segments: int
    t: int


def step(state, p, window_index, policy):
    """Advance one window; returns (new_state, event_or_None).

    The first observation seeds Stable(p) without an event. Window indices
    must advance by exactly 1.
    """
    if state.last_index is not None and window_index != state.last_index + 1:
        raise ValueError(
            f"window index {window_index} does not follow {state.last_index}")
    if state.stable is None:
        return ControllerState(p, None, 0, window_index), None
    stable, pending, count = state.stable, state.pending, state.pending_count
    event = None
    if pending is None:
        if p != stable:
            pending, count = p, 1
    elif p == pending:
        count += 1
    elif p == stable:
        pending, count = None, 0
    else:
        pending, count = p, 1
    if pending is not None and count >= policy.validation_windows:
        event = ControlEvent(window_index, stable, pending)
        stable, pending, count = pending, None, 0
    return ControllerState(stable, pending, count, window_index), event


def oracle_events(postures, policy):
    """Declarative reference: scan maximal constant runs of the sequence.

    A run of a posture q != current stable with length >=
    validation_windows yields exactly one event at run_start +
    validation_windows - 1 and makes q stable. Must agree with folding
    :func:`step` over the same sequence.
    """
    postures = list(postures)
    if not postures:
        return []
    events = []
    stable = postures[0]
    i = 0
    n = len(postures)
    while i < n:
        j = i
        while j < n and postures[j] == postures[i]:
            j += 1
        run_value, run_len = postures[i], j - i
        if run_value != stable and run_len >= policy.validation_windows:
            events.append(ControlEvent(i + policy.validation_windows - 1,
                                       stable, run_value))
            stable = run_value
        i = j
    return events


def fold_events(postures, policy):
    """Run step() over a whole sequence and collect the emitted events."""
    state = INITIAL_STATE
    events = []
    for idx, p in enumerate(postures):
        state, event = step(state, p, idx, policy)
        if event is not None:
            events.append(event)
    return events


def dispatch(event, policy, cameras):
    """Fan an ACK out into per-camera upload commands.

    Broadcast policies target every camera; subset policies must name
    known cameras. Records the resolved targets on the event.
    """
    cameras = tuple(cameras)
    if policy.targets is None:
        targets = cameras
    else:
        unknown = [t for t in policy.targets if t not in cameras]
        if unknown:
            raise ValueError(f"unknown camera id(s): {unknown}")
        targets = tuple(policy.targets)
    commands = [UploadCommand(cam, policy.segments_per_ack, event.t)
                for cam in targets]
    event.targets = targets
    return commands


def format_event(event):
    """One event-log line: ACK t=<idx> from=<p> to=<p> targets=<list>."""
    return (f"ACK t={event.t}"
            f" from={POSTURE_NAMES[event.from_posture]}"
            f" to={POSTURE_NAMES[event.to_posture]}"
            f" targets={','.join(event.targets)}")


class TransmissionController:
    """Stateful wrapper used by the simulation loop."""

    def __init__(self, policy=None):
        self.policy = policy or AckPolicy()
        self.state = INITIAL_STATE
        self.events = []

    def observe(self, posture, window_index):
        self.state, event = step(self.state, posture, window_index, self.policy)
        if event is not None:
            self.events.append(event)
        return event
