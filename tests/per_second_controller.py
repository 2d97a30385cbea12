"""The transmission controller as it ran before it scanned runs: a
per-second state machine, kept as the independent oracle for
``TransmissionController.observe`` in the controller, acceptance and
simulation tests."""
from typing import NamedTuple, Optional

from semcom.controller import ControlEvent


class ControllerState(NamedTuple):
    """Stable(current) when pending is None, else Pending(candidate, count).

    ``stable`` keeps the last validated posture while a candidate is
    pending; ``last_index`` enforces consecutive window indices.
    """

    stable: Optional[int]
    pending: Optional[int]
    pending_count: int
    last_index: Optional[int]


INITIAL_STATE = ControllerState(None, None, 0, None)


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


def fold_events(postures, policy):
    """Run step() over a whole sequence and collect the emitted events."""
    state = INITIAL_STATE
    events = []
    for idx, p in enumerate(postures):
        state, event = step(state, p, idx, policy)
        if event is not None:
            events.append(event)
    return events
