"""Reference computations and output checks, written apart from the program.

Nothing here calls into ``semcom`` beyond reading model parameters, so a
change to the program cannot change the yardstick its outputs are held
against. Each ``check_*`` function returns a list of failure messages;
an empty list means the output passed.
"""
from __future__ import annotations

import math
import re

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

GRADCHECK_THRESHOLD = 1e-4    # relative error bound of `semcom gradcheck`
LOGITS_RTOL = 1e-9
SYMBOLS_PER_FEATURE = 4840    # complex symbols per uploaded video feature
RAW_SYMBOLS_PER_SECOND = 75   # 50 samples x 3 axes, two values per symbol
FRAMES_PER_SECOND = 50
SEGMENT_FRAMES = 16
N_ROOMS = 3
WALK_SECONDS = 4

# Posture each activity is performed in (the paper's smart-home layout).
ACTIVITY_POSTURE = {
    "sleeping": "lying",
    "resting": "sitting",
    "dress-up": "standing",
    "eating": "sitting",
    "calling": "sitting",
}
ACTIVITY_ROOM = {
    "sleeping": "bedroom",
    "resting": "living_room",
    "dress-up": "bedroom",
    "eating": "kitchen",
    "calling": "living_room",
}


# ---------------------------------------------------------------- forward

def conv3d(x, weights, bias):
    """Stride-1 cross-correlation with zero padding 1, one depth slice at a
    time through ``tensordot`` over a sliding-window view."""
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    windows = sliding_window_view(xp, weights.shape[2:], axis=(1, 2, 3))
    out = np.empty((weights.shape[0],) + x.shape[1:])
    for d in range(x.shape[1]):
        out[:, d] = np.tensordot(weights, windows[:, d],
                                 axes=([1, 2, 3, 4], [0, 3, 4, 5]))
    return out + bias[:, None, None, None]


def maxpool3d(x, kernel):
    """Floor-mode max pooling with stride equal to the kernel."""
    c = x.shape[0]
    d, h, w = (x.shape[1 + i] // kernel[i] for i in range(3))
    x = x[:, :d * kernel[0], :h * kernel[1], :w * kernel[2]]
    x = x.reshape(c, d, kernel[0], h, kernel[1], w, kernel[2])
    return x.max(axis=(2, 4, 6))


def relu(x):
    return np.maximum(x, 0.0)


def encoder_feature(params, frames):
    """Clean video (3, 16, 112, 112) -> encoder feature before the channel."""
    w, b = params["enc.conv"]
    return maxpool3d(relu(conv3d(frames, w, b)), (3, 5, 5))


def decoder_logits(params, feature):
    """Power-normalize, pass an identity channel, de-normalize, classify."""
    flat = feature.reshape(-1)
    sigma = math.sqrt(float(np.sum(flat * flat)) / (flat.size // 2))
    h = ((flat / sigma) * sigma).reshape(feature.shape)
    for i, pool in ((1, True), (2, True), (3, False)):
        w, b = params[f"dec.conv{i}"]
        h = relu(conv3d(h, w, b))
        if pool:
            h = maxpool3d(h, (2, 2, 2))
    w, b = params["dec.linear"]
    return w @ h.reshape(-1) + b


def model_params(model):
    """The codec's parameter arrays by layer, read from its attributes."""
    return {
        "enc.conv": (model.enc_conv.weights, model.enc_conv.bias),
        "dec.conv1": (model.dec_conv1.weights, model.dec_conv1.bias),
        "dec.conv2": (model.dec_conv2.weights, model.dec_conv2.bias),
        "dec.conv3": (model.dec_conv3.weights, model.dec_conv3.bias),
        "dec.linear": (model.linear.weights, model.linear.bias),
    }


def logits(params, frames):
    return decoder_logits(params, encoder_feature(params, frames))


def cross_entropy(z, label):
    z = np.asarray(z, dtype=np.float64)
    top = z.max()
    return float(top + math.log(np.sum(np.exp(z - top))) - z[label])


def finite_difference(params, frames, label, layer, index, which, epsilon):
    """Central difference of the clean-channel loss in one parameter.

    ``which`` selects weights (0) or bias (1) of ``layer``. The encoder
    feature is reused when the coordinate lies in the decoder.
    """
    array = params[layer][which]
    feature = None if layer == "enc.conv" else encoder_feature(params, frames)
    saved = array[index]
    losses = []
    for delta in (epsilon, -epsilon):
        array[index] = saved + delta
        f = encoder_feature(params, frames) if feature is None else feature
        losses.append(cross_entropy(decoder_logits(params, f), label))
    array[index] = saved
    return (losses[0] - losses[1]) / (2.0 * epsilon)


def stable_difference(params, frames, label, layer, index, which,
                      epsilons=(1e-5, 1e-6, 1e-7), agree=1e-5):
    """Central difference at the largest step that agrees with the next
    smaller one to ``agree`` relative.

    A ReLU or max-pool kink within the step of the point makes a central
    difference meaningless; shifting an encoder bias moves ~200k conv
    outputs at once, so such kinks do occur at a step of 1e-5. The step
    is chosen without looking at the analytic gradient.
    """
    prev = finite_difference(params, frames, label, layer, index, which,
                             epsilons[0])
    for epsilon in epsilons[1:]:
        cur = finite_difference(params, frames, label, layer, index, which,
                                epsilon)
        if abs(cur - prev) <= agree * max(abs(cur), abs(prev)):
            return prev
        prev = cur
    return prev


# ---------------------------------------------------------------- checks

def check_logits(program, reference, rtol=LOGITS_RTOL):
    program = np.asarray(program, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if program.shape != reference.shape:
        return [f"logits shape {program.shape} != reference {reference.shape}"]
    scale = max(float(np.max(np.abs(reference))), 1e-300)
    err = float(np.max(np.abs(program - reference))) / scale
    if not err <= rtol:
        return [f"logits differ from the reference forward pass by {err:.3e} "
                f"relative (bound {rtol:g})"]
    return []


def check_gradients(pairs, threshold=GRADCHECK_THRESHOLD):
    """pairs: (label, analytic, numeric) for each sampled coordinate."""
    failures = []
    for label, analytic, numeric in pairs:
        denom = max(abs(analytic), abs(numeric), 1e-8)
        err = abs(analytic - numeric) / denom
        if not err < threshold:
            failures.append(f"gradient {label}: analytic {analytic:.6e} vs "
                            f"finite difference {numeric:.6e} "
                            f"(relative error {err:.2e})")
    return failures


def check_loss_falls(epoch_losses):
    if len(epoch_losses) < 2:
        return ["need at least two epochs to see the loss fall"]
    if not epoch_losses[-1] < epoch_losses[0]:
        return [f"last epoch loss {epoch_losses[-1]:.6f} is not below the "
                f"first {epoch_losses[0]:.6f}"]
    return []


def parse_scenario(text):
    """'sleeping:20,eating:30' -> [('sleeping', 20), ('eating', 30)]."""
    steps = []
    for part in text.split(","):
        name, seconds = part.strip().split(":")
        steps.append((name.strip().lower().replace("_", "-"), int(seconds)))
    return steps


def posture_timeline(steps):
    """Per-second ground-truth posture: steps apart by 4 s of walking."""
    timeline = []
    for i, (activity, seconds) in enumerate(steps):
        if i:
            timeline += ["walking"] * WALK_SECONDS
        timeline += [ACTIVITY_POSTURE[activity]] * seconds
    return timeline


def activity_timeline(steps):
    """Per-second (activity, room) truth; None while walking."""
    timeline = []
    for i, (activity, seconds) in enumerate(steps):
        if i:
            timeline += [None] * WALK_SECONDS
        timeline += [(activity, ACTIVITY_ROOM[activity])] * seconds
    return timeline


def posture_changes(timeline):
    """[(second, from, to)] for every change of the ground-truth posture."""
    return [(t, timeline[t - 1], timeline[t])
            for t in range(1, len(timeline)) if timeline[t] != timeline[t - 1]]


_EVENT = re.compile(r"^ACK t=(\d+) from=(\w+) to=(\w+) targets=([\w,]*)$")


def parse_events(lines):
    events = []
    for line in lines:
        m = _EVENT.match(line)
        if m is None:
            raise ValueError(f"malformed event line {line!r}")
        events.append((int(m.group(1)), m.group(2), m.group(3),
                       tuple(m.group(4).split(","))))
    return events


def check_events(event_lines, scenario, validation_windows, rooms):
    """Events must match the ground-truth posture changes one to one, in
    order, each firing in [change + validation_windows - 1, next change)
    and targeting every room."""
    try:
        events = parse_events(event_lines)
    except ValueError as exc:
        return [str(exc)]
    timeline = posture_timeline(parse_scenario(scenario))
    changes = posture_changes(timeline)
    failures = []
    if len(events) != len(changes):
        failures.append(f"{len(events)} events for {len(changes)} "
                        f"ground-truth posture changes")
    bounds = [c[0] for c in changes[1:]] + [len(timeline)]
    for i, (event, change, end) in enumerate(zip(events, changes, bounds)):
        t, frm, to, targets = event
        if (frm, to) != change[1:]:
            failures.append(f"event {i} is {frm}->{to}, truth is "
                            f"{change[1]}->{change[2]} at t={change[0]}")
        if not change[0] + validation_windows - 1 <= t < end:
            failures.append(f"event {i} fires at t={t}, outside "
                            f"[{change[0] + validation_windows - 1}, {end})")
        if sorted(targets) != sorted(rooms):
            failures.append(f"event {i} targets {targets}, not all rooms")
    return failures


def check_ledger(report, seconds, segments_per_ack):
    """The overhead ledger identities of a gated simulation report."""
    ledger = report["overhead"]
    events = report["n_events"]
    frames = seconds * FRAMES_PER_SECOND
    expected = {
        "raw_symbols": RAW_SYMBOLS_PER_SECOND * seconds,
        "N_t": events * N_ROOMS * segments_per_ack,
        "N_f": N_ROOMS * (frames // SEGMENT_FRAMES),
        "L": SYMBOLS_PER_FEATURE,
    }
    failures = [f"{key} = {ledger[key]}, expected {value}"
                for key, value in expected.items() if ledger[key] != value]
    if report["uploads"] != ledger["N_t"]:
        failures.append(f"uploads = {report['uploads']} but N_t = {ledger['N_t']}")
    if events != len(report["events"]):
        failures.append(f"n_events = {events} but {len(report['events'])} lines")
    return failures


def expected_useful_uploads(report, scenario, segments_per_ack):
    """Uploads whose segment starts while an activity is under way in the
    uploading room: one per ACK that lands inside an activity."""
    timeline = activity_timeline(parse_scenario(scenario))
    count = 0
    for t, _, _, _ in parse_events(report["events"]):
        for k in range(segments_per_ack):
            grid = (t * FRAMES_PER_SECOND) // SEGMENT_FRAMES + k
            second = grid * SEGMENT_FRAMES // FRAMES_PER_SECOND
            if second < len(timeline) and timeline[second] is not None:
                count += 1
    return count


def check_activity(report, scenario, segments_per_ack, min_accuracy=0.90):
    cells = [cell for rooms in report["activity_table"].values()
             for cell in rooms.values()]
    useful = sum(c["count"] for c in cells)
    correct = sum(c["correct"] for c in cells)
    failures = []
    expected = expected_useful_uploads(report, scenario, segments_per_ack)
    if useful != expected:
        failures.append(f"{useful} uploads from the active room, expected "
                        f"{expected}")
    if useful == 0:
        failures.append("no upload came from the room of an activity")
    elif correct / useful < min_accuracy:
        failures.append(f"activity accuracy {correct}/{useful} below "
                        f"{min_accuracy}")
    return failures
