"""Span tracing from outside the program.

A :class:`Tracer` replaces public functions and methods of ``semcom`` with
wrappers that record a span (name, start, end, parent) around each call.
Each wrapper is installed in the namespace where the caller looks the
function up (``simulate`` imports ``encode`` by name, ``codec`` imports
``gaussian_noise`` by name, and so on), so every call path is seen.
Spans stay in memory until :meth:`Tracer.write` dumps them as JSON lines.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

import numpy as np

from semcom import (accel, channel, codec, controller, forest, simulate,
                    synthdata, tensor, weights_io)

ENC_IN_CHANNELS = 3


def _conv_name(kind):
    def name(args):
        side = "enc" if args[0].in_channels == ENC_IN_CHANNELS else "dec"
        return f"tensor.conv3d_{side}.{kind}"
    return name


class Tracer:
    """Records spans around wrapped calls; one instance per traced phase."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self._undo = []
        self._projection = None
        self.mark()

    def mark(self):
        """Start a new phase: reset the counters, return the span index."""
        self.grad_outputs = [0, 0]      # encoder conv: nonzero, total
        self.draws = 0
        self.encode_keys = []
        self.round = 0
        return len(self.spans)

    def next_round(self):
        """Rounds repeat the same inputs; encodes are told apart per round."""
        self.round += 1

    def _wrap(self, name, fn, before=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            record = [name(args) if callable(name) else name, 0.0, 0.0,
                      stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
        return wrapper

    def patch(self, owner, attr, name, before=None):
        original = owner.__dict__[attr]
        setattr(owner, attr, self._wrap(name, original, before))
        self._undo.append((owner, attr, original))

    def _count_grad_outputs(self, args, kwargs):
        if args[0].in_channels == ENC_IN_CHANNELS:
            upstream = args[1]
            self.grad_outputs[0] += int(np.count_nonzero(upstream))
            self.grad_outputs[1] += upstream.size

    def _count_draws(self, args, kwargs):
        self.draws += args[0]

    def _key_encode(self, args, kwargs):
        """Fingerprint (encoder weights, clean input) by random projection."""
        model, segment = args[0], args[1]
        x = segment.frames if isinstance(segment, codec.VideoSegment) else segment
        x = np.asarray(x).reshape(-1)
        if self._projection is None or self._projection.shape[1] != x.size:
            self._projection = np.random.default_rng(0).standard_normal((2, x.size))
        self.encode_keys.append(
            (self.round, model.enc_conv.weights.tobytes(),
             model.enc_conv.bias.tobytes(), tuple(self._projection @ x)))

    def install(self):
        """Wrap every traced layer entry point; undone by :meth:`uninstall`."""
        p = self.patch
        p(tensor.Conv3d, "forward", _conv_name("fwd"))
        p(tensor.Conv3d, "backward", _conv_name("bwd"), self._count_grad_outputs)
        p(tensor.MaxPool3d, "forward", "tensor.maxpool3d.fwd")
        p(tensor.MaxPool3d, "backward", "tensor.maxpool3d.bwd")
        p(tensor.ReLU, "forward", "tensor.relu")
        p(tensor.ReLU, "backward", "tensor.relu")
        p(tensor.Linear, "forward", "tensor.linear")
        p(tensor.Linear, "backward", "tensor.linear")
        p(codec, "sgd_step", "tensor.sgd_step")
        for owner in (codec, simulate):
            p(owner, "encode", "codec.encode", self._key_encode)
            p(owner, "decode", "codec.decode")
        p(codec, "sample_gradients", "codec.sample_gradients")
        p(codec, "train", "codec.train")
        p(codec, "evaluate", "codec.evaluate")
        for owner in (channel, codec):
            p(owner, "gaussian_noise", "channel.gaussian_noise",
              self._count_draws)
        p(channel, "add_noise", "channel.add_noise")
        p(channel.Channel, "send", "channel.send")
        p(synthdata, "render_frame", "synthdata.render_frame")
        p(synthdata, "make_codec_dataset", "synthdata.make_codec_dataset")
        p(simulate, "encode_raw", "accel.encode_raw")
        p(simulate, "decode_raw", "accel.decode_raw")
        p(accel.GravityFilter, "process", "accel.gravity_filter")
        p(simulate, "gravity_feature", "accel.gravity_feature")
        p(forest.RandomForest, "predict", "forest.predict")
        p(forest, "train_forest", "forest.train_forest")
        p(controller.TransmissionController, "observe", "controller.observe")
        p(simulate, "dispatch", "controller.dispatch")
        p(simulate, "run_simulation", "simulate.run_simulation")
        p(weights_io, "read_arrays", "weights_io.read_arrays")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def summarize(spans, first, last):
    """Per-name totals over spans[first:last].

    Returns (calls, inclusive seconds, self seconds, root seconds), where
    self time is a span's duration minus the durations of its children
    and root seconds is the time covered by spans without a parent.
    """
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    child_time = defaultdict(float)
    root = 0.0
    for i in range(first, last):
        name, start, end, parent = spans[i]
        calls[name] += 1
        inclusive[name] += end - start
        if parent >= 0:
            child_time[parent] += end - start
        else:
            root += end - start
    self_time = defaultdict(float)
    for i in range(first, last):
        name, start, end, _ = spans[i]
        self_time[name] += end - start - child_time[i]
    return calls, inclusive, self_time, root


def ack_to_label_ms(spans, first, last):
    """Median ms from each ACK dispatch to the last decode it caused."""
    delays = []
    dispatch_start = None
    last_decode = None
    for i in range(first, last):
        name, start, end, _ = spans[i]
        if name in ("controller.dispatch", "simulate.run_simulation"):
            if dispatch_start is not None and last_decode is not None:
                delays.append(last_decode - dispatch_start)
            dispatch_start = start if name == "controller.dispatch" else None
            last_decode = None
        elif name == "codec.decode" and dispatch_start is not None:
            last_decode = end
    if dispatch_start is not None and last_decode is not None:
        delays.append(last_decode - dispatch_start)
    return 1000.0 * float(np.median(delays)) if delays else 0.0
