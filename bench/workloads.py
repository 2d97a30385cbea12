"""The benchmark's workloads.

Each workload builds its inputs from the seed alone in ``setup``, splits
one round of work into timed chunks, and checks the outputs of all its
rounds with the reference computations in ``reference.py``. Every round
repeats the same operations on the same inputs, so rounds must agree
bit for bit.
"""
from __future__ import annotations

import math
import os
import random

import numpy as np

from semcom import codec, forest, simulate, synthdata
from semcom.config import SimConfig

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKPOINT = os.path.join(HERE, "codec_checkpoint.semw")
OUT_DIR = os.path.join(HERE, "out")
ACTIVITIES = ("sleeping", "resting", "dress-up", "eating", "calling")
ROOMS = ("bedroom", "living_room", "kitchen")
HELDOUT_SEED_BASE = 10_000    # held-out data never shares a seed with training
# The posture forest is a model, like the checkpoint: one fixed recipe (the
# acceptance one), so set-up does the same work whatever the workload seed.
POSTURE_DATA_SEED = 1
FOREST_SEED = 2
SNR_DB = 25.0


class Workload:
    """One set of inputs; subclasses define setup, chunks and checks."""

    name = ""
    min_rounds = 2

    def __init__(self, seed):
        self.seed = seed

    def setup(self):
        raise NotImplementedError

    def chunks(self, state):
        """[(operations, callable)] making up one round."""
        raise NotImplementedError

    def check(self, state, rounds):
        """Failure messages for the outputs of every round."""
        raise NotImplementedError

    def symbols_per_op(self, rounds):
        return float(codec.SYMBOLS_PER_SEGMENT)

    def layer_values(self, rounds, ops):
        """Per-layer metrics read off the outputs rather than the spans."""
        return {}

    def describe(self, rounds):
        """Headline outputs of the first round, for the result file."""
        return {}


def _same_rounds(rounds, key):
    first = key(rounds[0])
    if any(key(r) != first for r in rounds[1:]):
        return ["rounds on the same inputs gave different outputs"]
    return []


class Train(Workload):
    """End-to-end codec training through the 25 dB channel."""

    name = "train"
    PER_CLASS = 2
    EPOCHS = 3
    BATCH = 2
    GRAD_COORDS = 2          # sampled coordinates per parameter array

    def setup(self):
        return synthdata.make_codec_dataset(self.PER_CLASS, seed=self.seed)

    def chunks(self, state):
        segments, labels = state
        config = codec.TrainConfig(epochs=self.EPOCHS, batch_size=self.BATCH,
                                   shuffle_seed=self.seed + 1,
                                   noise_seed=self.seed + 2)

        def run():
            model = codec.CodecModel(seed=self.seed)
            history = codec.train(model, segments, labels, SNR_DB, config)
            return model, [(h.loss, h.accuracy) for h in history]
        return [(len(segments) * self.EPOCHS, run)]

    def check(self, state, rounds):
        failures = _same_rounds(rounds, lambda r: r[0][1])
        for r in rounds:
            failures += reference.check_loss_falls([loss for loss, _ in r[0][1]])
        model = rounds[-1][0][0]
        failures += self._check_persistence(model)
        failures += reference.check_gradients(self.gradient_pairs(model, state))
        return failures

    def describe(self, rounds):
        return {"epoch_loss_accuracy": rounds[0][0][1]}

    def _check_persistence(self, model):
        failures = []
        for p in model.params():
            if not np.array_equal(p, p.astype(np.float32).astype(np.float64)):
                failures.append("a parameter left the float32 grid")
                break
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"roundtrip-{os.getpid()}.semw")
        try:
            codec.save_model(path, model)
            loaded = codec.load_model(path)
        finally:
            if os.path.exists(path):
                os.remove(path)
        if not all(np.array_equal(a, b)
                   for a, b in zip(model.params(), loaded.params())):
            failures.append("parameters changed through save_model/load_model")
        return failures

    def gradient_pairs(self, model, state):
        """(label, analytic, numeric) on sampled coordinates of every layer,
        analytic from sample_gradients at infinite SNR."""
        segments, labels = state
        segment, label = segments[0], labels[0]
        _, _, grads = codec.sample_gradients(
            model, segment, label, math.inf,
            np.random.Generator(np.random.Philox(key=np.uint64(0))))
        params = reference.model_params(model)
        rng = np.random.default_rng(self.seed)
        pairs = []
        arrays = [(layer, which) for layer in params for which in (0, 1)]
        for (layer, which), grad in zip(arrays, grads):
            # finite differences cannot resolve components near zero
            candidates = np.flatnonzero(np.abs(grad) >= 1e-2 * np.abs(grad).max())
            picks = rng.choice(candidates,
                               min(self.GRAD_COORDS, candidates.size),
                               replace=False)
            for flat in picks:
                index = np.unravel_index(flat, grad.shape)
                numeric = reference.stable_difference(
                    params, segment.frames, label, layer, index, which)
                pairs.append((f"{layer}[{which}]{tuple(map(int, index))}",
                              float(grad[index]), numeric))
        return pairs


class EvalSweep(Workload):
    """codec.evaluate of the trained checkpoint over SNRs x noise seeds."""

    name = "eval_sweep"
    PER_CLASS = 4
    SNRS = (math.inf, 25.0, 7.0)
    NOISE_SEEDS = 2
    LOGIT_SAMPLES = 4

    def setup(self):
        model = codec.load_model(CHECKPOINT)
        segments, labels = synthdata.make_codec_dataset(
            self.PER_CLASS, seed=HELDOUT_SEED_BASE + self.seed)
        return model, segments, labels

    def noise_seeds(self):
        return [self.NOISE_SEEDS * self.seed + k for k in range(self.NOISE_SEEDS)]

    def chunks(self, state):
        model, segments, labels = state
        out = []
        for snr in self.SNRS:
            for noise_seed in self.noise_seeds():
                out.append((len(segments),
                            lambda s=snr, n=noise_seed: codec.evaluate(
                                model, segments, labels, s, noise_seed=n)))
        return out

    def accuracies(self, round_outputs):
        n = self.NOISE_SEEDS
        return {snr: float(np.mean(round_outputs[i * n:(i + 1) * n]))
                for i, snr in enumerate(self.SNRS)}

    def describe(self, rounds):
        return {"accuracy_by_snr_db": {str(k): v for k, v in
                                       self.accuracies(rounds[0]).items()}}

    def check(self, state, rounds):
        model, segments, labels = state
        failures = _same_rounds(rounds, tuple)
        acc = self.accuracies(rounds[0])
        if not acc[SNR_DB] >= 0.90:
            failures.append(f"accuracy at {SNR_DB} dB is {acc[SNR_DB]:.3f} < 0.90")
        lowest = min(self.SNRS)
        if not acc[lowest] <= acc[SNR_DB] + 0.02:
            failures.append(f"accuracy at {lowest} dB ({acc[lowest]:.3f}) "
                            f"exceeds that at {SNR_DB} dB by more than 0.02")
        params = reference.model_params(model)
        ref_logits = [reference.logits(params, s.frames) for s in segments]
        ref_acc = float(np.mean([int(np.argmax(z)) == y
                                 for z, y in zip(ref_logits, labels)]))
        if acc[math.inf] != ref_acc:
            failures.append(f"accuracy at infinite SNR {acc[math.inf]:.4f} != "
                            f"reference forward pass {ref_acc:.4f}")
        picks = np.random.default_rng(self.seed).choice(
            len(segments), self.LOGIT_SAMPLES, replace=False)
        for i in picks:
            failures += reference.check_logits(
                codec.forward_logits(model, segments[i]), ref_logits[i])
        return failures


class Simulation(Workload):
    """simulate.run_simulation at 25 dB, broadcast ACKs, one segment each."""

    SEGMENTS_PER_ACK = 1
    POSTURE_PER_CLASS = 80

    def scenario(self):
        raise NotImplementedError

    def config(self):
        return SimConfig(seed=self.seed, scenario=self.scenario(),
                         video_snr_db=SNR_DB, accel_snr_db=SNR_DB,
                         segments_per_ack=self.SEGMENTS_PER_ACK,
                         ack_targets="broadcast")

    def seconds(self):
        return len(reference.posture_timeline(
            reference.parse_scenario(self.scenario())))

    def setup(self):
        model = codec.load_model(CHECKPOINT)
        u, y = synthdata.make_posture_dataset(self.POSTURE_PER_CLASS,
                                              seed=POSTURE_DATA_SEED)
        return model, forest.train_forest(u, y, seed=FOREST_SEED)

    def chunks(self, state):
        model, posture_forest = state
        cfg = self.config()
        return [(self.seconds(),
                 lambda: simulate.run_simulation(cfg, model, posture_forest))]

    def check(self, state, rounds):
        failures = _same_rounds(rounds, lambda r: r[0].to_json())
        report = rounds[0][0].to_dict()
        cfg = self.config()
        failures += reference.check_ledger(report, self.seconds(),
                                           cfg.segments_per_ack)
        failures += reference.check_events(report["events"], cfg.scenario,
                                           cfg.validation_windows, ROOMS)
        failures += reference.check_activity(report, cfg.scenario,
                                             cfg.segments_per_ack)
        return failures

    def symbols_per_op(self, rounds):
        ledger = rounds[0][0].overhead
        return (ledger["raw_symbols"] + ledger["L"] * ledger["N_t"]) / self.seconds()

    def describe(self, rounds):
        report = rounds[0][0]
        return {"scenario": self.scenario(), "seconds": self.seconds(),
                "events": report.n_events, "uploads": report.uploads,
                "background_uploads": report.background_uploads,
                "activity_accuracy": report.activity_accuracy,
                "overhead": report.overhead}

    def layer_values(self, rounds, ops):
        reports = [r[0] for r in rounds]
        uploads = sum(r.uploads for r in reports)
        useful = sum(r.uploads - r.background_uploads for r in reports)
        return {
            "simulate.uploads": uploads / ops,
            "controller.events": sum(r.n_events for r in reports) / ops,
            "simulate.useful_upload_ratio": useful / uploads if uploads else 0.0,
        }


class SimGated(Simulation):
    """Short dwells: every activity visited several times, uploads dominate."""

    name = "sim_gated"
    STEPS = 21
    DWELL_S = 20

    def scenario(self):
        rng = random.Random(self.seed)
        order = []
        while len(order) < self.STEPS:
            perm = list(ACTIVITIES)
            rng.shuffle(perm)
            if order and perm[0] == order[-1]:
                perm.reverse()
            order += perm
        return ",".join(f"{a}:{self.DWELL_S}" for a in order[:self.STEPS])


class SimQuiet(Simulation):
    """Hour-scale dwells: the per-second acceleration uplink dominates."""

    name = "sim_quiet"
    DWELLS_S = (3600, 600, 1200)

    def scenario(self):
        picks = random.Random(self.seed).sample(ACTIVITIES, len(self.DWELLS_S))
        return ",".join(f"{a}:{d}" for a, d in zip(picks, self.DWELLS_S))


WORKLOADS = {w.name: w for w in (Train, EvalSweep, SimGated, SimQuiet)}
