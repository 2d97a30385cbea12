#!/usr/bin/env python3
"""Benchmark entry point: one workload per process.

    python3 bench/run.py --workload train --seed 1 --seconds 15 --trace 0

Builds the workload's inputs from ``--seed``, sets up several times,
runs whole rounds of the workload for ``--seconds``, checks every output
and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run is split into an
untraced half and a traced half, and the metrics are the per-layer ones.
BLAS and OpenMP are pinned to one thread before numpy loads.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "semcom")):
    sys.exit(f"no program to benchmark: {SRC}/semcom is missing")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402

SETUPS = 5      # set-ups per run; setup_s is their median

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("peak_rss_mb", "MB"),
    ("symbols_per_op", "symbol/op"),
)

# (metric, unit, kind, span name). Kinds: "incl" and "self" are inclusive
# and self seconds per operation of the timed phase, "calls" is calls per
# operation, "setup" is inclusive seconds within one set-up; the rest are
# derived in per_layer_metrics().
PER_LAYER = (
    ("tensor.conv3d_enc.fwd_s", "s/op", "incl", "tensor.conv3d_enc.fwd"),
    ("tensor.conv3d_enc.bwd_s", "s/op", "incl", "tensor.conv3d_enc.bwd"),
    ("tensor.conv3d_enc.gflop_per_s", "GFLOP/s", "gflop", None),
    ("tensor.conv3d_enc.grad_output_ratio", "ratio", "grad_outputs", None),
    ("tensor.conv3d_dec.fwd_s", "s/op", "incl", "tensor.conv3d_dec.fwd"),
    ("tensor.conv3d_dec.bwd_s", "s/op", "incl", "tensor.conv3d_dec.bwd"),
    ("tensor.maxpool3d.fwd_s", "s/op", "incl", "tensor.maxpool3d.fwd"),
    ("tensor.maxpool3d.bwd_s", "s/op", "incl", "tensor.maxpool3d.bwd"),
    ("tensor.relu.s", "s/op", "incl", "tensor.relu"),
    ("tensor.linear.s", "s/op", "incl", "tensor.linear"),
    ("tensor.sgd_step.s", "s/op", "incl", "tensor.sgd_step"),
    ("codec.encode.s", "s/op", "incl", "codec.encode"),
    ("codec.encode.calls", "calls/op", "calls", "codec.encode"),
    ("codec.encode.distinct_ratio", "ratio", "distinct", None),
    ("codec.decode.s", "s/op", "incl", "codec.decode"),
    ("codec.decode.calls", "calls/op", "calls", "codec.decode"),
    ("codec.sample_gradients.self_s", "s/op", "self", "codec.sample_gradients"),
    ("codec.train.self_s", "s/op", "self", "codec.train"),
    ("codec.evaluate.self_s", "s/op", "self", "codec.evaluate"),
    ("channel.gaussian_noise.s", "s/op", "incl", "channel.gaussian_noise"),
    ("channel.gaussian_noise.draws", "draws/op", "draws", None),
    ("channel.add_noise.self_s", "s/op", "self", "channel.add_noise"),
    ("channel.send.calls", "calls/op", "calls", "channel.send"),
    ("synthdata.render_frame.s", "s/op", "incl", "synthdata.render_frame"),
    ("synthdata.render_frame.calls", "calls/op", "calls", "synthdata.render_frame"),
    ("synthdata.make_codec_dataset.s", "s/setup", "setup",
     "synthdata.make_codec_dataset"),
    ("accel.encode_raw.s", "s/op", "incl", "accel.encode_raw"),
    ("accel.decode_raw.s", "s/op", "incl", "accel.decode_raw"),
    ("accel.gravity_filter.s", "s/op", "incl", "accel.gravity_filter"),
    ("accel.gravity_feature.s", "s/op", "incl", "accel.gravity_feature"),
    ("forest.predict.s", "s/op", "incl", "forest.predict"),
    ("forest.predict.calls", "calls/op", "calls", "forest.predict"),
    ("forest.train_forest.s", "s/setup", "setup", "forest.train_forest"),
    ("controller.observe.s", "s/op", "incl", "controller.observe"),
    ("controller.dispatch.s", "s/op", "incl", "controller.dispatch"),
    ("controller.events", "events/op", "output", None),
    ("simulate.run_simulation.self_s", "s/op", "self", "simulate.run_simulation"),
    ("simulate.uploads", "uploads/op", "output", None),
    ("simulate.useful_upload_ratio", "ratio", "output", None),
    ("simulate.ack_to_label_ms", "ms", "ack", None),
    ("weights_io.read_arrays.s", "s/setup", "setup", "weights_io.read_arrays"),
    ("trace.overhead_ratio", "ratio", "overhead", None),
    ("trace.unattributed_s", "s/op", "unattributed", None),
)

# Multiply-accumulates of the encoder Conv3d(3->4, k3) over a 3x16x112x112
# clip, per forward and per weight-gradient pass.
ENC_CONV_MACS = 4 * 3 * 27 * 16 * 112 * 112


@dataclass
class Phase:
    """Outcome of one timed phase: outputs of each whole round, per-chunk
    rates, and operation counts."""

    rounds: list = field(default_factory=list)
    rates: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    done: int = 0
    wall: float = 0.0


def measure(workload, state, seconds, min_rounds, on_round=None):
    """Run at least ``min_rounds`` whole rounds, then more while the next
    one is expected to end less than half a round past ``seconds``."""
    chunks = workload.chunks(state)
    phase = Phase()
    tried = 0
    start = perf_counter()
    while tried < min_rounds or (
            perf_counter() - start) * (1.0 + 0.5 / tried) < seconds:
        tried += 1
        if on_round is not None:
            on_round()
        outputs = []
        for ops, run in chunks:
            phase.attempted += ops
            t0 = perf_counter()
            try:
                out = run()
            except Exception:  # an operation failed: count it, keep measuring
                traceback.print_exc(file=sys.stderr)
                phase.failed += ops
                continue
            phase.rates.append(ops / (perf_counter() - t0))
            phase.done += ops
            outputs.append(out)
        if len(outputs) == len(chunks):
            phase.rounds.append(outputs)
    phase.wall = perf_counter() - start
    return phase


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def checked(workload, state, rounds):
    if not rounds:
        return ["no round completed"]
    return workload.check(state, rounds)


def untraced_run(workload, seconds):
    setup_times = []
    for _ in range(SETUPS):
        state = None    # free the previous set-up's inputs before the next
        t0 = perf_counter()
        state = workload.setup()
        setup_times.append(perf_counter() - t0)
    phase = measure(workload, state, seconds, workload.min_rounds)
    rss = peak_rss_mb()
    failures = checked(workload, state, phase.rounds)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": statistics.median(phase.rates) if phase.rates else 0.0,
        "peak_rss_mb": rss,
        "symbols_per_op": (workload.symbols_per_op(phase.rounds)
                           if phase.rounds else 0.0),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    detail = {"setup_times_s": setup_times, "chunk_rates": phase.rates,
              "rounds": len(phase.rounds), "wall_s": phase.wall,
              "outputs": workload.describe(phase.rounds) if phase.rounds else {}}
    return phase.attempted, phase.failed, failures, metrics, detail


def per_layer_metrics(workload, tracer, first, phase, plain_rate):
    """Per-layer metrics from the spans of the traced phase."""
    ops = phase.done
    calls, incl, self_time, root = spans.summarize(tracer.spans, first,
                                                   len(tracer.spans))
    _, setup_incl, _, _ = spans.summarize(tracer.spans, 0, first)
    traced_rate = statistics.median(phase.rates)
    unattributed = phase.wall - root
    enc_passes = (calls["tensor.conv3d_enc.fwd"] + calls["tensor.conv3d_enc.bwd"])
    enc_time = incl["tensor.conv3d_enc.fwd"] + incl["tensor.conv3d_enc.bwd"]
    nonzero, outputs = tracer.grad_outputs
    n_keys = len(tracer.encode_keys)
    derived = {
        "gflop": 2.0 * ENC_CONV_MACS * enc_passes / enc_time / 1e9 if enc_time else 0.0,
        "grad_outputs": nonzero / outputs if outputs else 0.0,
        "distinct": len(set(tracer.encode_keys)) / n_keys if n_keys else 0.0,
        "draws": tracer.draws / ops,
        "ack": spans.ack_to_label_ms(tracer.spans, first, len(tracer.spans)),
        "overhead": traced_rate / plain_rate,
        "unattributed": unattributed / ops,
    }
    outputs_values = workload.layer_values(phase.rounds, ops)
    metrics = {}
    for name, unit, kind, span in PER_LAYER:
        if kind == "incl":
            value = incl[span] / ops
        elif kind == "self":
            value = self_time[span] / ops
        elif kind == "calls":
            value = calls[span] / ops
        elif kind == "setup":
            value = setup_incl[span]
        elif kind == "output":
            value = outputs_values.get(name, 0.0)
        else:
            value = derived[kind]
        metrics[name] = {"value": float(value), "unit": unit}
    # self times plus unattributed time must account for the phase wall time
    accounted = sum(self_time.values()) + unattributed
    failures = []
    if abs(accounted - phase.wall) > 1e-6 * phase.wall:
        failures.append(f"span self times + unattributed = {accounted:.6f} s, "
                        f"phase wall time {phase.wall:.6f} s")
    return metrics, failures


def traced_run(workload, seconds):
    """Untraced half, then a traced set-up and a traced half."""
    state = workload.setup()
    plain = measure(workload, state, seconds / 2.0, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_state = workload.setup()
        first = tracer.mark()
        traced = measure(workload, traced_state, seconds / 2.0, 1,
                         tracer.next_round)
    finally:
        tracer.uninstall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(
        OUT_DIR, f"spans-{workload.name}-seed{workload.seed}.jsonl"))
    failures = checked(workload, traced_state, plain.rounds + traced.rounds)
    metrics = {}
    if plain.rates and traced.rates:
        metrics, span_failures = per_layer_metrics(
            workload, tracer, first, traced, statistics.median(plain.rates))
        failures += span_failures
    detail = {"plain_rates": plain.rates, "traced_rates": traced.rates,
              "traced_wall_s": traced.wall, "traced_ops": traced.done,
              "spans": len(tracer.spans), "first_phase_span": first}
    return (plain.attempted + traced.attempted, plain.failed + traced.failed,
            failures, metrics, detail)


def main(argv=None):
    parser = argparse.ArgumentParser(description="semcom benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workload = WORKLOADS[args.workload](args.seed)
    machine = machine_info()
    print("machine " + json.dumps(machine, sort_keys=True))
    if args.trace:
        outcome = traced_run(workload, args.seconds)
    else:
        outcome = untraced_run(workload, args.seconds)
    attempted, failed, failures, metrics, detail = outcome
    for line in failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": machine, "result": result,
                   "failures": failures, "detail": detail}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
