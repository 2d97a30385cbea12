"""Command-line interface.

Subcommands: gen-data, train-codec, train-forest, gradcheck, overhead,
simulate, eval. Every command exits 0 on success and nonzero with a
one-line diagnostic on failure; unknown flags print usage and exit 2.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import codec, config, forest, overhead, simulate, synthdata, weights_io
from .accel import POSTURE_NAMES, write_trace_csv
from .tensor import (Conv3d, ConvReLUPool3d, Linear, MaxPool3d, Network, ReLU,
                     Reshape, grad_check)

GRADCHECK_THRESHOLD = 1e-4


def _cmd_gen_data(args):
    scenario = synthdata.demo_scenario(seed=args.seed, dwell_s=args.dwell)
    os.makedirs(args.out, exist_ok=True)
    xyz, postures = synthdata.gen_accel_trace(scenario)
    write_trace_csv(os.path.join(args.out, "accel.csv"), xyz)
    with open(os.path.join(args.out, "postures.csv"), "w", encoding="utf-8") as fh:
        fh.write("second,posture\n")
        for sec, code in enumerate(postures.tolist()):
            fh.write(f"{sec},{POSTURE_NAMES[code]}\n")
    labels_path = os.path.join(args.out, "segment_labels.csv")
    with open(labels_path, "w", encoding="utf-8") as fh:
        fh.write("room,segment,activity\n")
        for room in synthdata.ROOMS:
            camera = synthdata.RoomCamera(scenario, room)
            weights_io.write_frames(
                os.path.join(args.out, f"{room}.semf"),
                (camera.frame(i) for i in range(camera.total_frames)))
            for g in range(camera.n_segments):
                activity = camera.activity_at_grid(g)
                name = ("none" if activity is None
                        else codec.ACTIVITY_NAMES[activity])
                fh.write(f"{room},{g},{name}\n")
    print(f"wrote accel.csv, postures.csv, segment_labels.csv and "
          f"{len(synthdata.ROOMS)} SEMF streams to {args.out}")
    return 0


def _cmd_train_codec(args):
    segments, labels = synthdata.make_codec_dataset(
        args.per_class, seed=args.data_seed)
    model = codec.CodecModel(seed=args.seed)
    cfg = codec.TrainConfig(epochs=args.epochs,
                            shuffle_seed=args.seed + 1,
                            noise_seed=args.seed + 2)
    history = codec.train(model, segments, labels, args.snr_train, cfg)
    for stats in history:
        print(stats.summary())
    codec.save_model(args.out, model)
    print(f"saved codec model to {args.out}")
    return 0


def _cmd_train_forest(args):
    u, y = synthdata.make_posture_dataset(args.per_class, seed=args.data_seed)
    model = forest.train_forest(u, y, n_trees=args.trees,
                                max_depth=args.max_depth, seed=args.seed)
    acc = float(np.mean(model.predict(u) == y))
    forest.save_forest(args.out, model)
    print(f"training accuracy {acc:.3f}; saved forest to {args.out}")
    return 0


def _cmd_gradcheck(args):
    rng = np.random.default_rng(args.seed)
    # the codec's own layer types: a fused input layer, then a decoder stage
    net = Network([
        ConvReLUPool3d(2, 3, (2, 2, 2), rng),
        Conv3d(3, 2, rng),
        ReLU(),
        MaxPool3d((2, 2, 2)),
        Reshape((-1,)),
        Linear(8, 3, rng),
    ])
    x = rng.uniform(0.0, 1.0, (2, 4, 8, 8))
    one_hot = np.zeros(3)
    one_hot[int(rng.integers(0, 3))] = 1.0
    err = grad_check(net, x, one_hot, epsilon=args.epsilon)
    if not err < GRADCHECK_THRESHOLD:
        raise ValueError(f"max relative gradient error {err:.3e} is not below "
                         f"{GRADCHECK_THRESHOLD:g}")
    print(f"max relative gradient error: {err:.3e}")
    return 0


def _cmd_overhead(args):
    # report's own defaults fill the counts not given
    given = {name: getattr(args, name) for name in ("L", "n_t", "n_b")
             if getattr(args, name) is not None}
    if args.paper:
        if given:
            raise ValueError("--paper takes no --L, --n-t or --n-b")
        rep = overhead.reference_report()
    else:
        rep = overhead.report(args.n_f, scenario="custom", **given)
    # fails before any output
    reduction = overhead.format_reduction_percent(overhead.reduction_vs_sc(rep))
    print(overhead.format_table(rep))
    print(f"HAR-SC-TC vs HAR-SC reduction: {reduction}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(overhead.to_json(rep))
        print(f"wrote {args.json}")
    return 0


def _cmd_simulate(args):
    cfg = config.load_config(args.config)
    if not cfg.codec_model or not cfg.forest_model:
        raise ValueError("config must set codec_model and forest_model paths")
    model = codec.load_model(cfg.codec_model)
    posture_forest = forest.load_forest(cfg.forest_model)
    report = simulate.run_simulation(cfg, model, posture_forest)
    with open(cfg.out_report, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    with open(cfg.out_events, "w", encoding="utf-8") as fh:
        for line in report.event_lines:
            fh.write(line + "\n")
    print(f"events: {report.n_events}  uploads: {report.uploads}  "
          f"skipped uploads: {report.skipped_uploads}  "
          f"posture accuracy (settled): {report.posture['settled_accuracy']}  "
          f"activity accuracy: {report.activity_accuracy}")
    print("detections (count, accuracy) by activity x room:")
    for activity, rooms in report.activity_table.items():
        cells = []
        for room in synthdata.ROOMS:
            cell = rooms[room]
            if cell["count"]:
                cells.append(f"{room}: {cell['count']} "
                             f"({100.0 * cell['correct'] / cell['count']:.0f}%)")
            else:
                cells.append(f"{room}: 0")
        print(f"  {activity:<10} {'  '.join(cells)}")
    print(f"wrote {cfg.out_report} and {cfg.out_events}")
    return 0


def _cmd_eval(args):
    if args.seeds < 1:
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    model = codec.load_model(args.model)
    segments, labels = synthdata.make_codec_dataset(
        args.per_class, seed=args.data_seed)
    rows = []
    for snr in args.snr_test:
        accs = [codec.evaluate(model, segments, labels, snr, noise_seed=s)
                for s in range(args.seeds)]
        rows.append((snr, float(np.mean(accs)), float(np.std(accs))))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("snr_test_db,accuracy_mean,accuracy_std\n")
        for snr, mean, std in rows:
            fh.write(f"{snr},{mean:.6f},{std:.6f}\n")
    for snr, mean, std in rows:
        print(f"SNR {snr:>6.1f} dB: accuracy {mean:.3f} (+/- {std:.3f})")
    print(f"wrote {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="semcom",
        description="posture-gated semantic video transmission simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="emit synthetic traces/frames/labels")
    p.add_argument("--out", default="semcom_data")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dwell", type=int, default=8,
                   help="seconds per activity in the demo scenario")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train-codec", help="train the video codec end to end")
    p.add_argument("--out", default="codec.semw")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--per-class", type=int, default=40)
    p.add_argument("--epochs", type=int, default=codec.TrainConfig.epochs)
    p.add_argument("--snr-train", type=float, default=25.0)
    p.set_defaults(func=_cmd_train_codec)

    p = sub.add_parser("train-forest", help="train the posture forest")
    p.add_argument("--out", default="forest.semw")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--per-class", type=int, default=60)
    p.add_argument("--trees", type=int, default=forest.DEFAULT_N_TREES)
    p.add_argument("--max-depth", type=int, default=forest.DEFAULT_MAX_DEPTH)
    p.set_defaults(func=_cmd_train_forest)

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("overhead", help="overhead table (Table-1 style)")
    ledger = p.add_mutually_exclusive_group(required=True)
    ledger.add_argument("--paper", action="store_true",
                        help="use the reference-scenario constants")
    ledger.add_argument("--n-f", type=int,
                        help="feature frames of a custom ledger")
    p.add_argument("--L", type=int)
    p.add_argument("--n-t", type=int)
    p.add_argument("--n-b", type=int)
    p.add_argument("--json", default="")
    p.set_defaults(func=_cmd_overhead)

    p = sub.add_parser("simulate", help="run a configured simulation")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("eval", help="accuracy-vs-SNR sweep (Fig.-5 style CSV)")
    p.add_argument("--model", required=True)
    p.add_argument("--snr-test", type=float, nargs="+",
                   default=overhead.REFERENCE_SNR_GRID)
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--per-class", type=int, default=20)
    p.add_argument("--data-seed", type=int, default=123)
    p.add_argument("--out", default="eval_snr.csv")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        where = "" if exc.filename is None else f": {exc.filename}"
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 1
    except (ValueError, weights_io.ContainerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
