#!/usr/bin/env python3
"""End-to-end demo: train both models, run a gated simulation, print the
report summary and the Table-3-style detection matrix.

Uses a short all-activities scenario by default; pass --noiseless for the
closed-loop sanity configuration (noiseless links and generators).
"""
import argparse
import math

from semcom import codec, forest, simulate, synthdata
from semcom.config import SimConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--per-class", type=int, default=40)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--snr", type=float, default=25.0)
    parser.add_argument("--noiseless", action="store_true")
    parser.add_argument("--scenario", default=(
        "sleeping:10,resting:10,dress-up:10,eating:10,calling:10,sleeping:10"))
    parser.add_argument("--out-report", default="demo_report.json")
    args = parser.parse_args()

    print("training posture forest...")
    u, y = synthdata.make_posture_dataset(80, seed=1)
    posture_forest = forest.train_forest(u, y, seed=2)

    print("training video codec (this is the slow part)...")
    segments, labels = synthdata.make_codec_dataset(args.per_class, seed=0)
    model = codec.CodecModel(seed=args.seed)
    history = codec.train(model, segments, labels,
                          math.inf if args.noiseless else args.snr)
    for stats in history:
        print(f"  {stats.summary()}")
    print(f"trained in {sum(h.wall_s for h in history):.0f}s; "
          f"final train accuracy {history[-1].accuracy:.3f}")

    cfg = SimConfig(
        seed=args.seed,
        scenario=args.scenario,
        video_snr_db=math.inf if args.noiseless else args.snr,
        accel_snr_db=math.inf if args.noiseless else args.snr,
        accel_noise_g=0.0 if args.noiseless else 0.05,
        pixel_noise=0.0 if args.noiseless else 0.005,
        position_jitter=0 if args.noiseless else 4,
    )
    report = simulate.run_simulation(cfg, model, posture_forest)

    print(f"\nevents: {report.n_events}   uploads: {report.uploads} "
          f"(background: {report.background_uploads}, "
          f"skipped: {report.skipped_uploads})")
    print(f"posture accuracy: settled {report.posture['settled_accuracy']}, "
          f"raw {report.posture['raw_accuracy']:.3f}")
    print(f"activity accuracy: {report.activity_accuracy}")
    print("\ndetections (count, accuracy) by activity x room:")
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
    with open(args.out_report, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    print(f"\nwrote {args.out_report}")


if __name__ == "__main__":
    main()
